//! Guards the disabled-telemetry fast path: with no recorder installed,
//! every instrumentation entry point must complete without touching the
//! allocator. This is what keeps the default `cachesim` run at baseline
//! speed — the CI "disabled-telemetry smoke check".
//!
//! This test binary must never install a global recorder, and must stay
//! the only test in its file so no sibling thread allocates while the
//! counting window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_instrumentation_is_allocation_free() {
    assert!(!ac_telemetry::enabled(), "this test must run uninstalled");

    // Warm anything lazily initialised outside the instrumented path.
    ac_telemetry::now_us();

    // The harness itself (stdout capture, watchdog) occasionally
    // allocates from another thread mid-window. The instrumented loop is
    // deterministic, so one clean window out of a few attempts proves
    // the path allocation-free; a real allocation inside the loop would
    // fail every attempt.
    let mut observed = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..10_000u32 {
            ac_telemetry::counter_add("noop_counter_total", 1);
            ac_telemetry::counter_add_labeled("noop_labeled_total", "label", 2);
            ac_telemetry::gauge_set("noop_gauge", 1.0);
            ac_telemetry::gauge_set_labeled("noop_labeled_gauge", "shard0", 1.0);
            ac_telemetry::decision(|| ac_telemetry::DecisionEvent::Imitation {
                set: i,
                component: ac_telemetry::Comp::A,
                case: ac_telemetry::EvictionCase::SameVictim,
            });
            let mut span = ac_telemetry::span("noop", || format!("span {i}"));
            span.set_attr("frontend_skipped", || format!("{i}"));
            drop(span);
            ac_telemetry::flush_now();
            // Timeline construction declines without running the label
            // closure, and run-scope guards stay inert.
            let tl = ac_telemetry::Timeline::from_hub("accesses", || format!("run {i}"));
            assert!(tl.is_none(), "from_hub must decline with no hub installed");
            let scope = ac_telemetry::timeline::run_scope("cell 0:applu");
            drop(scope);
        }
        observed = observed.min(ALLOCS.load(Ordering::SeqCst) - before);
        if observed == 0 {
            break;
        }
    }
    assert_eq!(
        observed, 0,
        "disabled-path instrumentation must not allocate"
    );
}
