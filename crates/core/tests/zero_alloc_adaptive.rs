//! Every adaptive organisation's access path — directory probes, history
//! update, and the fused Algorithm-1 victim scan — must not allocate in
//! steady state (the Case-1/Case-2 candidate buffer is a stack array).
//!
//! Own test binary: `#[global_allocator]` is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, DipCache, DipConfig, MultiAdaptiveCache, MultiConfig, SbarCache,
    SbarConfig,
};
use cache_sim::{BlockAddr, CacheModel, Geometry};

struct CountingAlloc;

thread_local! {
    // Counted per thread, not process-wide: the libtest harness thread
    // keeps allocating briefly after spawning the test thread, and those
    // stray allocations would otherwise race into an open measurement
    // window (see `cache-sim/tests/zero_alloc.rs`).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect with no influence on the returned memory. `try_with`
// skips counting during TLS teardown, when the key is no longer usable.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[inline]
fn stream_block(i: u64) -> BlockAddr {
    let group = i / 4;
    if i % 4 < 3 {
        BlockAddr::new(group % 768)
    } else {
        BlockAddr::new(768 + group % 16_384)
    }
}

#[test]
fn adaptive_million_access_loop_allocates_nothing() {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    let caches: Vec<(&str, Box<dyn CacheModel>)> = vec![
        (
            "adaptive full",
            Box::new(AdaptiveCache::new(
                geom,
                AdaptiveConfig::paper_full_tags(),
                7,
            )),
        ),
        (
            "adaptive 8-bit",
            Box::new(AdaptiveCache::new(geom, AdaptiveConfig::paper_default(), 7)),
        ),
        (
            "sbar",
            Box::new(SbarCache::new(geom, SbarConfig::paper_default(), 7)),
        ),
        (
            "sbar partial",
            Box::new(SbarCache::new(geom, SbarConfig::paper_partial_tags(), 7)),
        ),
        (
            "multi5",
            Box::new(MultiAdaptiveCache::new(
                geom,
                MultiConfig::paper_five_policy(),
                7,
            )),
        ),
        (
            "dip",
            Box::new(DipCache::new(geom, DipConfig::paper_default(), 7)),
        ),
    ];
    for (name, mut cache) in caches {
        for i in 0..50_000 {
            cache.access(stream_block(i), i % 9 == 0);
        }
        let before = allocations();
        let mut hits = 0u64;
        for i in 0..1_000_000u64 {
            hits += u64::from(cache.access(stream_block(i), i % 9 == 0).hit);
        }
        assert!(hits > 0);
        assert_eq!(
            allocations() - before,
            0,
            "{name} access loop must not allocate"
        );
    }
}
