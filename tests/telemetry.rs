//! End-to-end telemetry integration: install the global hub once, drive
//! a real cache organisation and a timed cell through it, and check the
//! counters, spans, exports and timeline the hub records.
//!
//! The global recorder is install-once per process, so everything that
//! depends on the global hub lives in ONE `#[test]` function — Rust runs
//! each integration-test binary in its own process, but tests within a
//! binary share it.

use ac_telemetry::{Telemetry, TelemetryConfig};
use adaptive_cache::{AdaptiveCache, AdaptiveConfig};
use cache_sim::{BlockAddr, CacheModel, Geometry};
use cpu_model::{CpuConfig, Pipeline};

/// An LFU-friendly hot/scan mix that forces real replacements (same
/// shape as the unit tests in `adaptive.rs`).
fn hot_scan_block(i: u64) -> BlockAddr {
    let group = i / 4;
    if i % 4 < 3 {
        BlockAddr::new(group % 768)
    } else {
        BlockAddr::new(768 + group % 8192)
    }
}

#[test]
fn the_global_hub_records_counters_spans_and_timelines() {
    let hub = Telemetry::install(TelemetryConfig::default())
        .expect("this test binary must be the only global installer");
    assert!(ac_telemetry::enabled());

    let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
    let mut cache = AdaptiveCache::new(geom, AdaptiveConfig::paper_full_tags(), 7);
    for i in 0..200_000u64 {
        cache.access(hot_scan_block(i), false);
    }

    // --- Cache stats flush: the telemetry counters mirror CacheStats.
    cache.flush_telemetry();
    let label = cache.label();
    assert_eq!(
        hub.counter_value("cache_misses_total", &label),
        cache.stats().misses
    );
    assert_eq!(
        hub.counter_value("cache_accesses_total", &label),
        cache.stats().accesses
    );

    // --- Spans recorded through the global API show up in the hub.
    {
        let _span = ac_telemetry::span("test", || "integration_span".to_string());
        std::hint::black_box(());
    }
    assert!(hub
        .span_totals()
        .iter()
        .any(|(name, cat, count, _)| name == "integration_span" && *cat == "test" && *count == 1));

    // --- Exports stay consistent with what was recorded.
    let prom = hub.prometheus();
    assert!(prom.contains("ac_cache_misses_total"));
    let summary = hub.summary_json();
    assert!(summary.contains("\"cache_misses_total\":{"), "{summary}");
    assert!(!summary.contains("\"events\""), "{summary}");

    // --- A timed cell records the pipeline's "cycles" timeline: window
    // boundaries in retirement cycles, the instructions retired and the
    // L2 misses inside each window, and store-buffer occupancy at each
    // boundary. Pinned to values recorded before the timing model's
    // per-instruction path was rewritten (wall-clock `dt_us` is the one
    // field left out).
    let bench = workloads::primary_suite()
        .into_iter()
        .find(|b| b.name == "applu")
        .unwrap();
    let l2 = AdaptiveCache::new(
        Geometry::new(512 * 1024, 64, 8).unwrap(),
        AdaptiveConfig::paper_full_tags(),
        7,
    );
    let stats =
        Pipeline::new(CpuConfig::paper_default(), l2).run(bench.spec.generator(), TIMED_INSTS);
    let timelines = hub.timelines();
    let timed: Vec<_> = timelines.iter().filter(|t| t.unit == "cycles").collect();
    assert_eq!(timed.len(), 1, "one timed cell, one cycles timeline");
    let windows: Vec<_> = timed[0]
        .windows
        .iter()
        .map(|w| (w.end_tick, w.instructions, w.gauges.sb_busy, w.d.misses))
        .collect();
    assert_eq!(windows.last().map(|w| w.0), Some(stats.cycles));
    assert_eq!(windows.iter().map(|w| w.1).sum::<u64>(), TIMED_INSTS);
    assert_eq!(windows, TIMED_WINDOWS);
}

/// Instructions of the timed cell whose timeline is pinned.
const TIMED_INSTS: u64 = 100_000;

/// `(end tick, instructions, sb_busy, L2 misses)` of every window of
/// the timed cell's timeline.
const TIMED_WINDOWS: &[(u64, u64, u32, u64)] = &[
    (65644, 10461, 0, 566),
    (131158, 10959, 0, 551),
    (196611, 11475, 4, 571),
    (262228, 11361, 0, 563),
    (327818, 11560, 0, 582),
    (393374, 11649, 4, 578),
    (458776, 11469, 4, 573),
    (524376, 11337, 1, 579),
    (580366, 9729, 4, 486),
];
