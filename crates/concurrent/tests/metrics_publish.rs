//! Per-shard occupancy and the shared PSEL must be visible through the
//! telemetry hub — and therefore in `metrics.prom`, which is exactly
//! this hub's Prometheus exposition. Runs in its own process because a
//! global recorder installs once per process.

use ac_concurrent::{run_threads, ConcurrentAdaptiveCache, ConcurrentMode, StreamKind};
use ac_telemetry::{Telemetry, TelemetryConfig};
use adaptive_cache::SbarConfig;
use cache_sim::Geometry;

#[test]
fn shard_occupancy_and_psel_reach_the_metrics_exposition() {
    let hub = Telemetry::install(TelemetryConfig::default()).expect("first install in process");

    let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
    let cache = ConcurrentAdaptiveCache::new(
        geom,
        ConcurrentMode::Sbar(SbarConfig::paper_default()),
        4,
        7,
    );
    let report = run_threads(
        &cache,
        StreamKind::Zipf {
            blocks: 4_000,
            theta: 0.8,
        },
        16,
        7,
        2,
        100_000,
    );
    assert_eq!(report.issued, 200_000);

    // run_threads published at least once after the drive, with every
    // shard unlocked — all four occupancy gauges must be present.
    let gauges = hub.gauges();
    let occupancy = &gauges["concurrent.shard_occupancy"];
    for shard in ["shard0", "shard1", "shard2", "shard3"] {
        let v = occupancy
            .get(shard)
            .unwrap_or_else(|| panic!("{shard} gauge missing: {occupancy:?}"));
        assert!(
            (0.0..=1.0).contains(v),
            "{shard} occupancy {v} out of range"
        );
        assert!(*v > 0.0, "{shard} saw 100k+ zipf ops; it cannot be empty");
    }
    assert!(
        gauges.contains_key("concurrent.psel"),
        "sbar mode publishes the shared selector"
    );

    // The per-thread counts reach the same exposition: 2 threads x 100k
    // ops, each thread adding 65 536 and then the remaining 34 464.
    assert_eq!(hub.counter_value("concurrent.thread_ops", ""), 200_000);
    assert_eq!(hub.counter_value("concurrent.thread_hits", ""), report.hits);

    // And the Prometheus exposition carries all of it.
    let prom = hub.prometheus();
    assert!(
        prom.contains("ac_concurrent_shard_occupancy{label=\"shard0\"}"),
        "{prom}"
    );
    assert!(prom.contains("ac_concurrent_psel"), "{prom}");
    assert!(prom.contains("ac_concurrent_thread_ops"), "{prom}");
}
