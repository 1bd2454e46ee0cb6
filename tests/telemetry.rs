//! End-to-end telemetry integration: install the global hub once, drive
//! real cache organisations through it, and check the recorded decision
//! events against the caches' own counters.
//!
//! The global recorder is install-once per process, so everything that
//! depends on the global hub lives in ONE `#[test]` function — Rust runs
//! each integration-test binary in its own process, but tests within a
//! binary share it.

use ac_telemetry::{DecisionEvent, EvictionCase, Telemetry, TelemetryConfig};
use adaptive_cache::{AdaptiveCache, AdaptiveConfig, SbarCache, SbarConfig};
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
fn decision_stream_matches_internal_counters() {
    // Sample rate 1 (record everything), ring large enough that no event
    // from the workloads below is overwritten.
    let cfg = TelemetryConfig {
        ring_capacity: 1 << 21,
        ..TelemetryConfig::default()
    };
    let hub = Telemetry::install(cfg).expect("this test binary must be the only global installer");
    assert!(ac_telemetry::enabled());
    assert!(ac_telemetry::events_enabled());

    // --- AdaptiveCache: every imitation decision must appear in the
    // event stream, split by component exactly like the Figure-7
    // sampling counters.
    let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
    let mut cache = AdaptiveCache::new(geom, AdaptiveConfig::paper_full_tags(), 7);
    for i in 0..200_000u64 {
        cache.access(hot_scan_block(i), false);
    }

    let (total_a, total_b) = cache.imitation_totals();
    assert!(total_a + total_b > 0, "workload must force replacements");

    let events = hub.events();
    let mut seen_a = 0u64;
    let mut seen_b = 0u64;
    let mut history_updates = 0u64;
    for rec in &events {
        match rec.event {
            DecisionEvent::Imitation {
                component, case, ..
            } => {
                match component {
                    ac_telemetry::Comp::A => seen_a += 1,
                    ac_telemetry::Comp::B => seen_b += 1,
                }
                assert_ne!(
                    case,
                    EvictionCase::AliasFallback,
                    "full tags can never alias"
                );
            }
            DecisionEvent::HistoryUpdate {
                a_missed, b_missed, ..
            } => {
                assert_ne!(a_missed, b_missed, "only exclusive misses train");
                history_updates += 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        (seen_a, seen_b),
        (total_a, total_b),
        "recorded imitation events must match AdaptiveCache's counters exactly"
    );
    assert!(history_updates > 0, "exclusive misses must be streamed");
    assert_eq!(
        hub.events_seen(),
        hub.events_recorded(),
        "sample rate 1 records everything"
    );

    // --- SBAR: leader votes carry the selector state; follower
    // replacements are tagged with the follower case.
    let mut sbar = SbarCache::new(geom, SbarConfig::paper_default(), 7);
    let before = hub.events().len();
    for i in 0..200_000u64 {
        sbar.access(hot_scan_block(i), false);
    }
    let sbar_events: Vec<_> = hub.events().into_iter().skip(before).collect();
    let leader_votes = sbar_events
        .iter()
        .filter(|r| matches!(r.event, DecisionEvent::LeaderVote { .. }))
        .count();
    let follower_evictions = sbar_events
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                DecisionEvent::Imitation {
                    case: EvictionCase::Follower,
                    ..
                }
            )
        })
        .count();
    assert!(leader_votes > 0, "leader sets must vote on this mix");
    assert!(follower_evictions > 0, "follower sets must replace");
    for rec in &sbar_events {
        if let DecisionEvent::LeaderVote { set, psel, .. } = rec.event {
            assert!(sbar.is_leader(set as usize), "votes come from leaders");
            assert!(psel < 1 << 10, "psel stays inside its 10-bit range");
        }
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
    assert!(summary.contains("\"events\""));

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

/// Sampling rate 0 must suppress the stream entirely — checked on a
/// local (non-global) hub so it composes with the test above.
#[test]
fn sample_rate_zero_emits_nothing_through_recorder() {
    let hub = Telemetry::new(TelemetryConfig::default().with_sample_rate(0));
    use ac_telemetry::Recorder;
    for i in 0..1000 {
        hub.decision(DecisionEvent::Imitation {
            set: i,
            component: ac_telemetry::Comp::A,
            case: EvictionCase::SameVictim,
        });
    }
    assert_eq!(hub.events().len(), 0);
    assert_eq!(hub.events_recorded(), 0);
    assert!(!hub.events_enabled());
}
