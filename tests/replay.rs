//! End-to-end check of front-end memoisation: a fig03-style sweep run
//! directly (the front end driving each organisation behind a
//! `Hierarchy`, `cpu_model::run_functional`) and through the replay
//! cache (captured once per benchmark, replayed per cell) must produce
//! byte-identical results — same serialised `MpkiResult`s and the same
//! telemetry timeline windows (wall-clock fields excluded). The same
//! sweep stays identical under a zero `AC_REPLAY_CACHE_MB` cap. (What
//! the cache keys a capture by is checked in `tests/replay_key.rs`.)
//!
//! The global telemetry recorder is install-once per process and
//! `AC_REPLAY_CACHE_MB` is process-global too, so the whole scenario
//! lives in ONE `#[test]` function running cells sequentially.

use adaptive_cache::{AdaptiveConfig, DipConfig, MultiConfig, SbarConfig};
use cache_sim::{Geometry, PolicyKind};
use cpu_model::{run_functional, CpuConfig, Hierarchy};
use experiments::runner::MpkiResult;
use experiments::{replay_cache, run_functional_l2, FaultSpec, L2Kind, PAPER_L2};
use workloads::primary_suite;

const INSTS: u64 = 60_000;

/// The organisations under test: every organisation the functional
/// sweeps replay — the headline trio, the partial-tag adaptive
/// configuration (exercises the RNG aliasing path), SBAR, DIP and the
/// five-policy cache in their paper configurations — and a benign
/// deterministic fault wrapper (address-line flips, no panics).
fn kinds() -> Vec<L2Kind> {
    vec![
        L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        L2Kind::Adaptive(AdaptiveConfig::paper_default()),
        L2Kind::Plain(PolicyKind::LFU5),
        L2Kind::Plain(PolicyKind::Lru),
        L2Kind::Sbar(SbarConfig::paper_default()),
        L2Kind::Dip(DipConfig::paper_default()),
        L2Kind::Multi(MultiConfig::paper_five_policy()),
        L2Kind::Faulty {
            fault: FaultSpec {
                flip_tag_mask: 0x1,
                flip_tag_every: Some(97),
                ..FaultSpec::default()
            },
            inner: Box::new(L2Kind::Plain(PolicyKind::Lru)),
        },
    ]
}

fn counter(hub: &ac_telemetry::Telemetry, name: &str) -> u64 {
    hub.counters()
        .get(name)
        .map(|m| m.values().sum())
        .unwrap_or(0)
}

fn run_sweep() -> Vec<MpkiResult> {
    let mut out = Vec::new();
    for b in primary_suite().iter().take(2) {
        for k in kinds() {
            out.push(run_functional_l2(b, &k, PAPER_L2, INSTS).expect("paper geometry is valid"));
        }
    }
    out
}

/// The sweep's cells with the front end run in each of them.
fn run_direct() -> Vec<MpkiResult> {
    let config = CpuConfig::paper_default();
    let geom = Geometry::new(PAPER_L2.0, PAPER_L2.1, PAPER_L2.2).unwrap();
    let mut out = Vec::new();
    for b in primary_suite().iter().take(2) {
        for k in kinds() {
            let mut hierarchy = Hierarchy::new(&config, k.build(geom));
            out.push(MpkiResult {
                benchmark: b.name.to_string(),
                l2: k.label(),
                stats: run_functional(&mut hierarchy, b.spec.generator(), INSTS),
            });
        }
    }
    out
}

#[test]
fn sweep_is_byte_identical_with_and_without_replay() {
    // Timelines on, with a window small enough that the ring closes
    // several windows per cell, from each event's instruction index.
    let cfg = ac_telemetry::TelemetryConfig::default().with_timeline_window(1 << 12);
    let hub = ac_telemetry::Telemetry::install(cfg)
        .expect("this test binary must be the only global installer");

    let direct = run_direct();
    let direct_timelines = hub.timelines();

    replay_cache::clear();
    let replayed = run_sweep();
    let all_timelines = hub.timelines();

    // Results must serialise to the same bytes.
    let direct_json = serde_json::to_string(&direct).unwrap();
    let replayed_json = serde_json::to_string(&replayed).unwrap();
    assert_eq!(direct_json, replayed_json, "replayed sweep diverged");

    // Each mode attached one timeline per cell, in the same order, with
    // the same labels and the same windows (dt_us is wall-clock and the
    // only field allowed to differ).
    let replay_timelines = &all_timelines[direct_timelines.len()..];
    assert_eq!(direct_timelines.len(), direct.len());
    assert_eq!(replay_timelines.len(), direct.len());
    for (d, r) in direct_timelines.iter().zip(replay_timelines) {
        assert_eq!(d.label, r.label);
        assert_eq!(d.unit, r.unit);
        assert_eq!(d.windows.len(), r.windows.len(), "{}", d.label);
        for (dw, rw) in d.windows.iter().zip(&r.windows) {
            assert_eq!(dw.start_tick, rw.start_tick, "{}", d.label);
            assert_eq!(dw.end_tick, rw.end_tick, "{}", d.label);
            assert_eq!(dw.instructions, rw.instructions, "{}", d.label);
            assert_eq!(dw.d, rw.d, "{}", d.label);
            assert_eq!(dw.gauges, rw.gauges, "{}", d.label);
        }
        // Conservation: the windows partition the run, so their
        // instruction counts must sum to the budget in both modes.
        let insts: u64 = d.windows.iter().map(|w| w.instructions).sum();
        assert_eq!(insts, INSTS, "{}", d.label);
        assert_eq!(
            r.windows.iter().map(|w| w.instructions).sum::<u64>(),
            INSTS,
            "{}",
            r.label
        );
    }

    // The replay pass captured once per benchmark and hit the cache for
    // every other cell.
    let captures: u64 = hub
        .counters()
        .get("replay_cache_captures_total")
        .map(|m| m.values().sum())
        .unwrap_or(0);
    let hits: u64 = hub
        .counters()
        .get("replay_cache_hits_total")
        .map(|m| m.values().sum())
        .unwrap_or(0);
    assert_eq!(captures, 2, "one capture per benchmark");
    assert_eq!(
        hits as usize,
        replayed.len() - 2,
        "every other cell replays"
    );

    // Memoised cells advertise themselves on their run spans.
    let spans = hub.spans();
    let skipped = spans
        .iter()
        .filter(|s| {
            s.args
                .iter()
                .any(|(k, v)| *k == "frontend_skipped" && v == "true")
        })
        .count();
    assert_eq!(skipped, replayed.len() - 2, "cache hits mark their spans");

    // `AC_REPLAY_CACHE_MB` is re-read on every publish. A zero cap
    // evicts every capture as soon as it is published, so every cell
    // captures its own stream, and the results do not change...
    std::env::set_var("AC_REPLAY_CACHE_MB", "0");
    let evictions_before = counter(hub, "replay_cache_evictions_total");
    replay_cache::clear();
    let capped = run_sweep();
    assert_eq!(
        serde_json::to_string(&capped).unwrap(),
        direct_json,
        "zero-cap sweep diverged"
    );
    assert_eq!(
        counter(hub, "replay_cache_evictions_total") - evictions_before,
        capped.len() as u64,
        "a zero cap evicts every published capture"
    );
    // ...and removing the variable stops evictions in the same process.
    std::env::remove_var("AC_REPLAY_CACHE_MB");
    let evictions_mid = counter(hub, "replay_cache_evictions_total");
    replay_cache::clear();
    assert_eq!(serde_json::to_string(&run_sweep()).unwrap(), direct_json);
    assert_eq!(
        counter(hub, "replay_cache_evictions_total"),
        evictions_mid,
        "the default cap does not evict this working set"
    );
}
