//! A replayed functional timeline closes the windows a direct run
//! closes. Functional timelines tick in retired instructions, and each
//! captured L2 event carries the index of the instruction that raised
//! it, so a replay needs nothing from the hub at capture time: the
//! streams here are captured before any hub exists, and replayed under a
//! 16-instruction window that makes every cell's ring coarsen.
//!
//! The global telemetry recorder is install-once per process, so the
//! whole scenario lives in ONE `#[test]` function.

use adaptive_cache::{AdaptiveConfig, DipConfig, MultiConfig, SbarConfig};
use cache_sim::{Geometry, PolicyKind};
use cpu_model::{capture_functional, replay_l2, run_functional, CpuConfig, Hierarchy};
use experiments::{FaultSpec, L2Kind};
use workloads::primary_suite;

const INSTS: u64 = 60_000;

/// A window far smaller than the ring's capacity allows for `INSTS`.
const WINDOW: u64 = 16;

/// Every organisation the functional sweeps replay, as in
/// `tests/replay.rs`.
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

#[test]
fn a_replay_closes_the_windows_of_a_direct_run() {
    let cpu = CpuConfig::paper_default();
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    let benches: Vec<_> = primary_suite().into_iter().take(2).collect();
    let traces: Vec<_> = benches
        .iter()
        .map(|b| capture_functional(&cpu, b.spec.generator(), INSTS))
        .collect();

    let cfg = ac_telemetry::TelemetryConfig::default().with_timeline_window(WINDOW);
    let hub = ac_telemetry::Telemetry::install(cfg)
        .expect("this test binary must be the only global installer");

    let mut cells = 0;
    for (bench, trace) in benches.iter().zip(&traces) {
        for kind in kinds() {
            let mut direct = Hierarchy::new(&cpu, kind.build(geom));
            let direct_stats = run_functional(&mut direct, bench.spec.generator(), INSTS);
            let replayed_stats = replay_l2(trace, &mut kind.build(geom));
            assert_eq!(
                direct_stats,
                replayed_stats,
                "{} {}",
                bench.name,
                kind.label()
            );
            cells += 1;
        }
    }

    // Each cell attached its direct timeline, then its replayed one.
    let timelines = hub.timelines();
    assert_eq!(timelines.len(), 2 * cells);
    for pair in timelines.chunks(2) {
        let (d, r) = (&pair[0], &pair[1]);
        assert_eq!(d.label, r.label);
        assert_eq!((d.unit, r.unit), ("instructions", "instructions"));
        assert!(
            d.windows[0].end_tick > WINDOW,
            "{}: the ring never coarsened",
            d.label
        );
        assert_eq!(d.windows.len(), r.windows.len(), "{}", d.label);
        for (dw, rw) in d.windows.iter().zip(&r.windows) {
            // dt_us is wall-clock and the only field allowed to differ.
            assert_eq!(dw.start_tick, rw.start_tick, "{}", d.label);
            assert_eq!(dw.end_tick, rw.end_tick, "{}", d.label);
            assert_eq!(dw.instructions, rw.instructions, "{}", d.label);
            assert_eq!(dw.d, rw.d, "{}", d.label);
            assert_eq!(dw.gauges, rw.gauges, "{}", d.label);
        }
        for tl in [d, r] {
            let insts: u64 = tl.windows.iter().map(|w| w.instructions).sum();
            assert_eq!(insts, INSTS, "{}", tl.label);
        }
    }
}
