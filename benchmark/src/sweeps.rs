//! The two halves of figure regeneration, each cell run on one thread
//! through the experiment runner's public entry points.
//!
//! Cells run sequentially: on a small host the parallel runner's pass
//! times spread far wider than sequential ones, so its scaling would be
//! reported as noise.

use crate::digest::{self, CellDigests};
use crate::harness::{repeat_setup, run_passes, Ctx, Outcome};
use crate::meter::Meter;
use adaptive_cache::{AdaptiveConfig, DipConfig, MultiConfig, SbarConfig};
use cache_sim::{Geometry, PolicyKind};
use cpu_model::{run_functional, CpuConfig, Hierarchy};
use experiments::replay_cache;
use experiments::runner::{run_functional_l2, run_timed, L2Kind, PAPER_L2};
use experiments::ExperimentError;
use workloads::Benchmark;

/// Instructions per functional cell (the figures' default `AC_INSTS`).
pub const FUNCTIONAL_INSTS: u64 = 2_000_000;

/// Instructions per timed cell.
pub const TIMED_INSTS: u64 = 500_000;

/// How the sweeps' speed follows the reference kernel's (see
/// [`crate::meter`]).
pub const ELASTICITY: f64 = 1.5;

/// The functional sweep's L2 organisations: the headline trio, the
/// 8-bit partial-tag adaptive cache, SBAR, DIP and the five-policy
/// tournament (Figures 3, 5 and 8, Sections 4.4 and 4.7).
pub fn functional_orgs() -> Vec<(&'static str, L2Kind)> {
    vec![
        ("lru", L2Kind::Plain(PolicyKind::Lru)),
        ("lfu5", L2Kind::Plain(PolicyKind::LFU5)),
        (
            "adaptive_full",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        (
            "adaptive_8bit",
            L2Kind::Adaptive(AdaptiveConfig::paper_default()),
        ),
        ("sbar", L2Kind::Sbar(SbarConfig::paper_default())),
        ("dip", L2Kind::Dip(DipConfig::paper_default())),
        ("multi5", L2Kind::Multi(MultiConfig::paper_five_policy())),
    ]
}

/// The timed sweep's L2 organisations (Figures 4, 6, 9 and 10).
pub fn timed_orgs() -> Vec<(&'static str, L2Kind)> {
    vec![
        ("lru", L2Kind::Plain(PolicyKind::Lru)),
        (
            "adaptive_full",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
    ]
}

/// The primary suite with every generator seed perturbed by the run's
/// seed (seed 0 runs the suite as committed).
pub fn suite(ctx: &Ctx) -> Vec<Benchmark> {
    let mut suite = workloads::primary_suite();
    for b in &mut suite {
        b.spec.seed = ctx.perturb(b.spec.seed);
    }
    suite
}

/// The paper's L2 geometry: 512 KB, 64 B lines, 8-way (1024 sets).
pub fn paper_l2() -> Geometry {
    Geometry::new(PAPER_L2.0, PAPER_L2.1, PAPER_L2.2).expect("the paper's L2 geometry is valid")
}

/// Replay-vs-direct differential: the memoised replay must reproduce a
/// direct front-end run exactly. The cell is fixed — `ammp` (the
/// paper's three-epoch phase benchmark) on the full-tag adaptive cache —
/// so the gate's memory is the same on every seed and `peak_rss_mb`
/// stays comparable.
fn differential(suite: &[Benchmark], out: &mut Outcome) {
    let bench = suite
        .iter()
        .find(|b| b.name == "ammp")
        .expect("ammp is in the suite");
    let (label, kind) = functional_orgs()
        .into_iter()
        .find(|(l, _)| *l == "adaptive_full")
        .expect("adaptive_full is a sweep organisation");
    let cfg = CpuConfig::paper_default();
    let mut direct = Hierarchy::new(&cfg, kind.build(paper_l2()));
    let direct = run_functional(&mut direct, bench.spec.generator(), FUNCTIONAL_INSTS);
    let replayed = run_functional_l2(bench, &kind, PAPER_L2, FUNCTIONAL_INSTS).map(|r| r.stats);
    out.checks
        .check(matches!(&replayed, Ok(s) if *s == direct), || {
            format!(
                "replay differs from a direct run on {}/{label}: {replayed:?} vs {direct:?}",
                bench.name
            )
        });
}

/// Runs one functional cell through the memoising runner and digests it.
fn functional_cell(bench: &Benchmark, kind: &L2Kind) -> Result<u64, ExperimentError> {
    run_functional_l2(bench, kind, PAPER_L2, FUNCTIONAL_INSTS).map(|r| digest::functional(&r.stats))
}

/// Runs one timed cell through the full pipeline and digests it.
fn timed_cell(bench: &Benchmark, kind: &L2Kind) -> Result<u64, ExperimentError> {
    run_timed(bench, kind, CpuConfig::paper_default(), TIMED_INSTS).map(|s| digest::timed(&s))
}

type Cell = fn(&Benchmark, &L2Kind) -> Result<u64, ExperimentError>;

/// The cell runner and organisations of a sweep workload.
fn sweep_of(workload: &str) -> (Cell, Vec<(&'static str, L2Kind)>) {
    match workload {
        "sweep_functional" => (functional_cell, functional_orgs()),
        "sweep_timed" => (timed_cell, timed_orgs()),
        other => unreachable!("{other} is not a sweep"),
    }
}

/// Per-cell digests of one untimed pass of `workload` over `suite`
/// (what `goldens.json` records).
pub fn digests(workload: &str, suite: &[Benchmark]) -> CellDigests {
    let (cell, orgs) = sweep_of(workload);
    let mut cells = CellDigests::new();
    for b in suite {
        for (label, kind) in &orgs {
            let d = cell(b, kind).expect("the paper's L2 geometry is valid");
            cells.insert(format!("{}/{label}", b.name), d);
        }
    }
    cells
}

/// Times passes of `workload` over `suite`. The first (warm) pass is
/// checked against the committed goldens where the seed has them, every
/// later pass against the first.
/// Returns the warm pass's reference and wall seconds.
fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    workload: &str,
    suite: &[Benchmark],
    items: f64,
) -> (f64, f64) {
    let (cell, orgs) = sweep_of(workload);
    let goldens = digest::goldens(workload, ctx.seed);
    let checks = &mut out.checks;
    let mut first: Option<CellDigests> = None;
    run_passes(
        ctx,
        &mut out.timings,
        Meter::serial(ELASTICITY),
        |tracer, index, meter| {
            let cells = tracer.span(
                || format!("{workload} pass {index}"),
                0,
                0,
                |pass| {
                    let mut cells = CellDigests::new();
                    for b in suite {
                        // One metered unit per benchmark: all its cells.
                        let results: Vec<_> = meter.time(|| {
                            orgs.iter()
                                .map(|(label, kind)| {
                                    let key = format!("{}/{label}", b.name);
                                    let r = tracer.span(|| key.clone(), pass, 0, |_| cell(b, kind));
                                    (key, r)
                                })
                                .collect()
                        });
                        for (key, r) in results {
                            match r {
                                Ok(d) => {
                                    cells.insert(key, d);
                                }
                                Err(e) => checks.check(false, || format!("{workload} {key}: {e}")),
                            }
                        }
                    }
                    cells
                },
            );
            let (want, source) = match &first {
                None => (goldens.as_ref(), "goldens.json"),
                Some(first) => (Some(first), "pass 0"),
            };
            for (key, d) in &cells {
                checks.check(want.is_none_or(|w| w.get(key) == Some(d)), || {
                    format!("{workload} pass {index} cell {key} differs from {source}")
                });
            }
            first.get_or_insert(cells);
            items
        },
    )
}

/// `sweep_functional`: set-up captures every benchmark's L2 stream once;
/// each pass replays every stream against every organisation.
/// Throughput is L2 events replayed per second.
pub fn functional(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let suite = suite(ctx);
    let cfg = CpuConfig::paper_default();
    let events = repeat_setup(&mut out.timings, Meter::serial(ELASTICITY), |meter| {
        replay_cache::clear();
        suite
            .iter()
            .map(|b| {
                meter.time(|| {
                    replay_cache::get_or_capture(b, &cfg, FUNCTIONAL_INSTS)
                        .0
                        .len()
                })
            })
            .sum::<usize>()
    });
    differential(&suite, &mut out);
    let items = (events * functional_orgs().len()) as f64;
    measure(ctx, &mut out, "sweep_functional", &suite, items);
    out
}

/// `sweep_timed`: every cell runs trace generation and the timing
/// pipeline end to end. Throughput is simulated instructions per second.
///
/// The sweep builds no inputs ahead of its cells, so its set-up is the
/// one pass made before measuring: the work a later change could move
/// out of the measured passes would land there.
pub fn timed(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let suite = suite(ctx);
    differential(&suite, &mut out);
    let items = (suite.len() * timed_orgs().len()) as f64 * TIMED_INSTS as f64;
    let (warm, warm_raw) = measure(ctx, &mut out, "sweep_timed", &suite, items);
    out.timings.setup_s.push(warm);
    out.timings.raw_setup_s.push(warm_raw);
    out
}
