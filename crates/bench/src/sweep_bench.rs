//! Sweep-level throughput measurement: the same fig03-style
//! (benchmark × L2 organisation) functional sweep timed with the
//! replay cache enabled and disabled.
//!
//! The access-level benchmark (`access_bench`) measures the cache
//! substrate; this one measures what sweeps actually pay — trace
//! generation + L1 simulation per cell without memoisation versus one
//! capture per benchmark plus L2-only replays with it. Results land in
//! `results/bench_sweep.json`.

use experiments::runner::{run_functional_l2, L2Kind, PAPER_L2};
use experiments::{replay_cache, try_parallel_map_progress};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use workloads::{primary_suite, Benchmark};

/// Schema version stamped on `bench_sweep.json`.
///
/// Version 2 added two optional fields that are no longer written. A
/// reader of version 2 already treats them as absent, so the version
/// stays.
pub const SWEEP_BENCH_SCHEMA_VERSION: u32 = 2;

/// One timed mode (replay on or off).
#[derive(Debug, Serialize)]
pub struct ModeResult {
    /// Wall-clock seconds for the whole sweep (best of `reps`).
    pub secs: f64,
    /// Sweep cells completed per second.
    pub cells_per_sec: f64,
}

/// The sweep benchmark report.
#[derive(Debug, Serialize)]
pub struct SweepBenchReport {
    /// Schema version of this document.
    pub schema_version: u32,
    /// Whether the reduced quick mode ran.
    pub quick: bool,
    /// Instruction budget per cell.
    pub insts: u64,
    /// Benchmarks swept.
    pub benchmarks: Vec<String>,
    /// L2 organisations swept (the paper's headline trio).
    pub organisations: Vec<String>,
    /// Total sweep cells per mode.
    pub cells: usize,
    /// Timing repetitions per mode (best-of).
    pub reps: usize,
    /// Front-end re-run in every cell (`AC_REPLAY=0`).
    pub replay_off: ModeResult,
    /// Capture once per benchmark, replay everywhere (`AC_REPLAY=1`).
    pub replay_on: ModeResult,
    /// `replay_off.secs / replay_on.secs`.
    pub speedup: f64,
}

fn run_cells(cells: &[(Benchmark, L2Kind)], insts: u64) {
    // Each timed pass registers (and finishes) a `bench_sweep` entry in
    // the live progress registry; a `--serve` introspection server shows
    // the pass currently running, and the final pass ends done == total.
    let handle = ac_telemetry::progress::sweep("bench_sweep", cells.len() as u64);
    let results = try_parallel_map_progress(
        cells,
        Some(&handle),
        |_, (b, k)| format!("{}:{}", b.name, k.label()),
        |(b, k)| run_functional_l2(b, k, PAPER_L2, insts).expect("paper geometry is valid"),
    );
    handle.finish();
    for r in results {
        r.expect("sweep cell failed");
    }
}

/// Times one full sweep pass in the given replay mode, best of `reps`.
fn time_mode(cells: &[(Benchmark, L2Kind)], insts: u64, replay: bool, reps: usize) -> f64 {
    std::env::set_var("AC_REPLAY", if replay { "1" } else { "0" });
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // Each repetition starts cold: the capture cost is part of what
        // the mode is amortising, so it must be in the timing.
        replay_cache::clear();
        let start = Instant::now();
        run_cells(cells, insts);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Runs the sweep benchmark. Quick mode shrinks the suite slice and the
/// instruction budget for CI smoke coverage; full mode uses the
/// headline trio at the default instruction budget (the acceptance
/// configuration).
pub fn run(quick: bool) -> SweepBenchReport {
    let _span = ac_telemetry::span("bench", || "sweep_bench".to_string());
    let prior_replay = std::env::var("AC_REPLAY").ok();
    let suite = primary_suite();
    let (n_benches, insts, reps) = if quick {
        (2, experiments::default_insts().min(120_000), 1)
    } else {
        (3, experiments::default_insts(), 2)
    };
    let benches: Vec<Benchmark> = suite.into_iter().take(n_benches).collect();
    let kinds = L2Kind::headline_trio();
    let cells: Vec<(Benchmark, L2Kind)> = benches
        .iter()
        .flat_map(|b| kinds.iter().map(move |k| (b.clone(), k.clone())))
        .collect();

    let off_secs = time_mode(&cells, insts, false, reps);
    let on_secs = time_mode(&cells, insts, true, reps);
    replay_cache::clear();
    match prior_replay {
        Some(v) => std::env::set_var("AC_REPLAY", v),
        None => std::env::remove_var("AC_REPLAY"),
    }

    let per_sec = |secs: f64| {
        if secs > 0.0 {
            cells.len() as f64 / secs
        } else {
            0.0
        }
    };
    SweepBenchReport {
        schema_version: SWEEP_BENCH_SCHEMA_VERSION,
        quick,
        insts,
        benchmarks: benches.iter().map(|b| b.name.clone()).collect(),
        organisations: kinds.iter().map(|k| k.label()).collect(),
        cells: cells.len(),
        reps,
        replay_off: ModeResult {
            secs: off_secs,
            cells_per_sec: per_sec(off_secs),
        },
        replay_on: ModeResult {
            secs: on_secs,
            cells_per_sec: per_sec(on_secs),
        },
        speedup: if on_secs > 0.0 {
            off_secs / on_secs
        } else {
            0.0
        },
    }
}

/// Prints the report on stdout.
pub fn print_report(report: &SweepBenchReport) {
    println!(
        "sweep bench: {} benchmarks x {} organisations, {} insts/cell{}",
        report.benchmarks.len(),
        report.organisations.len(),
        report.insts,
        if report.quick { " (quick)" } else { "" },
    );
    println!(
        "  replay off: {:.3}s ({:.2} cells/s)",
        report.replay_off.secs, report.replay_off.cells_per_sec
    );
    println!(
        "  replay on : {:.3}s ({:.2} cells/s)",
        report.replay_on.secs, report.replay_on.cells_per_sec
    );
    println!("  speedup   : {:.2}x", report.speedup);
}

/// Writes the report as pretty JSON to `path`.
pub fn write_report(report: &SweepBenchReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}
