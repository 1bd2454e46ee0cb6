//! `cachesim figure {all|<stem>...}`: regenerates the paper's evaluation
//! from [`experiments::figures::registry`] in one supervised, resumable
//! run.
//!
//! Every chosen figure is one cell of a [`resilience::run_sweep`]: a
//! panicking figure is isolated and retried once, and a figure counts as
//! produced only once its `results/<stem>.{csv,json}` are written. Every
//! settled figure is checkpointed (with its full table) to
//! `results/all_figures.journal.jsonl`, keyed by stem and instruction
//! budget, and a rerun with `AC_RESUME=1` at the same budget re-emits
//! finished figures from the journal instead of recomputing them.
//! `AC_INSTS` sets the per-benchmark instruction budget.
//! `table1_config` (also part of `all`) prints Table 1, which is text
//! rather than a table.
//!
//! Every figure runs under an `ac-telemetry` span, and the run ends with
//! a per-figure wall-time summary on stderr; an in-memory hub is
//! installed when no telemetry artifacts were requested.
//!
//! Exit codes: 0 every chosen figure produced, 2 partial results, 3 an
//! unknown stem or no stem at all.

use experiments::figures::{self, FigureFn};
use experiments::resilience::{self, CellOutcome, ExperimentError, SupervisorConfig};
use experiments::{default_insts, Table};
use std::path::Path;

/// The name that selects Table 1's text.
const TABLE1: &str = "table1_config";

/// Runs `cachesim figure <names>` and returns the process exit code.
pub fn run_figure_subcommand(names: &[String]) -> i32 {
    let registry = figures::registry();
    let unknown = names
        .iter()
        .find(|n| *n != "all" && *n != TABLE1 && !registry.iter().any(|(stem, _)| stem == n));
    if names.is_empty() || unknown.is_some() {
        let stems: Vec<&str> = registry.iter().map(|(stem, _)| *stem).collect();
        match unknown {
            Some(name) => ac_telemetry::error!("cachesim: unknown figure `{name}`"),
            None => ac_telemetry::error!("cachesim: usage: cachesim figure {{all|<stem>...}}"),
        }
        ac_telemetry::error!("cachesim: figure stems: {TABLE1} {}", stems.join(" "));
        return resilience::EXIT_INVALID_INPUT;
    }
    let all = names.iter().any(|n| n == "all");
    if all || names.iter().any(|n| n == TABLE1) {
        println!("{}", figures::table1_config());
    }
    let chosen: Vec<(&'static str, FigureFn)> = registry
        .into_iter()
        .filter(|(stem, _)| all || names.iter().any(|n| n == stem))
        .collect();
    if chosen.is_empty() {
        return resilience::EXIT_OK;
    }
    if ac_telemetry::hub().is_none() {
        // No artifacts requested: an in-memory hub (event stream off)
        // still feeds the figure spans to the wall-time summary.
        let cfg = ac_telemetry::TelemetryConfig::default().with_sample_rate(0);
        let _ = ac_telemetry::Telemetry::install(cfg);
    }

    let insts = default_insts();
    let cfg = SupervisorConfig::journalled(Path::new("results"), "all_figures");
    let report = match resilience::run_sweep(
        &chosen,
        &cfg,
        // The budget is part of the key: a table journalled at another
        // `AC_INSTS` is recomputed, never resumed.
        |(stem, _)| format!("{stem}@{insts}"),
        move |(stem, f): (&'static str, FigureFn)| {
            let _span = ac_telemetry::span("figure", || stem.to_string());
            ac_telemetry::info!("{stem}: running ...");
            let start = std::time::Instant::now();
            let table = f(insts);
            write(&table, stem)?;
            ac_telemetry::info!("{stem}: done in {:.1}s", start.elapsed().as_secs_f64());
            Ok(table)
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            ac_telemetry::error!("cachesim: cannot start figure sweep: {e}");
            return resilience::EXIT_INVALID_INPUT;
        }
    };

    let mut unwritten = 0;
    for ((stem, _), cell) in chosen.iter().zip(&report.cells) {
        match &cell.outcome {
            CellOutcome::Done(t) => println!("{t}"),
            CellOutcome::Resumed(t) => {
                println!("{t}");
                if let Err(e) = write(t, stem) {
                    ac_telemetry::error!("cachesim: {stem} FAILED: {e}");
                    unwritten += 1;
                }
            }
            CellOutcome::Failed(e) => ac_telemetry::error!("cachesim: {stem} FAILED: {e}"),
            CellOutcome::TimedOut(d) => {
                ac_telemetry::error!("cachesim: {stem} TIMED OUT after {:.1}s", d.as_secs_f64())
            }
        }
    }

    print_wall_time_summary();
    ac_telemetry::info!("cachesim: {}", report.summary());
    if unwritten > 0 || !report.is_complete() {
        ac_telemetry::info!("cachesim: re-run with AC_RESUME=1 to retry only unfinished figures");
        return resilience::EXIT_PARTIAL;
    }
    resilience::EXIT_OK
}

/// Writes `results/<stem>.{csv,json}`.
fn write(table: &Table, stem: &str) -> Result<(), ExperimentError> {
    table
        .write_artifacts(Path::new("results"), stem)
        .map_err(|e| ExperimentError::Io(format!("could not write results/{stem}: {e}")))
}

/// Per-figure wall time from the telemetry span data, widest first.
/// Resumed figures carry no span (they were not recomputed) and are
/// absent by construction.
fn print_wall_time_summary() {
    let Some(hub) = ac_telemetry::hub() else {
        return;
    };
    let mut figures: Vec<(String, u64)> = hub
        .span_totals()
        .into_iter()
        .filter(|(_, cat, _, _)| *cat == "figure")
        .map(|(name, _, _, total_us)| (name, total_us))
        .collect();
    if figures.is_empty() {
        return;
    }
    figures.sort_by_key(|f| std::cmp::Reverse(f.1));
    let total_us: u64 = figures.iter().map(|(_, us)| us).sum();
    let width = figures.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    ac_telemetry::info!("cachesim: per-figure wall time:");
    for (name, us) in &figures {
        ac_telemetry::info!("  {name:width$}  {:>8.1}s", *us as f64 / 1e6);
    }
    ac_telemetry::info!("  {:width$}  {:>8.1}s", "total", total_us as f64 / 1e6);
}
