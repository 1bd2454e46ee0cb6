//! `cachesim figure {all|<stem>...}`: regenerates the paper's evaluation
//! from [`experiments::figures::figures`] as one supervised, resumable
//! sweep ([`experiments::figures::Plan`]).
//!
//! The driver plans the chosen figures, so a cell that several figures
//! read runs once, and logs the plan: cells requested, distinct cells,
//! whole figures. It then runs the whole figures and the distinct cells
//! in one sweep journalled to `results/all_figures.journal.jsonl`; with
//! `AC_RESUME=1` every cell the journal proves complete is taken from
//! it. Finally it prints each figure it produced. A figure counts as
//! produced only once every cell it reads settled ok and its
//! `results/<stem>.{csv,json}` are written; a failed cell fails every
//! figure that reads it. `AC_INSTS` sets the per-benchmark instruction
//! budget. `table1_config` (also part of `all`) prints Table 1, which is
//! text rather than a table.
//!
//! Exit codes: 0 every chosen figure produced, 2 partial results, 3 an
//! unknown stem or no stem at all.

use experiments::figures::{self, Figure, Plan};
use experiments::resilience::{self, ExperimentError, SupervisorConfig};
use experiments::{default_insts, Table};
use std::path::Path;

/// The name that selects Table 1's text.
const TABLE1: &str = "table1_config";

/// Runs `cachesim figure <names>` and returns the process exit code.
pub fn run_figure_subcommand(names: &[String]) -> i32 {
    let entries = figures::figures();
    let unknown = names
        .iter()
        .find(|n| *n != "all" && *n != TABLE1 && !entries.iter().any(|(stem, _)| stem == n));
    if names.is_empty() || unknown.is_some() {
        let stems: Vec<&str> = entries.iter().map(|(stem, _)| *stem).collect();
        match unknown {
            Some(name) => ac_telemetry::error!("cachesim: unknown figure `{name}`"),
            None => ac_telemetry::error!("cachesim: usage: cachesim figure {{all|<stem>...}}"),
        }
        ac_telemetry::error!("cachesim: figure stems: {TABLE1} {}", stems.join(" "));
        return resilience::EXIT_INVALID_INPUT;
    }
    let all = names.iter().any(|n| n == "all");
    if all || names.iter().any(|n| n == TABLE1) {
        crate::print_stdout(&figures::table1_config());
    }
    let chosen: Vec<(&'static str, Figure)> = entries
        .into_iter()
        .filter(|(stem, _)| all || names.iter().any(|n| n == stem))
        .collect();
    if chosen.is_empty() {
        return resilience::EXIT_OK;
    }

    let plan = match Plan::new(chosen, default_insts()) {
        Ok(p) => p,
        Err(e) => {
            ac_telemetry::error!("cachesim: cannot plan the figures: {e}");
            return resilience::EXIT_INVALID_INPUT;
        }
    };
    ac_telemetry::info!(
        "cachesim: figure plan: {} cells requested, {} distinct, {} whole figures",
        plan.requested,
        plan.distinct,
        plan.whole
    );
    let cfg = SupervisorConfig::journalled(Path::new("results"), "all_figures");
    let produced = match plan.run(&cfg, write) {
        Ok(p) => p,
        Err(e) => {
            ac_telemetry::error!("cachesim: cannot start figure sweep: {e}");
            return resilience::EXIT_INVALID_INPUT;
        }
    };

    let mut unproduced = 0;
    for (stem, table) in &produced.tables {
        match table {
            Ok(t) => crate::print_stdout(&t.to_string()),
            Err(e) => {
                ac_telemetry::error!("cachesim: {stem} FAILED: {e}");
                unproduced += 1;
            }
        }
    }
    ac_telemetry::info!("cachesim: {}", produced.report.summary());
    if unproduced > 0 || !produced.report.is_complete() {
        ac_telemetry::info!("cachesim: re-run with AC_RESUME=1 to retry only unfinished cells");
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
