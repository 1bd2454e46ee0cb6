//! `cachesim` — a JSON-driven command-line front end for the simulator.
//!
//! Usage:
//!   cargo run --release -p bench --bin cachesim -- run.json
//!   cargo run --release -p bench --bin cachesim -- --template > run.json
//!   cargo run --release -p bench --bin cachesim -- --telemetry out/ run.json
//!   cargo run --release -p bench --bin cachesim -- figure all
//!
//! The JSON file describes either **one run** — a workload (a suite
//! benchmark by name or an inline `WorkloadSpec`), an L2 organisation,
//! the mode (functional or timed) and the instruction budget — or a
//! **sweep**: `{"sweep": [<run>, ...]}`.
//! Results are printed as JSON on stdout.
//!
//! `figure {all|<stem>...}` regenerates the paper's tables and figures
//! into `results/` (see `bench::figure`).
//!
//! Sweeps execute under the resilience supervisor: a panicking or wedged
//! cell is isolated (one bounded retry, optional per-cell deadline) and
//! every settled cell is checkpointed to
//! `results/<name>.journal.jsonl`; re-running with `AC_RESUME=1` skips
//! cells the journal proves complete.
//!
//! Telemetry: `--telemetry <dir>` (or `--metrics` for `results/`, or the
//! `AC_TELEMETRY` environment variable) enables the `ac-telemetry`
//! observability layer — `metrics.prom`, a Chrome `trace.json`,
//! `timeline.jsonl` and `telemetry-summary.json` are written to the
//! chosen directory on exit (single runs also write `run.json`).
//! `cachesim audit <dir>` re-runs the request against hindsight
//! baselines and writes `audit.json`, which holds the per-set decision
//! heatmap; `cachesim report <dir>` renders the directory as HTML.
//!
//! Watching a long run: with `AC_TELEMETRY_FLUSH_MS=<ms>` every artifact
//! is rewritten atomically each interval, so the directory is the live
//! view. `metrics.prom` counts settled sweep cells
//! (`ac_cells_total{label=ok|failed|timed_out|resumed}`) against the
//! sweep's size (`ac_sweep_cells`), the journal
//! `results/<name>.journal.jsonl` lists them, and `cachesim report <dir>`
//! renders the flushed directory at any moment.
//!
//! Exit codes: `0` all results produced, `2` sweep finished with partial
//! results, `3` invalid input.

use cpu_model::CpuConfig;
use experiments::cell::{self, RunReply, RunRequest};
use experiments::resilience::{self, SupervisorConfig, EXIT_INVALID_INPUT, EXIT_PARTIAL};
use experiments::L2Kind;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;

/// A batch of runs executed under the resilience supervisor.
#[derive(Debug, Deserialize)]
struct SweepRequest {
    /// The cells of the sweep.
    sweep: Vec<RunRequest>,
    /// Journal stem: checkpoints land in `results/<name>.journal.jsonl`.
    #[serde(default)]
    name: Option<String>,
    /// Optional per-cell deadline in seconds.
    #[serde(default)]
    deadline_secs: Option<f64>,
    /// Retries after a failed/timed-out attempt (default 1).
    #[serde(default)]
    retries: Option<u32>,
}

#[derive(Debug, Deserialize)]
#[serde(untagged)]
enum Input {
    Sweep(SweepRequest),
    Single(Box<RunRequest>),
}

fn template() -> RunRequest {
    RunRequest {
        benchmark: Some("art-1".to_string()),
        spec: None,
        l2: L2Kind::Adaptive(adaptive_cache::AdaptiveConfig::paper_default()),
        mode: "timed".to_string(),
        insts: 2_000_000,
        cpu: CpuConfig::paper_default(),
    }
}

/// Prints an error and exits with the invalid-input code.
fn die_invalid(msg: &str) -> ! {
    ac_telemetry::error!("cachesim: {msg}");
    std::process::exit(EXIT_INVALID_INPUT)
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("requests and replies serialise")
}

/// Per-cell line of the sweep report printed on stdout.
#[derive(Debug, Serialize)]
struct CellReply {
    key: String,
    status: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    result: Option<RunReply>,
    #[serde(skip_serializing_if = "Option::is_none")]
    error: Option<String>,
}

fn run_sweep_request(req: SweepRequest, config_path: &Path) -> i32 {
    if req.sweep.is_empty() {
        die_invalid("field `sweep`: must contain at least one run");
    }
    // The deadline and every cell are validated before any cell runs
    // or the journal opens.
    let deadline = req.deadline_secs.map(|secs| {
        match Duration::try_from_secs_f64(secs) {
            Ok(d) if !d.is_zero() => d,
            _ => die_invalid(&format!(
                "field `deadline_secs`: {secs} is not a positive number of seconds a deadline can hold"
            )),
        }
    });
    let cells: Vec<_> = req
        .sweep
        .into_iter()
        .enumerate()
        .map(|(i, req)| match cell::validate(&req) {
            Ok(workload) => (cell::key(&req), req, workload),
            Err(e) => die_invalid(&format!("sweep cell {i}: {e}")),
        })
        .collect();
    let stem = req.name.clone().unwrap_or_else(|| {
        config_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "sweep".to_string())
    });
    let cfg = SupervisorConfig {
        deadline,
        retries: req.retries.unwrap_or(1),
        ..SupervisorConfig::journalled(Path::new("results"), &stem)
    };
    let report = match resilience::run_sweep(
        &cells,
        &cfg,
        |(key, _, _)| key.clone(),
        |(_, req, workload)| cell::run(&req, &workload),
    ) {
        Ok(r) => r,
        Err(e) => die_invalid(&format!("sweep setup failed: {e}")),
    };

    let lines: Vec<CellReply> = report
        .cells
        .iter()
        .map(|c| CellReply {
            key: c.key.clone(),
            status: c.outcome.label(),
            result: c.outcome.value().cloned(),
            error: c.outcome.error(),
        })
        .collect();
    bench::print_stdout(&to_json(&lines));
    ac_telemetry::info!("cachesim: {}", report.summary());
    if let Some(path) = &cfg.journal {
        ac_telemetry::info!("cachesim: journal at {}", path.display());
        if report.exit_code() == EXIT_PARTIAL {
            ac_telemetry::info!("cachesim: re-run with AC_RESUME=1 to retry only unfinished cells");
        }
    }
    report.exit_code()
}

/// Writes the single run's request as `run.json` into the telemetry
/// artifact directory (when one is configured) so `cachesim audit` can
/// rebuild the run offline. Best-effort: a write failure only warns.
fn write_run_config(req: &RunRequest) {
    let Some(dir) = ac_telemetry::hub().and_then(|h| h.config().dir.clone()) else {
        return;
    };
    let path = dir.join("run.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, to_json(req)))
    {
        ac_telemetry::warn!("cachesim: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = bench::init_telemetry(&mut args) {
        die_invalid(&e);
    }
    std::process::exit(dispatch(args));
}

fn dispatch(mut args: Vec<String>) -> i32 {
    let mut arg = args.first().cloned().unwrap_or_default();
    if arg == "--template" {
        bench::print_stdout(&to_json(&template()));
        return 0;
    }
    if arg == "figure" {
        let code = bench::figure::run_figure_subcommand(&args[1..]);
        bench::finish_telemetry();
        return code;
    }
    if arg == "report" {
        // Renders run artifacts; never simulates, so no telemetry flush.
        return bench::report::run_report_subcommand(&args[1..]);
    }
    if arg == "audit" {
        let code = bench::audit::run_audit_subcommand(&args[1..]);
        bench::finish_telemetry();
        return code;
    }
    if arg == "run" {
        // `cachesim run <run.json>` is an explicit alias for the bare
        // positional form.
        args.remove(0);
        arg = args.first().cloned().unwrap_or_default();
    }
    if arg.is_empty() || arg.starts_with("--") {
        die_invalid(
            "usage: cachesim [--telemetry <dir> | --metrics] [run] <run.json> | cachesim --template | cachesim figure {all|<stem>...} | cachesim report <run-dir> [--compare <old-run-dir>] [--out <file>] [--threshold <pct>] | cachesim audit <run-dir> [--config <run.json>] [--out <file>]",
        );
    }

    let text = match std::fs::read_to_string(&arg) {
        Ok(t) => t,
        Err(e) => die_invalid(&format!("cannot read {arg}: {e}")),
    };
    let input: Input = match serde_json::from_str(&text) {
        Ok(i) => i,
        Err(e) => die_invalid(&format!("bad config: {e}")),
    };

    match input {
        Input::Single(req) => {
            let workload = match cell::validate(&req) {
                Ok(w) => w,
                Err(e) => die_invalid(&e.to_string()),
            };
            // Persist the request next to the telemetry artifacts so
            // `cachesim audit <dir>` can rebuild this exact run later.
            write_run_config(&req);
            match cell::run(&req, &workload) {
                Ok(reply) => {
                    bench::print_stdout(&to_json(&reply));
                    bench::finish_telemetry();
                    0
                }
                Err(e) => die_invalid(&e.to_string()),
            }
        }
        Input::Sweep(sweep) => {
            let code = run_sweep_request(sweep, Path::new(&arg));
            bench::finish_telemetry();
            code
        }
    }
}
