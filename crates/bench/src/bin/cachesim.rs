//! `cachesim` — a JSON-driven command-line front end for the simulator.
//!
//! Usage:
//!   cargo run --release -p bench --bin cachesim -- run.json
//!   cargo run --release -p bench --bin cachesim -- --template > run.json
//!   cargo run --release -p bench --bin cachesim -- --telemetry out/ run.json
//!   cargo run --release -p bench --bin cachesim -- figure all
//!
//! The JSON file describes either **one run** — a workload (a suite
//! benchmark by name, an inline `WorkloadSpec`, or a recorded trace
//! file), an L2 organisation, the mode (functional or timed) and the
//! instruction budget — or a **sweep**: `{"sweep": [<run>, ...]}`.
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
//! observability layer — `metrics.prom`, a Chrome `trace.json`, a
//! sampled `events.jsonl` decision stream and `telemetry-summary.json`
//! are written to the chosen directory on exit.
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

use cache_sim::Geometry;
use cpu_model::{run_functional, CpuConfig, FunctionalStats, Hierarchy, Pipeline, RunStats};
use experiments::resilience::{
    self, ExperimentError, SupervisorConfig, EXIT_INVALID_INPUT, EXIT_PARTIAL,
};
use experiments::L2Kind;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;
use workloads::{extended_suite, trace_io, Benchmark, Inst, WorkloadSpec};

/// One simulation request.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunRequest {
    /// Benchmark name from the built-in suite (see
    /// `policy_explorer -- --list`). Mutually exclusive with `spec` and
    /// `trace_file`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    benchmark: Option<String>,
    /// Inline workload specification.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    spec: Option<WorkloadSpec>,
    /// Path to a recorded `.actr` binary trace.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    trace_file: Option<String>,
    /// The L2 organisation under test.
    l2: L2Kind,
    /// `"functional"` (miss rates only, fast) or `"timed"` (full CPI).
    mode: String,
    /// Instructions to run.
    insts: u64,
    /// Processor configuration (defaults to the paper's Table 1).
    #[serde(default = "CpuConfig::paper_default")]
    cpu: CpuConfig,
}

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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunReply {
    workload: String,
    l2: String,
    mode: String,
    instructions: u64,
    l2_misses: u64,
    l2_mpki: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    cycles: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    cpi: Option<f64>,
}

fn template() -> RunRequest {
    RunRequest {
        benchmark: Some("art-1".to_string()),
        spec: None,
        trace_file: None,
        l2: L2Kind::Adaptive(adaptive_cache::AdaptiveConfig::paper_default()),
        mode: "timed".to_string(),
        insts: 2_000_000,
        cpu: CpuConfig::paper_default(),
    }
}

/// A request's workload, resolved once while validating.
#[derive(Debug, Clone)]
enum Workload {
    /// A suite benchmark or an inline spec, streamed from its generator.
    Generated(Benchmark),
    /// A recorded `.actr` trace file.
    TraceFile(String),
}

/// Checks a request before anything runs — exactly one workload source,
/// a known mode, a benchmark name the suite has, an inline spec the
/// generator accepts — and resolves its workload. The error names the
/// offending field.
fn validate(req: &RunRequest) -> Result<Workload, ExperimentError> {
    let workload = match (&req.benchmark, &req.spec, &req.trace_file) {
        (Some(name), None, None) => {
            let b = extended_suite()
                .into_iter()
                .find(|b| &b.name == name)
                .ok_or_else(|| {
                    ExperimentError::InvalidInput(format!(
                        "field `benchmark`: unknown benchmark {name:?} (try policy_explorer -- --list)"
                    ))
                })?;
            Workload::Generated(b)
        }
        (None, Some(spec), None) => Workload::Generated(
            bench::inline_benchmark(spec).map_err(ExperimentError::InvalidInput)?,
        ),
        (None, None, Some(path)) => Workload::TraceFile(path.clone()),
        _ => {
            let set: Vec<String> = [
                ("benchmark", req.benchmark.is_some()),
                ("spec", req.spec.is_some()),
                ("trace_file", req.trace_file.is_some()),
            ]
            .iter()
            .filter(|(_, s)| *s)
            .map(|(n, _)| format!("`{n}`"))
            .collect();
            return Err(ExperimentError::InvalidInput(if set.is_empty() {
                "one of the fields `benchmark`, `spec`, `trace_file` is required".into()
            } else {
                format!(
                    "fields {} are mutually exclusive — set exactly one",
                    set.join(", ")
                )
            }));
        }
    };
    if !matches!(req.mode.as_str(), "functional" | "timed") {
        return Err(ExperimentError::InvalidInput(format!(
            "field `mode`: unknown mode {:?} (functional|timed)",
            req.mode
        )));
    }
    Ok(workload)
}

fn load_trace(path: &str) -> Result<Vec<Inst>, ExperimentError> {
    let file = std::fs::File::open(path).map_err(|e| {
        ExperimentError::InvalidInput(format!("field `trace_file`: cannot open {path}: {e}"))
    })?;
    trace_io::read_binary(std::io::BufReader::new(file)).map_err(|e| {
        ExperimentError::Trace(format!("field `trace_file`: cannot parse {path}: {e}"))
    })
}

fn bad_geometry(e: impl std::fmt::Display) -> ExperimentError {
    ExperimentError::InvalidInput(format!("field `cpu.l2`: bad geometry: {e}"))
}

impl RunReply {
    fn functional(workload: String, req: &RunRequest, s: &FunctionalStats) -> Self {
        RunReply {
            workload,
            l2: req.l2.label(),
            mode: req.mode.clone(),
            instructions: s.instructions,
            l2_misses: s.l2_misses,
            l2_mpki: s.l2_mpki(),
            cycles: None,
            cpi: None,
        }
    }

    fn timed(workload: String, req: &RunRequest, s: &RunStats) -> Self {
        RunReply {
            workload,
            l2: req.l2.label(),
            mode: req.mode.clone(),
            instructions: s.instructions,
            l2_misses: s.l2.misses,
            l2_mpki: s.l2_mpki(),
            cycles: Some(s.cycles),
            cpi: Some(s.cpi()),
        }
    }
}

/// Executes one validated request end to end. Generated workloads go
/// through the experiment runner, which streams the generator: a
/// functional cell shares the process-wide replay cache (`AC_REPLAY`),
/// so the front end runs at most once per (workload spec, L1 config,
/// budget) key. Trace files are read whole and run directly.
fn run_request(req: &RunRequest, workload: &Workload) -> Result<RunReply, ExperimentError> {
    let functional = req.mode == "functional";
    match workload {
        Workload::Generated(b) => {
            let geometry_is_input = |e| match e {
                ExperimentError::Geometry(g) => bad_geometry(g),
                other => other,
            };
            if functional {
                let l2 = &req.cpu.l2;
                let r = experiments::run_functional_l2_cfg(
                    b,
                    &req.l2,
                    (l2.size_bytes, l2.line_bytes, l2.associativity),
                    req.insts,
                    &req.cpu,
                )
                .map_err(geometry_is_input)?;
                Ok(RunReply::functional(b.name.clone(), req, &r.stats))
            } else {
                let s = experiments::run_timed(b, &req.l2, req.cpu, req.insts)
                    .map_err(geometry_is_input)?;
                Ok(RunReply::timed(b.name.clone(), req, &s))
            }
        }
        Workload::TraceFile(path) => {
            let trace = load_trace(path)?;
            let l2 = &req.cpu.l2;
            let geom = Geometry::new(l2.size_bytes, l2.line_bytes, l2.associativity)
                .map_err(bad_geometry)?;
            let l2 = req.l2.build(geom);
            let n = trace.len() as u64;
            if functional {
                let mut h = Hierarchy::new(&req.cpu, l2);
                let s = run_functional(&mut h, trace.into_iter(), n);
                Ok(RunReply::functional(path.clone(), req, &s))
            } else {
                let s = Pipeline::new(req.cpu, l2).run(trace.into_iter(), n);
                Ok(RunReply::timed(path.clone(), req, &s))
            }
        }
    }
}

/// A sweep cell's resume key: a readable prefix (position, workload, L2
/// label, mode, budget) and a digest of the whole request, so editing
/// any field of a cell invalidates that cell's checkpoint and no other.
fn cell_key(i: usize, req: &RunRequest) -> String {
    let workload = req
        .benchmark
        .as_deref()
        .or(req.trace_file.as_deref())
        .unwrap_or("spec");
    // FNV-1a: stable across builds, unlike `DefaultHasher`, so journals
    // written by one build resume under the next.
    let digest = to_json(req).bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    format!(
        "{i}:{workload}:{}:{}:{}:{digest:016x}",
        req.l2.label(),
        req.mode,
        req.insts
    )
}

/// Prints an error and exits with the invalid-input code.
fn die_invalid(msg: &str) -> ! {
    ac_telemetry::error!("cachesim: {msg}");
    std::process::exit(EXIT_INVALID_INPUT)
}

fn to_json<T: Serialize>(value: &T) -> String {
    match serde_json::to_string_pretty(value) {
        Ok(s) => s,
        Err(e) => die_invalid(&format!("cannot serialise reply: {e}")),
    }
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
    // Every cell is validated before any runs or the journal opens.
    let cells: Vec<(String, RunRequest, Workload)> = req
        .sweep
        .into_iter()
        .enumerate()
        .map(|(i, cell)| match validate(&cell) {
            Ok(workload) => (cell_key(i, &cell), cell, workload),
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
        deadline: req.deadline_secs.map(Duration::from_secs_f64),
        retries: req.retries.unwrap_or(1),
        journal: Some(resilience::journal_path(Path::new("results"), &stem)),
        resume: resilience::resume_from_env(),
        threads: 0,
    };
    let report = match resilience::run_sweep(
        &cells,
        &cfg,
        |(key, _, _)| key.clone(),
        |(_, req, workload)| run_request(&req, &workload),
    ) {
        Ok(r) => r,
        Err(e) => die_invalid(&format!("sweep setup failed: {e}")),
    };

    let lines: Vec<CellReply> = report
        .cells
        .iter()
        .map(|c| {
            let (status, result, error) = match &c.outcome {
                resilience::CellOutcome::Done(r) => ("ok", Some(r.clone()), None),
                resilience::CellOutcome::Resumed(r) => ("resumed", Some(r.clone()), None),
                resilience::CellOutcome::Failed(e) => ("failed", None, Some(e.to_string())),
                resilience::CellOutcome::TimedOut(d) => (
                    "timed_out",
                    None,
                    Some(format!("exceeded {:.3}s deadline", d.as_secs_f64())),
                ),
            };
            CellReply {
                key: c.key.clone(),
                status,
                result,
                error,
            }
        })
        .collect();
    println!("{}", to_json(&lines));
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
        println!("{}", to_json(&template()));
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
            "usage: cachesim [--telemetry <dir> | --metrics] [run] <run.json> | cachesim --template | cachesim figure {all|<stem>...} | cachesim report <run-dir> [--compare <old-run-dir>] [--out <file>] [--threshold <pct>] | cachesim audit <run-dir> [--config <run.json>] [--window <insts>] [--out <file>]",
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
            let workload = match validate(&req) {
                Ok(w) => w,
                Err(e) => die_invalid(&e.to_string()),
            };
            // Persist the request next to the telemetry artifacts so
            // `cachesim audit <dir>` can rebuild this exact run later.
            write_run_config(&req);
            match run_request(&req, &workload) {
                Ok(reply) => {
                    println!("{}", to_json(&reply));
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
