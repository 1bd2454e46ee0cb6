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
//! are written to the chosen directory on exit (and periodically
//! mid-run when `AC_TELEMETRY_FLUSH_MS` is set).
//!
//! Live introspection: `--serve <addr>` (or `AC_SERVE=<addr>`) starts an
//! HTTP server exposing the running process — `/metrics` (Prometheus),
//! `/progress` (sweep cells + ETA), `/events` (SSE decision stream) and
//! a live `/` dashboard. Bind port 0 for an ephemeral port;
//! `AC_SERVE_ADDR_FILE=<path>` publishes the bound address.
//!
//! Exit codes: `0` all results produced, `2` sweep finished with partial
//! results, `3` invalid input.

use cache_sim::Geometry;
use cpu_model::{run_functional, CpuConfig, Hierarchy, Pipeline};
use experiments::resilience::{
    self, ExperimentError, SupervisorConfig, EXIT_INVALID_INPUT, EXIT_PARTIAL,
};
use experiments::L2Kind;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;
use workloads::{extended_suite, trace_io, Inst, WorkloadSpec};

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

/// Exactly one workload source must be set; names the offending fields
/// otherwise.
fn validate(req: &RunRequest) -> Result<(), ExperimentError> {
    let set: Vec<&str> = [
        ("benchmark", req.benchmark.is_some()),
        ("spec", req.spec.is_some()),
        ("trace_file", req.trace_file.is_some()),
    ]
    .iter()
    .filter(|(_, s)| *s)
    .map(|(n, _)| *n)
    .collect();
    match set.len() {
        0 => Err(ExperimentError::InvalidInput(
            "one of the fields `benchmark`, `spec`, `trace_file` is required".into(),
        )),
        1 => Ok(()),
        _ => Err(ExperimentError::InvalidInput(format!(
            "fields {} are mutually exclusive — set exactly one",
            set.iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

fn load_trace(req: &RunRequest) -> Result<(String, Vec<Inst>), ExperimentError> {
    validate(req)?;
    if let Some(name) = &req.benchmark {
        let suite = extended_suite();
        let b = suite.iter().find(|b| &b.name == name).ok_or_else(|| {
            ExperimentError::InvalidInput(format!(
                "field `benchmark`: unknown benchmark {name:?} (try policy_explorer -- --list)"
            ))
        })?;
        Ok((
            name.clone(),
            b.spec.generator().take(req.insts as usize).collect(),
        ))
    } else if let Some(spec) = &req.spec {
        Ok((
            "inline spec".to_string(),
            spec.generator().take(req.insts as usize).collect(),
        ))
    } else if let Some(path) = &req.trace_file {
        let file = std::fs::File::open(path).map_err(|e| {
            ExperimentError::InvalidInput(format!("field `trace_file`: cannot open {path}: {e}"))
        })?;
        let trace = trace_io::read_binary(std::io::BufReader::new(file)).map_err(|e| {
            ExperimentError::Trace(format!("field `trace_file`: cannot parse {path}: {e}"))
        })?;
        Ok((path.clone(), trace))
    } else {
        // validate() has already rejected this.
        Err(ExperimentError::InvalidInput(
            "one of the fields `benchmark`, `spec`, `trace_file` is required".into(),
        ))
    }
}

/// Executes one request end to end.
fn run_request(req: &RunRequest) -> Result<RunReply, ExperimentError> {
    validate(req)?;
    // Benchmark-sourced functional cells go through the sweep runner so
    // they share the process-wide replay cache (`AC_REPLAY`): the
    // front-end runs at most once per (workload spec, L1-config, budget)
    // key and every cell replays the captured L2 stream against its own
    // organisation. Spec and trace-file sources stay on the direct path
    // below.
    if req.mode == "functional" {
        if let Some(name) = &req.benchmark {
            let suite = extended_suite();
            let b = suite.iter().find(|b| &b.name == name).ok_or_else(|| {
                ExperimentError::InvalidInput(format!(
                    "field `benchmark`: unknown benchmark {name:?} (try policy_explorer -- --list)"
                ))
            })?;
            let r = experiments::run_functional_l2_cfg(
                b,
                &req.l2,
                (
                    req.cpu.l2.size_bytes,
                    req.cpu.l2.line_bytes,
                    req.cpu.l2.associativity,
                ),
                req.insts,
                &req.cpu,
            )
            .map_err(|e| match e {
                ExperimentError::Geometry(g) => {
                    ExperimentError::InvalidInput(format!("field `cpu.l2`: bad geometry: {g}"))
                }
                other => other,
            })?;
            return Ok(RunReply {
                workload: name.clone(),
                l2: req.l2.label(),
                mode: req.mode.clone(),
                instructions: r.stats.instructions,
                l2_misses: r.stats.l2_misses,
                l2_mpki: r.stats.l2_mpki(),
                cycles: None,
                cpi: None,
            });
        }
    }
    let (workload, trace) = load_trace(req)?;
    let geom = Geometry::new(
        req.cpu.l2.size_bytes,
        req.cpu.l2.line_bytes,
        req.cpu.l2.associativity,
    )
    .map_err(|e| ExperimentError::InvalidInput(format!("field `cpu.l2`: bad geometry: {e}")))?;
    let l2 = req.l2.build(geom);
    let n = trace.len() as u64;

    match req.mode.as_str() {
        "functional" => {
            let mut h = Hierarchy::new(&req.cpu, l2);
            let s = run_functional(&mut h, trace.into_iter(), n);
            Ok(RunReply {
                workload,
                l2: req.l2.label(),
                mode: req.mode.clone(),
                instructions: s.instructions,
                l2_misses: s.l2_misses,
                l2_mpki: s.l2_mpki(),
                cycles: None,
                cpi: None,
            })
        }
        "timed" => {
            let mut pipe = Pipeline::new(req.cpu, l2);
            let s = pipe.run(trace.into_iter(), n);
            Ok(RunReply {
                workload,
                l2: req.l2.label(),
                mode: req.mode.clone(),
                instructions: s.instructions,
                l2_misses: s.l2.misses,
                l2_mpki: s.l2_mpki(),
                cycles: Some(s.cycles),
                cpi: Some(s.cpi()),
            })
        }
        other => Err(ExperimentError::InvalidInput(format!(
            "field `mode`: unknown mode {other:?} (functional|timed)"
        ))),
    }
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
        progress: Some(stem.clone()),
    };
    // Cell keys are the resume identity: the position plus the workload,
    // L2 label, mode and instruction budget, so editing one cell of the
    // config invalidates only that cell's checkpoint.
    let indexed: Vec<(usize, RunRequest)> = req.sweep.into_iter().enumerate().collect();
    let report = match resilience::run_sweep(
        &indexed,
        &cfg,
        |(i, c)| {
            let workload = c
                .benchmark
                .clone()
                .or_else(|| c.trace_file.clone())
                .unwrap_or_else(|| "spec".to_string());
            format!("{i}:{workload}:{}:{}:{}", c.l2.label(), c.mode, c.insts)
        },
        |(_, c): (usize, RunRequest)| run_request(&c),
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

/// Appends the bench's headline numbers to the history observatory; a
/// write failure downgrades to a warning (the bench itself succeeded).
fn append_bench_history(
    history_path: &Path,
    kind: &str,
    quick: bool,
    metrics: std::collections::BTreeMap<String, f64>,
) {
    let record = bench::history::record(kind, quick, metrics);
    match bench::history::append(history_path, &record) {
        Ok(()) => println!("appended {}", history_path.display()),
        Err(e) => eprintln!("cachesim: cannot append {}: {e}", history_path.display()),
    }
}

/// `cachesim bench [--sweep | --concurrent] [--quick] [--threads <n>]
/// [--shards <n>] [--out <path>] [--history <path>]
/// [--trend [--threshold <pct>]]`: measure access throughput per
/// organisation (against the seed-layout baselines where they exist) and
/// write `results/bench_access.json` — or, with `--sweep`, time a
/// fig03-style functional sweep replay-on vs replay-off and write
/// `results/bench_sweep.json` — or, with `--concurrent`, drive the
/// sharded concurrent front end across a thread ladder (up to
/// `--threads`, default the host's logical cores) and write
/// `results/bench_concurrent.json`. Every bench appends one line to the
/// history observatory (`results/bench_history.jsonl`); `--trend` skips
/// benching and instead prints the recorded trajectory, exiting 4 when
/// the newest record of a series regressed beyond the threshold
/// (`--threshold` / `AC_BENCH_MAX_REGRESSION_PCT`, default 10%).
fn run_bench_subcommand(rest: &[String]) -> i32 {
    let mut quick = false;
    let mut sweep = false;
    let mut concurrent = false;
    let mut trend = false;
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut history: Option<String> = None;
    let mut threshold: Option<f64> = None;
    let parse_count = |flag: &str, v: Option<&String>| -> usize {
        match v.and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => die_invalid(&format!("flag `{flag}` wants a positive integer")),
        }
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => quick = true,
            "--sweep" => sweep = true,
            "--concurrent" => concurrent = true,
            "--trend" => trend = true,
            "--threads" => {
                i += 1;
                threads = Some(parse_count("--threads", rest.get(i)));
            }
            "--shards" => {
                i += 1;
                shards = Some(parse_count("--shards", rest.get(i)));
            }
            "--out" => {
                i += 1;
                match rest.get(i) {
                    Some(p) => out = Some(p.clone()),
                    None => die_invalid("flag `--out` requires a path operand"),
                }
            }
            "--history" => {
                i += 1;
                match rest.get(i) {
                    Some(p) => history = Some(p.clone()),
                    None => die_invalid("flag `--history` requires a path operand"),
                }
            }
            "--threshold" => {
                i += 1;
                match rest.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(pct) if pct >= 0.0 => threshold = Some(pct),
                    _ => die_invalid("flag `--threshold` wants a non-negative percentage"),
                }
            }
            other => {
                if let Some(p) = other.strip_prefix("--out=") {
                    out = Some(p.to_string());
                } else if let Some(p) = other.strip_prefix("--history=") {
                    history = Some(p.to_string());
                } else if let Some(p) = other.strip_prefix("--threads=") {
                    threads = Some(parse_count("--threads", Some(&p.to_string())));
                } else if let Some(p) = other.strip_prefix("--shards=") {
                    shards = Some(parse_count("--shards", Some(&p.to_string())));
                } else if let Some(p) = other.strip_prefix("--threshold=") {
                    match p.parse::<f64>() {
                        Ok(pct) if pct >= 0.0 => threshold = Some(pct),
                        _ => die_invalid("flag `--threshold` wants a non-negative percentage"),
                    }
                } else {
                    die_invalid(&format!("unknown bench flag `{other}`"));
                }
            }
        }
        i += 1;
    }
    let history_path = history.unwrap_or_else(|| bench::history::DEFAULT_HISTORY_PATH.to_string());
    let history_path = Path::new(&history_path);

    if trend {
        let threshold = threshold
            .or_else(|| {
                std::env::var("AC_BENCH_MAX_REGRESSION_PCT")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(bench::history::DEFAULT_TREND_PCT);
        return bench::history::run_trend(history_path, threshold);
    }

    if concurrent {
        let out = out.unwrap_or_else(|| "results/bench_concurrent.json".to_string());
        let report = bench::concurrent_bench::run(quick, threads, shards);
        bench::concurrent_bench::print_report(&report);
        let path = Path::new(&out);
        match bench::concurrent_bench::write_report(&report, path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cachesim: cannot write {}: {e}", path.display());
                return 1;
            }
        }
        let metrics = bench::concurrent_bench::history_metrics(&report);
        let mut record = bench::history::record("concurrent", quick, metrics);
        record.threads = report.rows.iter().map(|r| r.threads as u32).max();
        record.shards = Some(report.shards as u32);
        match bench::history::append(history_path, &record) {
            Ok(()) => println!("appended {}", history_path.display()),
            Err(e) => eprintln!("cachesim: cannot append {}: {e}", history_path.display()),
        }
        return 0;
    }

    if sweep {
        let out = out.unwrap_or_else(|| "results/bench_sweep.json".to_string());
        let report = bench::sweep_bench::run(quick);
        bench::sweep_bench::print_report(&report);
        if ac_telemetry::enabled() {
            ac_telemetry::gauge_set("bench.sweep_speedup", report.speedup);
        }
        let path = Path::new(&out);
        match bench::sweep_bench::write_report(&report, path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cachesim: cannot write {}: {e}", path.display());
                return 1;
            }
        }
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert(
            "cells_per_sec_replay_off".to_string(),
            report.replay_off.cells_per_sec,
        );
        metrics.insert(
            "cells_per_sec_replay_on".to_string(),
            report.replay_on.cells_per_sec,
        );
        metrics.insert("sweep_speedup".to_string(), report.speedup);
        append_bench_history(history_path, "sweep", quick, metrics);
        return 0;
    }

    let out = out.unwrap_or_else(|| "results/bench_access.json".to_string());
    let report = bench::access_bench::run(quick);
    bench::access_bench::print_report(&report);
    if ac_telemetry::enabled() {
        for org in &report.organisations {
            ac_telemetry::gauge_set_labeled(
                "bench.accesses_per_sec",
                &org.name,
                org.accesses_per_sec,
            );
        }
        // Which probe-kernel tier the numbers above were produced with
        // (CI asserts the native job actually engaged the vector path).
        let level = cache_sim::simd::active_level();
        ac_telemetry::gauge_set_labeled("engine.simd_level", level.name(), f64::from(level as u8));
    }
    let path = Path::new(&out);
    match bench::access_bench::write_report(&report, path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cachesim: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    let metrics = report
        .organisations
        .iter()
        .map(|org| {
            (
                format!("accesses_per_sec/{}", org.name),
                org.accesses_per_sec,
            )
        })
        .collect();
    append_bench_history(history_path, "access", quick, metrics);
    0
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
    // The introspection server (`--serve <addr>` / `AC_SERVE`) outlives
    // the whole dispatch; `dispatch` *returns* its exit code instead of
    // exiting so the normal paths shut the server down and release the
    // port deterministically. (The `die_invalid` paths still leave via
    // `process::exit` — the OS reclaims the port there.)
    let server = match bench::init_serve(&mut args) {
        Ok(s) => s,
        Err(e) => die_invalid(&e),
    };
    let code = dispatch(args);
    if let Some(s) = server {
        s.shutdown();
    }
    std::process::exit(code);
}

fn dispatch(mut args: Vec<String>) -> i32 {
    let mut arg = args.first().cloned().unwrap_or_default();
    if arg == "--template" {
        println!("{}", to_json(&template()));
        return 0;
    }
    if arg == "bench" {
        let code = run_bench_subcommand(&args[1..]);
        bench::finish_telemetry();
        return code;
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
            "usage: cachesim [--telemetry <dir> | --metrics] [--serve <addr>] [run] <run.json> | cachesim --template | cachesim figure {all|<stem>...} | cachesim bench [--sweep | --concurrent] [--quick] [--threads <n>] [--shards <n>] [--out <path>] [--history <path>] [--trend [--threshold <pct>]] | cachesim report <run-dir> [--compare <old-run-dir>] [--out <file>] [--threshold <pct>] | cachesim audit <run-dir> [--config <run.json>] [--window <insts>] [--out <file>] [--history <path>] [--no-history]",
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
            // Persist the request next to the telemetry artifacts so
            // `cachesim audit <dir>` can rebuild this exact run later.
            write_run_config(&req);
            match run_request(&req) {
                Ok(reply) => {
                    println!("{}", to_json(&reply));
                    bench::finish_telemetry();
                    0
                }
                Err(e) => die_invalid(&e.to_string()),
            }
        }
        Input::Sweep(sweep) => {
            if sweep.sweep.is_empty() {
                die_invalid("field `sweep`: must contain at least one run");
            }
            for (i, cell) in sweep.sweep.iter().enumerate() {
                if let Err(e) = validate(cell) {
                    die_invalid(&format!("sweep cell {i}: {e}"));
                }
            }
            let code = run_sweep_request(sweep, Path::new(&arg));
            bench::finish_telemetry();
            code
        }
    }
}
