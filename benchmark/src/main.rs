//! `acbench` — the repository's benchmark.
//!
//! ```text
//! acbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! acbench goldens
//! ```
//!
//! A run builds its inputs from `--seed`, checks the simulator's outputs
//! (a run with any wrong output exits 1), measures for `--seconds`, and
//! prints two JSON lines on stdout: the full record (metric quartiles,
//! host stamps), then the one-line result. A table goes to stderr.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer ledger instead and writes `<out>/trace.json`.
//!
//! `acbench goldens` prints the per-cell digests `goldens.json` holds.
//! See `README.md` for the workloads and metrics.

mod concurrent;
mod digest;
mod harness;
mod ledger;
mod meter;
mod record;
mod stats;
mod sweeps;
mod sys;
mod trace;

use harness::{Ctx, Outcome, Timings};
use record::{Host, Metric, Record};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: acbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--out <dir>]\n       acbench goldens\nworkloads: sweep_functional sweep_timed \
concurrent_zipf concurrent_phase";

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sweep_functional",
    "sweep_timed",
    "concurrent_zipf",
    "concurrent_phase",
];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| bad("a workload name"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Memoised replay stays in memory (no on-disk store is read or
/// written), and no telemetry hub is ever installed.
fn pin_environment() {
    std::env::set_var("AC_REPLAY", "1");
    std::env::set_var("AC_REPLAY_DIR", "");
}

fn run_workload(ctx: &Ctx, workload: &str) -> Outcome {
    match workload {
        "sweep_functional" => sweeps::functional(ctx),
        "sweep_timed" => sweeps::timed(ctx),
        "concurrent_zipf" => concurrent::run(ctx, &concurrent::zipf()),
        "concurrent_phase" => concurrent::run(ctx, &concurrent::phase()),
        other => unreachable!("{other} was validated by parse"),
    }
}

fn end_to_end(out: &Timings) -> Vec<Metric> {
    let rss = sys::peak_rss_mib().expect("the kernel reports VmHWM in /proc/self/status");
    vec![
        Metric::sampled("throughput", "items/s", &out.throughput),
        Metric::sampled("setup_s", "s", &out.setup_s),
        Metric::single("peak_rss_mb", "MiB", rss),
    ]
}

/// The wall-clock values behind the reference-host times.
fn context(out: &Timings) -> Vec<Metric> {
    vec![
        Metric::sampled("raw.setup_s", "s", &out.raw_setup_s),
        Metric::sampled("raw.throughput", "items/s", &out.raw_throughput),
        Metric::sampled("raw.kernel_rate", "1/s", &out.kernel_rate),
    ]
}

fn per_layer(ctx: &Ctx, workload: &str, out: &Timings) -> Vec<Metric> {
    let spec = if workload == "concurrent_phase" {
        concurrent::phase()
    } else {
        concurrent::zipf()
    };
    let mut metrics = ledger::measure(ctx, &spec);
    metrics.push(Metric::single(
        "bench.trace_overhead_frac",
        "frac",
        stats::median(&out.trace_overhead),
    ));
    metrics
}

fn goldens() -> ExitCode {
    let mut doc = serde_json::Map::new();
    for workload in ["sweep_functional", "sweep_timed"] {
        let mut seeds = serde_json::Map::new();
        for seed in [0, 1] {
            let ctx = Ctx {
                seed,
                seconds: 0.0,
                tracer: Tracer::new(false),
            };
            // The replay cache is keyed by benchmark name, not by the
            // generator seed: drop the previous seed's captures.
            experiments::replay_cache::clear();
            let cells = sweeps::digests(workload, &sweeps::suite(&ctx));
            seeds.insert(seed.to_string(), serde_json::json!(digest::to_hex(&cells)));
        }
        doc.insert(workload.to_string(), serde_json::Value::Object(seeds));
    }
    let text =
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("digests serialise");
    println!("{text}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    pin_environment();
    if argv.first().map(String::as_str) == Some("goldens") && argv.len() == 1 {
        return goldens();
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let host = Host::detect();
    let out = run_workload(&ctx, args.workload);
    let metrics = if args.trace {
        per_layer(&ctx, args.workload, &out.timings)
    } else {
        end_to_end(&out.timings)
    };
    debug_assert!(metrics.iter().all(|m| record::valid_name(&m.name)));
    if args.trace {
        if let Err(e) = ctx.tracer.write(&args.out) {
            eprintln!(
                "acbench: cannot write {}: {e}",
                args.out.join("trace.json").display()
            );
            return ExitCode::from(1);
        }
    }
    let record = Record {
        workload: args.workload.to_string(),
        seed: args.seed,
        traced: args.trace,
        attempted: out.checks.attempted,
        failed: out.checks.failed,
        metrics,
        context: context(&out.timings),
    };
    eprint!("{}", record.table(&host));
    println!("{}", record.detail_json(&host));
    println!("{}", record.result_json());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let a = parse(&argv(
            "--workload concurrent_zipf --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "concurrent_zipf");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(a.out, PathBuf::from(".bench_out"));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep_timed --seed -1 --seconds 1 --trace 0",
            "--workload sweep_timed --seed 1 --seconds 1 --trace 2",
            "--workload sweep_timed --seed 1 --seconds 1",
            "--workload sweep_timed --seed 1 --seconds 1 --trace 0 --extra x",
            "--workload sweep_timed --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    /// The descriptor the benchmark is run from, at the repository root.
    const DESCRIPTOR: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn descriptor_lists_these_workloads_and_metrics() {
        let d: serde_json::Value = serde_json::from_str(DESCRIPTOR).unwrap();
        let entries = |key: &str| -> Vec<(String, String)> {
            d[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|e| {
                    let field = |f: &str| e[f].as_str().unwrap_or_default().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = entries("workloads").into_iter().map(|e| e.0).collect();
        assert_eq!(workloads, WORKLOADS);

        let timings = Timings {
            throughput: vec![1.0],
            setup_s: vec![1.0],
            ..Timings::default()
        };
        let emitted: Vec<(String, String)> = end_to_end(&timings)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(entries("end_to_end"), emitted);

        let per_layer = entries("per_layer");
        assert!(per_layer.iter().any(|e| e.0 == "bench.trace_overhead_frac"));
        for (name, _) in emitted.iter().chain(&per_layer) {
            assert!(record::valid_name(name), "{name}");
        }
    }
}
