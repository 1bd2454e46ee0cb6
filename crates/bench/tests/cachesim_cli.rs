//! End-to-end tests of the `cachesim` binary: JSON in, JSON out, typed
//! exit codes (0 = ok, 2 = partial sweep, 3 = invalid input), journal
//! checkpointing and `AC_RESUME=1` resume, for JSON sweeps and for
//! `cachesim figure`, and the telemetry artifacts as a live view of a
//! running sweep — all through a real subprocess, the way a user drives
//! it.

use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cachesim")
}

/// A scratch working directory (the journal lands in `<cwd>/results/`).
fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ac_cachesim_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_in(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args).current_dir(dir).env_remove("AC_RESUME");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("cachesim did not start")
}

fn cell(bench: &str, l2: &str) -> String {
    format!(r#"{{"benchmark":"{bench}","l2":{l2},"mode":"functional","insts":20000}}"#)
}

/// 3 benchmarks × 3 L2 organisations, with cell `poison`'s L2 wrapped in
/// a panic-on-first-access fault injector.
fn sweep_config(poison: Option<usize>) -> String {
    let benches = ["ammp", "applu", "mcf"];
    let l2s = [
        r#"{"Plain":"Lru"}"#,
        r#"{"Plain":"Fifo"}"#,
        r#"{"Plain":"Mru"}"#,
    ];
    let mut cells = Vec::new();
    for b in benches {
        for l2 in l2s {
            let i = cells.len();
            let l2 = if poison == Some(i) {
                format!(r#"{{"Faulty":{{"fault":{{"panic_at_access":1}},"inner":{l2}}}}}"#)
            } else {
                l2.to_string()
            };
            cells.push(cell(b, &l2));
        }
    }
    format!(r#"{{"name":"accept","sweep":[{}]}}"#, cells.join(","))
}

fn statuses(stdout: &[u8]) -> Vec<String> {
    let v: Value = serde_json::from_slice(stdout).expect("stdout is a JSON array");
    v.as_array()
        .expect("array of cell replies")
        .iter()
        .map(|c| c["status"].as_str().unwrap().to_string())
        .collect()
}

fn count(statuses: &[String], s: &str) -> usize {
    statuses.iter().filter(|x| x.as_str() == s).count()
}

#[test]
fn template_emits_a_valid_single_run_config() {
    let dir = tmp_dir("template");
    let out = run_in(&dir, &["--template"], &[]);
    assert!(out.status.success());
    let v: Value = serde_json::from_slice(&out.stdout).expect("template is JSON");
    assert!(v["benchmark"].is_string());
    assert_eq!(v["mode"].as_str(), Some("timed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_run_exits_zero_with_a_reply() {
    let dir = tmp_dir("single");
    let cfg = dir.join("run.json");
    std::fs::write(&cfg, cell("mcf", r#"{"Plain":"Lru"}"#)).unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["workload"].as_str(), Some("mcf"));
    assert_eq!(v["instructions"].as_u64(), Some(20000));
    assert!(v["l2_mpki"].as_f64().unwrap() >= 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_sweep_exits_partial_then_resumes_only_the_failed_cell() {
    let dir = tmp_dir("sweep");
    let cfg = dir.join("grid.json");
    std::fs::write(&cfg, sweep_config(Some(4))).unwrap();

    // Kill run: the poisoned cell fails, the 8 others complete, exit 2.
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let st = statuses(&out.stdout);
    assert_eq!(st.len(), 9);
    assert_eq!(count(&st, "ok"), 8, "{st:?}");
    assert_eq!(count(&st, "failed"), 1);
    assert_eq!(st[4], "failed", "the poisoned cell is the one that fails");
    let journal = dir.join("results/accept.journal.jsonl");
    assert!(journal.exists(), "journal must be written");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("AC_RESUME=1"),
        "partial runs advertise resume: {stderr}"
    );

    // Fix the config (same keys for the healthy cells) and resume:
    // the 8 journalled cells are skipped, only the fixed cell computes.
    std::fs::write(&cfg, sweep_config(None)).unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[("AC_RESUME", "1")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let st = statuses(&out.stdout);
    assert_eq!(count(&st, "resumed"), 8, "{st:?}");
    assert_eq!(count(&st, "ok"), 1);
    assert_eq!(st[4], "ok", "only the previously failed cell recomputes");

    // Journal now proves all nine complete; a third resume run computes
    // nothing at all.
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[("AC_RESUME", "1")]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(count(&statuses(&out.stdout), "resumed"), 9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_workload_source_exits_invalid() {
    // A field that names no workload source, such as a stale
    // `trace_file`, is ignored like any unknown field.
    for bad in [
        r#"{"l2":{"Plain":"Lru"},"mode":"functional","insts":1000}"#,
        r#"{"trace_file":"x.actr","l2":{"Plain":"Lru"},"mode":"functional","insts":1000}"#,
    ] {
        let dir = tmp_dir("nosource");
        let cfg = dir.join("bad.json");
        std::fs::write(&cfg, bad).unwrap();
        let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
        assert_eq!(out.status.code(), Some(3), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`benchmark`"),
            "error names the fields: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn conflicting_workload_sources_exit_invalid_naming_both_fields() {
    let dir = tmp_dir("conflict");
    let cfg = dir.join("bad.json");
    let spec = mcf_spec_with(|_| {});
    std::fs::write(
        &cfg,
        format!(
            r#"{{"benchmark":"mcf","spec":{spec},"l2":{{"Plain":"Lru"}},"mode":"functional","insts":1000}}"#
        ),
    )
    .unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`benchmark`") && stderr.contains("`spec`"),
        "both offending fields are named: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mcf`'s suite spec as JSON, after `edit` of its instruction mix.
fn mcf_spec_with(edit: fn(&mut workloads::MixSpec)) -> String {
    let mut mcf = workloads::extended_suite()
        .into_iter()
        .find(|b| b.name == "mcf")
        .unwrap();
    edit(&mut mcf.spec.mix);
    serde_json::to_string(&mcf.spec).unwrap()
}

/// A functional 20 000-instruction cell running `spec` inline.
fn spec_cell(spec: &str) -> String {
    format!(r#"{{"spec":{spec},"l2":{{"Plain":"Lru"}},"mode":"functional","insts":20000}}"#)
}

/// A timed 20 000-instruction `mcf` cell on the paper's processor after
/// `edit`.
fn cpu_cell(edit: fn(&mut cpu_model::CpuConfig)) -> String {
    let mut cpu = cpu_model::CpuConfig::paper_default();
    edit(&mut cpu);
    let cpu = serde_json::to_string(&cpu).unwrap();
    format!(
        r#"{{"benchmark":"mcf","l2":{{"Plain":"Lru"}},"mode":"timed","insts":20000,"cpu":{cpu}}}"#
    )
}

#[test]
fn bad_sweep_cell_is_rejected_before_anything_runs() {
    // Each bad second cell must reject the whole sweep up front (exit 3,
    // naming the cell and the field) before any cell runs or the journal
    // opens.
    let bad_cells = [
        (
            r#"{"l2":{"Plain":"Lru"},"mode":"functional","insts":1000}"#.to_string(),
            "`benchmark`",
        ),
        (
            cell("mcf", r#"{"Plain":"Lru"}"#).replace("functional", "timd"),
            "`mode`",
        ),
        (cell("no-such-bench", r#"{"Plain":"Lru"}"#), "no-such-bench"),
        (
            spec_cell(&mcf_spec_with(|m| m.mean_dep_dist = 0.5)),
            "`spec.mix.mean_dep_dist`",
        ),
        (
            spec_cell(&mcf_spec_with(|m| m.line_burst = 0)),
            "`spec.mix.line_burst`",
        ),
        (cpu_cell(|c| c.l1d.size_bytes = 1000), "`cpu.l1d`"),
        (cpu_cell(|c| c.l2.associativity = 7), "`cpu.l2`"),
        (cpu_cell(|c| c.bus_bytes = 0), "`cpu.bus_bytes`"),
    ];
    for (bad, field) in bad_cells {
        let dir = tmp_dir("badcell");
        let cfg = dir.join("bad.json");
        std::fs::write(
            &cfg,
            format!(
                r#"{{"name":"bad","sweep":[{},{bad}]}}"#,
                cell("mcf", r#"{"Plain":"Lru"}"#)
            ),
        )
        .unwrap();
        let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{bad}: {stderr}");
        assert!(stderr.contains("sweep cell 1"), "{bad}: {stderr}");
        assert!(stderr.contains(field), "{bad}: {stderr}");
        assert!(
            !dir.join("results/bad.journal.jsonl").exists(),
            "{bad}: nothing may run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_deadline_no_duration_can_hold_is_rejected_before_anything_runs() {
    for secs in ["-1", "1e300", "0"] {
        let dir = tmp_dir("deadline");
        let cfg = dir.join("bad.json");
        std::fs::write(
            &cfg,
            format!(
                r#"{{"name":"bad","deadline_secs":{secs},"sweep":[{}]}}"#,
                cell("mcf", r#"{"Plain":"Lru"}"#)
            ),
        )
        .unwrap();
        let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{secs}: {stderr}");
        assert!(stderr.contains("`deadline_secs`"), "{secs}: {stderr}");
        assert!(out.stdout.is_empty(), "{secs}: nothing may run");
        assert!(
            !dir.join("results").exists(),
            "{secs}: nothing may be written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `--template`'s single run as a functional `mcf` cell, with each
/// `(from, to)` edit then applied to its text.
fn template_cell(dir: &Path, edits: &[(&str, &str)]) -> String {
    let out = run_in(dir, &["--template"], &[]);
    let mut text = String::from_utf8(out.stdout).unwrap();
    let retarget = [
        (r#""art-1""#, r#""mcf""#),
        (r#""timed""#, r#""functional""#),
        ("2000000", "50000"),
    ];
    for (from, to) in retarget.iter().chain(edits) {
        assert!(text.contains(from), "{from} not in the template: {text}");
        text = text.replace(from, to);
    }
    text
}

/// Runs `cells` as the sweep `name` in `dir`, after `flags`; returns
/// each cell's (status, l2_misses).
fn sweep_cells(
    dir: &Path,
    name: &str,
    cells: &[String],
    flags: &[&str],
    env: &[(&str, &str)],
) -> Vec<(String, u64)> {
    let cfg = dir.join(format!("{name}.json"));
    let sweep = format!(r#"{{"name":"{name}","sweep":[{}]}}"#, cells.join(","));
    std::fs::write(&cfg, sweep).unwrap();
    let args: Vec<&str> = flags
        .iter()
        .copied()
        .chain([cfg.to_str().unwrap()])
        .collect();
    let out = run_in(dir, &args, env);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: Value = serde_json::from_slice(&out.stdout).unwrap();
    v.as_array()
        .unwrap()
        .iter()
        .map(|c| {
            let misses = c["result"]["l2_misses"].as_u64().unwrap();
            (c["status"].as_str().unwrap().to_string(), misses)
        })
        .collect()
}

#[test]
fn editing_any_field_of_a_sweep_cell_invalidates_its_checkpoint() {
    let dir = tmp_dir("cellkey");
    let fresh = tmp_dir("cellkey_fresh");
    let resume = [("AC_RESUME", "1")];
    let base = [template_cell(&dir, &[])];
    assert_eq!(sweep_cells(&dir, "one", &base, &[], &[])[0].0, "ok");

    // A smaller L2 leaves the label unchanged; the cell must recompute,
    // and match a fresh run of the edited cell.
    let small_l2 = ("524288", "65536");
    let small = [template_cell(&dir, &[small_l2])];
    let resumed = sweep_cells(&dir, "one", &small, &[], &resume);
    assert_eq!(resumed[0].0, "ok", "an edited L2 size must not resume");
    assert_eq!(resumed, sweep_cells(&fresh, "one", &small, &[], &[]));

    // So must a history length, which the label does not show either.
    let short = [template_cell(&dir, &[small_l2, (r#""m": 8"#, r#""m": 1"#)])];
    let resumed = sweep_cells(&dir, "one", &short, &[], &resume);
    assert_eq!(resumed[0].0, "ok", "an edited history must not resume");

    // An unedited cell still resumes.
    let resumed = sweep_cells(&dir, "one", &short, &[], &resume);
    assert_eq!(resumed[0].0, "resumed");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn inline_spec_cells_share_the_replay_cache() {
    let dir = tmp_dir("inline_spec");
    let mcf = workloads::extended_suite()
        .into_iter()
        .find(|b| b.name == "mcf")
        .unwrap();
    let spec = serde_json::to_string(&mcf.spec).unwrap();
    let cells = |source: &str| -> Vec<String> {
        [
            r#"{"Plain":"Lru"}"#,
            r#"{"Plain":"Fifo"}"#,
            r#"{"Plain":"Mru"}"#,
        ]
        .iter()
        .map(|l2| format!(r#"{{{source},"l2":{l2},"mode":"functional","insts":20000}}"#))
        .collect()
    };
    let tele = dir.join("tele");
    let inline = sweep_cells(
        &dir,
        "inline",
        &cells(&format!(r#""spec":{spec}"#)),
        &["--telemetry", tele.to_str().unwrap()],
        &[],
    );
    let prom = std::fs::read_to_string(tele.join("metrics.prom")).unwrap();
    let lines: Vec<&str> = prom.lines().collect();
    assert!(
        lines.contains(&"ac_replay_cache_captures_total 1"),
        "{prom}"
    );
    assert!(lines.contains(&"ac_replay_cache_hits_total 2"), "{prom}");

    let by_name = sweep_cells(&dir, "by_name", &cells(r#""benchmark":"mcf""#), &[], &[]);
    assert_eq!(inline, by_name);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_single_run_with_an_invalid_inline_spec_exits_invalid() {
    let dir = tmp_dir("badspec");
    let cfg = dir.join("bad.json");
    std::fs::write(&cfg, spec_cell(&mcf_spec_with(|m| m.mean_dep_dist = 0.5))).unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("`spec.mix.mean_dep_dist`"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
    assert!(!dir.join("results").exists(), "nothing may be written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `cell` as a single run under `--telemetry <dir>/<name>`, audits
/// that directory, and returns its `audit.json`.
fn audit_of(dir: &Path, name: &str, cell: &str) -> Value {
    let cfg = dir.join(format!("{name}.json"));
    std::fs::write(&cfg, cell).unwrap();
    let run_dir = dir.join(name);
    let run_dir = run_dir.to_str().unwrap();
    for args in [
        &["--telemetry", run_dir, cfg.to_str().unwrap()][..],
        &["audit", run_dir],
    ] {
        let out = run_in(dir, args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    let text = std::fs::read_to_string(dir.join(name).join("audit.json")).unwrap();
    serde_json::from_str(&text).unwrap()
}

#[test]
fn an_inline_spec_run_audits_like_the_same_benchmark_by_name() {
    let dir = tmp_dir("audit_inline");
    let inline = template_cell(
        &dir,
        &[(
            r#""benchmark": "mcf""#,
            &format!(r#""spec": {}"#, mcf_spec_with(|_| {})),
        )],
    );
    let by_name = template_cell(&dir, &[]);
    let inline = audit_of(&dir, "inline", &inline);
    let by_name = audit_of(&dir, "by_name", &by_name);
    for field in ["accesses", "achieved_hits", "achieved_misses", "opt_hits"] {
        assert_eq!(inline[field], by_name[field], "{field}");
    }
    for comp in ["comp_a", "comp_b"] {
        assert!(by_name[comp]["hits"].as_u64().is_some(), "{comp}");
        assert_eq!(inline[comp]["hits"], by_name[comp]["hits"], "{comp}");
    }
    assert_eq!(inline["per_set"], by_name["per_set"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--telemetry <dir>` takes every setting but the directory from the
/// environment, as `AC_TELEMETRY=<dir>` does: a zero timeline window
/// turns timelines off either way.
#[test]
fn telemetry_flag_takes_the_artifact_shapes_from_the_environment() {
    let dir = tmp_dir("tele_shapes");
    let cfg = dir.join("applu.json");
    let applu = template_cell(&dir, &[(r#""mcf""#, r#""applu""#), ("50000", "300000")]);
    std::fs::write(&cfg, applu).unwrap();
    let cfg = cfg.to_str().unwrap();
    let off = ("AC_TIMELINE_WINDOW", "0");
    let runs = [
        ("flag", vec!["--telemetry", "flag", cfg], vec![], true),
        (
            "flag_off",
            vec!["--telemetry", "flag_off", cfg],
            vec![off],
            false,
        ),
        (
            "env_off",
            vec![cfg],
            vec![("AC_TELEMETRY", "env_off"), off],
            false,
        ),
    ];
    for (name, args, env, written) in runs {
        let out = run_in(&dir, &args, &env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        let run_dir = dir.join(name);
        assert!(run_dir.join("metrics.prom").exists(), "{name}");
        let exists = run_dir.join("timeline.jsonl").exists();
        assert_eq!(exists, written, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses a Prometheus text exposition into `series -> value`, failing
/// on any line that is neither a comment nor `<series> <number>`.
fn parse_prom(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("malformed exposition line {l:?}"));
            let value = value
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric value in {l:?}"));
            (series.to_string(), value)
        })
        .collect()
}

/// Kills the child if the test fails before it exits.
struct Reaper(std::process::Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// With `AC_TELEMETRY_FLUSH_MS`, the artifact directory is the live view
/// of a sweep: while the last cell stalls, `metrics.prom` already counts
/// the settled cells against the sweep's size, every read parses, and
/// the counts never go backwards.
#[test]
fn periodic_flush_shows_a_sweep_settling_mid_run() {
    let dir = tmp_dir("flush");
    let stall = r#"{"Faulty":{"fault":{"stall_at_access":1,"stall_millis":2000},"inner":{"Plain":"Fifo"}}}"#;
    let cells = [
        cell("ammp", r#"{"Plain":"Lru"}"#),
        cell("applu", r#"{"Plain":"Lru"}"#),
        cell("mcf", r#"{"Plain":"Lru"}"#),
        cell("mcf", stall),
    ];
    let total = cells.len() as f64;
    let cfg = dir.join("flush.json");
    let sweep = format!(r#"{{"name":"flush","sweep":[{}]}}"#, cells.join(","));
    std::fs::write(&cfg, sweep).unwrap();
    let tele = dir.join("tele");
    let child = Command::new(bin())
        .args(["--telemetry", tele.to_str().unwrap(), cfg.to_str().unwrap()])
        .current_dir(&dir)
        .env_remove("AC_RESUME")
        .env("AC_TELEMETRY_FLUSH_MS", "50")
        .stdout(Stdio::from(
            std::fs::File::create(dir.join("stdout")).unwrap(),
        ))
        .stderr(Stdio::from(
            std::fs::File::create(dir.join("stderr")).unwrap(),
        ))
        .spawn()
        .expect("cachesim did not start");
    let mut child = Reaper(child);

    let ok = |prom: &HashMap<String, f64>| {
        prom.get(r#"ac_cells_total{label="ok"}"#)
            .copied()
            .unwrap_or(0.0)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen: Vec<f64> = Vec::new();
    let mut mid_run = false;
    let status = loop {
        if let Ok(text) = std::fs::read_to_string(tele.join("metrics.prom")) {
            let prom = parse_prom(&text);
            let done = ok(&prom);
            if let Some(&prev) = seen.last() {
                assert!(
                    done >= prev,
                    "ok count went backwards: {seen:?} then {done}"
                );
            }
            seen.push(done);
            let running = child.0.try_wait().unwrap().is_none();
            if running && done > 0.0 && done < total {
                assert_eq!(prom.get("ac_sweep_cells"), Some(&total), "{text}");
                mid_run = true;
            }
        }
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "sweep did not finish: {seen:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = std::fs::read_to_string(dir.join("stderr")).unwrap();
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(mid_run, "no mid-run flush showed settled cells: {seen:?}");

    let prom = parse_prom(&std::fs::read_to_string(tele.join("metrics.prom")).unwrap());
    assert_eq!(ok(&prom), total);
    assert_eq!(prom.get("ac_sweep_cells"), Some(&total));
    let journal = std::fs::read_to_string(dir.join("results/flush.journal.jsonl")).unwrap();
    let settled: Vec<Value> = journal
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(settled.len(), cells.len(), "{journal}");
    assert!(
        settled.iter().all(|e| e["status"].as_str() == Some("ok")),
        "{journal}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_mode_and_unknown_benchmark_exit_invalid() {
    let dir = tmp_dir("badfields");
    let cfg = dir.join("bad.json");
    std::fs::write(
        &cfg,
        cell("mcf", r#"{"Plain":"Lru"}"#).replace("functional", "warp"),
    )
    .unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`mode`"));

    std::fs::write(&cfg, cell("no-such-bench", r#"{"Plain":"Lru"}"#)).unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-bench"));

    std::fs::write(&cfg, cpu_cell(|c| c.l1d.size_bytes = 1000)).unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`cpu.l1d`"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_arguments_is_usage_error() {
    let dir = tmp_dir("noargs");
    let out = run_in(&dir, &[], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed copy of `results/<stem>.csv`.
fn committed_csv(stem: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{stem}.csv"));
    std::fs::read(path).unwrap()
}

#[test]
fn figure_writes_the_committed_tables_then_resumes_them() {
    let dir = tmp_dir("figure");
    let args = ["figure", "table_storage", "sec47_overheads"];
    let out = run_in(&dir, &args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    // CSV only: the JSON's key order depends on the serializer.
    for stem in ["table_storage", "sec47_overheads"] {
        let written = std::fs::read(dir.join(format!("results/{stem}.csv"))).unwrap();
        assert!(written == committed_csv(stem), "{stem}.csv differs");
        assert!(dir.join(format!("results/{stem}.json")).exists());
    }
    assert!(stderr.contains("2 cells: 2 ok (0 resumed)"), "{stderr}");

    let out = run_in(&dir, &args, &[("AC_RESUME", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("2 cells: 2 ok (2 resumed)"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_resume_is_keyed_by_the_instruction_budget() {
    let dir = tmp_dir("figure_budget");
    let fresh = tmp_dir("figure_budget_fresh");
    let args = ["figure", "fig08_fifo_mru"];
    let csv = |d: &Path| std::fs::read(d.join("results/fig08_fifo_mru.csv")).unwrap();
    let run = |d: &Path, insts: &str, resume: bool| {
        let resume = if resume { "1" } else { "0" };
        let out = run_in(d, &args, &[("AC_INSTS", insts), ("AC_RESUME", resume)]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        stderr
    };
    run(&dir, "3000", false);
    let small = csv(&dir);

    // Another budget is recomputed, and matches a fresh run at it.
    let stderr = run(&dir, "6000", true);
    assert!(stderr.contains("78 cells: 78 ok (0 resumed)"), "{stderr}");
    run(&fresh, "6000", false);
    assert!(csv(&dir) == csv(&fresh), "recomputed table differs");
    assert!(csv(&dir) != small, "the budgets must give different tables");

    // Either budget journalled before still resumes, and rewrites its
    // own table.
    std::fs::remove_file(dir.join("results/fig08_fifo_mru.csv")).unwrap();
    let stderr = run(&dir, "6000", true);
    assert!(stderr.contains("78 cells: 78 ok (78 resumed)"), "{stderr}");
    assert!(csv(&dir) == csv(&fresh), "resumed 6000 table differs");
    let stderr = run(&dir, "3000", true);
    assert!(stderr.contains("78 cells: 78 ok (78 resumed)"), "{stderr}");
    assert!(csv(&dir) == small, "resumed 3000 table differs");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn figure_whose_artifacts_cannot_be_written_is_not_produced() {
    let dir = tmp_dir("figure_unwritable");
    let csv = dir.join("results/table_storage.csv");
    std::fs::create_dir_all(&csv).unwrap();
    let out = run_in(&dir, &["figure", "table_storage"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("could not write results/table_storage"),
        "{stderr}"
    );
    assert!(stderr.contains("1 failed"), "{stderr}");

    // Once the path is writable, a resumed run recomputes the figure.
    std::fs::remove_dir(&csv).unwrap();
    let out = run_in(&dir, &["figure", "table_storage"], &[("AC_RESUME", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1 cells: 1 ok (0 resumed)"), "{stderr}");
    assert!(std::fs::read(&csv).unwrap() == committed_csv("table_storage"));

    // A figure resumed from the journal must be re-written too.
    std::fs::remove_file(&csv).unwrap();
    std::fs::create_dir(&csv).unwrap();
    let out = run_in(&dir, &["figure", "table_storage"], &[("AC_RESUME", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("(1 resumed)"), "{stderr}");
    assert!(
        stderr.contains("could not write results/table_storage"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_rejects_unknown_stems_listing_the_registry() {
    let dir = tmp_dir("figure_unknown");
    let out = run_in(&dir, &["figure", "table_storage", "fig99_nothing"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("fig99_nothing"), "{stderr}");
    for (stem, _) in experiments::figures::registry() {
        assert!(stderr.contains(stem), "{stem} not listed: {stderr}");
    }
    assert!(!dir.join("results").exists(), "nothing may run");

    let out = run_in(&dir, &["figure"], &[]);
    assert_eq!(out.status.code(), Some(3));

    let out = run_in(&dir, &["figure", "table1_config"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1."));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary in `dir` with its stdout the write end of a pipe
/// whose read end is already closed, so every write to it fails.
fn run_with_closed_stdout(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let mut cmd = Command::new(bin());
    cmd.args(args)
        .current_dir(dir)
        .env_remove("AC_RESUME")
        .stdout(writer);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("cachesim did not start")
}

#[test]
fn a_closed_stdout_ends_the_run_with_its_exit_code_and_no_panic() {
    let dir = tmp_dir("closed_stdout");
    let out = run_with_closed_stdout(&dir, &["--template"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let args = ["figure", "table_storage", "sec47_overheads"];
    let out = run_with_closed_stdout(&dir, &args, &[("AC_INSTS", "1000")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for stem in ["table_storage", "sec47_overheads"] {
        let written = std::fs::read(dir.join(format!("results/{stem}.csv"))).unwrap();
        assert!(written == committed_csv(stem), "{stem}.csv differs");
    }

    // The audit and the report print their summaries the same way, after
    // writing what they write.
    let cfg = dir.join("run.json");
    std::fs::write(&cfg, template_cell(&dir, &[])).unwrap();
    let out = run_in(
        &dir,
        &["--telemetry", "run", cfg.to_str().unwrap()],
        &[("AC_TELEMETRY_SAMPLE", "1")],
    );
    assert_eq!(out.status.code(), Some(0));
    let commands: [&[&str]; 3] = [
        &["audit", "run"],
        &["report", "run", "--out", "report.html"],
        &["report", "run", "--compare", "run", "--out", "compare.html"],
    ];
    for args in commands {
        let out = run_with_closed_stdout(&dir, args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    for written in ["run/audit.json", "report.html", "compare.html"] {
        assert!(dir.join(written).is_file(), "{written}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figures_that_read_one_cell_share_it_through_the_journal() {
    let dir = tmp_dir("figure_shared");
    let fresh = tmp_dir("figure_shared_fresh");
    let insts = [("AC_INSTS", "3000")];
    let resume = [insts[0], ("AC_RESUME", "1")];
    let out = run_in(&dir, &["figure", "fig04_cpi"], &insts);
    assert_eq!(out.status.code(), Some(0));

    // Section 4.7 reads Figure 4's LRU and adaptive cells.
    let out = run_in(&dir, &["figure", "sec47_sbar"], &resume);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("104 cells: 104 ok (52 resumed)"),
        "{stderr}"
    );
    let out = run_in(&fresh, &["figure", "sec47_sbar"], &insts);
    assert_eq!(out.status.code(), Some(0));
    let csv = |d: &Path| std::fs::read(d.join("results/sec47_sbar.csv")).unwrap();
    assert!(
        csv(&dir) == csv(&fresh),
        "a table built from resumed cells differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}
