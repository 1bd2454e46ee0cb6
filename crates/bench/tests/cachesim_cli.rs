//! End-to-end tests of the `cachesim` binary: JSON in, JSON out, typed
//! exit codes (0 = ok, 2 = partial sweep, 3 = invalid input), journal
//! checkpointing and `AC_RESUME=1` resume, for JSON sweeps and for
//! `cachesim figure` — all through a real subprocess, the way a user
//! drives it.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
    let dir = tmp_dir("nosource");
    let cfg = dir.join("bad.json");
    std::fs::write(
        &cfg,
        r#"{"l2":{"Plain":"Lru"},"mode":"functional","insts":1000}"#,
    )
    .unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("benchmark"),
        "error names the fields: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conflicting_workload_sources_exit_invalid_naming_both_fields() {
    let dir = tmp_dir("conflict");
    let cfg = dir.join("bad.json");
    std::fs::write(
        &cfg,
        r#"{"benchmark":"mcf","trace_file":"x.actr","l2":{"Plain":"Lru"},"mode":"functional","insts":1000}"#,
    )
    .unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`benchmark`") && stderr.contains("`trace_file`"),
        "both offending fields are named: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_sweep_cell_is_rejected_before_anything_runs() {
    let dir = tmp_dir("badcell");
    let cfg = dir.join("bad.json");
    // Second cell has no workload source: the whole sweep must be
    // rejected up front (exit 3) and no journal written.
    std::fs::write(
        &cfg,
        format!(
            r#"{{"name":"bad","sweep":[{},{{"l2":{{"Plain":"Lru"}},"mode":"functional","insts":1000}}]}}"#,
            cell("mcf", r#"{"Plain":"Lru"}"#)
        ),
    )
    .unwrap();
    let out = run_in(&dir, &[cfg.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("sweep cell 1"));
    assert!(!dir.join("results/bad.journal.jsonl").exists());
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
    assert!(stderr.contains("1 cells: 1 ok (0 resumed)"), "{stderr}");
    run(&fresh, "6000", false);
    assert!(csv(&dir) == csv(&fresh), "recomputed table differs");
    assert!(csv(&dir) != small, "the budgets must give different tables");

    // Either budget journalled before still resumes, and rewrites its
    // own table.
    std::fs::remove_file(dir.join("results/fig08_fifo_mru.csv")).unwrap();
    let stderr = run(&dir, "6000", true);
    assert!(stderr.contains("1 cells: 1 ok (1 resumed)"), "{stderr}");
    assert!(csv(&dir) == csv(&fresh), "resumed 6000 table differs");
    let stderr = run(&dir, "3000", true);
    assert!(stderr.contains("1 cells: 1 ok (1 resumed)"), "{stderr}");
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
