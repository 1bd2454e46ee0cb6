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

/// The real cross-process warm-store acceptance scenario: a second
/// `cachesim` process with a populated `AC_REPLAY_DIR` must produce
/// byte-identical stdout while recording disk hits instead of captures;
/// in-place corruption is flagged by `cache verify` (exit 5), the next
/// sweep heals it (exit 0, identical output), and injected I/O faults
/// via `AC_REPLAY_FAULT` never change results either.
#[test]
fn warm_replay_store_is_byte_identical_across_processes() {
    let dir = tmp_dir("store");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let cfg = dir.join("grid.json");
    std::fs::write(&cfg, sweep_config(None)).unwrap();
    let run_sweep = |tag: &str| {
        let tele = dir.join(tag).display().to_string();
        // A fresh journal per pass: resume must never mask a divergence.
        let _ = std::fs::remove_dir_all(dir.join("results"));
        run_in(
            &dir,
            &[cfg.to_str().unwrap()],
            &[("AC_REPLAY_DIR", store_s), ("AC_TELEMETRY", tele.as_str())],
        )
    };
    let counter = |tag: &str, name: &str| -> u64 {
        let p = dir.join(tag).join("telemetry-summary.json");
        let v: Value = serde_json::from_slice(&std::fs::read(&p).unwrap()).unwrap();
        v["counters"][name]
            .as_object()
            .map(|m| m.values().map(|x| x.as_u64().unwrap()).sum())
            .unwrap_or(0)
    };

    // Cold process: captures live, persists one entry per benchmark.
    let cold = run_sweep("t_cold");
    assert_eq!(
        cold.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(counter("t_cold", "replay_cache_captures_total") > 0);
    assert_eq!(counter("t_cold", "replay_store_writes_total"), 3);
    assert_eq!(counter("t_cold", "replay_store_disk_hits_total"), 0);

    // Fresh process, warm store: byte-identical stdout, all disk hits,
    // zero captures.
    let warm = run_sweep("t_warm");
    assert_eq!(
        warm.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(
        warm.stdout, cold.stdout,
        "warm-store process output diverged"
    );
    assert_eq!(counter("t_warm", "replay_cache_captures_total"), 0);
    assert_eq!(counter("t_warm", "replay_store_disk_hits_total"), 3);

    // The store verifies clean.
    let v = run_in(&dir, &["cache", "verify", "--dir", store_s], &[]);
    assert_eq!(
        v.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&v.stderr)
    );

    // Corrupt one entry in place: verify flags it with exit 5...
    let entry = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("acrs"))
        .expect("store holds entries");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();
    let v = run_in(&dir, &["cache", "verify", "--dir", store_s], &[]);
    assert_eq!(
        v.status.code(),
        Some(5),
        "verify must flag the corrupt entry"
    );
    let vout: Value = serde_json::from_slice(&v.stdout).unwrap();
    assert!(
        vout.as_array()
            .unwrap()
            .iter()
            .any(|e| e["error"].is_string()),
        "verify names the failure: {vout}"
    );

    // ...while the sweep itself still completes (exit 0), recaptures the
    // bad entry, and produces identical output.
    let healed = run_sweep("t_healed");
    assert_eq!(
        healed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&healed.stderr)
    );
    assert_eq!(healed.stdout, cold.stdout, "post-corruption sweep diverged");
    assert_eq!(counter("t_healed", "replay_store_corrupt_entries_total"), 1);
    assert_eq!(counter("t_healed", "replay_store_recaptures_total"), 1);
    let v = run_in(&dir, &["cache", "verify", "--dir", store_s], &[]);
    assert_eq!(v.status.code(), Some(0), "recapture must heal the store");

    // Injected I/O faults (seeded plan from the environment): run still
    // exits 0 with identical output — graceful degradation end to end.
    let tele = dir.join("t_fault").display().to_string();
    let _ = std::fs::remove_dir_all(dir.join("results"));
    let faulted = run_in(
        &dir,
        &[cfg.to_str().unwrap()],
        &[
            ("AC_REPLAY_DIR", store_s),
            ("AC_TELEMETRY", tele.as_str()),
            ("AC_REPLAY_FAULT", "eio=1,short_read=64"),
        ],
    );
    assert_eq!(
        faulted.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    assert_eq!(
        faulted.stdout, cold.stdout,
        "sweep under AC_REPLAY_FAULT diverged"
    );
    assert_eq!(counter("t_fault", "replay_store_recaptures_total"), 2);

    // `cache ls` sees the entries; `cache gc` on a healthy store with a
    // leftover temp file removes only the temp file.
    std::fs::write(store.join("junk.acrs.tmp.999"), b"partial").unwrap();
    let g = run_in(&dir, &["cache", "gc", "--dir", store_s], &[]);
    assert_eq!(g.status.code(), Some(0));
    let gout: Value = serde_json::from_slice(&g.stdout).unwrap();
    assert_eq!(gout["tmp_files"].as_u64(), Some(1));
    assert_eq!(gout["corrupt_entries"].as_u64(), Some(0));
    let l = run_in(&dir, &["cache", "ls", "--dir", store_s], &[]);
    assert_eq!(l.status.code(), Some(0));
    let lout: Value = serde_json::from_slice(&l.stdout).unwrap();
    assert_eq!(lout.as_array().unwrap().len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommand_rejects_bad_usage() {
    let dir = tmp_dir("cachebad");
    // No action.
    let out = run_in(&dir, &["cache"], &[]);
    assert_eq!(out.status.code(), Some(3));
    // Unknown action.
    let out = run_in(&dir, &["cache", "defrag"], &[]);
    assert_eq!(out.status.code(), Some(3));
    // No directory anywhere.
    let out = run_in(&dir, &["cache", "verify"], &[]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("AC_REPLAY_DIR"));
    // Missing directory = empty store, not an error.
    let ghost = dir.join("nonexistent");
    let out = run_in(
        &dir,
        &["cache", "verify", "--dir", ghost.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
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
