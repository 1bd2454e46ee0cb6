//! End-to-end resilience tests: the issue's acceptance scenarios.
//!
//! * A 3×3 (benchmark × L2) sweep with one injected-panic cell must
//!   finish the other 8 cells, report a partial exit code, and leave a
//!   journal behind.
//! * Restarting the sweep in resume mode must recompute only the failed
//!   cell (skip counts are asserted).
//! * A wedged (stalling) cache cell must be timed out by the supervisor.

use std::path::PathBuf;
use std::time::Duration;

use experiments::resilience::{journal_path, Journal, JournalStatus, EXIT_OK, EXIT_PARTIAL};
use experiments::runner::MpkiResult;
use experiments::{
    run_functional_l2, run_sweep, CellOutcome, ExperimentError, FaultSpec, L2Kind,
    SupervisorConfig, PAPER_L2,
};
use workloads::{primary_suite, Benchmark};

const INSTS: u64 = 20_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ac_accept_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The 3×3 grid: three benchmarks × the paper's headline trio, with the
/// organisation of cell `poison` (if any) wrapped in a first-access panic.
fn grid(poison: Option<usize>) -> Vec<(usize, Benchmark, L2Kind)> {
    let suite = primary_suite();
    let benches = [&suite[0], &suite[1], &suite[2]];
    let mut cells = Vec::new();
    for b in benches {
        for l2 in L2Kind::headline_trio() {
            let i = cells.len();
            let l2 = if poison == Some(i) {
                L2Kind::Faulty {
                    fault: FaultSpec::panic_at(1),
                    inner: Box::new(l2),
                }
            } else {
                l2
            };
            cells.push((i, b.clone(), l2));
        }
    }
    cells
}

/// Stable across restarts and independent of the fault wrapper, so a
/// fixed rerun of a failed cell resumes against the same key.
fn key_of(cell: &(usize, Benchmark, L2Kind)) -> String {
    format!("{}:{}", cell.0, cell.1.name)
}

fn run_cell(cell: (usize, Benchmark, L2Kind)) -> Result<MpkiResult, ExperimentError> {
    run_functional_l2(&cell.1, &cell.2, PAPER_L2, INSTS)
}

#[test]
fn three_by_three_sweep_survives_injected_panic_then_resumes() {
    let dir = tmp_dir("sweep3x3");
    let cfg = SupervisorConfig {
        retries: 0,
        journal: Some(journal_path(&dir, "accept")),
        ..Default::default()
    };

    // Kill run: cell 4 (centre of the grid) panics on its first L2 access.
    let rep = run_sweep(&grid(Some(4)), &cfg, key_of, run_cell).unwrap();
    assert_eq!(rep.cells.len(), 9);
    assert_eq!(rep.done(), 8, "the 8 healthy cells must finish");
    assert_eq!(rep.failed(), 1);
    assert_eq!(rep.exit_code(), EXIT_PARTIAL);
    match &rep.cells[4].outcome {
        CellOutcome::Failed(ExperimentError::Panic(m)) => {
            assert!(m.contains("injected fault"), "{m}");
        }
        other => panic!("expected a panic failure in cell 4, got {other:?}"),
    }

    // The journal on disk agrees: 8 ok entries, 1 failed.
    let journal = Journal::open(journal_path(&dir, "accept")).unwrap();
    assert_eq!(journal.entries().len(), 9);
    assert_eq!(journal.completed().len(), 8);
    assert_eq!(
        journal
            .entries()
            .iter()
            .filter(|e| e.status == JournalStatus::Failed)
            .count(),
        1
    );

    // Resume run with the fault fixed: only the failed cell recomputes.
    let cfg = SupervisorConfig {
        resume: true,
        ..cfg
    };
    let rep2 = run_sweep(&grid(None), &cfg, key_of, run_cell).unwrap();
    assert_eq!(rep2.resumed(), 8, "completed cells must be skipped");
    assert_eq!(rep2.done(), 1, "only the failed cell recomputes");
    assert_eq!(rep2.failed(), 0);
    assert_eq!(rep2.exit_code(), EXIT_OK);
    assert!(rep2.is_complete());

    // Resumed values round-tripped through the journal faithfully.
    let values = rep2.values();
    assert_eq!(values.len(), 9);
    for ((i, b, _), v) in grid(None).iter().zip(&values) {
        assert_eq!(&v.benchmark, &b.name, "cell {i} resumed the wrong value");
        assert!(v.stats.instructions > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_honours_ac_resume_env() {
    // `journalled` is the only env-reading entry point; this is the only
    // test in the binary touching AC_RESUME, so no cross-test races.
    std::env::remove_var("AC_RESUME");
    let dir = tmp_dir("env");
    let cfg = SupervisorConfig::journalled(&dir, "envfig");
    assert!(!cfg.resume, "no env var, no resume");
    std::env::set_var("AC_RESUME", "1");
    let cfg = SupervisorConfig::journalled(&dir, "envfig");
    assert!(cfg.resume);
    assert_eq!(
        cfg.journal.as_deref(),
        Some(&*dir.join("envfig.journal.jsonl"))
    );
    std::env::remove_var("AC_RESUME");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedged_cache_cell_times_out_under_deadline() {
    let suite = primary_suite();
    let bench = suite[0].clone();
    // One healthy cell and one that stalls 30s on its first L2 access.
    let cells = vec![
        (
            0usize,
            bench.clone(),
            L2Kind::Plain(cache_sim::PolicyKind::Lru),
        ),
        (
            1usize,
            bench,
            L2Kind::Faulty {
                fault: FaultSpec::stall_at(1, 30_000),
                inner: Box::new(L2Kind::Plain(cache_sim::PolicyKind::Lru)),
            },
        ),
    ];
    let cfg = SupervisorConfig {
        deadline: Some(Duration::from_millis(250)),
        retries: 0,
        ..Default::default()
    };
    let rep = run_sweep(&cells, &cfg, key_of, run_cell).unwrap();
    assert_eq!(rep.done(), 1);
    assert_eq!(rep.timed_out(), 1, "the stalled cell must be abandoned");
    assert_eq!(rep.exit_code(), EXIT_PARTIAL);
    assert!(matches!(rep.cells[1].outcome, CellOutcome::TimedOut(_)));
}
