//! The supervisor's telemetry is the one record of a sweep, finished or
//! still running: `run_sweep` sets the `sweep_cells` gauge to the number
//! of cells, every settled cell adds one to
//! `cells_total{label=ok|failed|timed_out|resumed}`, and each computed
//! cell records one `cell` span and its retries in `cell_retries_total`.
//! These tests run sweeps of cells whose outcome is fixed in advance and
//! check each record against it.
//!
//! The global hub is install-once per process and its counters are
//! shared by every test in this binary, so each test holds one lock for
//! its whole run and asserts the change its sweeps make.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ac_telemetry::{Telemetry, TelemetryConfig};
use experiments::{run_sweep, CellOutcome, ExperimentError, SupervisorConfig, SweepReport};

/// What a cell does each time the supervisor runs it.
#[derive(Clone)]
enum Act {
    /// Returns its value.
    Value(u64),
    /// Returns an error.
    Error,
    /// Panics.
    Panic,
    /// Sleeps far past any deadline these tests set.
    Stall,
    /// Fails while the count is above zero, taking one off per attempt,
    /// then returns 7.
    Flaky(Arc<AtomicU32>),
    /// Waits until the flag is set (at most a minute), then returns 7.
    Gated(Arc<AtomicBool>),
}

type Cell = (&'static str, Act);

fn key_of(cell: &Cell) -> String {
    cell.0.to_string()
}

fn run(cell: Cell) -> Result<u64, ExperimentError> {
    match cell.1 {
        Act::Value(v) => Ok(v),
        Act::Error => Err(ExperimentError::InvalidInput(format!("cell {}", cell.0))),
        Act::Panic => panic!("cell {} panics on purpose", cell.0),
        Act::Stall => {
            std::thread::sleep(Duration::from_secs(30));
            Ok(0)
        }
        Act::Flaky(failures) => {
            match failures.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
                Ok(_) => Err(ExperimentError::Io("transient".into())),
                Err(_) => Ok(7),
            }
        }
        Act::Gated(open) => {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !open.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(7)
        }
    }
}

/// The global hub, with the lock that gives the caller sole use of it.
fn hub() -> (MutexGuard<'static, ()>, &'static Telemetry) {
    static LOCK: Mutex<()> = Mutex::new(());
    static HUB: OnceLock<&'static Telemetry> = OnceLock::new();
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hub = *HUB.get_or_init(|| {
        Telemetry::install(TelemetryConfig::default()).expect("only this binary installs a hub")
    });
    (guard, hub)
}

/// The supervisor's record, as counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Record {
    ok: u64,
    failed: u64,
    timed_out: u64,
    resumed: u64,
    retries: u64,
    spans: u64,
}

impl Record {
    fn of(hub: &Telemetry) -> Record {
        Record {
            ok: hub.counter_value("cells_total", "ok"),
            failed: hub.counter_value("cells_total", "failed"),
            timed_out: hub.counter_value("cells_total", "timed_out"),
            resumed: hub.counter_value("cells_total", "resumed"),
            retries: hub.counter_value("cell_retries_total", ""),
            spans: hub.spans().iter().filter(|s| s.cat == "cell").count() as u64,
        }
    }

    /// What changed since `before`.
    fn since(self, before: Record) -> Record {
        Record {
            ok: self.ok - before.ok,
            failed: self.failed - before.failed,
            timed_out: self.timed_out - before.timed_out,
            resumed: self.resumed - before.resumed,
            retries: self.retries - before.retries,
            spans: self.spans - before.spans,
        }
    }

    fn settled(&self) -> u64 {
        self.ok + self.failed + self.timed_out + self.resumed
    }
}

fn sweep_cells(hub: &Telemetry) -> Option<f64> {
    hub.gauges().get("sweep_cells")?.get("").copied()
}

/// Runs `cells` under `cfg`; returns the report and the change the sweep
/// made to the record.
fn sweep(hub: &Telemetry, cells: &[Cell], cfg: &SupervisorConfig) -> (SweepReport<u64>, Record) {
    let before = Record::of(hub);
    let report = run_sweep(cells, cfg, key_of, run).expect("the sweep runs");
    (report, Record::of(hub).since(before))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ac_record_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn computed_cells_each_count_once_as_ok() {
    let (_lock, hub) = hub();
    let cells = [
        ("a", Act::Value(1)),
        ("b", Act::Value(2)),
        ("c", Act::Value(3)),
        ("d", Act::Value(4)),
    ];
    let (report, change) = sweep(hub, &cells, &SupervisorConfig::default());
    assert_eq!(report.done(), 4);
    let expected = Record {
        ok: 4,
        spans: 4,
        ..Record::default()
    };
    assert_eq!(change, expected);
    assert_eq!(sweep_cells(hub), Some(4.0));
}

#[test]
fn failing_cells_count_once_as_failed_with_their_retries() {
    let (_lock, hub) = hub();
    let cells = [
        ("error", Act::Error),
        ("panic", Act::Panic),
        ("fine", Act::Value(1)),
    ];
    let cfg = SupervisorConfig {
        retries: 2,
        ..SupervisorConfig::default()
    };
    let (report, change) = sweep(hub, &cells, &cfg);
    assert_eq!(report.failed(), 2);
    assert_eq!(report.cells[0].attempts, 3);
    assert_eq!(report.cells[1].attempts, 3);
    // Both failing cells used their two retries; the fine cell none.
    let expected = Record {
        ok: 1,
        failed: 2,
        retries: 4,
        spans: 3,
        ..Record::default()
    };
    assert_eq!(change, expected);
}

#[test]
fn a_cell_that_recovers_on_retry_counts_as_ok_with_its_retries() {
    let (_lock, hub) = hub();
    let failures = Arc::new(AtomicU32::new(2));
    let cells = [("flaky", Act::Flaky(Arc::clone(&failures)))];
    let cfg = SupervisorConfig {
        retries: 2,
        ..SupervisorConfig::default()
    };
    let (report, change) = sweep(hub, &cells, &cfg);
    assert!(matches!(report.cells[0].outcome, CellOutcome::Done(7)));
    assert_eq!(report.cells[0].attempts, 3);
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    let expected = Record {
        ok: 1,
        retries: 2,
        spans: 1,
        ..Record::default()
    };
    assert_eq!(change, expected);
}

#[test]
fn a_stalled_cell_counts_as_timed_out_after_every_attempt() {
    let (_lock, hub) = hub();
    let cells = [("quick", Act::Value(1)), ("stalled", Act::Stall)];
    let deadline = Duration::from_millis(300);
    let cfg = SupervisorConfig {
        deadline: Some(deadline),
        retries: 1,
        ..SupervisorConfig::default()
    };
    let spans_before = hub.spans().len();
    let (report, change) = sweep(hub, &cells, &cfg);
    assert!(matches!(report.cells[1].outcome, CellOutcome::TimedOut(d) if d == deadline));
    assert_eq!(report.cells[1].attempts, 2);
    let expected = Record {
        ok: 1,
        timed_out: 1,
        retries: 1,
        spans: 2,
        ..Record::default()
    };
    assert_eq!(change, expected);
    // The stalled cell's span covers both abandoned attempts.
    let waited = hub.spans()[spans_before..]
        .iter()
        .find(|s| s.name == "cell stalled")
        .expect("the stalled cell records its span")
        .dur_us;
    assert!(waited >= 2 * deadline.as_micros() as u64, "{waited} us");
}

#[test]
fn journalled_cells_count_as_resumed_without_running_again() {
    let (_lock, hub) = hub();
    let dir = tmp_dir("resume");
    let journal = dir.join("resume.journal.jsonl");
    let first = SupervisorConfig {
        journal: Some(journal.clone()),
        ..SupervisorConfig::default()
    };
    let cells = [
        ("a", Act::Value(1)),
        ("b", Act::Value(2)),
        ("c", Act::Error),
    ];
    let (_, change) = sweep(hub, &cells, &first);
    assert_eq!((change.ok, change.failed), (2, 1));

    // The rerun offers new values for the journalled cells; seeing the
    // old ones back proves they were not run again.
    let rerun = SupervisorConfig {
        resume: true,
        ..first
    };
    let cells = [
        ("a", Act::Value(10)),
        ("b", Act::Value(20)),
        ("c", Act::Value(3)),
    ];
    let (report, change) = sweep(hub, &cells, &rerun);
    let values: Vec<_> = report.cells.iter().map(|c| c.outcome.value()).collect();
    assert_eq!(values, [Some(&1), Some(&2), Some(&3)]);
    assert_eq!(report.resumed(), 2);
    // Resumed cells settle without a span.
    let expected = Record {
        ok: 1,
        resumed: 2,
        spans: 1,
        ..Record::default()
    };
    assert_eq!(change, expected);
    assert_eq!(sweep_cells(hub), Some(3.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_settled_cell_counts_under_exactly_one_label() {
    let (_lock, hub) = hub();
    let dir = tmp_dir("labels");
    let journal = dir.join("labels.journal.jsonl");
    let cfg = SupervisorConfig {
        journal: Some(journal),
        deadline: Some(Duration::from_millis(300)),
        retries: 0,
        ..SupervisorConfig::default()
    };
    sweep(hub, &[("kept", Act::Value(9))], &cfg);
    let cells = [
        ("kept", Act::Value(9)),
        ("fresh", Act::Value(1)),
        ("broken", Act::Error),
        ("stalled", Act::Stall),
    ];
    let cfg = SupervisorConfig {
        resume: true,
        ..cfg
    };
    let (_, change) = sweep(hub, &cells, &cfg);
    let labels = (change.ok, change.failed, change.timed_out, change.resumed);
    assert_eq!(labels, (1, 1, 1, 1));
    assert_eq!(change.settled() as f64, sweep_cells(hub).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_gauge_holds_the_latest_sweeps_size() {
    let (_lock, hub) = hub();
    let cfg = SupervisorConfig::default();
    let five: Vec<Cell> = ["a", "b", "c", "d", "e"]
        .into_iter()
        .map(|k| (k, Act::Value(0)))
        .collect();
    sweep(hub, &five, &cfg);
    assert_eq!(sweep_cells(hub), Some(5.0));
    sweep(hub, &five[..2], &cfg);
    assert_eq!(sweep_cells(hub), Some(2.0));
    let (report, change) = sweep(hub, &[], &cfg);
    assert!(report.cells.is_empty());
    assert_eq!(change, Record::default());
    assert_eq!(sweep_cells(hub), Some(0.0));
}

#[test]
fn the_record_shows_a_running_sweep_settling() {
    /// Opens the gate when dropped, so a failing assertion cannot leave
    /// the sweep waiting.
    struct Opens(Arc<AtomicBool>);
    impl Drop for Opens {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let (_lock, hub) = hub();
    let gate = Opens(Arc::new(AtomicBool::new(false)));
    let cells = vec![
        ("a", Act::Value(1)),
        ("b", Act::Value(2)),
        ("c", Act::Value(3)),
        ("gated", Act::Gated(Arc::clone(&gate.0))),
    ];
    let cfg = SupervisorConfig {
        threads: 2,
        ..SupervisorConfig::default()
    };
    let before = Record::of(hub);
    let running = std::thread::spawn(move || run_sweep(&cells, &cfg, key_of, run));

    let deadline = Instant::now() + Duration::from_secs(60);
    while Record::of(hub).since(before).ok < 3 {
        assert!(Instant::now() < deadline, "the free cells never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mid = Record::of(hub).since(before);
    assert!(!running.is_finished());
    assert_eq!((mid.ok, mid.settled()), (3, 3));
    assert_eq!(sweep_cells(hub), Some(4.0));

    drop(gate);
    let report = running.join().unwrap().unwrap();
    assert_eq!(report.done(), 4);
    let expected = Record {
        ok: 4,
        spans: 4,
        ..Record::default()
    };
    assert_eq!(Record::of(hub).since(before), expected);
}

#[test]
fn metrics_prom_carries_the_record_under_its_exported_names() {
    let (_lock, hub) = hub();
    let cells = [("fine", Act::Value(1)), ("error", Act::Error)];
    sweep(hub, &cells, &SupervisorConfig::default());
    let text = hub.prometheus();
    let lines = [
        "ac_sweep_cells 2".to_string(),
        format!(
            "ac_cells_total{{label=\"ok\"}} {}",
            hub.counter_value("cells_total", "ok")
        ),
        format!(
            "ac_cells_total{{label=\"failed\"}} {}",
            hub.counter_value("cells_total", "failed")
        ),
        format!(
            "ac_cell_retries_total {}",
            hub.counter_value("cell_retries_total", "")
        ),
    ];
    for line in lines {
        assert!(text.lines().any(|l| l == line), "no `{line}` in\n{text}");
    }
}
