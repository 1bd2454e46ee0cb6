//! Run supervision for long sweeps: panic isolation, per-cell deadlines,
//! bounded retries, and journal-based checkpoint/resume.
//!
//! The paper's evaluation is a large (benchmark × L2-organisation) grid;
//! a single panicking or wedged cell must not abort the sweep, and an
//! interrupted sweep must be restartable without recomputing finished
//! cells. [`run_sweep`] executes each cell on its own worker thread under
//! `catch_unwind`, enforces an optional deadline, retries a bounded number
//! of times, and appends every settled cell to a
//! `results/<figure>.journal.jsonl` checkpoint (one line per cell,
//! compacted to the latest line per key whenever a sweep opens it).
//! Restarting with `AC_RESUME=1` skips cells the journal proves complete.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Process exit code: every cell completed.
pub const EXIT_OK: i32 = 0;
/// Process exit code: the sweep finished but some cells failed or timed
/// out — the artifacts on disk are partial.
pub const EXIT_PARTIAL: i32 = 2;
/// Process exit code: the request itself was malformed (bad config, bad
/// geometry, unknown benchmark, invalid inline spec).
pub const EXIT_INVALID_INPUT: i32 = 3;

/// A typed error for the experiment pipeline, replacing ad-hoc
/// `unwrap`/`expect` on the sweep hot paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Filesystem / IO failure (message retains the underlying error).
    Io(String),
    /// The request was malformed; names the offending field when known.
    InvalidInput(String),
    /// An impossible cache geometry was requested.
    Geometry(String),
    /// A worker panicked; carries the panic message.
    Panic(String),
    /// A cell exceeded its deadline.
    Timeout {
        /// The deadline that was exceeded, in seconds.
        secs: f64,
    },
    /// (De)serialisation of a result or journal entry failed.
    Serde(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Io(m) => write!(f, "I/O error: {m}"),
            ExperimentError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            ExperimentError::Geometry(m) => write!(f, "bad cache geometry: {m}"),
            ExperimentError::Panic(m) => write!(f, "worker panicked: {m}"),
            ExperimentError::Timeout { secs } => {
                write!(f, "cell exceeded its {secs}s deadline")
            }
            ExperimentError::Serde(m) => write!(f, "serialisation error: {m}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<io::Error> for ExperimentError {
    fn from(e: io::Error) -> Self {
        ExperimentError::Io(e.to_string())
    }
}

impl From<cache_sim::GeometryError> for ExperimentError {
    fn from(e: cache_sim::GeometryError) -> Self {
        ExperimentError::Geometry(e.to_string())
    }
}

impl From<serde_json::Error> for ExperimentError {
    fn from(e: serde_json::Error) -> Self {
        ExperimentError::Serde(e.to_string())
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// True when the environment requests journal-based resume
/// (`AC_RESUME=1`, `true`, or `yes`).
pub fn resume_from_env() -> bool {
    std::env::var("AC_RESUME")
        .map(|v| matches!(v.as_str(), "1" | "true" | "yes"))
        .unwrap_or(false)
}

/// The canonical journal path for a figure: `dir/<figure>.journal.jsonl`.
pub fn journal_path(dir: &Path, figure: &str) -> PathBuf {
    dir.join(format!("{figure}.journal.jsonl"))
}

/// How a journalled cell settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum JournalStatus {
    /// The cell completed and its value is recorded.
    Ok,
    /// The cell failed after all retries.
    Failed,
    /// The cell exceeded its deadline after all retries.
    TimedOut,
}

/// One line of the checkpoint journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Stable cell key (must be identical across restarts).
    pub key: String,
    /// How the cell settled.
    pub status: JournalStatus,
    /// Attempts consumed (1 = no retry needed).
    pub attempts: u32,
    /// The cell's result, for `Ok` entries.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub value: Option<serde_json::Value>,
    /// The error message, for `Failed`/`TimedOut` entries.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// An append-only JSONL checkpoint journal: one line per settled cell.
///
/// [`Journal::open`] compacts the file to the latest entry per key in
/// one atomic rewrite (write `.tmp`, then rename), and
/// [`Journal::append`] writes one complete line to the end of the file.
/// A kill mid-append can leave at most a torn last line; a strict prefix
/// of a JSON object never parses, so the next open drops it.
#[derive(Debug)]
pub struct Journal {
    entries: Vec<JournalEntry>,
    /// The journal file, opened for appending.
    file: std::fs::File,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, loading the entries an
    /// earlier run left behind, the latest per key, and rewrites the
    /// file to hold exactly those. Malformed lines, such as a torn tail,
    /// are dropped, not fatal: the worst case is recomputing the cell
    /// they described.
    pub fn open(path: impl Into<PathBuf>) -> Result<Journal, ExperimentError> {
        let path = path.into();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        let mut entries: Vec<JournalEntry> = Vec::new();
        let mut slot: HashMap<String, usize> = HashMap::new();
        for line in text.lines() {
            let Ok(entry) = serde_json::from_str::<JournalEntry>(line.trim()) else {
                continue;
            };
            match slot.get(&entry.key) {
                Some(&i) => entries[i] = entry,
                None => {
                    slot.insert(entry.key.clone(), entries.len());
                    entries.push(entry);
                }
            }
        }
        let mut compacted = String::new();
        for e in &entries {
            compacted.push_str(&serde_json::to_string(e)?);
            compacted.push('\n');
        }
        crate::report::write_atomic(&path, compacted.as_bytes())?;
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Journal { entries, file })
    }

    /// All loaded/appended entries, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Map of key → recorded value for every `Ok` entry (later entries
    /// win, so a cell that failed and then succeeded on a rerun counts).
    pub fn completed(&self) -> HashMap<String, serde_json::Value> {
        let mut done = HashMap::new();
        for e in &self.entries {
            match (e.status, &e.value) {
                (JournalStatus::Ok, Some(v)) => {
                    done.insert(e.key.clone(), v.clone());
                }
                _ => {
                    done.remove(&e.key);
                }
            }
        }
        done
    }

    /// Appends one entry as one line at the end of the file.
    pub fn append(&mut self, entry: JournalEntry) -> Result<(), ExperimentError> {
        use std::io::Write;
        let mut line = serde_json::to_string(&entry)?;
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.entries.push(entry);
        Ok(())
    }
}

/// Supervisor policy for one sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-attempt wall-clock deadline; `None` waits indefinitely.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure/timeout (the issue's
    /// "one bounded retry" is the default).
    pub retries: u32,
    /// Checkpoint journal location; `None` disables journalling.
    pub journal: Option<PathBuf>,
    /// Skip cells the journal proves complete (see [`resume_from_env`]).
    pub resume: bool,
    /// Worker threads; `0` uses the available parallelism.
    pub threads: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            retries: 1,
            journal: None,
            resume: false,
            threads: 0,
        }
    }
}

impl SupervisorConfig {
    /// A config journalling to [`journal_path`]`(dir, figure)` with resume
    /// taken from the `AC_RESUME` environment variable.
    pub fn journalled(dir: &Path, figure: &str) -> Self {
        SupervisorConfig {
            journal: Some(journal_path(dir, figure)),
            resume: resume_from_env(),
            ..SupervisorConfig::default()
        }
    }
}

/// How one cell of a supervised sweep settled.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// Computed in this run.
    Done(R),
    /// Loaded from the journal of a previous run (not recomputed).
    Resumed(R),
    /// Failed after all attempts.
    Failed(ExperimentError),
    /// Exceeded the deadline on all attempts; the last worker thread is
    /// abandoned (detached), not killed.
    TimedOut(Duration),
}

impl<R> CellOutcome<R> {
    /// The cell's value, if it completed (computed or resumed).
    pub fn value(&self) -> Option<&R> {
        match self {
            CellOutcome::Done(r) | CellOutcome::Resumed(r) => Some(r),
            _ => None,
        }
    }

    /// `ok`, `resumed`, `failed` or `timed_out`.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Done(_) => "ok",
            CellOutcome::Resumed(_) => "resumed",
            CellOutcome::Failed(_) => "failed",
            CellOutcome::TimedOut(_) => "timed_out",
        }
    }

    /// Why the cell has no value, for `Failed` and `TimedOut`.
    pub fn error(&self) -> Option<String> {
        match self {
            CellOutcome::Failed(e) => Some(e.to_string()),
            CellOutcome::TimedOut(d) => Some(format!("exceeded {:.3}s deadline", d.as_secs_f64())),
            CellOutcome::Done(_) | CellOutcome::Resumed(_) => None,
        }
    }
}

/// One supervised cell: key, consumed attempts, outcome.
#[derive(Debug)]
pub struct CellReport<R> {
    /// The cell's stable key.
    pub key: String,
    /// Attempts consumed (0 when resumed from the journal).
    pub attempts: u32,
    /// How the cell settled.
    pub outcome: CellOutcome<R>,
}

/// Result of a supervised sweep, order-aligned with the input cells.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// Per-cell reports, in input order.
    pub cells: Vec<CellReport<R>>,
}

impl<R> SweepReport<R> {
    /// Cells computed in this run.
    pub fn done(&self) -> usize {
        self.count(|c| matches!(c, CellOutcome::Done(_)))
    }

    /// Cells skipped because the journal proved them complete.
    pub fn resumed(&self) -> usize {
        self.count(|c| matches!(c, CellOutcome::Resumed(_)))
    }

    /// Cells that failed after all attempts.
    pub fn failed(&self) -> usize {
        self.count(|c| matches!(c, CellOutcome::Failed(_)))
    }

    /// Cells that exceeded their deadline on all attempts.
    pub fn timed_out(&self) -> usize {
        self.count(|c| matches!(c, CellOutcome::TimedOut(_)))
    }

    fn count(&self, pred: impl Fn(&CellOutcome<R>) -> bool) -> usize {
        self.cells.iter().filter(|c| pred(&c.outcome)).count()
    }

    /// True when every cell completed (computed or resumed).
    pub fn is_complete(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.value().is_some())
    }

    /// The process exit code this sweep deserves:
    /// [`EXIT_OK`] when complete, [`EXIT_PARTIAL`] otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.is_complete() {
            EXIT_OK
        } else {
            EXIT_PARTIAL
        }
    }

    /// Values of completed cells, in input order.
    pub fn values(&self) -> Vec<&R> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.value())
            .collect()
    }

    /// One-line human summary (`9 cells: 8 ok, 1 failed, ...`).
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} ok ({} resumed), {} failed, {} timed out",
            self.cells.len(),
            self.done() + self.resumed(),
            self.resumed(),
            self.failed(),
            self.timed_out()
        )
    }
}

/// Runs `f` over every cell under supervision: each attempt executes on a
/// dedicated worker thread under `catch_unwind`, bounded by
/// `cfg.deadline`, with up to `cfg.retries` retries; settled cells are
/// appended to the journal. With `cfg.resume`, cells whose key the
/// journal proves complete are returned as [`CellOutcome::Resumed`]
/// without recomputation.
///
/// These records are the one account of a running sweep: with telemetry
/// on, the `sweep_cells` gauge holds the number of cells, every settled
/// cell adds one to `cells_total{label=ok|failed|timed_out|resumed}`,
/// and each computed cell records a `cell` span covering all its
/// attempts and its `cell_retries_total`; the journal lists the settled
/// cells with telemetry off too.
///
/// Cell keys produced by `key_of` must be stable across process restarts
/// — they are the resume identity.
pub fn run_sweep<T, R, F>(
    cells: &[T],
    cfg: &SupervisorConfig,
    key_of: impl Fn(&T) -> String,
    f: F,
) -> Result<SweepReport<R>, ExperimentError>
where
    T: Clone + Send + Sync + 'static,
    R: Serialize + DeserializeOwned + Send + 'static,
    F: Fn(T) -> Result<R, ExperimentError> + Send + Sync + 'static,
{
    let journal = match &cfg.journal {
        Some(path) => Some(Mutex::new(Journal::open(path)?)),
        None => None,
    };
    let completed: HashMap<String, serde_json::Value> = match (&journal, cfg.resume) {
        (Some(j), true) => lock(j).completed(),
        _ => HashMap::new(),
    };
    let keys: Vec<String> = cells.iter().map(&key_of).collect();
    let f = Arc::new(f);
    ac_telemetry::gauge_set("sweep_cells", cells.len() as f64);

    let threads = if cfg.threads > 0 {
        cfg.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
    .min(cells.len().max(1));

    let mut reports: Vec<Option<CellReport<R>>> = (0..cells.len()).map(|_| None).collect();
    let slots: Vec<_> = reports.iter_mut().enumerate().collect();
    let queue = Mutex::new(slots.into_iter());
    let queue = &queue;
    let journal = &journal;
    let completed = &completed;
    let keys = &keys;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let f = Arc::clone(&f);
            scope.spawn(move || loop {
                let item = { lock(queue).next() };
                let Some((i, slot)) = item else { break };
                let key = keys[i].clone();

                // Resume: trust the journal if its value still decodes.
                if let Some(v) = completed.get(&key) {
                    if let Ok(r) = serde_json::from_value::<R>(v.clone()) {
                        ac_telemetry::counter_add_labeled("cells_total", "resumed", 1);
                        *slot = Some(CellReport {
                            key,
                            attempts: 0,
                            outcome: CellOutcome::Resumed(r),
                        });
                        continue;
                    }
                }

                let report = supervise_cell(&key, &cells[i], cfg, &f);
                if !matches!(
                    report.outcome,
                    CellOutcome::Done(_) | CellOutcome::Resumed(_)
                ) {
                    // A failed or timed-out cell flushes artifacts
                    // immediately so the crash-current state survives
                    // even without the periodic flusher.
                    ac_telemetry::flush_now();
                }
                if let Some(j) = journal {
                    let entry = entry_of(&report);
                    if let Err(e) = lock(j).append(entry) {
                        ac_telemetry::warn!("could not checkpoint cell {key}: {e}");
                    }
                }
                *slot = Some(report);
            });
        }
    });

    Ok(SweepReport {
        cells: reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| CellReport {
                    key: keys[i].clone(),
                    attempts: 0,
                    outcome: CellOutcome::Failed(ExperimentError::Panic(
                        "supervisor never scheduled this cell".into(),
                    )),
                })
            })
            .collect(),
    })
}

/// Runs one cell's attempt loop, recording per-cell telemetry (a `cell`
/// span, outcome and retry counters).
fn supervise_cell<T, R, F>(key: &str, cell: &T, cfg: &SupervisorConfig, f: &Arc<F>) -> CellReport<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, ExperimentError> + Send + Sync + 'static,
{
    let _span = ac_telemetry::span("cell", || format!("cell {key}"));
    let report = supervise_cell_attempts(key, cell, cfg, f);
    if ac_telemetry::enabled() {
        // Only computed cells come here, so none is labelled `resumed`.
        ac_telemetry::counter_add_labeled("cells_total", report.outcome.label(), 1);
        if report.attempts > 1 {
            ac_telemetry::counter_add("cell_retries_total", u64::from(report.attempts - 1));
        }
    }
    report
}

/// The raw attempt loop on detached worker threads.
fn supervise_cell_attempts<T, R, F>(
    key: &str,
    cell: &T,
    cfg: &SupervisorConfig,
    f: &Arc<F>,
) -> CellReport<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, ExperimentError> + Send + Sync + 'static,
{
    let max_attempts = cfg.retries.saturating_add(1);
    let mut last_err = ExperimentError::Panic("cell never ran".into());
    for attempt in 1..=max_attempts {
        let (tx, rx) = mpsc::channel();
        let f = Arc::clone(f);
        let cell = cell.clone();
        let scope_key = key.to_string();
        // Detached on purpose: a wedged cell cannot be killed, only
        // abandoned — the supervisor stops waiting and moves on.
        std::thread::spawn(move || {
            // Label any timelines the cell records with its sweep key;
            // the scope is thread-local, so it must be set here on the
            // attempt thread, not on the supervisor thread.
            let _scope = ac_telemetry::timeline::run_scope(&scope_key);
            let out = panic::catch_unwind(AssertUnwindSafe(|| f(cell)))
                .unwrap_or_else(|p| Err(ExperimentError::Panic(panic_message(&*p))));
            let _ = tx.send(out);
        });
        let received = match cfg.deadline {
            Some(d) => rx.recv_timeout(d),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(Ok(r)) => {
                return CellReport {
                    key: key.to_string(),
                    attempts: attempt,
                    outcome: CellOutcome::Done(r),
                }
            }
            Ok(Err(e)) => last_err = e,
            Err(RecvTimeoutError::Disconnected) => {
                last_err = ExperimentError::Panic("worker vanished without a result".into())
            }
            Err(RecvTimeoutError::Timeout) => {
                let d = cfg.deadline.unwrap_or_default();
                if attempt == max_attempts {
                    return CellReport {
                        key: key.to_string(),
                        attempts: attempt,
                        outcome: CellOutcome::TimedOut(d),
                    };
                }
                last_err = ExperimentError::Timeout {
                    secs: d.as_secs_f64(),
                };
            }
        }
    }
    CellReport {
        key: key.to_string(),
        attempts: max_attempts,
        outcome: CellOutcome::Failed(last_err),
    }
}

/// The journal line describing a settled cell.
fn entry_of<R: Serialize>(report: &CellReport<R>) -> JournalEntry {
    let status = match &report.outcome {
        CellOutcome::Done(_) | CellOutcome::Resumed(_) => JournalStatus::Ok,
        CellOutcome::Failed(_) => JournalStatus::Failed,
        CellOutcome::TimedOut(_) => JournalStatus::TimedOut,
    };
    JournalEntry {
        key: report.key.clone(),
        status,
        attempts: report.attempts,
        value: report
            .outcome
            .value()
            .and_then(|r| serde_json::to_value(r).ok()),
        error: report.outcome.error(),
    }
}

/// Locks a mutex, recovering from poisoning (we never hold a lock across
/// user code, so a poisoned guard's data is still consistent).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ac_resilience_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sweep_isolates_panics() {
        let cells: Vec<u32> = (0..6).collect();
        let cfg = SupervisorConfig {
            retries: 0,
            ..Default::default()
        };
        let rep = run_sweep(
            &cells,
            &cfg,
            |c| format!("c{c}"),
            |c: u32| {
                if c == 3 {
                    panic!("injected panic in cell 3");
                }
                Ok(c * 10)
            },
        )
        .unwrap();
        assert_eq!(rep.done(), 5);
        assert_eq!(rep.failed(), 1);
        assert_eq!(rep.exit_code(), EXIT_PARTIAL);
        match &rep.cells[3].outcome {
            CellOutcome::Failed(ExperimentError::Panic(m)) => {
                assert!(m.contains("injected"), "{m}")
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
        // Order is preserved for the survivors.
        assert_eq!(rep.cells[5].outcome.value(), Some(&50));
    }

    #[test]
    fn sweep_retries_once_then_succeeds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let cfg = SupervisorConfig {
            retries: 1,
            ..Default::default()
        };
        let rep = run_sweep(
            &[1u32],
            &cfg,
            |_| "flaky".into(),
            move |_| {
                if TRIES.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt fails");
                }
                Ok(7u32)
            },
        )
        .unwrap();
        assert_eq!(rep.done(), 1);
        assert_eq!(rep.cells[0].attempts, 2);
        assert_eq!(rep.exit_code(), EXIT_OK);
    }

    #[test]
    fn deadline_times_out_wedged_cell() {
        let cfg = SupervisorConfig {
            deadline: Some(Duration::from_millis(30)),
            retries: 0,
            ..Default::default()
        };
        let rep = run_sweep(
            &[0u32, 1],
            &cfg,
            |c| format!("c{c}"),
            |c: u32| {
                if c == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(c)
            },
        )
        .unwrap();
        assert_eq!(rep.timed_out(), 1);
        assert_eq!(rep.done(), 1);
        assert_eq!(rep.exit_code(), EXIT_PARTIAL);
    }

    #[test]
    fn journal_appends_atomically_and_resumes() {
        let dir = tmp_dir("journal");
        let path = journal_path(&dir, "figX");
        let cfg = SupervisorConfig {
            retries: 0,
            journal: Some(path.clone()),
            ..Default::default()
        };
        let cells: Vec<u32> = (0..4).collect();
        let rep = run_sweep(
            &cells,
            &cfg,
            |c| format!("c{c}"),
            |c: u32| {
                if c == 2 {
                    panic!("boom");
                }
                Ok(c + 100)
            },
        )
        .unwrap();
        assert_eq!(rep.failed(), 1);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.entries().len(), 4);
        assert_eq!(j.completed().len(), 3);

        // Resume: only the failed cell is recomputed.
        let cfg = SupervisorConfig {
            resume: true,
            ..cfg
        };
        let rep2 = run_sweep(&cells, &cfg, |c| format!("c{c}"), |c: u32| Ok(c + 100)).unwrap();
        assert_eq!(rep2.resumed(), 3, "completed cells must be skipped");
        assert_eq!(rep2.done(), 1, "only the failed cell recomputes");
        assert_eq!(rep2.exit_code(), EXIT_OK);
        assert_eq!(rep2.values(), vec![&100, &101, &102, &103]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_tolerates_torn_tail() {
        let dir = tmp_dir("torn");
        let path = dir.join("t.journal.jsonl");
        let mut j = Journal::open(&path).unwrap();
        j.append(JournalEntry {
            key: "a".into(),
            status: JournalStatus::Ok,
            attempts: 1,
            value: Some(serde_json::json!(1)),
            error: None,
        })
        .unwrap();
        // Simulate a kill mid-write from a non-atomic appender.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"b\",\"status\":\"ok\",\"att");
        std::fs::write(&path, text).unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.entries().len(), 1, "torn line is skipped");
        assert!(j2.completed().contains_key("a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rerun_overrides_earlier_ok() {
        let dir = tmp_dir("override");
        let path = dir.join("o.journal.jsonl");
        let mut j = Journal::open(&path).unwrap();
        let ok = JournalEntry {
            key: "a".into(),
            status: JournalStatus::Ok,
            attempts: 1,
            value: Some(serde_json::json!(1)),
            error: None,
        };
        j.append(ok.clone()).unwrap();
        j.append(JournalEntry {
            status: JournalStatus::Failed,
            value: None,
            error: Some("x".into()),
            ..ok
        })
        .unwrap();
        assert!(
            j.completed().is_empty(),
            "later failure invalidates the value"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn reruns_leave_one_line_per_key() {
        let dir = tmp_dir("rerun");
        let path = journal_path(&dir, "r");
        let cells: Vec<u32> = (0..4).collect();
        let cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..Default::default()
        };
        for _ in 0..3 {
            run_sweep(&cells, &cfg, |c| format!("c{c}"), |c: u32| Ok(c)).unwrap();
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.entries().len(), 4);
            assert_eq!(lines(&path).len(), 4, "compacted to one line per key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_is_gone_after_reopening() {
        let dir = tmp_dir("torn_gone");
        let path = dir.join("t.journal.jsonl");
        let entry = |key: &str| JournalEntry {
            key: key.into(),
            status: JournalStatus::Ok,
            attempts: 1,
            value: Some(serde_json::json!(1)),
            error: None,
        };
        Journal::open(&path).unwrap().append(entry("a")).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"b\",\"status\":\"ok\",\"att");
        std::fs::write(&path, text).unwrap();

        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.entries().len(), 1, "the torn line is skipped");
        assert_eq!(lines(&path).len(), 1, "and gone from the file");
        j.append(entry("c")).unwrap();
        let reopened = Journal::open(&path).unwrap();
        let keys: Vec<&str> = reopened.entries().iter().map(|e| &*e.key).collect();
        assert_eq!(keys, ["a", "c"], "the next append starts a line of its own");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failure_after_an_ok_wins_after_compaction() {
        let dir = tmp_dir("compact_fail");
        let path = dir.join("f.journal.jsonl");
        let ok = JournalEntry {
            key: "a".into(),
            status: JournalStatus::Ok,
            attempts: 1,
            value: Some(serde_json::json!(1)),
            error: None,
        };
        let mut j = Journal::open(&path).unwrap();
        j.append(ok.clone()).unwrap();
        j.append(JournalEntry {
            status: JournalStatus::Failed,
            value: None,
            error: Some("x".into()),
            ..ok
        })
        .unwrap();
        let reopened = Journal::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), 1);
        assert_eq!(reopened.entries()[0].status, JournalStatus::Failed);
        assert!(reopened.completed().is_empty());
        assert_eq!(lines(&path).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exit_codes_are_distinct() {
        assert_eq!(EXIT_OK, 0);
        assert_eq!(EXIT_PARTIAL, 2);
        assert_eq!(EXIT_INVALID_INPUT, 3);
    }

    #[test]
    fn error_display_names_cause() {
        let e = ExperimentError::InvalidInput("field `benchmark`".into());
        assert!(e.to_string().contains("benchmark"));
        let e = ExperimentError::Timeout { secs: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }
}
