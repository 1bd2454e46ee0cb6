//! The batteries-included [`Recorder`]: in-memory metric registry and
//! artifact writer.

use crate::span::SpanRecord;
use crate::timeline::TimelineData;
use crate::{Level, Recorder};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Configuration of a [`Telemetry`] hub.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Artifact directory (`metrics.prom`, `trace.json`,
    /// `telemetry-summary.json`, `timeline.jsonl`). `None` keeps
    /// everything in memory.
    pub dir: Option<PathBuf>,
    /// Timeline window length in ticks (instructions / cycles) for
    /// [`crate::timeline::Timeline::from_hub`]. `0` disables timelines.
    pub timeline_window: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            dir: None,
            timeline_window: crate::timeline::DEFAULT_TIMELINE_WINDOW,
        }
    }
}

impl TelemetryConfig {
    /// Builds the configuration the environment asks for, with artifacts
    /// under `dir` when given (a command-line flag) and otherwise where
    /// `AC_TELEMETRY` says; `None` when neither asks for telemetry (see
    /// the crate docs for the accepted values). Every other setting comes
    /// from the environment either way.
    pub fn from_env(dir: Option<PathBuf>) -> Option<TelemetryConfig> {
        let dir = match dir {
            Some(dir) => dir,
            None => match std::env::var("AC_TELEMETRY").ok()?.trim() {
                "" | "0" | "false" | "no" => return None,
                "1" | "true" | "yes" => PathBuf::from("results"),
                path => PathBuf::from(path),
            },
        };
        Some(TelemetryConfig {
            dir: Some(dir),
            timeline_window: env_or(
                "AC_TIMELINE_WINDOW",
                crate::timeline::DEFAULT_TIMELINE_WINDOW,
            ),
        })
    }

    /// This configuration with a different artifact directory.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// This configuration with a different timeline window length
    /// (`0` disables timelines).
    pub fn with_timeline_window(mut self, window: u64) -> Self {
        self.timeline_window = window;
        self
    }
}

/// The environment variable `name` parsed as a `T`, or `default` when it
/// is unset or does not parse (an out-of-range number included).
fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The standard recorder: thread-safe metric registry.
///
/// Use a local instance in tests, or [`Telemetry::install`] to make one
/// the process-global recorder feeding the instrumentation in the
/// simulation crates.
pub struct Telemetry {
    cfg: TelemetryConfig,
    counters: Mutex<HashMap<&'static str, BTreeMap<String, u64>>>,
    gauges: Mutex<HashMap<&'static str, BTreeMap<String, f64>>>,
    spans: Mutex<Vec<SpanRecord>>,
    timelines: Mutex<Vec<TimelineData>>,
    log_counts: [AtomicU64; 4],
    /// Serialises [`Telemetry::write_artifacts`]: the periodic flusher,
    /// the supervisor's failure-path flush and the exit flush all share
    /// one temp-file name per artifact, so exports must not interleave.
    flush_gate: Mutex<()>,
    /// Whether the background flusher thread was already spawned.
    flusher_started: std::sync::atomic::AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Telemetry {
    /// Creates a hub; nothing reaches `cfg.dir` until
    /// [`Telemetry::write_artifacts`].
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            cfg,
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            timelines: Mutex::new(Vec::new()),
            log_counts: Default::default(),
            flush_gate: Mutex::new(()),
            flusher_started: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Creates a hub and installs it as the process-global recorder.
    ///
    /// Returns the leaked `&'static` hub (also reachable afterwards via
    /// [`crate::hub`]). Fails if a recorder is already installed.
    pub fn install(cfg: TelemetryConfig) -> Result<&'static Telemetry, TelemetryConfig> {
        let hub: &'static Telemetry = Box::leak(Box::new(Telemetry::new(cfg)));
        match crate::set_recorder(Box::new(HubHandle(hub))) {
            Ok(()) => {
                crate::set_hub(hub);
                hub.start_flusher_from_env();
                Ok(hub)
            }
            Err(_) => Err(hub.cfg.clone()),
        }
    }

    /// Spawns the periodic artifact flusher when `AC_TELEMETRY_FLUSH_MS`
    /// names an interval (milliseconds, minimum 50). With a flusher
    /// running, the on-disk `telemetry-summary.json` / `metrics.prom` /
    /// `timeline.jsonl` stay crash-current during a long run instead of
    /// appearing only at exit.
    pub fn start_flusher_from_env(&'static self) {
        let Some(ms) = std::env::var("AC_TELEMETRY_FLUSH_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
        else {
            return;
        };
        self.start_flusher(std::time::Duration::from_millis(ms.max(50)));
    }

    /// Spawns a daemon thread writing every artifact atomically each
    /// `interval`. Idempotent: only the first call spawns.
    pub fn start_flusher(&'static self, interval: std::time::Duration) {
        use std::sync::atomic::Ordering;
        if self.cfg.dir.is_none() || self.flusher_started.swap(true, Ordering::AcqRel) {
            return;
        }
        let spawned = std::thread::Builder::new()
            .name("ac-telemetry-flush".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                if let Err(e) = self.write_artifacts() {
                    crate::warn!("telemetry: periodic flush failed: {e}");
                }
            });
        if spawned.is_err() {
            crate::warn!("telemetry: could not spawn the periodic flusher");
        }
    }

    /// The configuration this hub was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Snapshot of all counters: `name -> label -> value`.
    pub fn counters(&self) -> BTreeMap<&'static str, BTreeMap<String, u64>> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// The value of counter `name` with `label` (0 when never touched).
    pub fn counter_value(&self, name: &'static str, label: &str) -> u64 {
        lock(&self.counters)
            .get(name)
            .and_then(|m| m.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of all gauges: `name -> label -> value`.
    pub fn gauges(&self) -> BTreeMap<&'static str, BTreeMap<String, f64>> {
        lock(&self.gauges)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Snapshot of all completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.spans).clone()
    }

    /// Aggregated span wall time: `(name, cat) -> (count, total_us)`,
    /// in first-completion order.
    pub fn span_totals(&self) -> Vec<(String, &'static str, u64, u64)> {
        let spans = lock(&self.spans);
        let mut order: Vec<(String, &'static str, u64, u64)> = Vec::new();
        for s in spans.iter() {
            match order
                .iter_mut()
                .find(|(n, c, _, _)| *n == s.name && *c == s.cat)
            {
                Some(entry) => {
                    entry.2 += 1;
                    entry.3 += s.dur_us;
                }
                None => order.push((s.name.clone(), s.cat, 1, s.dur_us)),
            }
        }
        order
    }

    /// Attaches a finished timeline for `timeline.jsonl` export.
    /// Usually called through [`crate::timeline::Timeline::finish`].
    pub fn attach_timeline(&self, data: TimelineData) {
        lock(&self.timelines).push(data);
    }

    /// Snapshot of the attached timelines, in attach order.
    pub fn timelines(&self) -> Vec<TimelineData> {
        lock(&self.timelines).clone()
    }

    /// Log lines emitted per level (error, warn, info, debug).
    pub fn log_counts(&self) -> [u64; 4] {
        [
            self.log_counts[0].load(Ordering::Relaxed),
            self.log_counts[1].load(Ordering::Relaxed),
            self.log_counts[2].load(Ordering::Relaxed),
            self.log_counts[3].load(Ordering::Relaxed),
        ]
    }

    /// Writes every artifact (`metrics.prom`, `trace.json`,
    /// `telemetry-summary.json`, and `timeline.jsonl` once a timeline is
    /// attached) to the configured directory. No-op (Ok) when no directory is configured.
    ///
    /// Safe to call *mid-run* (each artifact is a point-in-time snapshot
    /// taken under the hub's locks, written atomically) and from several
    /// threads (exports are serialised on an internal gate) — the
    /// periodic flusher and the supervisor's failure paths rely on both.
    pub fn write_artifacts(&self) -> io::Result<Vec<PathBuf>> {
        let Some(dir) = self.cfg.dir.clone() else {
            return Ok(Vec::new());
        };
        let _gate = lock(&self.flush_gate);
        std::fs::create_dir_all(&dir)?;
        let mut written = Vec::new();
        for (name, text) in [
            ("metrics.prom", self.prometheus()),
            ("trace.json", self.chrome_trace()),
            ("telemetry-summary.json", self.summary_json()),
        ] {
            let path = dir.join(name);
            write_atomic(&path, text.as_bytes())?;
            written.push(path);
        }
        let timelines = lock(&self.timelines);
        if !timelines.is_empty() {
            let mut text = String::with_capacity(64 * 1024);
            for tl in timelines.iter() {
                tl.write_jsonl(&mut text);
            }
            let path = dir.join("timeline.jsonl");
            write_atomic(&path, text.as_bytes())?;
            written.push(path);
        }
        Ok(written)
    }
}

impl Recorder for Telemetry {
    fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        let mut counters = lock(&self.counters);
        let by_label = counters.entry(name).or_default();
        match by_label.get_mut(label) {
            Some(v) => *v += delta,
            None => {
                by_label.insert(label.to_string(), delta);
            }
        }
    }

    fn gauge_set(&self, name: &'static str, label: &str, value: f64) {
        lock(&self.gauges)
            .entry(name)
            .or_default()
            .insert(label.to_string(), value);
    }

    fn span_record(&self, span: SpanRecord) {
        lock(&self.spans).push(span);
    }

    fn log_emitted(&self, level: Level) {
        self.log_counts[level as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// The globally installed handle: a thin forwarder so `install` can both
/// leak the hub once and hand out the typed `&'static Telemetry`.
struct HubHandle(&'static Telemetry);

impl Recorder for HubHandle {
    fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        self.0.counter_add(name, label, delta);
    }
    fn gauge_set(&self, name: &'static str, label: &str, value: f64) {
        self.0.gauge_set(name, label, value);
    }
    fn span_record(&self, span: SpanRecord) {
        self.0.span_record(span);
    }
    fn log_emitted(&self, level: Level) {
        self.0.log_emitted(level);
    }
}

/// Writes `bytes` to `path` atomically (temp file in the same directory,
/// then rename), so a kill mid-export can never leave a torn artifact.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.counter_add("misses_total", "LRU", 2);
        t.counter_add("misses_total", "LRU", 3);
        t.counter_add("misses_total", "LFU", 1);
        assert_eq!(t.counter_value("misses_total", "LRU"), 5);
        assert_eq!(t.counter_value("misses_total", "LFU"), 1);
        assert_eq!(t.counter_value("misses_total", "absent"), 0);
    }

    #[test]
    fn write_artifacts_without_dir_is_noop() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert!(t.write_artifacts().unwrap().is_empty());
    }

    #[test]
    fn span_totals_aggregate_by_name() {
        let t = Telemetry::new(TelemetryConfig::default());
        for (name, dur) in [("a", 10), ("b", 5), ("a", 7)] {
            t.span_record(SpanRecord {
                name: name.to_string(),
                cat: "test",
                ts_us: 0,
                dur_us: dur,
                tid: 1,
                args: Vec::new(),
            });
        }
        let totals = t.span_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0], ("a".to_string(), "test", 2, 17));
        assert_eq!(totals[1], ("b".to_string(), "test", 1, 5));
    }
}
