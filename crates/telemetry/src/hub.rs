//! The batteries-included [`Recorder`]: in-memory metric registry,
//! decision-event ring buffer, streaming JSONL sink, artifact writer.

use crate::event::{DecisionEvent, EventRecord};
use crate::span::SpanRecord;
use crate::timeline::TimelineData;
use crate::{Level, Recorder};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Default capacity of the in-memory decision-event ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Default decision-event sampling rate when enabling from the
/// environment (record one event in 64).
const DEFAULT_ENV_SAMPLE_RATE: u32 = 64;

/// Configuration of a [`Telemetry`] hub.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Artifact directory (`metrics.prom`, `trace.json`,
    /// `telemetry-summary.json`, `events.jsonl`). `None` keeps
    /// everything in memory.
    pub dir: Option<PathBuf>,
    /// Decision-event sampling: record one event in `sample_rate`.
    /// `0` disables the event stream entirely; `1` records everything.
    pub sample_rate: u32,
    /// Capacity of the in-memory event ring buffer (oldest events are
    /// overwritten once full; the JSONL sink, when configured, streams
    /// every sampled event regardless).
    pub ring_capacity: usize,
    /// Timeline window length in ticks (instructions / cycles) for
    /// [`crate::timeline::Timeline::from_hub`]. `0` disables timelines.
    pub timeline_window: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            dir: None,
            sample_rate: 1,
            ring_capacity: DEFAULT_RING_CAPACITY,
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
            sample_rate: env_or("AC_TELEMETRY_SAMPLE", DEFAULT_ENV_SAMPLE_RATE),
            ring_capacity: DEFAULT_RING_CAPACITY,
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

    /// This configuration with a different sampling rate.
    pub fn with_sample_rate(mut self, rate: u32) -> Self {
        self.sample_rate = rate;
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

struct EventBuf {
    ring: VecDeque<EventRecord>,
    sink: Option<BufWriter<std::fs::File>>,
    sink_error: bool,
}

/// The standard recorder: thread-safe metric registry + event stream.
///
/// Use a local instance in tests, or [`Telemetry::install`] to make one
/// the process-global recorder feeding the instrumentation in the
/// simulation crates.
pub struct Telemetry {
    cfg: TelemetryConfig,
    counters: Mutex<HashMap<&'static str, BTreeMap<String, u64>>>,
    gauges: Mutex<HashMap<&'static str, BTreeMap<String, f64>>>,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<EventBuf>,
    timelines: Mutex<Vec<TimelineData>>,
    /// Position in the unsampled event stream (drives sampling).
    event_seq: AtomicU64,
    /// Events actually recorded (ring and/or sink).
    events_recorded: AtomicU64,
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
    /// Creates a hub. When `cfg.dir` is set, sampled decision events
    /// stream to `<dir>/events.jsonl` as they are recorded (the file is
    /// opened lazily on the first event).
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            cfg,
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(EventBuf {
                ring: VecDeque::new(),
                sink: None,
                sink_error: false,
            }),
            timelines: Mutex::new(Vec::new()),
            event_seq: AtomicU64::new(0),
            events_recorded: AtomicU64::new(0),
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

    /// Snapshot of the in-memory event ring (oldest first). The ring
    /// holds the most recent `ring_capacity` sampled events; the JSONL
    /// sink, when configured, has the full sampled stream.
    pub fn events(&self) -> Vec<EventRecord> {
        lock(&self.events).ring.iter().copied().collect()
    }

    /// Total events offered to the stream (before sampling).
    pub fn events_seen(&self) -> u64 {
        self.event_seq.load(Ordering::Relaxed)
    }

    /// Total events recorded (after sampling).
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded.load(Ordering::Relaxed)
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

    /// Flushes the JSONL sink and writes every artifact
    /// (`metrics.prom`, `trace.json`, `telemetry-summary.json`) to the
    /// configured directory. No-op (Ok) when no directory is configured.
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
        {
            let mut ev = lock(&self.events);
            if let Some(sink) = ev.sink.as_mut() {
                sink.flush()?;
            }
        }
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
        drop(timelines);
        let events = dir.join("events.jsonl");
        if events.exists() {
            written.push(events);
        }
        Ok(written)
    }

    fn sink_write(&self, buf: &mut EventBuf, line: &str) {
        if buf.sink_error {
            return;
        }
        if buf.sink.is_none() {
            let Some(dir) = &self.cfg.dir else { return };
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(dir.join("events.jsonl")))
            {
                Ok(f) => buf.sink = Some(BufWriter::new(f)),
                Err(_) => {
                    buf.sink_error = true;
                    return;
                }
            }
        }
        if let Some(sink) = buf.sink.as_mut() {
            if writeln!(sink, "{line}").is_err() {
                buf.sink_error = true;
            }
        }
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

    fn decision(&self, event: DecisionEvent) {
        let rate = self.cfg.sample_rate;
        if rate == 0 {
            return;
        }
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(u64::from(rate)) {
            return;
        }
        let record = EventRecord {
            seq,
            t_us: crate::now_us(),
            event,
        };
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        let mut buf = lock(&self.events);
        if self.cfg.dir.is_some() {
            let line = record.to_json_line();
            self.sink_write(&mut buf, &line);
        }
        if buf.ring.len() == self.cfg.ring_capacity.max(1) {
            buf.ring.pop_front();
        }
        buf.ring.push_back(record);
    }

    fn events_enabled(&self) -> bool {
        self.cfg.sample_rate > 0
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
    fn decision(&self, event: DecisionEvent) {
        self.0.decision(event);
    }
    fn events_enabled(&self) -> bool {
        self.0.events_enabled()
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
    use crate::{Comp, DecisionEvent, EvictionCase};

    fn imitation(set: u32) -> DecisionEvent {
        DecisionEvent::Imitation {
            set,
            component: Comp::A,
            case: EvictionCase::SameVictim,
        }
    }

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
    fn sample_rate_zero_emits_nothing() {
        let t = Telemetry::new(TelemetryConfig::default().with_sample_rate(0));
        for i in 0..100 {
            t.decision(imitation(i));
        }
        assert!(!t.events_enabled());
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.events_recorded(), 0);
        assert_eq!(t.events_seen(), 0, "rate 0 does not even count");
    }

    #[test]
    fn sample_rate_one_records_everything() {
        let t = Telemetry::new(TelemetryConfig::default());
        for i in 0..100 {
            t.decision(imitation(i));
        }
        assert_eq!(t.events().len(), 100);
        assert_eq!(t.events_seen(), 100);
        assert_eq!(t.events_recorded(), 100);
    }

    #[test]
    fn sample_rate_n_records_one_in_n() {
        let t = Telemetry::new(TelemetryConfig::default().with_sample_rate(10));
        for i in 0..100 {
            t.decision(imitation(i));
        }
        assert_eq!(t.events().len(), 10);
        assert_eq!(t.events_seen(), 100);
        // Sampled events keep their true stream position.
        assert_eq!(t.events()[1].seq, 10);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let cfg = TelemetryConfig {
            ring_capacity: 4,
            ..TelemetryConfig::default()
        };
        let t = Telemetry::new(cfg);
        for i in 0..10 {
            t.decision(imitation(i));
        }
        let ev = t.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].seq, 6, "oldest events overwritten");
        assert_eq!(t.events_recorded(), 10, "recorded count is lifetime");
    }

    #[test]
    fn jsonl_sink_streams_every_sampled_event() {
        let dir = std::env::temp_dir().join(format!("ac_tlm_sink_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::new(TelemetryConfig::default().with_dir(&dir));
        for i in 0..20 {
            t.decision(imitation(i));
        }
        t.write_artifacts().unwrap();
        let text = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 20);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_artifacts_without_dir_is_noop() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert!(t.write_artifacts().unwrap().is_empty());
    }

    #[test]
    fn default_config_records_every_event_in_memory() {
        // `from_env` reads the real environment, which tests in this
        // process must not mutate; `tests/telemetry_env.rs` at the
        // workspace root covers it, holding a lock around each change.
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.sample_rate, 1);
        assert!(cfg.dir.is_none());
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
