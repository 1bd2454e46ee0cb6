//! # ac-telemetry — observability for the adaptive-caches workspace
//!
//! A zero-dependency, near-zero-overhead-when-disabled observability
//! layer. It provides:
//!
//! * **metrics** — monotonic counters and gauges behind the
//!   [`Recorder`] trait (no-op by default),
//! * **spans** — RAII wall-clock timers ([`span`]) that become Chrome
//!   `trace_event` timeline entries,
//! * **timelines** — windowed time series of a cache's cumulative
//!   [`TimelineProbe`] ([`timeline`]),
//! * **exporters** — Prometheus text exposition (`metrics.prom`), Chrome
//!   `trace_event` JSON (`trace.json`) and a per-run
//!   `telemetry-summary.json`,
//! * **leveled logging** — [`error!`]/[`warn!`]/[`info!`]/[`debug!`]
//!   macros gated by the `AC_LOG` environment variable.
//!
//! ## Off by default, one atomic load when disabled
//!
//! Nothing records until a recorder is installed ([`Telemetry::install`]
//! or [`init_from_env`]). Every instrumentation entry point first checks
//! a relaxed [`AtomicBool`]; with no recorder installed the entire call
//! is a load + branch and **never allocates** (guarded by the
//! `noop_alloc` test). Span-name closures are not even invoked.
//!
//! ## Environment control
//!
//! * `AC_TELEMETRY` — `0`/unset: disabled; `1`/`true`/`yes`: enabled
//!   with artifacts under `results/`; any other value: enabled with
//!   artifacts under that directory.
//! * `AC_TIMELINE_WINDOW` — the timeline window in ticks
//!   ([`TelemetryConfig`]; `0` disables timelines).
//! * `AC_TELEMETRY_FLUSH_MS` — rewrite every artifact atomically each
//!   `N` ms (minimum 50) while the process runs, so the artifact
//!   directory is a live view of a long run.
//! * `AC_LOG` — `error`, `warn`, `info` (default) or `debug`.
//!
//! ## Example
//!
//! ```
//! use ac_telemetry::{Telemetry, TelemetryConfig, Recorder};
//!
//! let hub = Telemetry::new(TelemetryConfig::default());
//! hub.counter_add("cache_misses_total", "LRU", 3);
//! assert_eq!(hub.counter_value("cache_misses_total", "LRU"), 3);
//! assert!(hub.prometheus().contains("ac_cache_misses_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hub;
mod json;
mod logging;
mod span;
pub mod timeline;

pub use export::SUMMARY_SCHEMA_VERSION;
pub use hub::{Telemetry, TelemetryConfig};
pub use logging::{log_stderr, max_level, Level};
pub use span::{now_us, Span, SpanRecord};
pub use timeline::{Timeline, TimelineData, TimelineGauges, TimelineProbe};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The sink instrumentation reports into.
///
/// The default state of the process is "no recorder": every helper in
/// this crate is a no-op until one is installed. [`Telemetry`] is the
/// batteries-included implementation; custom recorders (test probes,
/// alternative backends) only need this trait.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`, dimensioned by
    /// `label` (use `""` for an unlabelled counter).
    fn counter_add(&self, name: &'static str, label: &str, delta: u64);

    /// Sets the gauge `name` (dimensioned by `label`) to `value`.
    fn gauge_set(&self, name: &'static str, label: &str, value: f64);

    /// Records a completed span.
    fn span_record(&self, span: SpanRecord);

    /// Notifies the recorder that a log line of `level` was emitted.
    fn log_emitted(&self, _level: Level) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<&'static dyn Recorder> = OnceLock::new();
static HUB: OnceLock<&'static Telemetry> = OnceLock::new();

/// Installs `recorder` as the process-global sink.
///
/// Returns `Err(recorder)` if a recorder was already installed (the
/// global can be set once per process, like a logger).
pub fn set_recorder(recorder: Box<dyn Recorder>) -> Result<(), Box<dyn Recorder>> {
    // Leak deliberately: the recorder lives for the rest of the process,
    // exactly like `log::set_boxed_logger`.
    let leaked: &'static dyn Recorder = Box::leak(recorder);
    match RECORDER.set(leaked) {
        Ok(()) => {
            ENABLED.store(true, Ordering::Release);
            Ok(())
        }
        // The leaked box cannot be reboxed without unsafe; losing a
        // second, rejected recorder is acceptable (install races are
        // programming errors surfaced by the Err).
        Err(_) => Err(Box::new(NoopRecorder)),
    }
}

/// Whether any recorder is installed. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed recorder, if any.
#[inline]
pub fn recorder() -> Option<&'static dyn Recorder> {
    if enabled() {
        RECORDER.get().copied()
    } else {
        None
    }
}

/// The installed [`Telemetry`] hub, when the global recorder was
/// installed through [`Telemetry::install`] / [`init_from_env`] (a
/// custom [`set_recorder`] sink is reachable only as `dyn Recorder`).
#[inline]
pub fn hub() -> Option<&'static Telemetry> {
    HUB.get().copied()
}

pub(crate) fn set_hub(hub: &'static Telemetry) {
    let _ = HUB.set(hub);
}

/// Installs a [`Telemetry`] hub if `dir` (an artifact directory named on
/// the command line) or the `AC_TELEMETRY` environment variable asks for
/// one, configured by [`TelemetryConfig::from_env`]. Returns the hub
/// when telemetry is active (whether installed now or by an earlier
/// call).
pub fn init_from_env(dir: Option<std::path::PathBuf>) -> Option<&'static Telemetry> {
    if let Some(h) = hub() {
        return Some(h);
    }
    let cfg = TelemetryConfig::from_env(dir)?;
    Telemetry::install(cfg).ok()
}

/// Writes the installed hub's artifacts *now* (ignoring errors): the
/// supervisor's failure paths call this so a panicking or timed-out
/// sweep cell still leaves crash-current `telemetry-summary.json` /
/// `metrics.prom` on disk. No-op without a hub or artifact directory.
pub fn flush_now() {
    if let Some(h) = hub() {
        if let Err(e) = h.write_artifacts() {
            warn!("telemetry: mid-run flush failed: {e}");
        }
    }
}

/// Adds `delta` to counter `name` (label `""`) on the global recorder.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if let Some(r) = recorder() {
        r.counter_add(name, "", delta);
    }
}

/// Adds `delta` to counter `name` dimensioned by `label`.
#[inline]
pub fn counter_add_labeled(name: &'static str, label: &str, delta: u64) {
    if let Some(r) = recorder() {
        r.counter_add(name, label, delta);
    }
}

/// Sets gauge `name` (label `""`) on the global recorder.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if let Some(r) = recorder() {
        r.gauge_set(name, "", value);
    }
}

/// Sets gauge `name` dimensioned by `label`.
#[inline]
pub fn gauge_set_labeled(name: &'static str, label: &str, value: f64) {
    if let Some(r) = recorder() {
        r.gauge_set(name, label, value);
    }
}

/// Opens a wall-clock span of category `cat`; the name closure runs only
/// when a recorder is installed. The span records itself on drop.
#[inline]
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if enabled() {
        Span::live(cat, name())
    } else {
        Span::disabled()
    }
}

/// A recorder that drops everything (the implicit default state).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _: &'static str, _: &str, _: u64) {}
    fn gauge_set(&self, _: &'static str, _: &str, _: f64) {}
    fn span_record(&self, _: SpanRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the global recorder is install-once per process, so these
    // unit tests exercise only the *uninstalled* fast path plus
    // instance-level APIs; global-install behaviour is covered by the
    // workspace integration tests (`tests/telemetry.rs`), which run in
    // their own process.

    #[test]
    fn noop_helpers_do_not_panic_without_recorder() {
        counter_add("x_total", 1);
        counter_add_labeled("y_total", "lbl", 2);
        gauge_set("g", 1.5);
        let s = span("test", || {
            panic!("span name must not be built while disabled")
        });
        drop(s);
    }

    #[test]
    fn noop_recorder_discards() {
        let r = NoopRecorder;
        r.counter_add("a", "", 1);
        r.gauge_set("g", "", 1.0);
    }
}
