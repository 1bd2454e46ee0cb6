//! In-memory span recording around the benchmark's calls into each
//! layer, written out once as a Chrome trace (`chrome://tracing`,
//! Perfetto) when the run ends.

use serde_json::{json, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` is "no span" (the root).
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    thread: u32,
    start_us: f64,
    end_us: f64,
}

/// Span recorder. A disabled tracer reads no clock and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`, on display
    /// lane `thread`. `f` receives the new span's id to parent its own
    /// children.
    pub fn span<R>(
        &self,
        name: impl FnOnce() -> String,
        parent: SpanId,
        thread: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        // Relaxed: the id only needs to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name(),
            thread,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// The recorded spans as a Chrome trace document (complete events,
    /// with each span's id and parent in its arguments).
    pub fn chrome_trace(&self) -> Value {
        let spans = self.spans.lock().expect("span list poisoned");
        let events: Vec<Value> = spans
            .iter()
            .map(|s| {
                json!({
                    "name": (s.name.clone()),
                    "ph": "X",
                    "pid": 1,
                    "tid": (s.thread),
                    "ts": (s.start_us),
                    "dur": (s.end_us - s.start_us),
                    "args": {"id": (s.id), "parent": (s.parent)}
                })
            })
            .collect();
        json!({"traceEvents": (Value::Array(events)), "displayTimeUnit": "ms"})
    }

    /// Writes the Chrome trace to `dir/trace.json`.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = serde_json::to_string(&self.chrome_trace())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(dir.join("trace.json"), text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(|| "x".into(), 0, 0, |id| id + 7);
        assert_eq!(v, 7);
        assert_eq!(t.chrome_trace()["traceEvents"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn spans_nest_through_parent_ids() {
        let t = Tracer::new(true);
        t.span(
            || "outer".into(),
            0,
            0,
            |outer| t.span(|| "inner".into(), outer, 0, |_| ()),
        );
        let doc = t.chrome_trace();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Inner ends first, so it is recorded first.
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner["name"].as_str(), Some("inner"));
        assert_eq!(inner["args"]["parent"], outer["args"]["id"]);
        assert_eq!(outer["args"]["parent"].as_u64(), Some(0));
        let start = |e: &Value| e["ts"].as_f64().unwrap();
        let end = |e: &Value| start(e) + e["dur"].as_f64().unwrap();
        assert!(start(outer) <= start(inner) && end(inner) <= end(outer));
    }
}
