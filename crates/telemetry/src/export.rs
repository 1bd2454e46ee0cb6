//! Exporters: Prometheus text exposition, Chrome `trace_event` JSON,
//! and the per-run summary document.

use crate::json::{number, push_str_escaped};
use crate::Telemetry;
use std::fmt::Write;

/// Reduces a metric name to the Prometheus charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`) and prefixes the workspace namespace.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ac_");
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Schema version stamped on `telemetry-summary.json`. Version 1 had
/// no `schema_version` field; version 2 added it; version 3 drops the
/// `histograms` section.
pub const SUMMARY_SCHEMA_VERSION: u32 = 3;

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and line feed become `\\`, `\"` and `\n`.
/// Single pass, so a backslash introduced by one rule can never be
/// re-escaped by another.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Telemetry {
    /// Prometheus text exposition of every counter and gauge.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, by_label) in self.counters() {
            let pname = prom_name(name);
            let _ = writeln!(out, "# TYPE {pname} counter");
            for (label, value) in by_label {
                if label.is_empty() {
                    let _ = writeln!(out, "{pname} {value}");
                } else {
                    let _ = writeln!(
                        out,
                        "{pname}{{label=\"{}\"}} {value}",
                        prom_label_value(&label)
                    );
                }
            }
        }
        for (name, by_label) in self.gauges() {
            let pname = prom_name(name);
            let _ = writeln!(out, "# TYPE {pname} gauge");
            for (label, value) in by_label {
                if label.is_empty() {
                    let _ = writeln!(out, "{pname} {}", number(value));
                } else {
                    let _ = writeln!(
                        out,
                        "{pname}{{label=\"{}\"}} {}",
                        prom_label_value(&label),
                        number(value)
                    );
                }
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (load via `chrome://tracing` or
    /// <https://ui.perfetto.dev>): one complete (`"ph":"X"`) event per
    /// recorded span.
    pub fn chrome_trace(&self) -> String {
        let pid = std::process::id();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_str_escaped(&mut out, &s.name);
            out.push_str(",\"cat\":");
            push_str_escaped(&mut out, s.cat);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{}",
                s.ts_us, s.dur_us, s.tid
            );
            if !s.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in s.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_str_escaped(&mut out, k);
                    out.push(':');
                    push_str_escaped(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The per-run summary document (`telemetry-summary.json`):
    /// counters, gauges, span totals, log-line counts and event-stream
    /// statistics.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"schema_version\":{SUMMARY_SCHEMA_VERSION},");

        out.push_str("\"counters\":{");
        let counters = self.counters();
        for (i, (name, by_label)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, name);
            out.push_str(":{");
            for (j, (label, value)) in by_label.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_str_escaped(&mut out, label);
                let _ = write!(out, ":{value}");
            }
            out.push('}');
        }
        out.push_str("},");

        out.push_str("\"gauges\":{");
        let gauges = self.gauges();
        for (i, (name, by_label)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, name);
            out.push_str(":{");
            for (j, (label, value)) in by_label.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_str_escaped(&mut out, label);
                let _ = write!(out, ":{}", number(*value));
            }
            out.push('}');
        }
        out.push_str("},");

        out.push_str("\"spans\":{");
        for (i, (name, cat, count, total_us)) in self.span_totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, name);
            out.push_str(":{\"cat\":");
            push_str_escaped(&mut out, cat);
            let _ = write!(out, ",\"count\":{count},\"total_us\":{total_us}}}");
        }
        out.push_str("},");

        let [e, w, inf, d] = self.log_counts();
        let _ = write!(
            out,
            "\"log\":{{\"error\":{e},\"warn\":{w},\"info\":{inf},\"debug\":{d}}},"
        );

        let _ = write!(
            out,
            "\"events\":{{\"seen\":{},\"recorded\":{},\"sample_rate\":{}}}",
            self.events_seen(),
            self.events_recorded(),
            self.config().sample_rate
        );
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comp, DecisionEvent, EvictionCase, Recorder, SpanRecord, TelemetryConfig};

    fn hub_with_data() -> Telemetry {
        let t = Telemetry::new(TelemetryConfig::default());
        t.counter_add("misses_total", "LRU (512KB)", 42);
        t.counter_add("cells_total", "ok", 3);
        t.gauge_set("sample_rate", "", 1.0);
        t.span_record(SpanRecord {
            name: "fig03".into(),
            cat: "figure",
            ts_us: 5,
            dur_us: 100,
            tid: 7,
            args: vec![("frontend_skipped", "true".to_string())],
        });
        t.decision(DecisionEvent::Imitation {
            set: 1,
            component: Comp::B,
            case: EvictionCase::NotInShadow,
        });
        t
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = hub_with_data().prometheus();
        assert!(text.contains("# TYPE ac_misses_total counter"));
        assert!(text.contains("ac_misses_total{label=\"LRU (512KB)\"} 42"));
        assert!(text.contains("# TYPE ac_sample_rate gauge"));
        assert!(text.contains("ac_sample_rate 1"));
    }

    #[test]
    fn prom_names_are_sanitised() {
        assert_eq!(prom_name("cell wall-time.us"), "ac_cell_wall_time_us");
        assert_eq!(prom_name("9lives"), "ac__9lives");
    }

    #[test]
    fn prom_label_values_escape_hostile_strings() {
        // The three characters the exposition format requires escaped.
        assert_eq!(prom_label_value("back\\slash"), "back\\\\slash");
        assert_eq!(prom_label_value("quo\"te"), "quo\\\"te");
        assert_eq!(prom_label_value("new\nline"), "new\\nline");
        // Order-sensitivity trap: escaping `\` after `"` (or any
        // multi-pass scheme) would double-escape the backslash the
        // quote rule introduced. `\"` must stay exactly `\\\"`.
        assert_eq!(prom_label_value("\\\""), "\\\\\\\"");
        assert_eq!(prom_label_value("a\\n"), "a\\\\n", "literal backslash-n");
        // End to end: a hostile label can never break a sample line.
        let t = Telemetry::new(TelemetryConfig::default());
        t.counter_add("hostile_total", "evil \"label\"\nwith \\ tricks", 1);
        let text = t.prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with("ac_hostile_total{"))
            .expect("hostile counter line present");
        assert_eq!(
            line,
            "ac_hostile_total{label=\"evil \\\"label\\\"\\nwith \\\\ tricks\"} 1"
        );
        assert_eq!(
            text.lines().filter(|l| l.contains("hostile")).count(),
            2,
            "TYPE line + one unbroken sample line"
        );
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let text = hub_with_data().chrome_trace();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"name\":\"fig03\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(
            text.contains("\"args\":{\"frontend_skipped\":\"true\"}"),
            "span attrs exported: {text}"
        );
        assert!(text.ends_with("]}"));
    }

    #[test]
    fn summary_mentions_every_section() {
        let text = hub_with_data().summary_json();
        for key in [
            "\"counters\"",
            "\"gauges\"",
            "\"spans\"",
            "\"log\"",
            "\"events\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(text.contains("\"recorded\":1"));
    }
}
