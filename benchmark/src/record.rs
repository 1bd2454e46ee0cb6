//! The record a run prints: metrics by name with their units, the
//! failure count, and the host the numbers were measured on.

use serde_json::{json, Map, Value};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The median of `samples` (or the single value measured).
    pub value: f64,
    /// `(q1, q3, sample count)` when the value is a median of several.
    pub spread: Option<(f64, f64, usize)>,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            spread: None,
        }
    }

    /// The median of `samples`, with its quartiles and sample count.
    pub fn sampled(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, median, q3) = crate::stats::quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: median,
            spread: Some((q1, q3, samples.len())),
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The probe-kernel tier the cache engines run at.
    pub simd_level: &'static str,
    /// Compile-time target features and build profile.
    pub build_flags: String,
}

impl Host {
    pub fn detect() -> Host {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Host {
            nproc: crate::sys::nproc(),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_level: cache_sim::simd::active_level().name(),
            build_flags: format!("{} {profile}", cache_sim::simd::compiled_target_features()),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Checked units of work: sweep cells, concurrent passes, gate checks.
    pub attempted: u64,
    /// Checked units whose output was wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Measurements that qualify the metrics (the wall-clock values the
    /// reference-host times were scaled from); full record only.
    pub context: Vec<Metric>,
}

fn metric_map(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        let mut v = json!({"value": (m.value), "unit": (m.unit)});
        if let (Some((q1, q3, n)), Value::Object(o)) = (m.spread, &mut v) {
            o.insert("q1".into(), json!(q1));
            o.insert("q3".into(), json!(q3));
            o.insert("n".into(), json!(n));
        }
        map.insert(m.name.clone(), v);
    }
    Value::Object(map)
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full record: every metric with its spread, plus the host
    /// stamps.
    pub fn detail_json(&self, host: &Host) -> Value {
        json!({
            "record": "acbench/v1",
            "workload": (self.workload.clone()),
            "seed": (self.seed),
            "trace": (self.traced),
            "correct": (self.correct()),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "nproc": (host.nproc),
            "available_parallelism": (host.available_parallelism),
            "simd_level": (host.simd_level),
            "build_flags": (host.build_flags.clone()),
            "metrics": (metric_map(&self.metrics)),
            "context": (metric_map(&self.context))
        })
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_json(&self) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json!({"value": (m.value), "unit": (m.unit)}),
                )
            })
            .collect();
        json!({
            "correct": (self.correct()),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": (Value::Object(metrics))
        })
    }

    /// A human-readable table of the metrics.
    pub fn table(&self, host: &Host) -> String {
        let mut out = format!(
            "acbench {} seed={} trace={} — {}/{} failed — nproc={} simd={} flags={}\n",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.failed,
            self.attempted,
            host.nproc,
            host.simd_level,
            host.build_flags
        );
        for m in self.metrics.iter().chain(&self.context) {
            let spread = m
                .spread
                .map(|(q1, q3, n)| format!("  [q1 {q1:.4e}, q3 {q3:.4e}, n={n}]"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:<44} {:>14.6} {:<12}{spread}\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            workload: "concurrent_zipf".into(),
            seed: 3,
            traced: false,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::sampled("throughput", "items/s", &[3.0, 1.0, 2.0]),
                Metric::single("setup_s", "s", 0.25),
            ],
            context: vec![Metric::single("raw.setup_s", "s", 0.5)],
        }
    }

    #[test]
    fn names_use_the_metric_charset() {
        for ok in [
            "setup_s",
            "cpu_model.replay_ns_per_event.adaptive_8bit",
            "a",
            "9-x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = record().result_json();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(
            v["metrics"].get("raw.setup_s").is_none(),
            "context stays out"
        );
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(12));
        let tput = v["metrics"]["throughput"].as_object().unwrap();
        assert_eq!(tput.keys().collect::<Vec<_>>(), ["unit", "value"]);
        assert_eq!(tput["value"].as_f64(), Some(2.0));
        assert_eq!(tput["unit"].as_str(), Some("items/s"));
        // One line of text, parseable back.
        let line = serde_json::to_string(&v).unwrap();
        assert!(!line.contains('\n'));
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn detail_carries_spread_and_host_stamps() {
        let host = Host {
            nproc: 2,
            available_parallelism: 2,
            simd_level: "avx2",
            build_flags: "avx2 release".into(),
        };
        let v = record().detail_json(&host);
        assert_eq!(v["nproc"].as_u64(), Some(2));
        assert_eq!(v["simd_level"].as_str(), Some("avx2"));
        assert_eq!(v["metrics"]["throughput"]["n"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["throughput"]["q1"].as_f64(), Some(1.0));
        assert!(v["metrics"]["setup_s"].get("q1").is_none());
        assert_eq!(v["context"]["raw.setup_s"]["value"].as_f64(), Some(0.5));
    }

    #[test]
    fn failures_make_the_record_incorrect() {
        let mut r = record();
        r.failed = 1;
        assert!(!r.correct());
        assert_eq!(r.result_json()["correct"].as_bool(), Some(false));
    }
}
