//! Round-trip contract for every telemetry artifact: a hub populated
//! with all record kinds writes its directory, and every file parses
//! back with the schema version the writer claims to emit. Guards the
//! hand-rolled JSON writers against drift from the documented schemas.

use ac_telemetry::timeline::TIMELINE_SCHEMA_VERSION;
use ac_telemetry::{
    Comp, DecisionEvent, EvictionCase, Recorder, SpanRecord, Telemetry, TelemetryConfig, Timeline,
    TimelineGauges, TimelineProbe, EVENTS_SCHEMA_VERSION, SUMMARY_SCHEMA_VERSION,
};
use serde_json::Value;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ac-roundtrip-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn parse_jsonl(path: &Path) -> Vec<Value> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l)
                .unwrap_or_else(|e| panic!("parse {} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

fn u64_of(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("field `{key}` missing or non-integer in {v:?}"))
}

#[test]
fn every_artifact_parses_with_its_schema_version() {
    let tmp = TempDir::new("artifacts");
    let hub = Telemetry::new(
        TelemetryConfig::default()
            .with_dir(tmp.0.clone())
            .with_sample_rate(1),
    );

    // One record of every kind the hub accepts.
    hub.counter_add("roundtrip_misses_total", "policy=adaptive", 41);
    hub.counter_add("roundtrip_misses_total", "policy=adaptive", 1);
    hub.gauge_set("roundtrip_accesses_per_sec", "", 123456.5);
    hub.span_record(SpanRecord {
        name: "cell 0".into(),
        cat: "cell",
        ts_us: 10,
        dur_us: 25,
        tid: 1,
        args: vec![("frontend_skipped", "false".to_string())],
    });
    let decisions = [
        DecisionEvent::Imitation {
            set: 3,
            component: Comp::B,
            case: EvictionCase::NotInShadow,
        },
        DecisionEvent::HistoryUpdate {
            set: 3,
            a_missed: true,
            b_missed: false,
        },
        DecisionEvent::LeaderVote {
            set: 0,
            slot: 1,
            psel: 512,
            global: Comp::A,
        },
        DecisionEvent::DuelVote {
            set: 7,
            bip_leader: true,
            psel: 100,
        },
    ];
    for d in decisions {
        hub.decision(d);
    }

    // A timeline attached the way drivers do it (close + detach).
    let mut tl = Timeline::new("roundtrip run".into(), "accesses", 100, 8);
    let mut probe = TimelineProbe::default();
    for tick in [100u64, 200, 250] {
        probe.accesses = tick;
        probe.misses = tick / 10;
        probe.hits = probe.accesses - probe.misses;
        tl.close(tick, tick * 2, probe, TimelineGauges::default());
    }
    hub.attach_timeline(tl.into_data());

    let paths = hub.write_artifacts().expect("write_artifacts");
    let names: Vec<String> = paths
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for expected in [
        "metrics.prom",
        "trace.json",
        "telemetry-summary.json",
        "events.jsonl",
        "timeline.jsonl",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "write_artifacts did not produce {expected}; got {names:?}"
        );
    }

    // telemetry-summary.json: schema version + the counters round-trip.
    let summary = parse_json(&tmp.0.join("telemetry-summary.json"));
    assert_eq!(
        u64_of(&summary, "schema_version"),
        u64::from(SUMMARY_SCHEMA_VERSION)
    );
    let misses = summary
        .get("counters")
        .and_then(|c| c.get("roundtrip_misses_total"))
        .and_then(|c| c.get("policy=adaptive"))
        .and_then(Value::as_u64);
    assert_eq!(misses, Some(42));
    assert_eq!(
        u64_of(summary.get("events").expect("events"), "recorded"),
        4
    );

    // events.jsonl: every line carries the schema version and a known kind.
    let events = parse_jsonl(&tmp.0.join("events.jsonl"));
    assert_eq!(events.len(), decisions.len());
    for e in &events {
        assert_eq!(
            u64_of(e, "schema_version"),
            u64::from(EVENTS_SCHEMA_VERSION)
        );
    }
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("kind").and_then(Value::as_str).expect("kind"))
        .collect();
    assert_eq!(
        kinds,
        ["imitation", "history_update", "leader_vote", "duel_vote"]
    );

    // timeline.jsonl: per-window schema version, labels, and the
    // derived-rate fields the report consumes.
    let windows = parse_jsonl(&tmp.0.join("timeline.jsonl"));
    assert_eq!(windows.len(), 3);
    for w in &windows {
        assert_eq!(
            u64_of(w, "schema_version"),
            u64::from(TIMELINE_SCHEMA_VERSION)
        );
        assert_eq!(w.get("run").and_then(Value::as_str), Some("roundtrip run"));
        assert_eq!(w.get("unit").and_then(Value::as_str), Some("accesses"));
        for field in ["mpki", "miss_ratio", "imit_frac_b", "ticks_per_sec"] {
            assert!(
                w.get(field).is_some(),
                "window lacks derived field `{field}`: {w:?}"
            );
        }
    }
    let total_misses: u64 = windows.iter().map(|w| u64_of(w, "misses")).sum();
    assert_eq!(total_misses, 25, "window deltas must sum to the last probe");

    // trace.json parses and holds the span.
    let trace = parse_json(&tmp.0.join("trace.json"));
    assert!(trace.get("traceEvents").is_some());

    // audit.json: written by `cachesim audit` next to the hub artifacts;
    // parses back with the writer's schema version.
    let report = bench::audit::AuditReport {
        schema_version: bench::audit::AUDIT_SCHEMA_VERSION,
        workload: "roundtrip".into(),
        l2: "adaptive".into(),
        mode: "functional".into(),
        insts: 1000,
        window_insts: 500,
        accesses: 250,
        achieved_hits: 200,
        achieved_misses: 50,
        opt_hits: 220,
        comp_a: Some(bench::audit::ComponentTotals {
            label: "lru".into(),
            hits: 190,
            misses: 60,
        }),
        comp_b: Some(bench::audit::ComponentTotals {
            label: "rnd".into(),
            hits: 170,
            misses: 80,
        }),
        best_fixed_hits: Some(190),
        efficiency_vs_best_fixed: Some(200.0 / 190.0),
        efficiency_vs_opt: 200.0 / 220.0,
        switch_lag: Some(bench::audit::SwitchLagSummary {
            window_accesses: 4096,
            winner_flips: 1,
            followed: 1,
            mean_lag_windows: 1.0,
            max_lag_windows: 1,
        }),
        shadow_consistency: Some(true),
        windows: vec![
            bench::audit::AuditWindow {
                end_inst: 500,
                accesses: 125,
                achieved_hits: 90,
                opt_hits: 100,
                comp_a_hits: Some(95),
                comp_b_hits: Some(80),
                regret_best: Some(5),
                regret_opt: 10,
            },
            bench::audit::AuditWindow {
                end_inst: 1000,
                accesses: 125,
                achieved_hits: 110,
                opt_hits: 120,
                comp_a_hits: Some(95),
                comp_b_hits: Some(90),
                regret_best: Some(-15),
                regret_opt: 10,
            },
        ],
        per_set: bench::audit::PerSetAudit {
            hits: vec![100, 100],
            shadow_a_hits: vec![95, 95],
            shadow_b_hits: vec![85, 85],
            opt_hits: vec![110, 110],
            regret_best: vec![-5, -5],
        },
    };
    let audit_path = tmp.0.join("audit.json");
    bench::audit::write_audit_json(&audit_path, &report).expect("write audit.json");
    let audit = parse_json(&audit_path);
    assert_eq!(
        u64_of(&audit, "schema_version"),
        u64::from(bench::audit::AUDIT_SCHEMA_VERSION)
    );
    let parsed: bench::audit::AuditReport =
        serde_json::from_value(audit).expect("audit.json round-trips through AuditReport");
    assert_eq!(parsed.regret_best_total(), Some(-10));
    assert_eq!(parsed.regret_opt_total(), 20);

    // The report loader accepts the directory end to end.
    let run = bench::report::RunArtifacts::load(&tmp.0).expect("report loads artifacts");
    assert_eq!(run.timeline.len(), 3);
    assert!(run.audit.is_some(), "report loader must pick up audit.json");
    let html = bench::report::render_html(&run, None);
    assert!(html.contains("<svg"));
    assert!(html.contains("Adaptivity audit"));
    // The report buckets events.jsonl into its per-set heatmap: set 3
    // (imitation + history update) has a row there.
    let heatmap = html
        .split("<h2>Per-set decision heatmap</h2>")
        .nth(1)
        .and_then(|rest| rest.split("<h2>").next())
        .expect("the report has a heatmap section");
    assert!(
        heatmap.contains(">set 3</text>"),
        "set 3 missing from the heatmap"
    );
}
