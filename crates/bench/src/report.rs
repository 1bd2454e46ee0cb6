//! `cachesim report` — renders the telemetry artifacts of one run
//! (`telemetry-summary.json`, `timeline.jsonl`, `audit.json`) into a
//! single self-contained HTML file, and optionally diffs two runs. The
//! per-set decision heatmap is drawn from the audit's decision grid
//! (`cachesim audit`).
//!
//! The HTML embeds inline CSS and inline SVG only: no JavaScript, no
//! external fonts, no network fetches. A report can be attached to a CI
//! artifact or mailed around and it will render identically anywhere.
//!
//! Compare mode (`--compare <old-run-dir>`) extracts a flat metric map
//! from both runs, computes per-metric percentage deltas, and classifies
//! each metric as lower-is-better (miss-like counters, MPKI, regret),
//! higher-is-better (audit efficiencies) or neutral. Wall-clock rates
//! are neutral: they are shown but never flagged, because throughput is
//! the benchmark's to measure. A directional metric that
//! moves the wrong way by more than the threshold (`--threshold <pct>`,
//! default 10%) makes the subcommand exit with [`EXIT_REGRESSION`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde_json::Value;

/// Exit code when `--compare` finds a regression beyond the threshold.
pub const EXIT_REGRESSION: i32 = 4;

/// Exit code for malformed flags / unreadable run directories (matches
/// the `cachesim` top-level convention).
pub const EXIT_INVALID_INPUT: i32 = 3;

/// Default regression threshold (percent) when `--threshold` is not
/// given.
pub const DEFAULT_REGRESSION_PCT: f64 = 10.0;

// ---------------------------------------------------------------------------
// Artifact loading
// ---------------------------------------------------------------------------

/// The parsed telemetry artifacts of one run directory.
#[derive(Debug, Default)]
pub struct RunArtifacts {
    /// Directory the artifacts were loaded from.
    pub dir: PathBuf,
    /// Parsed `telemetry-summary.json`, when present.
    pub summary: Option<Value>,
    /// Parsed lines of `timeline.jsonl`, when present.
    pub timeline: Vec<Value>,
    /// Parsed `audit.json` (`cachesim audit`), when present.
    pub audit: Option<Value>,
}

impl RunArtifacts {
    /// Loads whatever artifacts exist under `dir`. Missing files are
    /// tolerated (a run not yet audited has no `audit.json`);
    /// present-but-unparsable files are an error. Any other file, such as
    /// an `events.jsonl` from an older build, is not read.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut out = RunArtifacts {
            dir: dir.to_path_buf(),
            ..RunArtifacts::default()
        };
        let summary_path = dir.join("telemetry-summary.json");
        if summary_path.is_file() {
            let text = std::fs::read_to_string(&summary_path)
                .map_err(|e| format!("{}: {e}", summary_path.display()))?;
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("{}: {e}", summary_path.display()))?;
            out.summary = Some(v);
        }
        let timeline_path = dir.join("timeline.jsonl");
        if timeline_path.is_file() {
            let text = std::fs::read_to_string(&timeline_path)
                .map_err(|e| format!("{}: {e}", timeline_path.display()))?;
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v: Value = serde_json::from_str(line)
                    .map_err(|e| format!("{} line {}: {e}", timeline_path.display(), i + 1))?;
                out.timeline.push(v);
            }
        }
        let audit_path = dir.join("audit.json");
        if audit_path.is_file() {
            let text = std::fs::read_to_string(&audit_path)
                .map_err(|e| format!("{}: {e}", audit_path.display()))?;
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("{}: {e}", audit_path.display()))?;
            out.audit = Some(v);
        }
        if out.summary.is_none() && out.timeline.is_empty() {
            return Err(format!(
                "{}: no telemetry artifacts found (expected telemetry-summary.json \
                 and/or timeline.jsonl — run with --telemetry <dir> first)",
                dir.display()
            ));
        }
        Ok(out)
    }

    /// Timeline rows grouped by their `run` label, preserving first-seen
    /// order so charts appear in emission order.
    fn timeline_by_run(&self) -> Vec<(String, Vec<&Value>)> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
        for row in &self.timeline {
            let run = row
                .get("run")
                .and_then(Value::as_str)
                .unwrap_or("(unlabelled)")
                .to_string();
            if !groups.contains_key(&run) {
                order.push(run.clone());
            }
            groups.entry(run).or_default().push(row);
        }
        order
            .into_iter()
            .map(|run| {
                let rows = groups.remove(&run).unwrap_or_default();
                (run, rows)
            })
            .collect()
    }
}

fn num(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Metric extraction + comparison
// ---------------------------------------------------------------------------

/// Which direction of movement is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (misses, MPKI, retries, stalls).
    LowerBetter,
    /// Larger is better (audit efficiencies).
    HigherBetter,
    /// Informational only; never flags a regression.
    Neutral,
}

/// One comparable metric extracted from a run's artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable key used to pair metrics across runs.
    pub key: String,
    /// Observed value.
    pub value: f64,
    /// Improvement direction.
    pub direction: Direction,
}

fn counter_direction(name: &str) -> Direction {
    const BAD: &[&str] = &[
        "miss",
        "writeback",
        "eviction",
        "retries",
        "fallback",
        "timed_out",
        "failed",
        "sb_stall",
    ];
    if BAD.iter().any(|b| name.contains(b)) {
        Direction::LowerBetter
    } else {
        Direction::Neutral
    }
}

/// Flattens a run's artifacts into a keyed metric list: every summary
/// counter and gauge (per label), plus per-timeline overall MPKI and
/// mean throughput. Gauges and throughput are neutral: wall-clock rates
/// move from run to run on identical work.
pub fn extract_metrics(run: &RunArtifacts) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(summary) = &run.summary {
        if let Some(counters) = summary.get("counters").and_then(Value::as_object) {
            for (name, by_label) in counters.iter() {
                let dir = counter_direction(name);
                if let Some(map) = by_label.as_object() {
                    for (label, value) in map.iter() {
                        out.push(Metric {
                            key: format!("counter:{name}{{{label}}}"),
                            value: num(Some(value)),
                            direction: dir,
                        });
                    }
                }
            }
        }
        if let Some(gauges) = summary.get("gauges").and_then(Value::as_object) {
            for (name, by_label) in gauges.iter() {
                if let Some(map) = by_label.as_object() {
                    for (label, value) in map.iter() {
                        out.push(Metric {
                            key: format!("gauge:{name}{{{label}}}"),
                            value: num(Some(value)),
                            direction: Direction::Neutral,
                        });
                    }
                }
            }
        }
    }
    for (label, rows) in run.timeline_by_run() {
        let misses: f64 = rows.iter().map(|r| num(r.get("misses"))).sum();
        let insts: f64 = rows.iter().map(|r| num(r.get("instructions"))).sum();
        if insts > 0.0 {
            out.push(Metric {
                key: format!("timeline:{label}:mpki"),
                value: 1000.0 * misses / insts,
                direction: Direction::LowerBetter,
            });
        }
        let rates: Vec<f64> = rows
            .iter()
            .map(|r| num(r.get("ticks_per_sec")))
            .filter(|x| x.is_finite() && *x > 0.0)
            .collect();
        if !rates.is_empty() {
            out.push(Metric {
                key: format!("timeline:{label}:ticks_per_sec"),
                value: rates.iter().sum::<f64>() / rates.len() as f64,
                direction: Direction::Neutral,
            });
        }
    }
    if let Some(audit) = &run.audit {
        out.push(Metric {
            key: "audit:efficiency_vs_opt".into(),
            value: num(audit.get("efficiency_vs_opt")),
            direction: Direction::HigherBetter,
        });
        if let Some(v) = audit
            .get("efficiency_vs_best_fixed")
            .and_then(Value::as_f64)
        {
            out.push(Metric {
                key: "audit:efficiency_vs_best_fixed".into(),
                value: v,
                direction: Direction::HigherBetter,
            });
        }
        if let Some(windows) = audit.get("windows").and_then(Value::as_array) {
            let best: Vec<f64> = windows
                .iter()
                .filter_map(|w| w.get("regret_best").and_then(Value::as_f64))
                .collect();
            if !best.is_empty() {
                out.push(Metric {
                    key: "audit:regret_best_total".into(),
                    value: best.iter().sum(),
                    direction: Direction::LowerBetter,
                });
            }
            out.push(Metric {
                key: "audit:regret_opt_total".into(),
                value: windows.iter().map(|w| num(w.get("regret_opt"))).sum(),
                direction: Direction::LowerBetter,
            });
        }
        if let Some(lag) = audit.get("switch_lag") {
            out.push(Metric {
                key: "audit:switch_lag_mean_windows".into(),
                value: num(lag.get("mean_lag_windows")),
                direction: Direction::LowerBetter,
            });
        }
    }
    out
}

/// The diff of one metric across two runs.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric key (shared by both runs).
    pub key: String,
    /// Value in the baseline (`--compare`) run.
    pub old: f64,
    /// Value in the current run.
    pub new: f64,
    /// `(new - old) / old * 100`; `0` when both sides are zero.
    pub delta_pct: f64,
    /// Improvement direction of the metric.
    pub direction: Direction,
    /// True when the metric moved in its bad direction past the threshold.
    pub regressed: bool,
}

/// Pairs the metrics of two runs and flags regressions beyond
/// `threshold_pct`. Metrics present in only one run are skipped — a
/// diff needs both sides.
pub fn compare_metrics(old: &[Metric], new: &[Metric], threshold_pct: f64) -> Vec<MetricDelta> {
    let old_by_key: BTreeMap<&str, &Metric> = old.iter().map(|m| (m.key.as_str(), m)).collect();
    let mut out = Vec::new();
    for m in new {
        let Some(o) = old_by_key.get(m.key.as_str()) else {
            continue;
        };
        let delta_pct = if o.value == 0.0 {
            if m.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (m.value - o.value) / o.value * 100.0
        };
        let regressed = match m.direction {
            Direction::LowerBetter => delta_pct > threshold_pct,
            Direction::HigherBetter => -delta_pct > threshold_pct,
            Direction::Neutral => false,
        };
        out.push(MetricDelta {
            key: m.key.clone(),
            old: o.value,
            new: m.value,
            delta_pct,
            direction: m.direction,
            regressed,
        });
    }
    // Regressions first, then by magnitude of movement.
    out.sort_by(|a, b| {
        b.regressed.cmp(&a.regressed).then(
            b.delta_pct
                .abs()
                .partial_cmp(&a.delta_pct.abs())
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    out
}

// ---------------------------------------------------------------------------
// HTML / SVG rendering
// ---------------------------------------------------------------------------

fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc(s, &mut out);
    out
}

fn fmt_val(x: f64) -> String {
    if !x.is_finite() {
        return "∞".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// One named series of (x, y) points for a line chart.
struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

const CHART_W: f64 = 720.0;
const CHART_H: f64 = 200.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 12.0;
const MARGIN_T: f64 = 10.0;
const MARGIN_B: f64 = 26.0;
const PALETTE: &[&str] = &[
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
];

/// Renders a multi-series SVG line chart. `reference` draws a dashed
/// horizontal rule (e.g. the 0.5 line for imitation fractions).
fn svg_line_chart(title: &str, x_label: &str, series: &[Series], reference: Option<f64>) -> String {
    let mut svg = String::new();
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return svg;
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if let Some(r) = reference {
        y0 = y0.min(r);
        y1 = y1.max(r);
    }
    y0 = y0.min(0.0);
    if (x1 - x0).abs() < f64::EPSILON {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < f64::EPSILON {
        y1 = y0 + 1.0;
    }
    let px = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * (CHART_W - MARGIN_L - MARGIN_R);
    let py = |y: f64| CHART_H - MARGIN_B - (y - y0) / (y1 - y0) * (CHART_H - MARGIN_T - MARGIN_B);

    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"{CHART_W}\" height=\"{CHART_H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"{}\">",
        escaped(title)
    );
    // Axes.
    let _ = write!(
        svg,
        "<line x1=\"{l}\" y1=\"{b}\" x2=\"{r}\" y2=\"{b}\" stroke=\"#888\"/>\
         <line x1=\"{l}\" y1=\"{t}\" x2=\"{l}\" y2=\"{b}\" stroke=\"#888\"/>",
        l = MARGIN_L,
        r = CHART_W - MARGIN_R,
        t = MARGIN_T,
        b = CHART_H - MARGIN_B,
    );
    // Y tick labels (min / mid / max).
    for frac in [0.0, 0.5, 1.0] {
        let y = y0 + frac * (y1 - y0);
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\" fill=\"#555\">{}</text>",
            MARGIN_L - 4.0,
            py(y) + 3.0,
            fmt_val(y)
        );
    }
    // X range labels.
    let _ = write!(
        svg,
        "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#555\">{}</text>\
         <text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\" fill=\"#555\">{} ({})</text>",
        MARGIN_L,
        CHART_H - 8.0,
        fmt_val(x0),
        CHART_W - MARGIN_R,
        CHART_H - 8.0,
        fmt_val(x1),
        escaped(x_label),
    );
    if let Some(r) = reference {
        let _ = write!(
            svg,
            "<line x1=\"{}\" y1=\"{:.1}\" x2=\"{}\" y2=\"{:.1}\" stroke=\"#aaa\" \
             stroke-dasharray=\"4 3\"/>",
            MARGIN_L,
            py(r),
            CHART_W - MARGIN_R,
            py(r)
        );
    }
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::new();
        for (j, &(x, y)) in s.points.iter().enumerate() {
            let _ = write!(
                path,
                "{}{:.1},{:.1}",
                if j == 0 { "" } else { " " },
                px(x),
                py(y)
            );
        }
        let _ = write!(
            svg,
            "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\">\
             <title>{}</title></polyline>",
            escaped(&s.name)
        );
    }
    svg.push_str("</svg>");
    // Legend under the chart.
    let mut legend = String::from("<div class=\"legend\">");
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let _ = write!(
            legend,
            "<span><i style=\"background:{color}\"></i>{}</span>",
            escaped(&s.name)
        );
    }
    legend.push_str("</div>");
    svg + &legend
}

fn chart_section(
    out: &mut String,
    title: &str,
    x_label: &str,
    series: Vec<Series>,
    reference: Option<f64>,
) {
    let nonempty: Vec<Series> = series
        .into_iter()
        .filter(|s| !s.points.is_empty())
        .collect();
    if nonempty.is_empty() {
        return;
    }
    let _ = write!(out, "<h3>{}</h3>", escaped(title));
    out.push_str(&svg_line_chart(title, x_label, &nonempty, reference));
}

fn series_of(rows: &[&Value], x_field: &str, f: impl Fn(&Value) -> Option<f64>) -> Vec<(f64, f64)> {
    rows.iter()
        .filter_map(|r| {
            let x = r.get(x_field).and_then(Value::as_f64)?;
            let y = f(r)?;
            y.is_finite().then_some((x, y))
        })
        .collect()
}

fn render_timeline_charts(out: &mut String, run: &RunArtifacts) {
    for (label, rows) in run.timeline_by_run() {
        let unit = rows
            .first()
            .and_then(|r| r.get("unit"))
            .and_then(Value::as_str)
            .unwrap_or("ticks")
            .to_string();
        let _ = write!(out, "<h2>Timeline — {}</h2>", escaped(&label));
        let _ = write!(
            out,
            "<p class=\"note\">{} windows, x-axis in {}.</p>",
            rows.len(),
            escaped(&unit)
        );

        chart_section(
            out,
            "Windowed MPKI",
            &unit,
            vec![Series {
                name: "mpki".into(),
                points: series_of(&rows, "end", |r| r.get("mpki").and_then(Value::as_f64)),
            }],
            None,
        );
        chart_section(
            out,
            "Imitation choice fraction (B)",
            &unit,
            vec![Series {
                name: "imit_frac_b".into(),
                points: series_of(&rows, "end", |r| {
                    r.get("imit_frac_b").and_then(Value::as_f64)
                }),
            }],
            Some(0.5),
        );
        chart_section(
            out,
            "Exclusive misses per window",
            &unit,
            vec![
                Series {
                    name: "excl_a_misses".into(),
                    points: series_of(&rows, "end", |r| {
                        r.get("excl_a_misses").and_then(Value::as_f64)
                    }),
                },
                Series {
                    name: "excl_b_misses".into(),
                    points: series_of(&rows, "end", |r| {
                        r.get("excl_b_misses").and_then(Value::as_f64)
                    }),
                },
            ],
            None,
        );
        chart_section(
            out,
            "Leader votes per window / PSEL",
            &unit,
            vec![
                Series {
                    name: "leader_votes".into(),
                    points: series_of(&rows, "end", |r| {
                        r.get("leader_votes").and_then(Value::as_f64)
                    }),
                },
                Series {
                    name: "psel".into(),
                    points: series_of(&rows, "end", |r| r.get("psel").and_then(Value::as_f64)),
                },
            ],
            None,
        );
        chart_section(
            out,
            "Throughput",
            &unit,
            vec![Series {
                name: format!("{unit}/sec"),
                points: series_of(&rows, "end", |r| {
                    r.get("ticks_per_sec").and_then(Value::as_f64)
                }),
            }],
            None,
        );
        let sb = series_of(&rows, "end", |r| r.get("sb_busy").and_then(Value::as_f64));
        if sb.iter().any(|&(_, y)| y > 0.0) {
            chart_section(
                out,
                "Store-buffer occupancy at window close",
                &unit,
                vec![Series {
                    name: "sb_busy".into(),
                    points: sb,
                }],
                None,
            );
        }
    }
}

fn heat_color(imit_a: f64, imit_b: f64, misses: f64, max_misses: f64) -> String {
    // Hue from the imitation split (A = blue #1f77b4, B = orange #ff7f0e),
    // intensity from the windowed miss density.
    let total = imit_a + imit_b;
    let frac_b = if total > 0.0 { imit_b / total } else { 0.5 };
    let mix = |a: f64, b: f64| a + (b - a) * frac_b;
    let (r, g, b) = (
        mix(0x1f as f64, 0xff as f64),
        mix(0x77 as f64, 0x7f as f64),
        mix(0xb4 as f64, 0x0e as f64),
    );
    let alpha = if max_misses > 0.0 {
        (0.15 + 0.85 * (misses / max_misses)).min(1.0)
    } else {
        0.4
    };
    format!(
        "rgba({},{},{},{alpha:.2})",
        r.round() as u32,
        g.round() as u32,
        b.round() as u32
    )
}

/// The per-set decision heatmap of the paper's Figure 7, from the
/// audit's `decisions` grid: one row per group of adjacent sets, one
/// column per audit window, and a cell wherever a replacement or an
/// exclusive miss happened.
fn render_decision_heatmap(out: &mut String, audit: &Value) {
    let Some(grid) = audit.get("decisions") else {
        return;
    };
    let counts = |name: &str| -> Vec<f64> {
        grid.get(name)
            .and_then(Value::as_array)
            .map(|cells| cells.iter().map(|c| num(Some(c))).collect())
            .unwrap_or_default()
    };
    let [imit_a, imit_b, miss_a, miss_b] = [
        "imitations_a",
        "imitations_b",
        "excl_a_misses",
        "excl_b_misses",
    ]
    .map(counts);
    let rows = num(grid.get("rows")) as usize;
    let per_row = num(grid.get("sets_per_row")) as usize;
    let ends: Vec<f64> = audit
        .get("windows")
        .and_then(Value::as_array)
        .map(|ws| ws.iter().map(|w| num(w.get("end_inst"))).collect())
        .unwrap_or_default();
    if rows == 0 || rows > crate::audit::MAX_GRID_ROWS || ends.is_empty() {
        return;
    }
    let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    let max_misses = (0..ends.len() * rows)
        .map(|i| at(&miss_a, i) + at(&miss_b, i))
        .fold(0.0_f64, f64::max);

    out.push_str("<h3>Per-set decision heatmap</h3>");
    let _ = write!(
        out,
        "<p class=\"note\">{rows} rows of {per_row} adjacent sets × {} windows. \
         Blue = imitates A, orange = imitates B; opacity tracks exclusive misses.</p>",
        ends.len(),
    );

    const CELL: f64 = 9.0;
    const GAP: f64 = 1.0;
    const LABEL_W: f64 = 44.0;
    let w = LABEL_W + ends.len() as f64 * (CELL + GAP) + 8.0;
    let h = rows as f64 * (CELL + GAP) + 24.0;
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"per-set heatmap\">"
    );
    for row in 0..rows {
        let y = row as f64 * (CELL + GAP);
        let _ = write!(
            out,
            "<text x=\"{:.0}\" y=\"{:.1}\" font-size=\"8\" text-anchor=\"end\" \
             fill=\"#555\">set {}</text>",
            LABEL_W - 4.0,
            y + CELL - 1.0,
            row * per_row,
        );
    }
    for (col, &end) in ends.iter().enumerate() {
        let x = LABEL_W + col as f64 * (CELL + GAP);
        let start = if col == 0 { 0.0 } else { ends[col - 1] };
        for row in 0..rows {
            let i = col * rows + row;
            let (ia, ib) = (at(&imit_a, i), at(&imit_b, i));
            let (ma, mb) = (at(&miss_a, i), at(&miss_b, i));
            if ia + ib + ma + mb == 0.0 {
                continue;
            }
            let y = row as f64 * (CELL + GAP);
            let fill = heat_color(ia, ib, ma + mb, max_misses);
            let _ = write!(
                out,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{CELL}\" height=\"{CELL}\" \
                 fill=\"{fill}\"><title>sets {}..{}, instructions {}..{}: imit A={}, B={}, \
                 misses A={}, B={}</title></rect>",
                row * per_row,
                (row + 1) * per_row,
                fmt_val(start),
                fmt_val(end),
                fmt_val(ia),
                fmt_val(ib),
                fmt_val(ma),
                fmt_val(mb),
            );
        }
    }
    out.push_str("</svg>");
}

/// Renders the adaptivity-audit section from a parsed `audit.json`:
/// regret timelines, the achieved-vs-baseline hit series, an efficiency
/// table, the switch-lag attribution, the per-set decision heatmap and
/// the per-set regret heatmap.
fn render_audit_section(out: &mut String, audit: &Value) {
    out.push_str("<h2>Adaptivity audit</h2>");
    let _ = write!(
        out,
        "<p class=\"note\">{} on {} — {} L2 events in {}-instruction windows. \
         Regret = hits a hindsight baseline got that the run did not; negative \
         regret means adaptivity beat the baseline.</p>",
        escaped(audit.get("l2").and_then(Value::as_str).unwrap_or("?")),
        escaped(audit.get("workload").and_then(Value::as_str).unwrap_or("?")),
        fmt_val(num(audit.get("accesses"))),
        fmt_val(num(audit.get("window_insts"))),
    );

    let rows: Vec<&Value> = audit
        .get("windows")
        .and_then(Value::as_array)
        .map(|ws| ws.iter().collect())
        .unwrap_or_default();
    chart_section(
        out,
        "Windowed hits: achieved vs baselines",
        "instructions",
        vec![
            Series {
                name: "achieved".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("achieved_hits").and_then(Value::as_f64)
                }),
            },
            Series {
                name: "OPT".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("opt_hits").and_then(Value::as_f64)
                }),
            },
            Series {
                name: "component A".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("comp_a_hits").and_then(Value::as_f64)
                }),
            },
            Series {
                name: "component B".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("comp_b_hits").and_then(Value::as_f64)
                }),
            },
        ],
        None,
    );
    chart_section(
        out,
        "Windowed regret",
        "instructions",
        vec![
            Series {
                name: "regret vs best fixed".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("regret_best").and_then(Value::as_f64)
                }),
            },
            Series {
                name: "regret vs OPT".into(),
                points: series_of(&rows, "end_inst", |r| {
                    r.get("regret_opt").and_then(Value::as_f64)
                }),
            },
        ],
        Some(0.0),
    );

    // Headline scalars.
    out.push_str("<h3>Adaptivity efficiency</h3><table><tr><th>scalar</th><th>value</th></tr>");
    let mut row = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td></tr>",
                escaped(name),
                fmt_val(v)
            );
        }
    };
    row(
        "achieved hits",
        audit.get("achieved_hits").and_then(Value::as_f64),
    );
    row(
        "best fixed component hits",
        audit.get("best_fixed_hits").and_then(Value::as_f64),
    );
    row("OPT hits", audit.get("opt_hits").and_then(Value::as_f64));
    row(
        "achieved / best fixed",
        audit
            .get("efficiency_vs_best_fixed")
            .and_then(Value::as_f64),
    );
    row(
        "achieved / OPT",
        audit.get("efficiency_vs_opt").and_then(Value::as_f64),
    );
    out.push_str("</table>");

    if let Some(lag) = audit.get("switch_lag") {
        if num(lag.get("window_accesses")) == 0.0 {
            let _ = write!(
                out,
                "<p class=\"note\">Switch lag: selector-driven organisation — {} policy \
                 switches, followed instantly by construction.</p>",
                fmt_val(num(lag.get("winner_flips"))),
            );
        } else {
            let _ = write!(
                out,
                "<p class=\"note\">Switch lag: {} winner flips between shadow directories, \
                 {} followed by imitation, mean lag {} comparison windows (max {}) of {} \
                 accesses each.</p>",
                fmt_val(num(lag.get("winner_flips"))),
                fmt_val(num(lag.get("followed"))),
                fmt_val(num(lag.get("mean_lag_windows"))),
                fmt_val(num(lag.get("max_lag_windows"))),
                fmt_val(num(lag.get("window_accesses"))),
            );
        }
    }
    if let Some(ok) = audit.get("shadow_consistency").and_then(Value::as_bool) {
        let _ = write!(
            out,
            "<p class=\"note\">Shadow consistency: offline component replays {} the online \
             shadow directories.</p>",
            if ok {
                "bit-exactly reproduce"
            } else {
                "<b>DIVERGED from</b>"
            }
        );
    }
    render_decision_heatmap(out, audit);
    render_per_set_regret(out, audit);
}

/// The per-set regret heatmap: one cell per cache set, red where the
/// best shadow directory out-hit the real cache, green where adaptivity
/// beat both shadows; opacity tracks magnitude.
fn render_per_set_regret(out: &mut String, audit: &Value) {
    let Some(regret) = audit
        .get("per_set")
        .and_then(|p| p.get("regret_best"))
        .and_then(Value::as_array)
    else {
        return;
    };
    if regret.is_empty() {
        return;
    }
    let vals: Vec<f64> = regret.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
    let max_abs = vals.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    const COLS: usize = 64;
    const CELL: f64 = 10.0;
    const GAP: f64 = 1.0;
    let rows = vals.len().div_ceil(COLS);
    let w = COLS as f64 * (CELL + GAP) + 8.0;
    let h = rows as f64 * (CELL + GAP) + 8.0;
    out.push_str("<h3>Per-set regret vs best component</h3>");
    let _ = write!(
        out,
        "<p class=\"note\">{} sets, {} per row, set 0 top-left. Red = the best shadow \
         directory out-hit the real cache on that set; green = adaptivity beat both \
         shadows; opacity scales with |regret| (max {}).</p>",
        vals.len(),
        COLS,
        fmt_val(max_abs),
    );
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"per-set regret\">"
    );
    let hits = audit
        .get("per_set")
        .and_then(|p| p.get("hits"))
        .and_then(Value::as_array);
    for (set, &r) in vals.iter().enumerate() {
        let x = (set % COLS) as f64 * (CELL + GAP);
        let y = (set / COLS) as f64 * (CELL + GAP);
        let alpha = if max_abs > 0.0 {
            (0.08 + 0.92 * (r.abs() / max_abs)).min(1.0)
        } else {
            0.08
        };
        let fill = if r > 0.0 {
            format!("rgba(214,39,40,{alpha:.2})")
        } else if r < 0.0 {
            format!("rgba(44,160,44,{alpha:.2})")
        } else {
            "rgba(140,140,140,0.10)".to_string()
        };
        let set_hits = hits
            .and_then(|h| h.get(set))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let _ = write!(
            out,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{CELL}\" height=\"{CELL}\" \
             fill=\"{fill}\"><title>set {set}: regret {} (achieved {} hits)</title></rect>",
            fmt_val(r),
            fmt_val(set_hits),
        );
    }
    out.push_str("</svg>");
}

fn render_summary_tables(out: &mut String, summary: &Value) {
    for (section, heading) in [("counters", "Counters"), ("gauges", "Gauges")] {
        let Some(map) = summary.get(section).and_then(Value::as_object) else {
            continue;
        };
        if map.iter().next().is_none() {
            continue;
        }
        let _ = write!(
            out,
            "<h3>{heading}</h3><table><tr><th>name</th><th>label</th><th>value</th></tr>"
        );
        for (name, by_label) in map.iter() {
            if let Some(labels) = by_label.as_object() {
                for (label, value) in labels.iter() {
                    let _ = write!(
                        out,
                        "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td></tr>",
                        escaped(name),
                        escaped(label),
                        fmt_val(num(Some(value))),
                    );
                }
            }
        }
        out.push_str("</table>");
    }
}

fn render_compare_table(out: &mut String, baseline: &Path, deltas: &[MetricDelta], threshold: f64) {
    out.push_str("<h2>Run-to-run comparison</h2>");
    let _ = write!(
        out,
        "<p class=\"note\">Baseline: <code>{}</code>; regression threshold ±{threshold}%.</p>",
        escaped(&baseline.display().to_string())
    );
    out.push_str(
        "<table><tr><th>metric</th><th>baseline</th><th>current</th>\
         <th>Δ%</th><th>verdict</th></tr>",
    );
    for d in deltas {
        let (class, verdict) = if d.regressed {
            ("bad", "REGRESSION")
        } else if d.direction == Direction::Neutral {
            ("", "")
        } else if d.delta_pct == 0.0 {
            ("", "=")
        } else {
            let improved = match d.direction {
                Direction::LowerBetter => d.delta_pct < 0.0,
                Direction::HigherBetter => d.delta_pct > 0.0,
                Direction::Neutral => false,
            };
            if improved {
                ("good", "improved")
            } else {
                ("", "within threshold")
            }
        };
        let _ = write!(
            out,
            "<tr class=\"{class}\"><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td>{verdict}</td></tr>",
            escaped(&d.key),
            fmt_val(d.old),
            fmt_val(d.new),
            if d.delta_pct.is_finite() {
                format!("{:+.2}", d.delta_pct)
            } else {
                "+∞".to_string()
            },
        );
    }
    out.push_str("</table>");
}

/// Renders the full self-contained HTML document.
pub fn render_html(
    run: &RunArtifacts,
    compare: Option<(&RunArtifacts, &[MetricDelta], f64)>,
) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">");
    let _ = write!(
        out,
        "<title>cachesim report — {}</title>",
        escaped(&run.dir.display().to_string())
    );
    out.push_str(
        "<style>\
         body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
              color:#222;line-height:1.4}\
         h1{font-size:1.4rem}h2{font-size:1.15rem;margin-top:2rem;\
              border-bottom:1px solid #ddd;padding-bottom:.2rem}\
         h3{font-size:1rem;margin-bottom:.3rem}\
         table{border-collapse:collapse;font-size:.85rem;margin:.5rem 0}\
         th,td{border:1px solid #ddd;padding:.25rem .5rem;text-align:left}\
         td.num{text-align:right;font-variant-numeric:tabular-nums}\
         tr.bad td{background:#fde8e8}tr.good td{background:#e8f5e9}\
         .note{color:#666;font-size:.85rem}\
         .legend{font-size:.8rem;color:#444;margin:.2rem 0 .8rem}\
         .legend span{margin-right:1rem}\
         .legend i{display:inline-block;width:.8em;height:.8em;margin-right:.3em;\
              vertical-align:-0.05em}\
         code{background:#f5f5f5;padding:0 .2em}\
         </style></head><body>",
    );
    let _ = write!(
        out,
        "<h1>cachesim run report</h1>\
         <p class=\"note\">Run directory: <code>{}</code></p>",
        escaped(&run.dir.display().to_string())
    );

    if let Some((baseline, deltas, threshold)) = compare {
        render_compare_table(&mut out, &baseline.dir, deltas, threshold);
    }
    render_timeline_charts(&mut out, run);
    match &run.audit {
        Some(audit) => render_audit_section(&mut out, audit),
        None => {
            let _ = write!(
                out,
                "<h2>Adaptivity audit</h2><p class=\"note\">No <code>audit.json</code> here: \
                 run <code>cachesim audit {}</code> for the audit and the per-set decision \
                 heatmap.</p>",
                escaped(&run.dir.display().to_string())
            );
        }
    }
    if let Some(summary) = &run.summary {
        out.push_str("<h2>Run summary</h2>");
        render_summary_tables(&mut out, summary);
    }
    out.push_str("</body></html>");
    out
}

// ---------------------------------------------------------------------------
// Subcommand driver
// ---------------------------------------------------------------------------

/// Runs `cachesim report <run-dir> [--compare <old-run-dir>] [--out <file>]
/// [--threshold <pct>]`; returns the process exit code.
pub fn run_report_subcommand(rest: &[String]) -> i32 {
    let mut run_dir: Option<PathBuf> = None;
    let mut compare_dir: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut threshold: Option<f64> = None;

    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        let take_operand = |i: &mut usize| -> Option<String> {
            *i += 1;
            rest.get(*i).cloned()
        };
        match arg {
            "--compare" => {
                let Some(v) = take_operand(&mut i) else {
                    eprintln!("error: `--compare` requires a run-directory operand");
                    return EXIT_INVALID_INPUT;
                };
                compare_dir = Some(PathBuf::from(v));
            }
            "--out" => {
                let Some(v) = take_operand(&mut i) else {
                    eprintln!("error: `--out` requires a file operand");
                    return EXIT_INVALID_INPUT;
                };
                out_path = Some(PathBuf::from(v));
            }
            "--threshold" => {
                let Some(v) = take_operand(&mut i) else {
                    eprintln!("error: `--threshold` requires a percentage operand");
                    return EXIT_INVALID_INPUT;
                };
                match v.parse::<f64>() {
                    Ok(pct) if pct >= 0.0 => threshold = Some(pct),
                    _ => {
                        eprintln!("error: `--threshold` wants a non-negative number, got `{v}`");
                        return EXIT_INVALID_INPUT;
                    }
                }
            }
            _ if arg.starts_with("--") => {
                eprintln!("error: unknown report flag `{arg}`");
                return EXIT_INVALID_INPUT;
            }
            _ => {
                if run_dir.is_some() {
                    eprintln!("error: report takes exactly one run directory");
                    return EXIT_INVALID_INPUT;
                }
                run_dir = Some(PathBuf::from(arg));
            }
        }
        i += 1;
    }
    let Some(run_dir) = run_dir else {
        eprintln!("error: usage: cachesim report <run-dir> [--compare <old-run-dir>] [--out <file>] [--threshold <pct>]");
        return EXIT_INVALID_INPUT;
    };
    let threshold = threshold.unwrap_or(DEFAULT_REGRESSION_PCT);

    let run = match RunArtifacts::load(&run_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_INVALID_INPUT;
        }
    };
    let baseline = match &compare_dir {
        Some(dir) => match RunArtifacts::load(dir) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: {e}");
                return EXIT_INVALID_INPUT;
            }
        },
        None => None,
    };

    let deltas: Vec<MetricDelta> = baseline
        .as_ref()
        .map(|b| compare_metrics(&extract_metrics(b), &extract_metrics(&run), threshold))
        .unwrap_or_default();

    let html = render_html(
        &run,
        baseline.as_ref().map(|b| (b, deltas.as_slice(), threshold)),
    );
    let out_path = out_path.unwrap_or_else(|| run.dir.join("report.html"));
    if let Err(e) = experiments::report::write_atomic(&out_path, html.as_bytes()) {
        eprintln!("error: could not write {}: {e}", out_path.display());
        return EXIT_INVALID_INPUT;
    }
    let mut summary = format!("report: wrote {}", out_path.display());
    let mut code = 0;
    if let Some(b) = &baseline {
        let regressions = deltas.iter().filter(|d| d.regressed).count();
        let _ = write!(
            summary,
            "\ncompare: {} shared metrics vs {} ({} regression{} at ±{threshold}%)",
            deltas.len(),
            b.dir.display(),
            regressions,
            if regressions == 1 { "" } else { "s" },
        );
        for d in &deltas {
            let tag = if d.regressed {
                "REGRESSION"
            } else if d.direction == Direction::Neutral {
                "  (info)  "
            } else {
                "    ok    "
            };
            let _ = write!(
                summary,
                "\n  {tag} {:<52} {:>14} -> {:>14}  {:>9}%",
                d.key,
                fmt_val(d.old),
                fmt_val(d.new),
                if d.delta_pct.is_finite() {
                    format!("{:+.2}", d.delta_pct)
                } else {
                    "+inf".to_string()
                }
            );
        }
        if regressions > 0 {
            code = EXIT_REGRESSION;
        }
    }
    crate::print_stdout(&summary);
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    fn timeline_row(run: &str, end: u64, misses: u64, insts: u64, tps: f64) -> Value {
        v(&format!(
            r#"{{"run":"{run}","unit":"instructions","end":{end},"misses":{misses},
               "instructions":{insts},"mpki":{},"imit_frac_b":0.5,
               "ticks_per_sec":{tps},"excl_a_misses":1,"excl_b_misses":2,
               "leader_votes":0,"psel":null,"sb_busy":0}}"#,
            1000.0 * misses as f64 / insts as f64
        ))
    }

    fn sample_run(misses: u64, rate: f64) -> RunArtifacts {
        RunArtifacts {
            dir: PathBuf::from("/tmp/run"),
            summary: Some(v(&format!(
                r#"{{"schema_version":2,
                    "counters":{{"l2_misses":{{"policy=adaptive":{misses}}},
                                 "l2_hits":{{"policy=adaptive":900}}}},
                    "gauges":{{"accesses_per_sec":{{"run=x":{rate}}}}},
                    "histograms":{{}},"spans":{{}},
                    "log":{{"error":0,"warn":0,"info":0,"debug":0}}}}"#
            ))),
            timeline: vec![
                timeline_row("functional x", 100, misses / 2, 1000, rate),
                timeline_row("functional x", 200, misses / 2, 1000, rate),
            ],
            audit: None,
        }
    }

    #[test]
    fn metric_extraction_assigns_directions() {
        let run = sample_run(100, 5000.0);
        let metrics = extract_metrics(&run);
        let find = |key: &str| {
            metrics
                .iter()
                .find(|m| m.key == key)
                .unwrap_or_else(|| panic!("metric {key} missing from {metrics:?}"))
        };
        assert_eq!(
            find("counter:l2_misses{policy=adaptive}").direction,
            Direction::LowerBetter
        );
        assert_eq!(
            find("counter:l2_hits{policy=adaptive}").direction,
            Direction::Neutral
        );
        // Wall-clock rates are shown, never flagged.
        assert_eq!(
            find("gauge:accesses_per_sec{run=x}").direction,
            Direction::Neutral
        );
        assert_eq!(
            find("timeline:functional x:ticks_per_sec").direction,
            Direction::Neutral
        );
        let mpki = find("timeline:functional x:mpki");
        assert_eq!(mpki.direction, Direction::LowerBetter);
        // 100 misses over 2000 instructions across the two windows.
        assert!((mpki.value - 50.0).abs() < 1e-9, "mpki = {}", mpki.value);
    }

    #[test]
    fn self_compare_has_zero_deltas_and_no_regressions() {
        let run = sample_run(100, 5000.0);
        let metrics = extract_metrics(&run);
        let deltas = compare_metrics(&metrics, &metrics, 10.0);
        assert!(!deltas.is_empty());
        for d in &deltas {
            assert_eq!(d.delta_pct, 0.0, "{} moved on self-compare", d.key);
            assert!(!d.regressed);
        }
    }

    #[test]
    fn regressions_flag_only_bad_directional_moves() {
        let old = extract_metrics(&sample_run(100, 5000.0));
        // Misses up 50% (bad), throughput up 50% (good).
        let new = extract_metrics(&sample_run(150, 7500.0));
        let deltas = compare_metrics(&old, &new, 10.0);
        let find = |key: &str| deltas.iter().find(|d| d.key == key).expect(key);
        assert!(find("counter:l2_misses{policy=adaptive}").regressed);
        assert!(find("timeline:functional x:mpki").regressed);
        assert!(!find("gauge:accesses_per_sec{run=x}").regressed);
        // Reverse the comparison: misses fall (good), and a 33%
        // throughput drop is wall-clock noise, not a regression.
        let deltas = compare_metrics(&new, &old, 10.0);
        let find = |key: &str| deltas.iter().find(|d| d.key == key).expect(key);
        for key in [
            "gauge:accesses_per_sec{run=x}",
            "timeline:functional x:ticks_per_sec",
        ] {
            let d = find(key);
            assert!((d.delta_pct + 100.0 / 3.0).abs() < 1e-9, "{key}: {d:?}");
            assert!(!d.regressed, "{key}");
        }
        assert!(deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn zero_baseline_handling() {
        let old = [Metric {
            key: "counter:l2_misses{x}".into(),
            value: 0.0,
            direction: Direction::LowerBetter,
        }];
        let same = compare_metrics(&old, &old, 10.0);
        assert_eq!(same[0].delta_pct, 0.0);
        assert!(!same[0].regressed);
        let new = [Metric {
            key: "counter:l2_misses{x}".into(),
            value: 7.0,
            direction: Direction::LowerBetter,
        }];
        let grew = compare_metrics(&old, &new, 10.0);
        assert!(grew[0].delta_pct.is_infinite());
        assert!(grew[0].regressed);
    }

    #[test]
    fn html_is_self_contained() {
        let run = sample_run(100, 5000.0);
        let html = render_html(&run, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("Windowed MPKI"));
        // No external fetches of any kind (the SVG xmlns attribute is an
        // inert namespace identifier, not a URL the renderer loads).
        for needle in ["<script", "<link", "@import", "href=", "src="] {
            assert!(
                !html.contains(needle),
                "report HTML must be self-contained but contains `{needle}`"
            );
        }
    }

    fn sample_audit() -> Value {
        v(r#"{"schema_version":1,"workload":"ammp","l2":"adaptive",
              "mode":"functional","insts":2000,"window_insts":1000,
              "accesses":400,"achieved_hits":300,"achieved_misses":100,
              "opt_hits":350,
              "comp_a":{"label":"lru","hits":280,"misses":120},
              "comp_b":{"label":"rnd","hits":260,"misses":140},
              "best_fixed_hits":280,
              "efficiency_vs_best_fixed":1.0714,"efficiency_vs_opt":0.8571,
              "switch_lag":{"window_accesses":4096,"winner_flips":3,
                            "followed":2,"mean_lag_windows":1.5,"max_lag_windows":2},
              "shadow_consistency":true,
              "windows":[
                {"end_inst":1000,"accesses":200,"achieved_hits":140,"opt_hits":170,
                 "comp_a_hits":150,"comp_b_hits":130,"regret_best":10,"regret_opt":30},
                {"end_inst":2000,"accesses":200,"achieved_hits":160,"opt_hits":180,
                 "comp_a_hits":130,"comp_b_hits":130,"regret_best":-30,"regret_opt":20}],
              "per_set":{"hits":[100,80,70,50],"shadow_a_hits":[90,85,60,45],
                         "shadow_b_hits":[95,70,65,55],"opt_hits":[110,90,80,70],
                         "regret_best":[-5,5,-5,5]}}"#)
    }

    #[test]
    fn audit_section_renders_and_stays_self_contained() {
        let mut run = sample_run(100, 5000.0);
        run.audit = Some(sample_audit());
        let html = render_html(&run, None);
        assert!(html.contains("Adaptivity audit"));
        assert!(html.contains("Windowed regret"));
        assert!(html.contains("Per-set regret vs best component"));
        assert!(html.contains("winner flips"));
        assert!(html.contains("bit-exactly reproduce"));
        for needle in ["<script", "<link", "@import", "href=", "src="] {
            assert!(
                !html.contains(needle),
                "audit report HTML must be self-contained but contains `{needle}`"
            );
        }
    }

    #[test]
    fn audit_metrics_extracted_with_directions() {
        let mut run = sample_run(100, 5000.0);
        run.audit = Some(sample_audit());
        let metrics = extract_metrics(&run);
        let find = |key: &str| {
            metrics
                .iter()
                .find(|m| m.key == key)
                .unwrap_or_else(|| panic!("metric {key} missing from {metrics:?}"))
        };
        let eff = find("audit:efficiency_vs_opt");
        assert_eq!(eff.direction, Direction::HigherBetter);
        assert!((eff.value - 0.8571).abs() < 1e-9);
        assert_eq!(
            find("audit:efficiency_vs_best_fixed").direction,
            Direction::HigherBetter
        );
        let regret = find("audit:regret_best_total");
        assert_eq!(regret.direction, Direction::LowerBetter);
        assert!((regret.value - (10.0 - 30.0)).abs() < 1e-9);
        let opt = find("audit:regret_opt_total");
        assert_eq!(opt.direction, Direction::LowerBetter);
        assert!((opt.value - 50.0).abs() < 1e-9);
        assert_eq!(
            find("audit:switch_lag_mean_windows").direction,
            Direction::LowerBetter
        );
    }

    #[test]
    fn html_escapes_hostile_labels() {
        let mut run = sample_run(100, 5000.0);
        run.timeline = vec![timeline_row("functional x", 100, 10, 1000, 1.0)];
        if let Some(Value::Object(_)) = &run.summary {
            // Inject a hostile counter label through the parser.
            run.summary = Some(v(r#"{"counters":{"evil<name>":{"l=\"<script>\"":3}},
                    "gauges":{}}"#));
        }
        let html = render_html(&run, None);
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
        assert!(html.contains("evil&lt;name&gt;"));
    }

    /// [`sample_audit`] with a two-row grid over its two windows: row 0
    /// (sets 0..2) imitates A then B, and row 1 only misses in window 1.
    fn audit_with_grid() -> Value {
        let mut audit = sample_audit();
        if let Value::Object(m) = &mut audit {
            m.insert(
                "decisions".into(),
                v(r#"{"sets_per_row":2,"rows":2,
                      "imitations_a":[3,0,0,0],"imitations_b":[0,0,4,0],
                      "excl_a_misses":[1,0,0,2],"excl_b_misses":[0,0,0,5]}"#),
            );
        }
        audit
    }

    #[test]
    fn decision_heatmap_renders_from_the_audit_grid() {
        let mut run = sample_run(10, 1.0);
        let html = render_html(&run, None);
        assert!(!html.contains("Per-set decision heatmap"));
        assert!(html.contains("run <code>cachesim audit /tmp/run</code>"));

        run.audit = Some(audit_with_grid());
        let html = render_html(&run, None);
        let heatmap = html
            .split("<h3>Per-set decision heatmap</h3>")
            .nth(1)
            .and_then(|rest| rest.split("</svg>").next())
            .expect("the audit section draws the heatmap");
        assert!(heatmap.contains("2 rows of 2 adjacent sets × 2 windows"));
        assert!(heatmap.contains(">set 0</text>") && heatmap.contains(">set 2</text>"));
        // Three cells hold a count; row 1 of window 0 is empty.
        assert_eq!(heatmap.matches("<rect").count(), 3);
        for title in [
            "sets 0..2, instructions 0..1000: imit A=3, B=0, misses A=1, B=0",
            "sets 0..2, instructions 1000..2000: imit A=0, B=4, misses A=0, B=0",
            "sets 2..4, instructions 1000..2000: imit A=0, B=0, misses A=2, B=5",
        ] {
            assert!(heatmap.contains(title), "{title} missing from {heatmap}");
        }
    }

    #[test]
    fn a_stale_events_jsonl_is_not_read() {
        // Older builds wrote a decision-event stream; a malformed one
        // used to fail the load.
        let dir = std::env::temp_dir().join(format!("ac_report_events_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("timeline.jsonl"), "{\"run\":\"x\",\"end\":1}\n").unwrap();
        std::fs::write(dir.join("events.jsonl"), "not json\n").unwrap();
        let loaded = RunArtifacts::load(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let run = loaded.expect("events.jsonl is not an artifact the report reads");
        assert_eq!(run.timeline.len(), 1);
        assert!(run.summary.is_none() && run.audit.is_none());
    }
}
