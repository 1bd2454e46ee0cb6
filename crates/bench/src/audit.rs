//! `cachesim audit` — offline adaptivity audit of a finished run.
//!
//! Joins the two halves of the adaptivity-audit story into one
//! `audit.json` artifact per run directory:
//!
//! 1. the **online** per-set regret accounting the cache kept while it
//!    ran ([`cache_sim::AuditCounts`]: per-set achieved/shadow hit
//!    vectors plus switch-lag attribution), recovered bit-exactly by
//!    replaying the same captured L2 stream through the same seeded
//!    organisation, and
//! 2. the **offline** hindsight baselines of [`cpu_model::oracle`]: a
//!    Belady/OPT replay and each component policy standalone (seeded as
//!    the online shadow directories were, so the differential suite can
//!    hold them bit-equal).
//!
//! From the join it derives the audit's headline series and scalars:
//!
//! * **regret vs best fixed** per instruction window —
//!   `max(comp_a_hits, comp_b_hits) − achieved_hits` (negative when
//!   adaptivity beat both fixed policies inside the window);
//! * **regret vs OPT** per window — `opt_hits − achieved_hits`;
//! * per-set regret — the same delta on the per-set hit vectors;
//! * **adaptivity efficiency** — `achieved / best-fixed` and
//!   `achieved / OPT` hit ratios (the first may exceed 1: shaping
//!   behaviour per set can beat every fixed global policy);
//! * **switch lag** — how many comparison windows imitation trailed the
//!   shadow-directory winner by, from the online
//!   [`cache_sim::SwitchLagStats`].
//!
//! The audit replays the *functional* L2 reference stream (via the
//! process replay cache). For `"timed"` runs the joined stream is the
//! functional equivalent of the same instruction trace. With partial
//! shadow tags the component baselines are the paper's
//! aliasing-optimistic shadow estimates, so `efficiency_vs_best_fixed`
//! is a conservative lower bound.

use crate::report::EXIT_INVALID_INPUT;
use cache_sim::Geometry;
use cpu_model::{
    belady, capture_functional, replay_model_windows, replay_standalone, L2Trace, PolicyReplay,
};
use experiments::cell::{self, RunRequest, Workload};
use experiments::{L2Kind, CACHE_SEED};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped on `audit.json`.
pub const AUDIT_SCHEMA_VERSION: u32 = 1;

/// Default number of instruction windows the run is split into when
/// `--window` is not given.
pub const DEFAULT_WINDOWS: u64 = 64;

/// Totals of one offline component-policy replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentTotals {
    /// Human-readable policy label (e.g. `"LRU (full tags)"`).
    pub label: String,
    /// Hits over the whole trace.
    pub hits: u64,
    /// Misses over the whole trace.
    pub misses: u64,
}

/// One joined instruction window of the audit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditWindow {
    /// Exclusive end of the window, in 1-based instruction indices.
    pub end_inst: u64,
    /// L2 events in the window.
    pub accesses: u64,
    /// Hits the audited organisation achieved.
    pub achieved_hits: u64,
    /// Hits Belady/OPT achieved on the same events.
    pub opt_hits: u64,
    /// Component A hits (absent for organisations without components).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comp_a_hits: Option<u64>,
    /// Component B hits.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comp_b_hits: Option<u64>,
    /// `max(comp_a_hits, comp_b_hits) − achieved_hits`; negative when
    /// adaptivity beat both fixed policies in this window.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub regret_best: Option<i64>,
    /// `opt_hits − achieved_hits` (≥ 0 up to window-boundary effects).
    pub regret_opt: i64,
}

/// Switch-lag attribution summary (online accounting; see
/// [`cache_sim::SwitchLagStats`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchLagSummary {
    /// Accesses per internal comparison window (0 = selector-driven
    /// organisation: followers imitate the selector instantly).
    pub window_accesses: u64,
    /// Times the shadow-directory winner flipped between windows.
    pub winner_flips: u64,
    /// Flips the imitation majority eventually followed.
    pub followed: u64,
    /// Mean lag, in comparison windows, over the followed flips.
    pub mean_lag_windows: f64,
    /// Worst observed lag in comparison windows.
    pub max_lag_windows: u64,
}

/// Per-set joined hit vectors (index = set).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerSetAudit {
    /// Achieved hits per set (empty when the organisation keeps no
    /// per-set audit counters).
    pub hits: Vec<u64>,
    /// Online shadow-A hits per set (empty without shadow directories).
    pub shadow_a_hits: Vec<u64>,
    /// Online shadow-B hits per set.
    pub shadow_b_hits: Vec<u64>,
    /// Belady/OPT hits per set.
    pub opt_hits: Vec<u64>,
    /// `max(shadow_a, shadow_b) − hits` per set (empty without shadows).
    pub regret_best: Vec<i64>,
}

/// The full `audit.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditReport {
    /// Schema version of this document ([`AUDIT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identity (benchmark name or trace path).
    pub workload: String,
    /// L2 organisation label.
    pub l2: String,
    /// Mode of the original run (`"functional"` / `"timed"`).
    pub mode: String,
    /// Instruction budget of the run.
    pub insts: u64,
    /// Instructions per audit window.
    pub window_insts: u64,
    /// L2 events replayed.
    pub accesses: u64,
    /// Hits the audited organisation achieved.
    pub achieved_hits: u64,
    /// Misses the audited organisation took.
    pub achieved_misses: u64,
    /// Belady/OPT hits on the same stream.
    pub opt_hits: u64,
    /// Component A standalone totals.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comp_a: Option<ComponentTotals>,
    /// Component B standalone totals.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comp_b: Option<ComponentTotals>,
    /// `max(comp_a.hits, comp_b.hits)`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub best_fixed_hits: Option<u64>,
    /// `achieved_hits / best_fixed_hits` (may exceed 1).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub efficiency_vs_best_fixed: Option<f64>,
    /// `achieved_hits / opt_hits` (1 when OPT itself has no hits).
    pub efficiency_vs_opt: f64,
    /// Online switch-lag attribution (organisations with adaptivity).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub switch_lag: Option<SwitchLagSummary>,
    /// Whether the offline component replays reproduced the online
    /// shadow directories bit-exactly (adaptive organisations only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shadow_consistency: Option<bool>,
    /// Joined per-window series, oldest first.
    pub windows: Vec<AuditWindow>,
    /// Joined per-set vectors.
    pub per_set: PerSetAudit,
}

impl AuditReport {
    /// Total regret vs the best fixed component, summed over windows
    /// (`None` for organisations without components).
    pub fn regret_best_total(&self) -> Option<i64> {
        let vals: Vec<i64> = self.windows.iter().filter_map(|w| w.regret_best).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum())
        }
    }

    /// Total regret vs OPT, summed over windows.
    pub fn regret_opt_total(&self) -> i64 {
        self.windows.iter().map(|w| w.regret_opt).sum()
    }
}

/// Joins the achieved / OPT / component window series into the audit's
/// per-window rows. All series bucket the same events onto the same
/// instruction grid, so they are index-aligned; rows default missing
/// entries to zero defensively.
fn join_windows(
    achieved: &PolicyReplay,
    opt: &PolicyReplay,
    comps: Option<(&PolicyReplay, &PolicyReplay)>,
) -> Vec<AuditWindow> {
    let len = achieved.windows.len().max(opt.windows.len());
    (0..len)
        .map(|i| {
            let ach = achieved.windows.get(i);
            let o = opt.windows.get(i);
            let achieved_hits = ach.map_or(0, |w| w.hits);
            let opt_hits = o.map_or(0, |w| w.hits);
            let (comp_a_hits, comp_b_hits) = match comps {
                Some((a, b)) => (
                    Some(a.windows.get(i).map_or(0, |w| w.hits)),
                    Some(b.windows.get(i).map_or(0, |w| w.hits)),
                ),
                None => (None, None),
            };
            let regret_best = comp_a_hits
                .zip(comp_b_hits)
                .map(|(a, b)| a.max(b) as i64 - achieved_hits as i64);
            AuditWindow {
                end_inst: ach.or(o).map_or(0, |w| w.end_inst),
                accesses: ach.map_or(0, |w| w.accesses),
                achieved_hits,
                opt_hits,
                comp_a_hits,
                comp_b_hits,
                regret_best,
                regret_opt: opt_hits as i64 - achieved_hits as i64,
            }
        })
        .collect()
}

/// The component twins of an organisation: policies, tag mode and seeds
/// matching its online shadow directories, plus whether bit-exact
/// consistency with the online counters is expected.
fn component_plan(l2: &L2Kind) -> Option<(ComponentPlan, bool)> {
    match l2 {
        L2Kind::Adaptive(cfg) => Some((
            ComponentPlan {
                policy_a: cfg.policy_a,
                policy_b: cfg.policy_b,
                mode: cfg.shadow_tags,
                seed_a: CACHE_SEED ^ 0xA,
                seed_b: CACHE_SEED ^ 0xB,
            },
            true,
        )),
        // SBAR keeps shadows in leader sets only; whole-cache standalone
        // replays are best-fixed baselines, not bit-exact twins.
        L2Kind::Sbar(cfg) => Some((
            ComponentPlan {
                policy_a: cfg.policy_a,
                policy_b: cfg.policy_b,
                mode: cache_sim::TagMode::Full,
                seed_a: CACHE_SEED,
                seed_b: CACHE_SEED,
            },
            false,
        )),
        _ => None,
    }
}

struct ComponentPlan {
    policy_a: cache_sim::PolicyKind,
    policy_b: cache_sim::PolicyKind,
    mode: cache_sim::TagMode,
    seed_a: u64,
    seed_b: u64,
}

/// Captures (or fetches from the replay cache) the L2 reference stream
/// the run config describes, once `cell::validate` has resolved its
/// workload.
fn capture_stream(cfg: &RunRequest) -> Result<(String, std::sync::Arc<L2Trace>), String> {
    match cell::validate(cfg).map_err(|e| e.to_string())? {
        Workload::Generated(bench) => {
            let (trace, _captured) =
                experiments::replay_cache::get_or_capture(&bench, &cfg.cpu, cfg.insts);
            Ok((bench.name, trace))
        }
        Workload::TraceFile(path) => {
            let insts = cell::load_trace(&path).map_err(|e| e.to_string())?;
            let n = insts.len() as u64;
            let trace = capture_functional(&cfg.cpu, insts.into_iter(), n);
            Ok((path, std::sync::Arc::new(trace)))
        }
    }
}

/// Computes the full audit of one run config.
fn audit_run(cfg: &RunRequest, window_insts: u64) -> Result<AuditReport, String> {
    let (workload, trace) = capture_stream(cfg)?;
    let geom = Geometry::new(
        cfg.cpu.l2.size_bytes,
        cfg.cpu.l2.line_bytes,
        cfg.cpu.l2.associativity,
    )
    .map_err(|e| format!("bad L2 geometry in run config: {e}"))?;

    // Online re-run: same organisation, same seed, same stream — the
    // model ends in the exact state the original run left it in, so its
    // audit counters *are* the online accounting.
    let mut l2 = cfg.l2.build(geom);
    let achieved = replay_model_windows(&trace, l2.as_mut(), window_insts);
    let online = l2.audit_counts();

    // Offline baselines.
    let opt = belady(&trace, geom, window_insts);
    let plan = component_plan(&cfg.l2);
    let comps = plan.as_ref().map(|(p, _)| {
        (
            replay_standalone(&trace, geom, p.mode, p.policy_a, p.seed_a, window_insts),
            replay_standalone(&trace, geom, p.mode, p.policy_b, p.seed_b, window_insts),
        )
    });

    // Differential consistency: the offline twins must reproduce the
    // online shadow directories bit-exactly (totals and per set).
    let shadow_consistency = match (&plan, &comps, &online) {
        (Some((_, true)), Some((a, b)), Some(counts)) => {
            let ok = (a.hits, a.misses) == counts.shadow_a
                && (b.hits, b.misses) == counts.shadow_b
                && a.per_set_hits == counts.set_shadow_a_hits
                && b.per_set_hits == counts.set_shadow_b_hits;
            if !ok {
                ac_telemetry::warn!(
                    "audit: offline component replays diverged from the online shadow \
                     directories (offline A {:?} vs online {:?}; offline B {:?} vs online {:?})",
                    (a.hits, a.misses),
                    counts.shadow_a,
                    (b.hits, b.misses),
                    counts.shadow_b,
                );
            }
            Some(ok)
        }
        _ => None,
    };

    let windows = join_windows(&achieved, &opt, comps.as_ref().map(|(a, b)| (a, b)));

    let (comp_a, comp_b) = match &comps {
        Some((a, b)) => (
            Some(ComponentTotals {
                label: a.label.clone(),
                hits: a.hits,
                misses: a.misses,
            }),
            Some(ComponentTotals {
                label: b.label.clone(),
                hits: b.hits,
                misses: b.misses,
            }),
        ),
        None => (None, None),
    };
    let best_fixed_hits = comps.as_ref().map(|(a, b)| a.hits.max(b.hits));
    let efficiency_vs_best_fixed = best_fixed_hits.map(|best| {
        if best == 0 {
            1.0
        } else {
            achieved.hits as f64 / best as f64
        }
    });
    let efficiency_vs_opt = if opt.hits == 0 {
        1.0 // OPT found nothing to hit; no policy could do worse or better.
    } else {
        achieved.hits as f64 / opt.hits as f64
    };

    let per_set = match &online {
        Some(counts) => {
            let regret_best: Vec<i64> = counts
                .set_shadow_a_hits
                .iter()
                .zip(&counts.set_shadow_b_hits)
                .zip(&counts.set_hits)
                .map(|((&a, &b), &h)| a.max(b) as i64 - h as i64)
                .collect();
            PerSetAudit {
                hits: counts.set_hits.clone(),
                shadow_a_hits: counts.set_shadow_a_hits.clone(),
                shadow_b_hits: counts.set_shadow_b_hits.clone(),
                opt_hits: opt.per_set_hits.clone(),
                regret_best,
            }
        }
        None => PerSetAudit {
            hits: achieved.per_set_hits.clone(),
            shadow_a_hits: Vec::new(),
            shadow_b_hits: Vec::new(),
            opt_hits: opt.per_set_hits.clone(),
            regret_best: Vec::new(),
        },
    };

    let switch_lag = online.as_ref().map(|counts| SwitchLagSummary {
        window_accesses: counts.switch.window_accesses,
        winner_flips: counts.switch.winner_flips,
        followed: counts.switch.followed,
        mean_lag_windows: counts.switch.mean_lag_windows().unwrap_or(0.0),
        max_lag_windows: counts.switch.max_lag_windows,
    });

    Ok(AuditReport {
        schema_version: AUDIT_SCHEMA_VERSION,
        workload,
        l2: cfg.l2.label(),
        mode: cfg.mode.clone(),
        insts: cfg.insts,
        window_insts,
        accesses: achieved.accesses(),
        achieved_hits: achieved.hits,
        achieved_misses: achieved.misses,
        opt_hits: opt.hits,
        comp_a,
        comp_b,
        best_fixed_hits,
        efficiency_vs_best_fixed,
        efficiency_vs_opt,
        switch_lag,
        shadow_consistency,
        windows,
        per_set,
    })
}

/// Writes `audit.json` via a sibling temp file + rename, so a crashed
/// audit never leaves a torn document behind.
pub fn write_audit_json(path: &Path, report: &AuditReport) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    experiments::report::write_atomic(path, text.as_bytes())
}

fn print_summary(report: &AuditReport) {
    let mut out = format!(
        "audit: {} on {} ({} mode, {} insts, {} L2 events, {}-inst windows)",
        report.l2, report.workload, report.mode, report.insts, report.accesses, report.window_insts
    );
    let _ = write!(
        out,
        "\n  achieved {} hits / {} misses; OPT {} hits; efficiency vs OPT {:.4}",
        report.achieved_hits, report.achieved_misses, report.opt_hits, report.efficiency_vs_opt
    );
    if let (Some(a), Some(b)) = (&report.comp_a, &report.comp_b) {
        let _ = write!(
            out,
            "\n  components: {} {} hits, {} {} hits",
            a.label, a.hits, b.label, b.hits
        );
    }
    if let Some(eff) = report.efficiency_vs_best_fixed {
        let _ = write!(
            out,
            "\n  efficiency vs best fixed {:.4} (regret total {})",
            eff,
            report.regret_best_total().unwrap_or(0)
        );
    }
    if let Some(lag) = &report.switch_lag {
        if lag.window_accesses == 0 {
            let _ = write!(
                out,
                "\n  switch lag: selector-driven ({} switches, followed instantly)",
                lag.winner_flips
            );
        } else {
            let _ = write!(
                out,
                "\n  switch lag: {} winner flips, {} followed, mean {:.2} windows \
                 (max {}) of {} accesses",
                lag.winner_flips,
                lag.followed,
                lag.mean_lag_windows,
                lag.max_lag_windows,
                lag.window_accesses
            );
        }
    }
    if let Some(ok) = report.shadow_consistency {
        let _ = write!(
            out,
            "\n  shadow consistency: {}",
            if ok {
                "offline replays bit-exact"
            } else {
                "DIVERGED"
            }
        );
    }
    crate::print_stdout(&out);
}

/// Runs `cachesim audit <run-dir> [--config <run.json>] [--window <insts>]
/// [--out <file>]`; returns the process exit code.
pub fn run_audit_subcommand(rest: &[String]) -> i32 {
    let mut run_dir: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut window: Option<u64> = None;

    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            rest.get(*i).cloned()
        };
        match arg {
            "--config" => match take(&mut i) {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: `--config` requires a run.json operand");
                    return EXIT_INVALID_INPUT;
                }
            },
            "--out" => match take(&mut i) {
                Some(v) => out_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: `--out` requires a file operand");
                    return EXIT_INVALID_INPUT;
                }
            },
            "--window" => match take(&mut i).and_then(|v| v.parse::<u64>().ok()) {
                Some(w) => window = Some(w),
                None => {
                    eprintln!("error: `--window` wants an instruction count");
                    return EXIT_INVALID_INPUT;
                }
            },
            _ if arg.starts_with("--") => {
                eprintln!("error: unknown audit flag `{arg}`");
                return EXIT_INVALID_INPUT;
            }
            _ => {
                if run_dir.is_some() {
                    eprintln!("error: audit takes exactly one run directory");
                    return EXIT_INVALID_INPUT;
                }
                run_dir = Some(PathBuf::from(arg));
            }
        }
        i += 1;
    }
    let Some(run_dir) = run_dir else {
        eprintln!(
            "error: usage: cachesim audit <run-dir> [--config <run.json>] [--window <insts>] \
             [--out <file>] (a --config file is a cachesim run request, `mode` included)"
        );
        return EXIT_INVALID_INPUT;
    };

    let config_path = config_path.unwrap_or_else(|| run_dir.join("run.json"));
    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read {} ({e}) — single runs under --telemetry write it; \
                 pass --config for other runs",
                config_path.display()
            );
            return EXIT_INVALID_INPUT;
        }
    };
    let cfg: RunRequest = match serde_json::from_str(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: bad run config {}: {e}", config_path.display());
            return EXIT_INVALID_INPUT;
        }
    };
    let window_insts = window.unwrap_or_else(|| (cfg.insts / DEFAULT_WINDOWS).max(1));

    let report = match audit_run(&cfg, window_insts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_INVALID_INPUT;
        }
    };
    print_summary(&report);

    let out_path = out_path.unwrap_or_else(|| run_dir.join("audit.json"));
    if let Err(e) = write_audit_json(&out_path, &report) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return EXIT_INVALID_INPUT;
    }
    crate::print_stdout(&format!("audit: wrote {}", out_path.display()));
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_cache::AdaptiveConfig;
    use cpu_model::CpuConfig;

    fn small_cfg(l2: L2Kind) -> RunRequest {
        RunRequest {
            benchmark: Some("ammp".to_string()),
            spec: None,
            trace_file: None,
            l2,
            mode: "functional".to_string(),
            insts: 60_000,
            cpu: CpuConfig::paper_default(),
        }
    }

    #[test]
    fn adaptive_audit_is_consistent_and_conservative() {
        let cfg = small_cfg(L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()));
        let r = audit_run(&cfg, 10_000).expect("audit runs");
        assert_eq!(r.schema_version, AUDIT_SCHEMA_VERSION);
        assert_eq!(
            r.shadow_consistency,
            Some(true),
            "offline twins must reproduce the online shadows bit-exactly"
        );
        assert!(r.accesses > 0, "ammp must produce L2 traffic");
        // OPT dominates any real policy on the same stream.
        assert!(r.opt_hits >= r.achieved_hits);
        assert!(r.efficiency_vs_opt <= 1.0 && r.efficiency_vs_opt >= 0.0);
        // Window series conserve the totals.
        assert_eq!(
            r.windows.iter().map(|w| w.achieved_hits).sum::<u64>(),
            r.achieved_hits
        );
        assert_eq!(
            r.windows.iter().map(|w| w.opt_hits).sum::<u64>(),
            r.opt_hits
        );
        assert_eq!(
            r.windows.iter().map(|w| w.accesses).sum::<u64>(),
            r.accesses
        );
        // Per-set vectors conserve too, and the per-set regret matches
        // its definition.
        assert_eq!(r.per_set.hits.iter().sum::<u64>(), r.achieved_hits);
        assert_eq!(r.per_set.opt_hits.iter().sum::<u64>(), r.opt_hits);
        for (i, &reg) in r.per_set.regret_best.iter().enumerate() {
            let best = r.per_set.shadow_a_hits[i].max(r.per_set.shadow_b_hits[i]) as i64;
            assert_eq!(reg, best - r.per_set.hits[i] as i64);
        }
        // The switch-lag accounting came through.
        let lag = r.switch_lag.expect("adaptive reports switch stats");
        assert_eq!(
            lag.window_accesses,
            adaptive_cache::SWITCH_LAG_WINDOW_ACCESSES
        );
    }

    #[test]
    fn plain_audit_has_opt_but_no_components() {
        let cfg = small_cfg(L2Kind::Plain(cache_sim::PolicyKind::Lru));
        let r = audit_run(&cfg, 0).expect("audit runs");
        assert!(r.comp_a.is_none() && r.comp_b.is_none());
        assert!(r.efficiency_vs_best_fixed.is_none());
        assert!(r.shadow_consistency.is_none());
        assert_eq!(r.windows.len(), 1, "window 0 collapses to one window");
        assert!(r.opt_hits >= r.achieved_hits);
        assert!(r.per_set.shadow_a_hits.is_empty());
        assert_eq!(r.per_set.hits.iter().sum::<u64>(), r.achieved_hits);
    }

    #[test]
    fn audit_json_roundtrips_with_schema_version() {
        let cfg = small_cfg(L2Kind::Adaptive(AdaptiveConfig::paper_default()));
        let r = audit_run(&cfg, 20_000).expect("audit runs");
        let dir = std::env::temp_dir().join(format!("ac_audit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("audit.json");
        write_audit_json(&path, &r).expect("write audit.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let back: AuditReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema_version, AUDIT_SCHEMA_VERSION);
        assert_eq!(back.achieved_hits, r.achieved_hits);
        assert_eq!(back.windows.len(), r.windows.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
