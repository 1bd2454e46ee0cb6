//! `cachesim audit` — offline adaptivity audit of a finished run.
//!
//! Joins the two halves of the adaptivity-audit story into one
//! `audit.json` artifact per run directory:
//!
//! 1. the **online** behaviour of the cache, recovered bit-exactly by
//!    replaying the same captured L2 stream through the same seeded
//!    organisation: its per-set achieved and shadow hits, its per-set
//!    decisions over time ([`DecisionGrid`]) and its switch lag, which
//!    the audit's [`Books`] derive from the organisation's cumulative
//!    [`TimelineProbe`] after every access, and
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
//! * the **per-set decision heatmap** of the paper's Figure 7 — which
//!   component each group of sets imitated, and which component's
//!   exclusive misses trained it, in each window;
//! * **adaptivity efficiency** — `achieved / best-fixed` and
//!   `achieved / OPT` hit ratios (the first may exceed 1: shaping
//!   behaviour per set can beat every fixed global policy);
//! * **switch lag** — how many comparison windows imitation trailed the
//!   shadow-directory winner by ([`SWITCH_LAG_WINDOW_ACCESSES`]).
//!
//! The audit replays the *functional* L2 reference stream (via the
//! process replay cache). For `"timed"` runs the joined stream is the
//! functional equivalent of the same instruction trace. With partial
//! shadow tags the component baselines are the paper's
//! aliasing-optimistic shadow estimates, so `efficiency_vs_best_fixed`
//! is a conservative lower bound.

use crate::report::EXIT_INVALID_INPUT;
use ac_telemetry::TimelineProbe;
use adaptive_cache::Component;
use cache_sim::{CacheModel, Geometry};
use cpu_model::{belady, replay_model_windows, replay_standalone, L2Trace, PolicyReplay};
use experiments::cell::{self, RunRequest};
use experiments::{L2Kind, CACHE_SEED};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped on `audit.json`. Version 2 adds `decisions`.
pub const AUDIT_SCHEMA_VERSION: u32 = 2;

/// Instruction windows a run is split into: `max(insts / 64, 1)`
/// instructions each, so at most 127 windows at any budget.
pub const DEFAULT_WINDOWS: u64 = 64;

/// Most rows a [`DecisionGrid`] keeps.
pub const MAX_GRID_ROWS: usize = 256;

/// Accesses per switch-lag comparison window of the paper's cache.
pub const SWITCH_LAG_WINDOW_ACCESSES: u64 = 4096;

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

/// Switch-lag attribution summary (see [`Books`] for how each
/// organisation's is derived).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// Achieved hits per set.
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

/// The per-set decision heatmap of the paper's Figure 7: per group of
/// adjacent sets (a row) and per audit window (a column), the
/// replacements that imitated each component and the exclusive misses
/// that trained the selector. A row holds the fewest sets, a power of
/// two, that leave at most [`MAX_GRID_ROWS`] rows. Each count is a
/// flat, window-major vector: the cell of window `w` and row `r` is
/// at `w * rows + r`, and window `w` is `windows[w]` of the report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionGrid {
    /// Adjacent sets per row.
    pub sets_per_row: u64,
    /// Rows per window.
    pub rows: u64,
    /// Replacements that imitated component A.
    pub imitations_a: Vec<u64>,
    /// Replacements that imitated component B.
    pub imitations_b: Vec<u64>,
    /// References that only component A missed.
    pub excl_a_misses: Vec<u64>,
    /// References that only component B missed.
    pub excl_b_misses: Vec<u64>,
}

impl DecisionGrid {
    /// An empty grid over `sets` cache sets.
    fn new(sets: usize) -> DecisionGrid {
        let mut sets_per_row = 1;
        while sets.div_ceil(sets_per_row) > MAX_GRID_ROWS {
            sets_per_row *= 2;
        }
        DecisionGrid {
            sets_per_row: sets_per_row as u64,
            rows: sets.div_ceil(sets_per_row) as u64,
            ..DecisionGrid::default()
        }
    }

    /// Charges `d`, one access's probe delta, to the cell of `window`
    /// and the row of `set`.
    fn add(&mut self, window: usize, set: usize, d: &TimelineProbe) {
        let rows = self.rows as usize;
        let cell = window * rows + set / self.sets_per_row as usize;
        for (counts, delta) in [
            (&mut self.imitations_a, d.imitations_a),
            (&mut self.imitations_b, d.imitations_b),
            (&mut self.excl_a_misses, d.excl_a_misses),
            (&mut self.excl_b_misses, d.excl_b_misses),
        ] {
            if counts.len() <= cell {
                counts.resize((window + 1) * rows, 0);
            }
            counts[cell] += delta;
        }
    }
}

/// The full `audit.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditReport {
    /// Schema version of this document ([`AUDIT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identity (benchmark name, or `"inline spec"`).
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
    /// Per-set decisions per window (adaptive and SBAR organisations).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub decisions: Option<DecisionGrid>,
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

/// The books the audit keeps on an organisation with adaptivity while
/// it re-runs the captured stream, from the organisation's cumulative
/// [`TimelineProbe`] read after every access:
///
/// * **per-set shadow hits** (adaptive and SBAR): each access's increase
///   in `shadow_a_hits` and `shadow_b_hits`, charged to the set it
///   touched, so SBAR's land on its leader sets only;
/// * **the decision grid** (adaptive and SBAR): each access's increase in
///   imitations and exclusive misses, charged to its window and the row
///   of the set it touched;
/// * **windowed switch lag** (the paper's cache): see
///   [`Books::close_window`];
/// * **selector switches** (SBAR and DIP): each time the selector counter
///   changes sides of its start value, its midpoint above which it
///   favours B, is a flip that the followers follow at once, with no lag
///   (`window_accesses: 0`).
#[derive(Default)]
struct Books {
    /// Shadow A and B hits per set (`None` without shadow directories).
    shadow_hits: Option<(Vec<u64>, Vec<u64>)>,
    /// The decision grid (`None` without shadow directories).
    grid: Option<DecisionGrid>,
    /// SBAR's and DIP's selector: its start value, and whether it is
    /// above that now. `None` for windowed switch lag.
    selector: Option<(u32, bool)>,
    /// The probe after the last access, and at the start of the open
    /// window.
    last: TimelineProbe,
    window_start: TimelineProbe,
    /// The winner as of the last closed window, and the latest flip not
    /// followed yet: `(its window, the new winner)`.
    winner: Option<Component>,
    pending: Option<(u64, Component)>,
    /// The summary so far; its mean is `total_lag / followed`.
    lag: SwitchLagSummary,
    total_lag: u64,
}

impl Books {
    /// The books of `model`, built as `kind` and not accessed yet;
    /// `None` for an organisation without adaptivity.
    fn open(kind: &L2Kind, model: &dyn CacheModel) -> Option<Books> {
        let start = model.timeline_probe();
        let sets = model.geometry().num_sets();
        let (shadows, selector) = match kind {
            L2Kind::Adaptive(_) => (true, None),
            L2Kind::Sbar(_) => (true, start.psel),
            L2Kind::Dip(_) => (false, start.psel),
            _ => return None,
        };
        Some(Books {
            shadow_hits: shadows.then(|| (vec![0; sets], vec![0; sets])),
            grid: shadows.then(|| DecisionGrid::new(sets)),
            selector: selector.map(|psel| (psel, false)),
            last: start,
            window_start: start,
            ..Books::default()
        })
    }

    /// Books one access to `set` in audit window `window`, after which
    /// the probe reads `now`.
    fn record(&mut self, set: usize, window: usize, now: TimelineProbe) {
        if let Some((a, b)) = &mut self.shadow_hits {
            a[set] += now.shadow_a_hits - self.last.shadow_a_hits;
            b[set] += now.shadow_b_hits - self.last.shadow_b_hits;
        }
        if let Some(grid) = &mut self.grid {
            grid.add(window, set, &now.delta_from(&self.last));
        }
        let before = self.last.accesses;
        if let Some((start, above)) = &mut self.selector {
            if now.psel.is_some_and(|psel| psel > *start) != *above {
                *above = !*above;
                self.lag.winner_flips += 1;
                self.lag.followed += 1;
            }
        } else if before > 0 && before.is_multiple_of(SWITCH_LAG_WINDOW_ACCESSES) {
            // A window closes before the access after its last one, so
            // the run's last window never closes.
            self.close_window();
        }
        self.last = now;
    }

    /// Closes the open window of [`SWITCH_LAG_WINDOW_ACCESSES`], which
    /// ended at the last probe. The component with more shadow hits in
    /// the window is its winner, and a tie keeps the previous winner. A
    /// change of winner is a flip. A flip is followed at the first close,
    /// its own included, at which the window's imitation majority
    /// (strictly more imitations) is the new winner, and its lag is the
    /// number of windows in between. A newer flip supersedes an
    /// unfollowed one, so a lag is measured to the latest flip.
    fn close_window(&mut self) {
        let d = self.last.delta_from(&self.window_start);
        let window = self.last.accesses / SWITCH_LAG_WINDOW_ACCESSES - 1;
        // The component with more of `(a, b)`, if either has more.
        let more = |a: u64, b: u64| match a.cmp(&b) {
            Ordering::Greater => Some(Component::A),
            Ordering::Less => Some(Component::B),
            Ordering::Equal => None,
        };
        let winner = more(d.shadow_a_hits, d.shadow_b_hits).or(self.winner);
        if winner != self.winner {
            self.lag.winner_flips += 1;
            self.pending = winner.map(|to| (window, to));
            self.winner = winner;
        }
        if let Some((flip, to)) = self.pending {
            if more(d.imitations_a, d.imitations_b) == Some(to) {
                self.lag.followed += 1;
                self.total_lag += window - flip;
                self.lag.max_lag_windows = self.lag.max_lag_windows.max(window - flip);
                self.pending = None;
            }
        }
        self.window_start = self.last;
    }

    /// The switch-lag summary.
    fn switch_lag(&self) -> SwitchLagSummary {
        let mut lag = self.lag.clone();
        if self.selector.is_none() {
            lag.window_accesses = SWITCH_LAG_WINDOW_ACCESSES;
        }
        if lag.followed > 0 {
            lag.mean_lag_windows = self.total_lag as f64 / lag.followed as f64;
        }
        lag
    }
}

/// Captures (or fetches from the replay cache) the L2 reference stream
/// the run config describes, once `cell::validate` has resolved its
/// workload.
fn capture_stream(cfg: &RunRequest) -> Result<(String, std::sync::Arc<L2Trace>), String> {
    let bench = cell::validate(cfg).map_err(|e| e.to_string())?;
    let (trace, _captured) = experiments::replay_cache::get_or_capture(&bench, &cfg.cpu, cfg.insts);
    Ok((bench.name, trace))
}

/// Computes the full audit of one run config.
fn audit_run(cfg: &RunRequest, window_insts: u64) -> Result<AuditReport, String> {
    let (workload, trace) = capture_stream(cfg)?;
    audit_trace(cfg, workload, &trace, window_insts)
}

/// The audit of `cfg`'s organisation on the L2 stream `trace` of
/// `workload`.
fn audit_trace(
    cfg: &RunRequest,
    workload: String,
    trace: &L2Trace,
    window_insts: u64,
) -> Result<AuditReport, String> {
    let geom = Geometry::new(
        cfg.cpu.l2.size_bytes,
        cfg.cpu.l2.line_bytes,
        cfg.cpu.l2.associativity,
    )
    .map_err(|e| format!("bad L2 geometry in run config: {e}"))?;

    // Online re-run: same organisation, same seed, same stream — the
    // model passes through the states the original run did, so the books
    // kept on it are the online accounting.
    let mut l2 = cfg.l2.build(geom);
    let mut books = Books::open(&cfg.l2, &*l2);
    let achieved = replay_model_windows(trace, l2.as_mut(), window_insts, |set, window, l2| {
        if let Some(books) = &mut books {
            books.record(set, window, l2.timeline_probe());
        }
    });
    let switch_lag = books.as_ref().map(Books::switch_lag);
    let (shadow_hits, decisions) = match books {
        Some(books) => (books.shadow_hits, books.grid),
        None => (None, None),
    };

    // Offline baselines.
    let opt = belady(trace, geom, window_insts);
    let plan = component_plan(&cfg.l2);
    let comps = plan.as_ref().map(|(p, _)| {
        (
            replay_standalone(trace, geom, p.mode, p.policy_a, p.seed_a, window_insts),
            replay_standalone(trace, geom, p.mode, p.policy_b, p.seed_b, window_insts),
        )
    });

    // Differential consistency: the offline twins must reproduce the
    // online shadow directories bit-exactly, set by set.
    let shadow_consistency = match (&plan, &comps, &shadow_hits) {
        (Some((_, true)), Some((a, b)), Some((online_a, online_b))) => {
            let ok = a.per_set_hits == *online_a && b.per_set_hits == *online_b;
            if !ok {
                // `audit.json` holds both sides: `comp_*` and `per_set`.
                ac_telemetry::warn!(
                    "audit: offline component replays diverged from the online shadow directories"
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

    let (shadow_a_hits, shadow_b_hits) = shadow_hits.unwrap_or_default();
    let regret_best = shadow_a_hits
        .iter()
        .zip(&shadow_b_hits)
        .zip(&achieved.per_set_hits)
        .map(|((&a, &b), &h)| a.max(b) as i64 - h as i64)
        .collect();
    let per_set = PerSetAudit {
        hits: achieved.per_set_hits.clone(),
        shadow_a_hits,
        shadow_b_hits,
        opt_hits: opt.per_set_hits.clone(),
        regret_best,
    };

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
        decisions,
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

/// Runs `cachesim audit <run-dir> [--config <run.json>] [--out <file>]`;
/// returns the process exit code.
pub fn run_audit_subcommand(rest: &[String]) -> i32 {
    let mut run_dir: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;

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
            "error: usage: cachesim audit <run-dir> [--config <run.json>] [--out <file>] \
             (a --config file is a cachesim run request, `mode` included)"
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
    let window_insts = (cfg.insts / DEFAULT_WINDOWS).max(1);

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
    use adaptive_cache::{AdaptiveConfig, DipCache, DipConfig, MultiConfig, SbarCache, SbarConfig};
    use cpu_model::{replay_l2, CpuConfig, L2TraceBuilder};

    fn small_cfg(l2: L2Kind) -> RunRequest {
        RunRequest {
            benchmark: Some("ammp".to_string()),
            spec: None,
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
        assert_eq!(lag.window_accesses, SWITCH_LAG_WINDOW_ACCESSES);
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
    /// The L2 stream of `blocks`: one demand fill per instruction.
    fn trace_of(blocks: impl Iterator<Item = u64>) -> L2Trace {
        let mut trace = L2TraceBuilder::new();
        for (i, block) in blocks.enumerate() {
            trace.push(block * 64, false, i as u64 + 1);
        }
        trace.finish(Default::default())
    }

    /// An LFU-favourable phase, hot blocks in bursts of three between
    /// the blocks of a long scan, then an LRU-favourable shifting window.
    fn phase_change() -> L2Trace {
        let hot_scan = (0..150_000u64).map(|i| {
            let group = i / 4;
            if i % 4 < 3 {
                group % 768
            } else {
                768 + group % 8192
            }
        });
        let shifting = (0..150_000u64).map(|i| 20_000 + (i / 16_000) * 2048 + (i * 7919) % 4096);
        trace_of(hot_scan.chain(shifting))
    }

    /// A 64 KB 8-way L2.
    fn small_l2() -> Geometry {
        Geometry::new(64 * 1024, 64, 8).unwrap()
    }

    /// The audit of `l2`, as a 64 KB 8-way L2, on `trace`.
    fn audit_small(l2: L2Kind, trace: &L2Trace) -> AuditReport {
        let mut cfg = small_cfg(l2);
        cfg.cpu.l2.size_bytes = small_l2().size_bytes();
        audit_trace(&cfg, "synthetic".to_string(), trace, 0).expect("audit runs")
    }

    #[test]
    fn switch_lag_follows_a_phase_change() {
        let adaptive = L2Kind::Adaptive(AdaptiveConfig::paper_full_tags());
        let lag = audit_small(adaptive, &phase_change())
            .switch_lag
            .expect("the adaptive cache reports switch lag");
        assert_eq!(lag.window_accesses, SWITCH_LAG_WINDOW_ACCESSES);
        // The winner flips once, at the phase change, and imitation
        // follows it one window later.
        assert_eq!((lag.winner_flips, lag.followed), (1, 1), "{lag:?}");
        assert_eq!((lag.mean_lag_windows, lag.max_lag_windows), (1.0, 1));
    }

    /// The switch lag of the paper's cache when window `w` of
    /// [`SWITCH_LAG_WINDOW_ACCESSES`] accesses brings `windows[w]`:
    /// `(shadow A hits, shadow B hits)` on its first access and
    /// `(imitations of A, of B)` on its last. One more access closes the
    /// last window, and what it brings belongs to a window that never
    /// closes.
    fn windowed_lag(windows: &[[u64; 4]]) -> SwitchLagSummary {
        let mut books = Books::default();
        let mut p = TimelineProbe::default();
        for [sa, sb, ia, ib] in windows {
            for i in 0..SWITCH_LAG_WINDOW_ACCESSES {
                p.accesses += 1;
                if i == 0 {
                    p.shadow_a_hits += sa;
                    p.shadow_b_hits += sb;
                }
                if i == SWITCH_LAG_WINDOW_ACCESSES - 1 {
                    p.imitations_a += ia;
                    p.imitations_b += ib;
                }
                books.record(0, 0, p);
            }
        }
        p.accesses += 1;
        p.shadow_b_hits += 9;
        p.imitations_b += 9;
        books.record(0, 0, p);
        books.switch_lag()
    }

    #[test]
    fn the_window_rule_keeps_ties_and_measures_to_the_latest_flip() {
        let summary = |lag: SwitchLagSummary| {
            (
                lag.winner_flips,
                lag.followed,
                lag.mean_lag_windows,
                lag.max_lag_windows,
            )
        };
        // Window 0 ties, so nothing flips before window 1 (the first
        // access after window 0), which A wins and imitates at once.
        assert_eq!(
            summary(windowed_lag(&[[0, 0, 0, 0], [1, 0, 1, 0]])),
            (1, 1, 0.0, 0)
        );
        // A wins window 0 unimitated, B wins window 1, window 2 ties and
        // keeps B, and B's imitation in window 3 follows the flip of
        // window 1, two windows late. The flip to A is never followed.
        assert_eq!(
            summary(windowed_lag(&[
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 1],
            ])),
            (2, 1, 2.0, 2)
        );
    }

    #[test]
    fn selector_switches_are_the_policy_switches() {
        let trace = phase_change();
        let mut sbar = SbarCache::new(small_l2(), SbarConfig::paper_default(), CACHE_SEED);
        replay_l2(&trace, &mut sbar);
        let mut dip = DipCache::new(small_l2(), DipConfig::paper_default(), CACHE_SEED);
        replay_l2(&trace, &mut dip);
        for (l2, switches) in [
            (
                L2Kind::Sbar(SbarConfig::paper_default()),
                sbar.policy_switches(),
            ),
            (
                L2Kind::Dip(DipConfig::paper_default()),
                dip.policy_switches(),
            ),
        ] {
            assert!(switches >= 1, "{l2:?} must switch on this stream");
            let lag = audit_small(l2, &trace).switch_lag.expect("switch lag");
            assert_eq!(lag.window_accesses, 0, "selector-driven");
            assert_eq!((lag.winner_flips, lag.followed), (switches, switches));
            assert_eq!(lag.max_lag_windows, 0);
        }
    }

    /// The grid's counts summed per row over every window, as
    /// `[imitations A, imitations B, exclusive misses A, B]`.
    fn row_sums(grid: &DecisionGrid) -> Vec<[u64; 4]> {
        let mut rows = vec![[0; 4]; grid.rows as usize];
        for (i, cell) in grid.imitations_a.iter().enumerate() {
            let row = &mut rows[i % grid.rows as usize];
            row[0] += cell;
            row[1] += grid.imitations_b[i];
            row[2] += grid.excl_a_misses[i];
            row[3] += grid.excl_b_misses[i];
        }
        rows
    }

    /// The grid's four counts summed over every cell.
    fn grid_totals(grid: &DecisionGrid) -> [u64; 4] {
        row_sums(grid).iter().fold([0; 4], |mut t, row| {
            for (t, r) in t.iter_mut().zip(row) {
                *t += r;
            }
            t
        })
    }

    #[test]
    fn the_decision_grid_adds_up_to_the_engine_totals() {
        // A 256 KB 4-way L2 has 1024 sets, so four to a row.
        let geom = Geometry::new(256 * 1024, 64, 4).unwrap();
        let mut cfg = small_cfg(L2Kind::Adaptive(AdaptiveConfig::paper_default()));
        cfg.cpu.l2.size_bytes = geom.size_bytes();
        cfg.cpu.l2.associativity = geom.associativity();
        let trace = phase_change();
        let r = audit_trace(&cfg, "synthetic".to_string(), &trace, 10_000).expect("audit runs");
        let grid = r.decisions.expect("the adaptive cache has a grid");
        assert_eq!((grid.sets_per_row, grid.rows), (4, 256));
        assert_eq!(r.windows.len(), 30);
        let cells = r.windows.len() * 256;
        for counts in [
            &grid.imitations_a,
            &grid.imitations_b,
            &grid.excl_a_misses,
            &grid.excl_b_misses,
        ] {
            assert_eq!(counts.len(), cells, "one cell per row and window");
        }
        let mut direct =
            adaptive_cache::AdaptiveCache::new(geom, AdaptiveConfig::paper_default(), CACHE_SEED);
        replay_l2(&trace, &mut direct);
        let (ia, ib) = direct.imitation_totals();
        let (ea, eb) = direct.exclusive_miss_totals();
        assert!(
            ia > 0 && ib > 0 && ea > 0 && eb > 0,
            "both components must win"
        );
        assert_eq!(grid_totals(&grid), [ia, ib, ea, eb]);

        // Organisations without shadow directories get none.
        for l2 in [
            L2Kind::Plain(cache_sim::PolicyKind::Lru),
            L2Kind::Dip(DipConfig::paper_default()),
            L2Kind::Multi(MultiConfig::paper_five_policy()),
        ] {
            let cfg = RunRequest {
                insts: 20_000,
                ..small_cfg(l2)
            };
            assert!(audit_run(&cfg, 0).unwrap().decisions.is_none());
        }
    }

    #[test]
    fn sbar_shadow_hits_land_in_leader_sets_only() {
        let trace = phase_change();
        let mut sbar = SbarCache::new(small_l2(), SbarConfig::paper_default(), CACHE_SEED);
        replay_l2(&trace, &mut sbar);
        let r = audit_small(L2Kind::Sbar(SbarConfig::paper_default()), &trace);
        let (a, b) = (&r.per_set.shadow_a_hits, &r.per_set.shadow_b_hits);
        assert_eq!((a.len(), b.len()), (128, 128));
        for set in (0..128).filter(|&set| !sbar.is_leader(set)) {
            assert_eq!((a[set], b[set]), (0, 0), "follower set {set}");
        }
        let sums = (a.iter().sum::<u64>(), b.iter().sum::<u64>());
        assert!(sums.0 > 0 && sums.1 > 0, "the leaders must hit: {sums:?}");
        assert_eq!(
            sums,
            (
                sbar.shadow_stats(Component::A).0,
                sbar.shadow_stats(Component::B).0
            )
        );

        // The grid has one set per row: exclusive misses train only the
        // leaders, while the followers replace too.
        let grid = r.decisions.expect("SBAR has a grid");
        assert_eq!((grid.sets_per_row, grid.rows), (1, 128));
        let rows = row_sums(&grid);
        for set in (0..128).filter(|&set| !sbar.is_leader(set)) {
            assert_eq!(rows[set][2..], [0, 0], "follower set {set}");
        }
        assert!(
            (0..128).any(|set| !sbar.is_leader(set) && rows[set][0] + rows[set][1] > 0),
            "follower rows must imitate"
        );
        let (ea, eb) = sbar.exclusive_miss_totals();
        assert_eq!(ea + eb, sbar.leader_votes(), "each exclusive miss votes");
        assert_eq!(
            grid_totals(&grid),
            [sbar.imitation_totals().0, sbar.imitation_totals().1, ea, eb]
        );
    }

    /// FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn audit_reports_are_pinned() {
        // Digests of the serialised report on `ammp` at 200 000
        // instructions in `cachesim audit`'s windows.
        let pinned = [
            (
                L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
                0xf881_b847_f8bd_3f97,
            ),
            (
                L2Kind::Adaptive(AdaptiveConfig::paper_default()),
                0xc865_6ca1_6a6b_bbc5,
            ),
            (
                L2Kind::Sbar(SbarConfig::paper_default()),
                0x00fe_6899_b957_37e9,
            ),
            (
                L2Kind::Sbar(SbarConfig::paper_partial_tags()),
                0x00fe_6899_b957_37e9,
            ),
            (
                L2Kind::Dip(DipConfig::paper_default()),
                0x4231_da22_6a96_824f,
            ),
            (
                L2Kind::Plain(cache_sim::PolicyKind::Lru),
                0xe88b_edd9_aac5_6ccd,
            ),
            (
                L2Kind::Multi(MultiConfig::paper_five_policy()),
                0x3bfa_2469_e388_7134,
            ),
        ];
        let mut wrong = Vec::new();
        for (l2, want) in pinned {
            let cfg = RunRequest {
                insts: 200_000,
                ..small_cfg(l2)
            };
            let r = audit_run(&cfg, cfg.insts / DEFAULT_WINDOWS).expect("audit runs");
            let got = fnv1a(serde_json::to_string(&r).unwrap().as_bytes());
            if got != want {
                wrong.push(format!("{}: 0x{got:016x}", cfg.l2.label()));
            }
        }
        assert!(wrong.is_empty(), "audit reports drifted: {wrong:?}");
    }
}
