//! Windowed time-series recording: the temporal dimension the summary
//! artifacts average away.
//!
//! A [`Timeline`] snapshots a [`TimelineProbe`] (cumulative counters
//! read from the model under test) every `window` ticks — retired
//! instructions in the functional engine, cycles in the pipeline — and
//! stores the *delta* against the previous snapshot in a bounded,
//! preallocated ring. When the ring fills up it **coarsens** instead of
//! dropping history: adjacent windows are merged pairwise in place and
//! the window length doubles, so a timeline always covers the whole run
//! at the finest resolution its capacity allows, without ever
//! allocating on the record path.
//!
//! Finished timelines attach to the global [`crate::Telemetry`] hub and
//! are flushed atomically to `timeline.jsonl` (one JSON object per
//! window, tagged with the run label) by
//! [`crate::Telemetry::write_artifacts`].

use crate::json::{number, push_str_escaped};
use std::cell::RefCell;

/// Schema version stamped on every `timeline.jsonl` line.
///
/// Version history: 2 added the `shadow_a_hits` / `shadow_b_hits`
/// counters and the derived signed `regret_best` field for the
/// adaptivity audit. 3 made functional timelines tick in retired
/// instructions (unit `"instructions"`, was L1 accesses, `"accesses"`)
/// and dropped the `mshr_busy` gauge, which read 0 at every boundary.
pub const TIMELINE_SCHEMA_VERSION: u32 = 3;

/// Default window length in ticks (instructions or cycles).
pub const DEFAULT_TIMELINE_WINDOW: u64 = 1 << 16;

/// Default ring capacity in windows; past this the timeline coarsens.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 512;

/// A point-in-time snapshot of the cumulative counters a cache model
/// exposes for time-series recording. All counter fields are monotonic
/// totals since construction; the timeline converts them to per-window
/// deltas. `psel` is an instantaneous register value (SBAR/DIP policy
/// selector), carried through as end-of-window state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineProbe {
    /// Total accesses observed by the model.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Misses of the shadow (or leader-sampled) component-A policy.
    pub shadow_a_misses: u64,
    /// Misses of the shadow (or leader-sampled) component-B policy.
    pub shadow_b_misses: u64,
    /// Hits of the shadow (or leader-sampled) component-A policy: the
    /// hypothetical hit count had component A managed the whole cache.
    pub shadow_a_hits: u64,
    /// Hits of the shadow (or leader-sampled) component-B policy.
    pub shadow_b_hits: u64,
    /// Exclusive misses charged to policy A (A missed where B hit).
    pub excl_a_misses: u64,
    /// Exclusive misses charged to policy B (B missed where A hit).
    pub excl_b_misses: u64,
    /// Evictions that imitated component policy A.
    pub imitations_a: u64,
    /// Evictions that imitated component policy B.
    pub imitations_b: u64,
    /// Partial-tag aliasing fallbacks: misses where aliasing hid every
    /// block outside the imitated component, so a uniformly random way
    /// was evicted (the paper's "arbitrary block").
    pub aliasing_fallbacks: u64,
    /// SBAR leader votes / DIP duel votes cast.
    pub leader_votes: u64,
    /// Current policy-selector register value, when the model has one.
    pub psel: Option<u32>,
}

impl TimelineProbe {
    /// Field-wise `self - prev` for the monotonic counters; `psel`
    /// carries the current (end-of-window) value through unchanged.
    #[must_use]
    pub fn delta_from(&self, prev: &TimelineProbe) -> TimelineProbe {
        TimelineProbe {
            accesses: self.accesses.saturating_sub(prev.accesses),
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            shadow_a_misses: self.shadow_a_misses.saturating_sub(prev.shadow_a_misses),
            shadow_b_misses: self.shadow_b_misses.saturating_sub(prev.shadow_b_misses),
            shadow_a_hits: self.shadow_a_hits.saturating_sub(prev.shadow_a_hits),
            shadow_b_hits: self.shadow_b_hits.saturating_sub(prev.shadow_b_hits),
            excl_a_misses: self.excl_a_misses.saturating_sub(prev.excl_a_misses),
            excl_b_misses: self.excl_b_misses.saturating_sub(prev.excl_b_misses),
            imitations_a: self.imitations_a.saturating_sub(prev.imitations_a),
            imitations_b: self.imitations_b.saturating_sub(prev.imitations_b),
            aliasing_fallbacks: self
                .aliasing_fallbacks
                .saturating_sub(prev.aliasing_fallbacks),
            leader_votes: self.leader_votes.saturating_sub(prev.leader_votes),
            psel: self.psel,
        }
    }

    /// Field-wise sum of two window deltas (used when coarsening);
    /// `psel` keeps the later window's value.
    #[must_use]
    pub fn merged_with(&self, later: &TimelineProbe) -> TimelineProbe {
        TimelineProbe {
            accesses: self.accesses + later.accesses,
            hits: self.hits + later.hits,
            misses: self.misses + later.misses,
            shadow_a_misses: self.shadow_a_misses + later.shadow_a_misses,
            shadow_b_misses: self.shadow_b_misses + later.shadow_b_misses,
            shadow_a_hits: self.shadow_a_hits + later.shadow_a_hits,
            shadow_b_hits: self.shadow_b_hits + later.shadow_b_hits,
            excl_a_misses: self.excl_a_misses + later.excl_a_misses,
            excl_b_misses: self.excl_b_misses + later.excl_b_misses,
            imitations_a: self.imitations_a + later.imitations_a,
            imitations_b: self.imitations_b + later.imitations_b,
            aliasing_fallbacks: self.aliasing_fallbacks + later.aliasing_fallbacks,
            leader_votes: self.leader_votes + later.leader_votes,
            psel: later.psel.or(self.psel),
        }
    }
}

/// Instantaneous engine-side occupancy gauges sampled at window
/// boundaries (pipeline mode only; zero in the functional engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineGauges {
    /// Store-buffer entries draining at the window boundary.
    pub sb_busy: u32,
}

/// One closed window: delta-encoded counters over `[start_tick,
/// end_tick)` plus end-of-window instantaneous state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// First tick covered (inclusive).
    pub start_tick: u64,
    /// Last tick covered (exclusive).
    pub end_tick: u64,
    /// Instructions retired in this window.
    pub instructions: u64,
    /// Wall-clock microseconds elapsed in this window.
    pub dt_us: u64,
    /// Counter deltas over this window (`psel` = end-of-window value).
    pub d: TimelineProbe,
    /// Occupancy gauges at the window boundary.
    pub gauges: TimelineGauges,
}

impl Window {
    fn merged_with(&self, later: &Window) -> Window {
        Window {
            start_tick: self.start_tick,
            end_tick: later.end_tick,
            instructions: self.instructions + later.instructions,
            dt_us: self.dt_us + later.dt_us,
            d: self.d.merged_with(&later.d),
            gauges: later.gauges,
        }
    }
}

/// A finished timeline, detached from the recording machinery: label,
/// tick unit and the closed windows.
#[derive(Debug, Clone)]
pub struct TimelineData {
    /// Run label (`<scope>/<model label>` under a sweep cell).
    pub label: String,
    /// What a tick is: `"instructions"` or `"cycles"`.
    pub unit: &'static str,
    /// Closed windows, oldest first.
    pub windows: Vec<Window>,
}

impl TimelineData {
    /// Appends this timeline as JSONL (one object per window, derived
    /// rates included) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str("{\"schema_version\":");
            push_u64(out, u64::from(TIMELINE_SCHEMA_VERSION));
            out.push_str(",\"run\":");
            push_str_escaped(out, &self.label);
            out.push_str(",\"unit\":");
            push_str_escaped(out, self.unit);
            out.push_str(",\"window\":");
            push_u64(out, i as u64);
            for (key, v) in [
                ("start", w.start_tick),
                ("end", w.end_tick),
                ("instructions", w.instructions),
                ("dt_us", w.dt_us),
                ("accesses", w.d.accesses),
                ("hits", w.d.hits),
                ("misses", w.d.misses),
                ("shadow_a_misses", w.d.shadow_a_misses),
                ("shadow_b_misses", w.d.shadow_b_misses),
                ("shadow_a_hits", w.d.shadow_a_hits),
                ("shadow_b_hits", w.d.shadow_b_hits),
                ("excl_a_misses", w.d.excl_a_misses),
                ("excl_b_misses", w.d.excl_b_misses),
                ("imitations_a", w.d.imitations_a),
                ("imitations_b", w.d.imitations_b),
                ("aliasing_fallbacks", w.d.aliasing_fallbacks),
                ("leader_votes", w.d.leader_votes),
                ("sb_busy", u64::from(w.gauges.sb_busy)),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                push_u64(out, v);
            }
            out.push_str(",\"psel\":");
            match w.d.psel {
                Some(p) => push_u64(out, u64::from(p)),
                None => out.push_str("null"),
            }
            let ratio = |num: u64, den: u64| {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            };
            out.push_str(",\"mpki\":");
            out.push_str(&number(1000.0 * ratio(w.d.misses, w.instructions)));
            out.push_str(",\"miss_ratio\":");
            out.push_str(&number(ratio(w.d.misses, w.d.accesses)));
            out.push_str(",\"imit_frac_b\":");
            out.push_str(&number(ratio(
                w.d.imitations_b,
                w.d.imitations_a + w.d.imitations_b,
            )));
            out.push_str(",\"ticks_per_sec\":");
            out.push_str(&number(
                1e6 * ratio(w.end_tick.saturating_sub(w.start_tick), w.dt_us),
            ));
            // Windowed hindsight regret vs. the better shadow component;
            // negative when the adaptive mix beat both fixed policies.
            let best_shadow = w.d.shadow_a_hits.max(w.d.shadow_b_hits);
            out.push_str(",\"regret_best\":");
            push_i64(out, best_shadow as i64 - w.d.hits as i64);
            out.push_str("}\n");
        }
    }
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

fn push_u64(out: &mut String, v: u64) {
    // Avoids the formatting machinery; still allocates only into `out`.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Digits are ASCII by construction.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or("0"));
}

/// A live windowed recorder. Construct with [`Timeline::from_hub`] at
/// the top of a run loop, call [`Timeline::due`] (one compare) per
/// iteration and [`Timeline::record`] at window boundaries, then
/// [`Timeline::finish`] once at the end.
#[derive(Debug)]
pub struct Timeline {
    label: String,
    unit: &'static str,
    window_len: u64,
    next_boundary: u64,
    capacity: usize,
    windows: Vec<Window>,
    last_probe: TimelineProbe,
    last_tick: u64,
    last_instructions: u64,
    last_t_us: u64,
}

impl Timeline {
    /// A standalone timeline (tests, local aggregation). `window` is
    /// clamped to ≥ 1, `capacity` to ≥ 2 (coarsening needs a pair).
    pub fn new(label: String, unit: &'static str, window: u64, capacity: usize) -> Timeline {
        let capacity = capacity.max(2);
        Timeline {
            label,
            unit,
            window_len: window.max(1),
            next_boundary: window.max(1),
            capacity,
            windows: Vec::with_capacity(capacity),
            last_probe: TimelineProbe::default(),
            last_tick: 0,
            last_instructions: 0,
            last_t_us: crate::now_us(),
        }
    }

    /// A timeline wired to the global hub's configuration, or `None`
    /// when no hub is installed or the hub has timelines disabled
    /// (`timeline_window == 0`). The label closure runs only on the
    /// `Some` path; the `None` path performs no allocation. The label
    /// is prefixed with the current [`run_scope`], when one is set.
    pub fn from_hub(unit: &'static str, label: impl FnOnce() -> String) -> Option<Timeline> {
        let hub = crate::hub()?;
        let window = hub.config().timeline_window;
        if window == 0 {
            return None;
        }
        let base = label();
        let label = current_run_scope(|scope| match scope {
            Some(scope) => format!("{scope}/{base}"),
            None => base.clone(),
        });
        Some(Timeline::new(
            label,
            unit,
            window,
            DEFAULT_TIMELINE_CAPACITY,
        ))
    }

    /// Whether `tick` has crossed the next window boundary. One compare;
    /// call this per iteration and [`Timeline::record`] only when true.
    #[inline]
    pub fn due(&self, tick: u64) -> bool {
        tick >= self.next_boundary
    }

    /// The tick at which the next window closes: the first tick for
    /// which [`Timeline::due`] holds.
    #[inline]
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Closes the window ending at `tick`. `probe` carries the model's
    /// cumulative counters, `instructions` the cumulative retired
    /// instruction count, `gauges` instantaneous occupancy. Never
    /// allocates: the ring is preallocated and coarsens in place.
    pub fn record(
        &mut self,
        tick: u64,
        instructions: u64,
        probe: TimelineProbe,
        gauges: TimelineGauges,
    ) {
        let now_us = crate::now_us();
        if self.windows.len() == self.capacity {
            self.coarsen();
        }
        self.windows.push(Window {
            start_tick: self.last_tick,
            end_tick: tick,
            instructions: instructions.saturating_sub(self.last_instructions),
            dt_us: now_us.saturating_sub(self.last_t_us),
            d: probe.delta_from(&self.last_probe),
            gauges,
        });
        self.last_tick = tick;
        self.last_instructions = instructions;
        self.last_probe = probe;
        self.last_t_us = now_us;
        while self.next_boundary <= tick {
            self.next_boundary += self.window_len;
        }
    }

    /// Merges adjacent window pairs in place and doubles the window
    /// length; an odd trailing window stays as-is. Allocation-free.
    fn coarsen(&mut self) {
        let n = self.windows.len();
        let pairs = n / 2;
        for i in 0..pairs {
            self.windows[i] = self.windows[2 * i].merged_with(&self.windows[2 * i + 1]);
        }
        if n % 2 == 1 {
            self.windows[pairs] = self.windows[n - 1];
        }
        self.windows.truncate(pairs + n % 2);
        self.window_len = self.window_len.saturating_mul(2);
    }

    /// Closes the final (possibly partial) window at `tick`. Idempotent
    /// when nothing advanced since the last boundary.
    pub fn close(
        &mut self,
        tick: u64,
        instructions: u64,
        probe: TimelineProbe,
        gauges: TimelineGauges,
    ) {
        if tick > self.last_tick || self.windows.is_empty() {
            self.record(tick, instructions, probe, gauges);
        }
    }

    /// Closes the final window and attaches the timeline to the global
    /// hub (no-op when none is installed) for `timeline.jsonl` export.
    pub fn finish(
        mut self,
        tick: u64,
        instructions: u64,
        probe: TimelineProbe,
        gauges: TimelineGauges,
    ) {
        self.close(tick, instructions, probe, gauges);
        if let Some(hub) = crate::hub() {
            hub.attach_timeline(self.into_data());
        }
    }

    /// The closed windows recorded so far, oldest first.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Current window length in ticks (doubles on each coarsening).
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Detaches the recorded data.
    #[must_use]
    pub fn into_data(self) -> TimelineData {
        TimelineData {
            label: self.label,
            unit: self.unit,
            windows: self.windows,
        }
    }
}

thread_local! {
    static RUN_SCOPE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Labels every [`Timeline::from_hub`] timeline created on this thread
/// with `scope` (sweep cell key, figure name) until the returned guard
/// drops. No-op — and allocation-free — while telemetry is disabled.
pub fn run_scope(scope: &str) -> RunScopeGuard {
    if !crate::enabled() {
        return RunScopeGuard {
            prev: None,
            armed: false,
        };
    }
    let prev = RUN_SCOPE.with(|s| s.replace(Some(scope.to_string())));
    RunScopeGuard { prev, armed: true }
}

fn current_run_scope<T>(f: impl FnOnce(Option<&str>) -> T) -> T {
    RUN_SCOPE.with(|s| f(s.borrow().as_deref()))
}

/// Restores the previous run scope on drop. See [`run_scope`].
#[derive(Debug)]
pub struct RunScopeGuard {
    prev: Option<String>,
    armed: bool,
}

impl Drop for RunScopeGuard {
    fn drop(&mut self) {
        if self.armed {
            RUN_SCOPE.with(|s| *s.borrow_mut() = self.prev.take());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(accesses: u64, misses: u64, imit_a: u64, imit_b: u64) -> TimelineProbe {
        TimelineProbe {
            accesses,
            hits: accesses - misses,
            misses,
            imitations_a: imit_a,
            imitations_b: imit_b,
            ..TimelineProbe::default()
        }
    }

    #[test]
    fn windows_delta_encode_cumulative_probes() {
        let mut tl = Timeline::new("t".into(), "accesses", 100, 16);
        tl.record(100, 50, probe(100, 10, 4, 0), TimelineGauges::default());
        tl.record(200, 110, probe(200, 40, 4, 9), TimelineGauges::default());
        let w = tl.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].start_tick, w[0].end_tick), (0, 100));
        assert_eq!(w[0].d.misses, 10);
        assert_eq!(w[1].d.misses, 30, "second window is a delta");
        assert_eq!(w[1].d.imitations_b, 9);
        assert_eq!(w[1].instructions, 60);
    }

    #[test]
    fn due_fires_once_per_window() {
        let tl = Timeline::new("t".into(), "accesses", 100, 16);
        assert!(!tl.due(99));
        assert!(tl.due(100));
        let mut tl = tl;
        tl.record(100, 0, probe(100, 0, 0, 0), TimelineGauges::default());
        assert!(!tl.due(150));
        assert!(tl.due(200));
        assert_eq!(tl.next_boundary(), 200);
    }

    #[test]
    fn coarsening_preserves_totals_and_coverage() {
        let mut tl = Timeline::new("t".into(), "accesses", 10, 4);
        for i in 1..=32u64 {
            tl.record(
                i * 10,
                i * 5,
                probe(i * 10, i, i / 2, i - i / 2),
                TimelineGauges::default(),
            );
        }
        let w = tl.windows();
        assert!(w.len() <= 4, "ring stays bounded: {}", w.len());
        assert_eq!(w[0].start_tick, 0, "coverage starts at the beginning");
        assert_eq!(w[w.len() - 1].end_tick, 320, "coverage reaches the end");
        let misses: u64 = w.iter().map(|w| w.d.misses).sum();
        assert_eq!(misses, 32, "coarsening loses no counts");
        let insts: u64 = w.iter().map(|w| w.instructions).sum();
        assert_eq!(insts, 160);
        assert!(tl.window_len() > 10, "window length doubled");
    }

    #[test]
    fn close_is_idempotent_at_boundary() {
        let mut tl = Timeline::new("t".into(), "accesses", 10, 8);
        tl.record(10, 0, probe(10, 1, 0, 0), TimelineGauges::default());
        tl.close(10, 0, probe(10, 1, 0, 0), TimelineGauges::default());
        assert_eq!(tl.windows().len(), 1, "no empty trailing window");
        let mut tl2 = Timeline::new("t".into(), "accesses", 100, 8);
        tl2.close(7, 3, probe(7, 2, 0, 0), TimelineGauges::default());
        assert_eq!(tl2.windows().len(), 1, "short runs still get one window");
        assert_eq!(tl2.windows()[0].d.misses, 2);
    }

    #[test]
    fn jsonl_lines_carry_schema_and_derived_rates() {
        let mut tl = Timeline::new("lab\"el".into(), "accesses", 100, 8);
        tl.record(100, 1000, probe(100, 25, 1, 3), TimelineGauges::default());
        let mut out = String::new();
        tl.into_data().write_jsonl(&mut out);
        assert_eq!(out.lines().count(), 1);
        let line = out.lines().next().unwrap();
        assert!(line.starts_with("{\"schema_version\":3,"), "{line}");
        assert!(
            line.contains("\"run\":\"lab\\\"el\""),
            "label escaped: {line}"
        );
        assert!(line.contains("\"mpki\":25"), "25 misses / 1k insts: {line}");
        assert!(line.contains("\"imit_frac_b\":0.75"), "{line}");
        assert!(line.contains("\"psel\":null"), "{line}");
        // No shadow hits in this probe, so regret is -(hits) = -75.
        assert!(line.contains("\"regret_best\":-75"), "{line}");
    }

    #[test]
    fn regret_tracks_better_shadow_and_coarsens_conservatively() {
        let mut tl = Timeline::new("t".into(), "accesses", 10, 2);
        let mut cum = TimelineProbe::default();
        for i in 1..=8u64 {
            cum.accesses = i * 10;
            cum.hits = i * 4;
            cum.misses = cum.accesses - cum.hits;
            cum.shadow_a_hits = i * 3;
            cum.shadow_b_hits = i * 6;
            tl.record(i * 10, i * 10, cum, TimelineGauges::default());
        }
        let w = tl.windows();
        let sa: u64 = w.iter().map(|w| w.d.shadow_a_hits).sum();
        let sb: u64 = w.iter().map(|w| w.d.shadow_b_hits).sum();
        assert_eq!((sa, sb), (24, 48), "shadow hits survive coarsening");
        let mut out = String::new();
        tl.into_data().write_jsonl(&mut out);
        for line in out.lines() {
            assert!(line.contains("\"shadow_a_hits\":"), "{line}");
            assert!(line.contains("\"shadow_b_hits\":"), "{line}");
            assert!(line.contains("\"regret_best\":"), "{line}");
        }
    }

    #[test]
    fn run_scope_disabled_is_inert() {
        // Telemetry is not installed in unit tests, so the guard must
        // not touch the thread-local.
        let g = run_scope("cell-1");
        current_run_scope(|s| assert!(s.is_none()));
        drop(g);
    }
}
