//! Striped counters: per-thread/per-shard counter cells merged into the
//! ordinary counter namespace at snapshot time.
//!
//! The hub's [`crate::Recorder::counter_add`] takes a registry mutex per
//! call — fine for the sequential simulator, hostile to a multi-threaded
//! cache front end where every worker would serialise on one lock just
//! to count operations. A [`StripedCounter`] gives each stripe (thread,
//! shard) its own cacheline-aligned `AtomicU64`; the hot path is a single
//! relaxed `fetch_add` on a cell no other thread touches, and the stripes
//! are summed only when somebody *reads* the counters (Prometheus export,
//! summary JSON) — merge-on-snapshot.
//!
//! With telemetry disabled, constructing a striped counter performs **no
//! allocation** (the handle is just `None` inside) and `add` is one
//! branch; the `noop_alloc` harness pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One stripe's cell, padded to its own pair of cachelines so stripes
/// never false-share (128 covers the adjacent-line prefetcher).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterCell(AtomicU64);

/// The live state behind an enabled striped counter. Registered with the
/// owning hub so snapshots can fold the stripes back in.
#[derive(Debug)]
pub(crate) struct StripedInner {
    pub(crate) name: &'static str,
    pub(crate) label: String,
    mask: usize,
    cells: Box<[CounterCell]>,
}

impl StripedInner {
    /// Sum of all stripes at this instant (relaxed: a snapshot racing
    /// live increments may miss in-flight deltas, never invent them).
    pub(crate) fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A monotonic counter with per-stripe cells, merged into the hub's
/// counter namespace (same `name`/`label` addressing) on every snapshot.
///
/// Cheap to clone (an `Arc` inside); clones share the same cells. A
/// counter built while telemetry is disabled is permanently inert —
/// zero allocation, `add` is one branch.
#[derive(Debug, Clone, Default)]
pub struct StripedCounter {
    inner: Option<Arc<StripedInner>>,
}

impl StripedCounter {
    /// An inert counter (what you get with telemetry disabled).
    pub fn disabled() -> StripedCounter {
        StripedCounter { inner: None }
    }

    /// Builds the live state: `stripes` is rounded up to a power of two
    /// so the stripe index can be masked instead of range-checked.
    pub(crate) fn live(name: &'static str, label: &str, stripes: usize) -> Arc<StripedInner> {
        let n = stripes.max(1).next_power_of_two();
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, CounterCell::default);
        Arc::new(StripedInner {
            name,
            label: label.to_string(),
            mask: n - 1,
            cells: cells.into_boxed_slice(),
        })
    }

    pub(crate) fn from_inner(inner: Arc<StripedInner>) -> StripedCounter {
        StripedCounter { inner: Some(inner) }
    }

    /// Whether this counter records anywhere.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to stripe `stripe` (wrapped into range, so callers
    /// can pass a raw thread/shard index). One relaxed `fetch_add` when
    /// live; one branch when disabled.
    #[inline]
    pub fn add(&self, stripe: usize, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.cells[stripe & inner.mask]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current sum across all stripes (0 when disabled).
    pub fn sum(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.sum())
    }

    /// Number of stripes (0 when disabled).
    pub fn stripes(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_is_inert() {
        let c = StripedCounter::disabled();
        c.add(3, 7);
        assert_eq!(c.sum(), 0);
        assert_eq!(c.stripes(), 0);
        assert!(!c.is_live());
    }

    #[test]
    fn stripes_round_up_to_power_of_two_and_mask() {
        let c = StripedCounter::from_inner(StripedCounter::live("t_total", "x", 3));
        assert_eq!(c.stripes(), 4);
        c.add(0, 1);
        c.add(5, 2); // 5 & 3 == 1
        c.add(4, 4); // 4 & 3 == 0 — same cell as stripe 0
        assert_eq!(c.sum(), 7);
    }

    #[test]
    fn clones_share_cells() {
        let a = StripedCounter::from_inner(StripedCounter::live("t_total", "", 2));
        let b = a.clone();
        a.add(0, 1);
        b.add(1, 2);
        assert_eq!(a.sum(), 3);
        assert_eq!(b.sum(), 3);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let c = StripedCounter::from_inner(StripedCounter::live("t_total", "", 4));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.add(t, 1);
                    }
                });
            }
        });
        assert_eq!(c.sum(), 40_000);
    }

    #[test]
    fn cells_do_not_false_share() {
        assert_eq!(std::mem::align_of::<CounterCell>(), 128);
        assert!(std::mem::size_of::<CounterCell>() >= 128);
    }
}
