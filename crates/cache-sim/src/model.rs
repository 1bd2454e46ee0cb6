//! The [`CacheModel`] trait: the boundary between a memory hierarchy and a
//! cache organisation.

use crate::addr::BlockAddr;
use crate::cache::AccessOutcome;
use crate::geometry::Geometry;
use crate::stats::CacheStats;
use std::fmt;

/// Switch-lag summary of an adaptive organisation: how many times the
/// better-performing component flipped (judged over fixed internal
/// windows of shadow-hit deltas) and how long imitation took to follow.
/// Lags are measured in those internal windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchLagStats {
    /// Accesses per internal comparison window.
    pub window_accesses: u64,
    /// Times the windowed shadow-hit winner changed component.
    pub winner_flips: u64,
    /// Flips that the imitation majority subsequently followed.
    pub followed: u64,
    /// Sum of follow lags (windows) over all followed flips.
    pub total_lag_windows: u64,
    /// Largest single follow lag (windows).
    pub max_lag_windows: u64,
}

impl SwitchLagStats {
    /// Mean follow lag in windows (`None` until a flip was followed).
    pub fn mean_lag_windows(&self) -> Option<f64> {
        (self.followed > 0).then(|| self.total_lag_windows as f64 / self.followed as f64)
    }
}

/// Per-set audit counters of a cache organisation: achieved hits per
/// set, plus — for adaptive organisations — each shadow directory's
/// hypothetical hits per set and the switch-lag summary. The regret
/// accounting of `cachesim audit` is computed from these.
#[derive(Debug, Clone, Default)]
pub struct AuditCounts {
    /// Achieved (real directory) hits per set.
    pub set_hits: Vec<u64>,
    /// Shadow-A hypothetical hits per set (empty when the organisation
    /// keeps no shadow directories, or they cover no sets).
    pub set_shadow_a_hits: Vec<u64>,
    /// Shadow-B hypothetical hits per set (empty like the above).
    pub set_shadow_b_hits: Vec<u64>,
    /// Total shadow-A `(hits, misses)`.
    pub shadow_a: (u64, u64),
    /// Total shadow-B `(hits, misses)`.
    pub shadow_b: (u64, u64),
    /// Switch-lag attribution summary.
    pub switch: SwitchLagStats,
}

/// A cache organisation as seen by a memory hierarchy.
///
/// The paper's point is that replacement is a *policy* choice orthogonal to
/// the cache's architectural interface; this trait captures that interface.
/// The plain [`crate::Cache`] implements it, and so do the adaptive, SBAR
/// and multi-policy organisations from the `adaptive-cache` crate. The
/// CPU model is generic over it: the timing pipeline drives its L2
/// through a `Box<dyn CacheModel>`, while a replayed functional cell
/// runs on the organisation's concrete type, without dynamic dispatch.
pub trait CacheModel: fmt::Debug + Send {
    /// Performs one demand access to `block` (write if `write`), updating
    /// replacement state and reporting any eviction.
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome;

    /// Hints that `block` will be accessed shortly: the organisation may
    /// issue hardware read prefetches for the *simulator's own* lookup
    /// state (directory records, replacement metadata) so the upcoming
    /// [`CacheModel::access`] finds it resident. Purely a host-side
    /// performance hint — it must not change any simulated state, and the
    /// default is a no-op. Trace-driven loops call it one or more
    /// references ahead of the access.
    fn prefetch_hint(&self, block: BlockAddr) {
        let _ = block;
    }

    /// Aggregate statistics so far.
    fn stats(&self) -> &CacheStats;

    /// The cache's geometry.
    fn geometry(&self) -> &Geometry;

    /// A human-readable label for reports (e.g. `"LRU (512KB, 8-way)"`).
    fn label(&self) -> String;

    /// Flushes this cache's aggregate statistics to the installed
    /// telemetry recorder, dimensioned by [`CacheModel::label`]. A no-op
    /// (no allocation) when telemetry is disabled; counters are
    /// cumulative, so call once per finished run.
    fn flush_telemetry(&self) {
        if ac_telemetry::enabled() {
            self.stats().flush_telemetry(&self.label());
        }
    }

    /// Cumulative counters for windowed time-series recording
    /// (`ac_telemetry::timeline`). The default covers the plain
    /// hit/miss statistics; adaptive organisations override it to add
    /// shadow/exclusive-miss, imitation and selector state. Must be
    /// cheap and allocation-free: the drivers call it at every window
    /// boundary.
    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        let s = self.stats();
        ac_telemetry::TimelineProbe {
            accesses: s.accesses,
            hits: s.hits,
            misses: s.misses,
            ..ac_telemetry::TimelineProbe::default()
        }
    }

    /// Per-set audit counters for the adaptivity-audit layer, when the
    /// organisation tracks them. Unlike [`CacheModel::timeline_probe`]
    /// this allocates (it clones per-set vectors) and is called once per
    /// audit, not per window. `None` (the default) means the
    /// organisation keeps no per-set accounting.
    fn audit_counts(&self) -> Option<AuditCounts> {
        None
    }
}

impl<T: CacheModel + ?Sized> CacheModel for &mut T {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        (**self).access(block, write)
    }
    fn prefetch_hint(&self, block: BlockAddr) {
        (**self).prefetch_hint(block)
    }
    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }
    fn geometry(&self) -> &Geometry {
        (**self).geometry()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn flush_telemetry(&self) {
        (**self).flush_telemetry()
    }
    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        (**self).timeline_probe()
    }
    fn audit_counts(&self) -> Option<AuditCounts> {
        (**self).audit_counts()
    }
}

impl<T: CacheModel + ?Sized> CacheModel for Box<T> {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        (**self).access(block, write)
    }
    fn prefetch_hint(&self, block: BlockAddr) {
        (**self).prefetch_hint(block)
    }
    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }
    fn geometry(&self) -> &Geometry {
        (**self).geometry()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn flush_telemetry(&self) {
        (**self).flush_telemetry()
    }
    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        (**self).timeline_probe()
    }
    fn audit_counts(&self) -> Option<AuditCounts> {
        (**self).audit_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Cache, PolicyKind};

    #[test]
    fn cache_is_object_safe() {
        let geom = Geometry::new(4096, 64, 4).unwrap();
        let mut boxed: Box<dyn CacheModel> = Box::new(Cache::new(geom, PolicyKind::Lru, 0));
        let b = geom.block_of(Address::new(0x40));
        assert!(!boxed.access(b, false).hit);
        assert!(boxed.access(b, false).hit);
        assert_eq!(boxed.stats().accesses, 2);
        assert!(boxed.label().contains("LRU"));
    }
}
