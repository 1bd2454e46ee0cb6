//! The [`CacheModel`] trait: the boundary between a memory hierarchy and a
//! cache organisation.

use crate::addr::BlockAddr;
use crate::cache::AccessOutcome;
use crate::geometry::Geometry;
use crate::stats::CacheStats;
use std::fmt;

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
    /// boundary, and `cachesim audit` after every access.
    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        let s = self.stats();
        ac_telemetry::TimelineProbe {
            accesses: s.accesses,
            hits: s.hits,
            misses: s.misses,
            ..ac_telemetry::TimelineProbe::default()
        }
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
