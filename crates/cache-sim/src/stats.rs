//! Cache statistics.

use crate::cache::Eviction;
use crate::geometry::Geometry;
use crate::tag_array::Way;
use serde::{Deserialize, Serialize};

/// Counters kept by every cache organisation ([`crate::Cache`], the
/// adaptive variants, ...).
///
/// The paper's figures are expressed in **MPKI** (misses per thousand
/// instructions); since only the driver knows the instruction count,
/// [`CacheStats::mpki`] takes it as a parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses caused by reads.
    pub read_misses: u64,
    /// Misses caused by writes.
    pub write_misses: u64,
    /// Valid blocks replaced.
    pub evictions: u64,
    /// Dirty blocks written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Records an access outcome in the counters. Public so that external
    /// [`crate::CacheModel`] implementations (the adaptive organisations)
    /// can share the bookkeeping.
    #[inline]
    pub fn record(&mut self, hit: bool, write: bool) {
        // Branch on `hit` rather than computing conditional increments:
        // callers reach this right after branching on the same hit/miss
        // outcome, so the branch here is perfectly correlated (near-free),
        // while the branchless form compiled to a vector read-modify-write
        // of the whole counter block — a loop-carried dependency chain.
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if write {
                self.write_misses += 1;
            } else {
                self.read_misses += 1;
            }
        }
    }

    /// Counts the eviction of `old` from `set` (and its writeback when
    /// dirty) and reports the evicted block. Full-tag directories only:
    /// a real cache's block address is exactly recoverable from
    /// `(tag, set)`. Every organisation reports its evictions here.
    #[inline]
    pub fn record_eviction(
        &mut self,
        geom: &Geometry,
        set: usize,
        old: Option<Way>,
    ) -> Option<Eviction> {
        old.map(|old| {
            self.evictions += 1;
            if old.dirty {
                self.writebacks += 1;
            }
            Eviction {
                block: geom.block_from_parts(old.tag.raw(), set),
                dirty: old.dirty,
            }
        })
    }

    /// Accumulates `other` into `self`, so sharded or parallel sweeps can
    /// aggregate per-worker statistics without hand-rolled field addition.
    ///
    /// ```
    /// use cache_sim::CacheStats;
    /// let mut total = CacheStats { accesses: 10, misses: 4, ..Default::default() };
    /// let shard = CacheStats { accesses: 5, misses: 1, ..Default::default() };
    /// total.merge(&shard);
    /// assert_eq!(total.accesses, 15);
    /// assert_eq!(total.misses, 5);
    /// ```
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }

    /// Flushes these statistics to the installed telemetry recorder as
    /// counters dimensioned by `label` (a no-op when telemetry is
    /// disabled). Counters are cumulative — call once per finished run,
    /// not per access.
    pub fn flush_telemetry(&self, label: &str) {
        if let Some(r) = ac_telemetry::recorder() {
            r.counter_add("cache_accesses_total", label, self.accesses);
            r.counter_add("cache_hits_total", label, self.hits);
            r.counter_add("cache_misses_total", label, self.misses);
            r.counter_add("cache_read_misses_total", label, self.read_misses);
            r.counter_add("cache_write_misses_total", label, self.write_misses);
            r.counter_add("cache_evictions_total", label, self.evictions);
            r.counter_add("cache_writebacks_total", label, self.writebacks);
        }
    }

    /// Miss ratio in `[0, 1]`; 0 when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; 0 when there were no accesses.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses per thousand instructions.
    ///
    /// ```
    /// use cache_sim::CacheStats;
    /// let s = CacheStats { misses: 500, ..Default::default() };
    /// assert_eq!(s.mpki(100_000), 5.0);
    /// ```
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_misses() {
        let mut s = CacheStats::default();
        s.record(false, false);
        s.record(false, true);
        s.record(true, false);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_misses, 1);
    }

    #[test]
    fn ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
        for _ in 0..3 {
            s.record(true, false);
        }
        s.record(false, false);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 6,
            misses: 4,
            read_misses: 3,
            write_misses: 1,
            evictions: 2,
            writebacks: 1,
        };
        let b = CacheStats {
            accesses: 7,
            hits: 2,
            misses: 5,
            read_misses: 4,
            write_misses: 1,
            evictions: 5,
            writebacks: 3,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                accesses: 17,
                hits: 8,
                misses: 9,
                read_misses: 7,
                write_misses: 2,
                evictions: 7,
                writebacks: 4,
            }
        );
    }

    #[test]
    fn merge_identity_is_default() {
        let mut s = CacheStats {
            accesses: 3,
            hits: 1,
            misses: 2,
            ..Default::default()
        };
        let before = s;
        s.merge(&CacheStats::default());
        assert_eq!(s, before);
    }

    #[test]
    fn mpki_handles_zero_instructions() {
        let s = CacheStats {
            misses: 10,
            ..Default::default()
        };
        assert_eq!(s.mpki(0), 0.0);
        assert_eq!(s.mpki(1000), 10.0);
    }
}
