//! A conventional write-back, write-allocate data cache.

use crate::addr::BlockAddr;
use crate::geometry::Geometry;
use crate::model::CacheModel;
use crate::partial::TagMode;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::stats::CacheStats;
use crate::tag_array::TagArray;

/// A block evicted by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted block's address.
    pub block: BlockAddr,
    /// Whether the block was dirty (triggers a writeback).
    pub dirty: bool,
}

/// Result of one cache access at the hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// An eviction (and possible writeback) caused by the fill on a miss.
    pub eviction: Option<Eviction>,
}

impl AccessOutcome {
    /// An outcome with no eviction.
    pub const fn hit() -> Self {
        AccessOutcome {
            hit: true,
            eviction: None,
        }
    }

    /// A missing outcome carrying an optional eviction.
    pub const fn miss(eviction: Option<Eviction>) -> Self {
        AccessOutcome {
            hit: false,
            eviction,
        }
    }
}

/// A conventional set-associative, write-back, write-allocate cache managed
/// by a single replacement policy.
///
/// This is the baseline organisation in every one of the paper's
/// comparisons ("LRU (512KB, 8-way)" etc.) and also serves as the L1
/// instruction/data caches of the CPU model.
///
/// ```
/// use cache_sim::{Address, Cache, CacheModel, Geometry, PolicyKind};
///
/// let geom = Geometry::new(16 * 1024, 64, 4).unwrap(); // the paper's L1
/// let mut l1 = Cache::new(geom, PolicyKind::Lru, 99);
/// let block = geom.block_of(Address::new(0x80));
/// assert!(!l1.access(block, true).hit); // write miss allocates
/// assert!(l1.access(block, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache<P: ReplacementPolicy = PolicyKind> {
    tags: TagArray<P>,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Creates an empty cache with full tags.
    pub fn new(geom: Geometry, policy: P, seed: u64) -> Self {
        Cache {
            tags: TagArray::new(geom, TagMode::Full, policy, seed),
            stats: CacheStats::default(),
        }
    }

    /// The replacement policy.
    pub fn policy(&self) -> &P {
        self.tags.policy()
    }

    /// Whether the cache currently holds `block`.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.tags.contains_block(block)
    }

    /// Invalidates `block` if present, returning `true` if it was.
    pub fn invalidate_block(&mut self, block: BlockAddr) -> bool {
        self.tags.invalidate_block(block)
    }

    /// [`CacheModel::access`] with the address decomposition precomputed
    /// by `directory().locate`: `set`/`stored` must locate the accessed
    /// block.
    #[inline(always)]
    fn access_located(
        &mut self,
        set: usize,
        stored: crate::StoredTag,
        write: bool,
    ) -> AccessOutcome {
        let acc = self.tags.access_at(set, stored);
        self.stats.record(acc.hit, write);
        let eviction = self
            .stats
            .record_eviction(self.tags.geometry(), set, acc.evicted);

        if write {
            // `acc.way` is the hit way or the fill way.
            self.mark_dirty(set, acc.way);
        }

        AccessOutcome {
            hit: acc.hit,
            eviction,
        }
    }
}

impl<P: ReplacementPolicy> CacheModel for Cache<P> {
    #[inline(always)]
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        // Decompose the address exactly once; the tag array and the dirty
        // bookkeeping reuse the same (set, stored) pair.
        let (set, stored) = self.tags.directory().locate(block);
        self.access_located(set, stored, write)
    }

    fn prefetch_hint(&self, block: BlockAddr) {
        let set = self.geometry().set_index(block);
        self.tags.prefetch_set(set);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn geometry(&self) -> &Geometry {
        self.tags.geometry()
    }

    fn label(&self) -> String {
        let g = self.geometry();
        format!(
            "{} ({}KB, {}-way)",
            self.tags.policy().name(),
            g.size_bytes() / 1024,
            g.associativity()
        )
    }
}

impl<P: ReplacementPolicy> Cache<P> {
    fn mark_dirty(&mut self, set: usize, way: usize) {
        // Split out so the borrow of `tags` is clearly scoped.
        self.tags_mut_directory().mark_dirty(set, way);
    }

    fn tags_mut_directory(&mut self) -> &mut crate::tag_array::Directory {
        // TagArray exposes no general mutable directory access; Cache is a
        // friend within the crate.
        self.tags.directory_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;

    fn geom() -> Geometry {
        Geometry::new(1024, 64, 4).unwrap() // 4 sets x 4 ways
    }

    fn conflict_block(g: &Geometry, n: u64) -> BlockAddr {
        g.block_of(Address::new(n * 64 * g.num_sets() as u64))
    }

    #[test]
    fn write_allocate_and_writeback() {
        let g = geom();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        // Write-allocate: the write miss installs the block dirty.
        let b0 = conflict_block(&g, 0);
        assert!(!c.access(b0, true).hit);
        // Fill the set, then overflow it: b0 is the LRU victim and dirty.
        for n in 1..4 {
            c.access(conflict_block(&g, n), false);
        }
        let out = c.access(conflict_block(&g, 4), false);
        let ev = out.eviction.expect("set overflow must evict");
        assert_eq!(ev.block, b0);
        assert!(ev.dirty, "written block must come back dirty");
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let g = geom();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        for n in 0..5 {
            c.access(conflict_block(&g, n), false);
        }
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let g = geom();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        let b0 = conflict_block(&g, 0);
        c.access(b0, false); // clean fill
        c.access(b0, true); // write hit dirties it
        for n in 1..5 {
            c.access(conflict_block(&g, n), false);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn eviction_block_address_is_exact() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        let blocks: Vec<_> = (0..9)
            .map(|n| g.block_of(Address::new(n * 64 * g.num_sets() as u64 + 0x40)))
            .collect();
        for &b in &blocks {
            c.access(b, false);
        }
        // 9 blocks in an 8-way set: the first one got evicted.
        assert!(!c.contains_block(blocks[0]));
        for &b in &blocks[1..] {
            assert!(c.contains_block(b));
        }
    }

    #[test]
    fn stats_track_read_write_misses() {
        let g = geom();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        c.access(conflict_block(&g, 0), false);
        c.access(conflict_block(&g, 1), true);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn label_mentions_policy_and_shape() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let c = Cache::new(g, PolicyKind::LFU5, 0);
        assert_eq!(c.label(), "LFU (512KB, 8-way)");
    }

    #[test]
    fn invalidate_then_miss() {
        let g = geom();
        let mut c = Cache::new(g, PolicyKind::Lru, 0);
        let b = conflict_block(&g, 0);
        c.access(b, false);
        assert!(c.invalidate_block(b));
        assert!(!c.access(b, false).hit);
    }
}
