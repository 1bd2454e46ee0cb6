//! The seed implementation's tag structures, kept as the reference the
//! differential suites compare the optimised ones against:
//! `cache-sim`'s `differential.rs` (packed [`cache_sim::Directory`] and
//! [`cache_sim::TagArray`]) and `adaptive-cache`'s
//! `differential_adaptive.rs` (the fused adaptive cache, whose shadow
//! arrays and real directory are built from these). Both include this
//! file through `#[path]`, so a change here reaches both suites.

// Each suite uses a different subset of the helpers.
#![allow(dead_code)]

use cache_sim::{
    BlockAddr, Geometry, MetaTable, ReplacementPolicy, StoredTag, TagAccess, TagMode, TagStats, Way,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The seed implementation's directory: one padded struct per way,
/// set-major, with early-exit linear scans.
#[derive(Clone)]
pub struct RefDirectory {
    pub geom: Geometry,
    tag_mode: TagMode,
    ways: Vec<Way>, // set-major: index = set * assoc + way
}

impl RefDirectory {
    pub fn new(geom: Geometry, tag_mode: TagMode) -> Self {
        RefDirectory {
            geom,
            tag_mode,
            ways: vec![Way::default(); geom.num_sets() * geom.associativity()],
        }
    }

    pub fn locate(&self, block: BlockAddr) -> (usize, StoredTag) {
        (
            self.geom.set_index(block),
            self.tag_mode.store(self.geom.tag(block)),
        )
    }

    pub fn set_ways(&self, set: usize) -> &[Way] {
        let b = set * self.geom.associativity();
        &self.ways[b..b + self.geom.associativity()]
    }

    pub fn find(&self, set: usize, stored: StoredTag) -> Option<usize> {
        self.set_ways(set)
            .iter()
            .position(|w| w.valid && w.tag == stored)
    }

    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        self.set_ways(set).iter().position(|w| !w.valid)
    }

    pub fn fill_at(&mut self, set: usize, way: usize, stored: StoredTag) -> Option<Way> {
        let idx = set * self.geom.associativity() + way;
        let old = self.ways[idx];
        self.ways[idx] = Way {
            valid: true,
            tag: stored,
            dirty: false,
        };
        old.valid.then_some(old)
    }

    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        self.ways[set * self.geom.associativity() + way].dirty = true;
    }

    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<Way> {
        let idx = set * self.geom.associativity() + way;
        let old = self.ways[idx];
        self.ways[idx] = Way::default();
        old.valid.then_some(old)
    }

    pub fn valid_count(&self, set: usize) -> usize {
        self.set_ways(set).iter().filter(|w| w.valid).count()
    }
}

/// The seed implementation's tag array: [`RefDirectory`] driven with the
/// original `find` → `invalid_way` → `victim` access sequence, with the
/// same policy metadata and RNG discipline as the optimised one.
pub struct RefTagArray<P: ReplacementPolicy> {
    dir: RefDirectory,
    meta: MetaTable<P>,
    rng: SmallRng,
    pub stats: TagStats,
}

impl<P: ReplacementPolicy> RefTagArray<P> {
    pub fn new(geom: Geometry, tag_mode: TagMode, policy: P, seed: u64) -> Self {
        RefTagArray {
            dir: RefDirectory::new(geom, tag_mode),
            meta: MetaTable::new(policy, geom.num_sets(), geom.associativity()),
            rng: SmallRng::seed_from_u64(seed),
            stats: TagStats::default(),
        }
    }

    pub fn access(&mut self, block: BlockAddr) -> TagAccess {
        let (set, stored) = self.dir.locate(block);
        if let Some(way) = self.dir.find(set, stored) {
            self.stats.hits += 1;
            self.meta.on_hit(set, way);
            return TagAccess {
                hit: true,
                way,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let way = match self.dir.invalid_way(set) {
            Some(w) => w,
            None => self.meta.victim(set, &mut self.rng),
        };
        let evicted = self.dir.fill_at(set, way, stored);
        self.meta.on_fill(set, way);
        TagAccess {
            hit: false,
            way,
            evicted,
        }
    }

    pub fn contains(&self, set: usize, stored: StoredTag) -> bool {
        self.dir.find(set, stored).is_some()
    }
}
