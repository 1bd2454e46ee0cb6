//! Deterministic fault injection, so the resilience layer's degradation
//! paths are tested rather than assumed.
//!
//! [`FaultyCache`] wraps any [`CacheModel`] and injects panics, stalls
//! and bit-flipped tags at exact access counts — reachable from run
//! configs via [`crate::L2Kind::Faulty`], so a sweep cell can be made
//! hostile from pure JSON.
//!
//! Everything is a pure function of the spec and the access count:
//! rerunning a faulty configuration reproduces the identical failure.

use cache_sim::{AccessOutcome, BlockAddr, CacheModel, CacheStats, Geometry};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Deterministic fault plan for a [`FaultyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultSpec {
    /// Panic on exactly this (1-based) access.
    pub panic_at_access: Option<u64>,
    /// Sleep for [`FaultSpec::stall_millis`] on exactly this access.
    pub stall_at_access: Option<u64>,
    /// Stall duration in milliseconds (used with `stall_at_access`).
    pub stall_millis: u64,
    /// XOR this mask onto the block address of afflicted accesses
    /// (models a flaky tag/address line).
    pub flip_tag_mask: u64,
    /// Apply the mask on every Nth access (`None` disables flipping).
    pub flip_tag_every: Option<u64>,
}

impl FaultSpec {
    /// A plan that panics on access `n`.
    pub fn panic_at(n: u64) -> Self {
        FaultSpec {
            panic_at_access: Some(n),
            ..Default::default()
        }
    }

    /// A plan that stalls `millis` ms on access `n`.
    pub fn stall_at(n: u64, millis: u64) -> Self {
        FaultSpec {
            stall_at_access: Some(n),
            stall_millis: millis,
            ..Default::default()
        }
    }

    /// A plan that XORs `mask` onto the block address every `every`th
    /// access.
    pub fn flip_tags(mask: u64, every: u64) -> Self {
        FaultSpec {
            flip_tag_mask: mask,
            flip_tag_every: Some(every),
            ..Default::default()
        }
    }
}

/// A [`CacheModel`] that misbehaves on schedule (see [`FaultSpec`]).
#[derive(Debug)]
pub struct FaultyCache<C: CacheModel> {
    inner: C,
    spec: FaultSpec,
    accesses: u64,
}

impl<C: CacheModel> FaultyCache<C> {
    /// Wraps `inner` with the fault plan `spec`.
    pub fn new(inner: C, spec: FaultSpec) -> Self {
        FaultyCache {
            inner,
            spec,
            accesses: 0,
        }
    }

    /// Accesses observed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl<C: CacheModel> CacheModel for FaultyCache<C> {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        self.accesses += 1;
        let n = self.accesses;
        if self.spec.panic_at_access == Some(n) {
            panic!("injected fault: cache panic at access {n}");
        }
        if self.spec.stall_at_access == Some(n) {
            std::thread::sleep(Duration::from_millis(self.spec.stall_millis));
        }
        let block = match self.spec.flip_tag_every {
            Some(k) if k > 0 && n.is_multiple_of(k) => {
                BlockAddr::new(block.raw() ^ self.spec.flip_tag_mask)
            }
            _ => block,
        };
        self.inner.access(block, write)
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }

    fn label(&self) -> String {
        format!("Faulty({})", self.inner.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Address, Cache, PolicyKind};

    fn small_cache() -> Cache {
        Cache::new(Geometry::new(4096, 64, 4).unwrap(), PolicyKind::Lru, 0)
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fires_at_exact_access() {
        let geom = *small_cache().geometry();
        let mut c = FaultyCache::new(small_cache(), FaultSpec::panic_at(3));
        let b = geom.block_of(Address::new(0x40));
        c.access(b, false);
        c.access(b, false);
        c.access(b, false); // boom
    }

    #[test]
    fn tag_flips_are_deterministic() {
        let geom = *small_cache().geometry();
        let run = || {
            let mut c = FaultyCache::new(small_cache(), FaultSpec::flip_tags(0x1, 2));
            for i in 0..100u64 {
                c.access(geom.block_of(Address::new(i * 64)), false);
            }
            c.stats().misses
        };
        assert_eq!(run(), run(), "same spec, same corruption, same stats");
        // Flipping must actually change behaviour vs. the clean cache.
        let mut clean = small_cache();
        for i in 0..100u64 {
            clean.access(geom.block_of(Address::new(i * 64)), false);
        }
        let mut faulty = FaultyCache::new(small_cache(), FaultSpec::flip_tags(0xFFFF, 2));
        for i in 0..100u64 {
            faulty.access(geom.block_of(Address::new(i * 64)), false);
        }
        assert_eq!(faulty.accesses(), 100);
        assert!(faulty.label().starts_with("Faulty("));
    }
}
