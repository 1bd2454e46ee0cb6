//! Generalised N-policy adaptivity (paper Section 4.4).
//!
//! The paper evaluates a five-policy configuration (LRU, LFU, FIFO, MRU,
//! Random) — "perhaps not a realistic configuration due to its high
//! implementation overhead for five sets of extra parallel tag arrays",
//! but interesting for the achievable benefit. The generalisation is
//! straightforward: one shadow tag array per component policy, a per-set
//! window of recent exclusive misses, and Algorithm 1 run against the
//! winning component.

use crate::engine::{algorithm1, install};
use cache_sim::{
    AccessOutcome, BlockAddr, CacheModel, CacheStats, Directory, Geometry, PolicyKind,
    ReplacementPolicy, TagArray, TagMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration for a [`MultiAdaptiveCache`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiConfig {
    /// The component policies (2 or more). Ties in the history favour the
    /// earliest-listed policy.
    pub policies: Vec<PolicyKind>,
    /// Shadow tag mode (shared by all shadow arrays).
    pub shadow_tags: TagMode,
    /// Per-set history window: number of recent *informative* references
    /// (those where the components disagreed) to remember.
    pub window: usize,
}

impl MultiConfig {
    /// The paper's five-policy experiment: LRU, LFU, FIFO, MRU and Random
    /// with full shadow tags and a window of 4x the typical associativity.
    pub fn paper_five_policy() -> Self {
        Self::with_policies(PolicyKind::all().to_vec())
    }

    /// A custom policy set with full tags and a window of 32.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two policies are given.
    pub fn with_policies(policies: Vec<PolicyKind>) -> Self {
        assert!(
            policies.len() >= 2,
            "multi-policy adaptivity needs at least two policies, got {}",
            policies.len()
        );
        MultiConfig {
            policies,
            shadow_tags: TagMode::Full,
            window: 32,
        }
    }
}

/// Per-set sliding windows of which policies missed on recent
/// informative references, with each policy's miss count over each
/// window kept up to date, so picking a winner never rescans a window.
#[derive(Debug, Clone)]
struct WindowHistory {
    policies: usize,
    window: usize,
    /// Each set's ring of miss bitmasks (bit `i` set = policy `i`
    /// missed), `window` entries per set; slots not yet written hold 0.
    rings: Vec<u32>,
    /// Each set's next ring slot to overwrite.
    heads: Vec<usize>,
    /// Each set's misses per policy over its window, `policies` entries
    /// per set.
    counts: Vec<u32>,
}

impl WindowHistory {
    fn new(sets: usize, window: usize, policies: usize) -> Self {
        let window = window.max(1);
        WindowHistory {
            policies,
            window,
            rings: vec![0; sets * window],
            heads: vec![0; sets],
            counts: vec![0; sets * policies],
        }
    }

    /// Records a reference outcome in `set`. Only informative outcomes
    /// (not all hit, not all missed) are stored.
    fn record(&mut self, set: usize, miss_mask: u32, all_mask: u32) {
        if miss_mask == 0 || miss_mask == all_mask {
            return;
        }
        let head = self.heads[set];
        let old = std::mem::replace(&mut self.rings[set * self.window + head], miss_mask);
        self.heads[set] = if head + 1 == self.window { 0 } else { head + 1 };
        let counts = &mut self.counts[set * self.policies..][..self.policies];
        for (p, c) in counts.iter_mut().enumerate() {
            *c = *c + ((miss_mask >> p) & 1) - ((old >> p) & 1);
        }
    }

    /// The policy with the fewest misses in `set`'s window (ties to the
    /// lowest index).
    fn winner(&self, set: usize) -> usize {
        let counts = &self.counts[set * self.policies..][..self.policies];
        let mut best = 0;
        for (p, &c) in counts.iter().enumerate() {
            if c < counts[best] {
                best = p;
            }
        }
        best
    }
}

/// An adaptive cache over an arbitrary number of component policies.
///
/// ```
/// use adaptive_cache::{MultiAdaptiveCache, MultiConfig};
/// use cache_sim::{BlockAddr, CacheModel, Geometry};
///
/// let geom = Geometry::new(8192, 64, 4).unwrap();
/// let mut cache = MultiAdaptiveCache::new(geom, MultiConfig::paper_five_policy(), 11);
/// for i in 0..10_000u64 {
///     cache.access(BlockAddr::new(i % 300), false);
/// }
/// assert!(cache.stats().hits > 0);
/// ```
pub struct MultiAdaptiveCache {
    config: MultiConfig,
    real: Directory,
    shadows: Vec<TagArray<PolicyKind>>,
    history: WindowHistory,
    imitations: Vec<u64>,
    rng: SmallRng,
    stats: CacheStats,
    aliasing_fallbacks: u64,
    /// Reused per-access scratch for the shadow access results (one slot
    /// per component policy), so the hot path never allocates or zeroes a
    /// fixed worst-case buffer.
    scratch: Vec<cache_sim::TagAccess>,
}

impl MultiAdaptiveCache {
    /// Creates an empty multi-policy adaptive cache.
    pub fn new(geom: Geometry, config: MultiConfig, seed: u64) -> Self {
        assert!(
            config.policies.len() >= 2,
            "multi-policy adaptivity needs at least two policies"
        );
        assert!(
            config.policies.len() <= 32,
            "at most 32 component policies supported"
        );
        let shadows = config
            .policies
            .iter()
            .enumerate()
            .map(|(i, &p)| TagArray::new(geom, config.shadow_tags, p, seed ^ (i as u64 + 1)))
            .collect();
        MultiAdaptiveCache {
            scratch: vec![cache_sim::TagAccess::default(); config.policies.len()],
            imitations: vec![0; config.policies.len()],
            history: WindowHistory::new(geom.num_sets(), config.window, config.policies.len()),
            shadows,
            real: Directory::new(geom, TagMode::Full),
            rng: SmallRng::seed_from_u64(seed),
            stats: CacheStats::default(),
            aliasing_fallbacks: 0,
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &MultiConfig {
        &self.config
    }

    /// How many replacement decisions imitated each component policy.
    pub fn imitation_counts(&self) -> &[u64] {
        &self.imitations
    }

    /// Misses each pure component policy would have suffered on this
    /// stream (from its shadow array).
    pub fn shadow_misses(&self) -> Vec<u64> {
        self.shadows.iter().map(|s| s.stats().misses).collect()
    }

    /// Number of aliasing-forced arbitrary evictions (0 with full tags).
    pub fn aliasing_fallbacks(&self) -> u64 {
        self.aliasing_fallbacks
    }
}

impl CacheModel for MultiAdaptiveCache {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        let (set, stored) = self.real.locate(block);
        // Probe the real directory up front (shadow updates never touch
        // it) so the hit lookup below is already answered.
        let real_mask = self.real.match_mask(set, stored);

        // All shadows share one tag mode: reduce once, then probe the
        // arrays pairwise so packed-lane pairs resolve with one fused
        // 16-byte compare each (odd tail falls back to a single probe).
        // Real tags are full, so `stored.raw()` is the geometry tag.
        let shadow_stored = self.config.shadow_tags.store(stored.raw());
        let n = self.shadows.len();
        let mut miss_mask = 0u32;
        let mut i = 0;
        while i + 2 <= n {
            let (ma, mb) = cache_sim::fused_pair_masks(
                &self.shadows[i],
                &self.shadows[i + 1],
                set,
                shadow_stored,
                shadow_stored,
            );
            for (j, m) in [(i, ma), (i + 1, mb)] {
                let acc = self.shadows[j].access_with_mask(set, shadow_stored, m);
                if !acc.hit {
                    miss_mask |= 1 << j;
                }
                self.scratch[j] = acc;
            }
            i += 2;
        }
        if i < n {
            let acc = self.shadows[i].access_at(set, shadow_stored);
            if !acc.hit {
                miss_mask |= 1 << i;
            }
            self.scratch[i] = acc;
        }
        let all_mask = (1u32 << self.shadows.len()) - 1;
        self.history.record(set, miss_mask, all_mask);

        if real_mask != 0 {
            let way = real_mask.trailing_zeros() as usize;
            self.stats.record(true, write);
            if write {
                self.real.mark_dirty(set, way);
            }
            return AccessOutcome::hit();
        }
        self.stats.record(false, write);

        let way = match self.real.invalid_way(set) {
            Some(w) => w,
            None => {
                let winner = self.history.winner(set);
                self.imitations[winner] += 1;
                let acc = self.scratch[winner];
                let victim = (!acc.hit).then_some(acc.evicted).flatten();
                algorithm1(
                    &self.real,
                    self.shadows[winner].directory(),
                    set,
                    victim,
                    &mut self.rng,
                    &mut self.aliasing_fallbacks,
                    |_| None,
                )
                .0
            }
        };
        AccessOutcome::miss(install(
            &mut self.real,
            &mut self.stats,
            set,
            way,
            stored,
            write,
        ))
    }

    fn prefetch_hint(&self, block: BlockAddr) {
        let set = self.real.geometry().set_index(block);
        self.real.prefetch_record(set);
        for s in &self.shadows {
            s.prefetch_set(set);
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn geometry(&self) -> &Geometry {
        self.real.geometry()
    }

    fn label(&self) -> String {
        let names: Vec<_> = self.config.policies.iter().map(|p| p.name()).collect();
        let g = self.geometry();
        format!(
            "Adaptive {} ({}KB, {}-way)",
            names.join("/"),
            g.size_bytes() / 1024,
            g.associativity()
        )
    }
}

impl fmt::Debug for MultiAdaptiveCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiAdaptiveCache")
            .field("label", &self.label())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Address, Cache};

    #[test]
    fn five_policy_runs_and_tracks_best() {
        let geom = Geometry::new(32 * 1024, 64, 8).unwrap();
        let mut multi = MultiAdaptiveCache::new(geom, MultiConfig::paper_five_policy(), 17);
        // LRU-hostile loop.
        let blocks = (geom.size_bytes() / 64) as u64 * 3 / 2;
        for i in 0..200_000u64 {
            multi.access(BlockAddr::new(i % blocks), false);
        }
        let shadow = multi.shadow_misses();
        let best = *shadow.iter().min().unwrap();
        assert!(
            multi.stats().misses <= best * 2 + 100,
            "multi {} vs best shadow {best}",
            multi.stats().misses
        );
    }

    #[test]
    fn two_policy_multi_matches_pairwise_quality() {
        // Multi with [LRU, LFU] should be in the same quality range as the
        // dedicated two-policy implementation.
        let geom = Geometry::new(16 * 1024, 64, 4).unwrap();
        let cfg = MultiConfig::with_policies(vec![PolicyKind::Lru, PolicyKind::LFU5]);
        let mut multi = MultiAdaptiveCache::new(geom, cfg, 3);
        let mut lru = Cache::new(geom, PolicyKind::Lru, 3);
        let mut lfu = Cache::new(geom, PolicyKind::LFU5, 3);
        let blocks = (geom.size_bytes() / 64) as u64 * 2;
        for i in 0..150_000u64 {
            let b = g_block(i % blocks);
            multi.access(b, false);
            lru.access(b, false);
            lfu.access(b, false);
        }
        let best = lru.stats().misses.min(lfu.stats().misses);
        assert!(multi.stats().misses <= best * 2 + 100);
    }

    fn g_block(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn window_history_winner() {
        let mut h = WindowHistory::new(1, 8, 3);
        assert_eq!(h.winner(0), 0, "empty history ties to policy 0");
        h.record(0, 0b011, 0b111); // policies 0,1 missed; 2 hit
        h.record(0, 0b011, 0b111);
        assert_eq!(h.winner(0), 2);
        for _ in 0..8 {
            h.record(0, 0b100, 0b111); // now policy 2 misses a lot
        }
        assert_ne!(h.winner(0), 2);
    }

    #[test]
    fn window_history_ignores_unanimous() {
        let mut h = WindowHistory::new(1, 4, 3);
        h.record(0, 0b111, 0b111);
        h.record(0, 0b000, 0b111);
        assert_eq!(h.heads[0], 0);
        assert_eq!(h.counts, [0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least two policies")]
    fn rejects_single_policy() {
        let _ = MultiConfig::with_policies(vec![PolicyKind::Lru]);
    }

    #[test]
    fn label_lists_all_policies() {
        let geom = Geometry::new(8192, 64, 4).unwrap();
        let c = MultiAdaptiveCache::new(geom, MultiConfig::paper_five_policy(), 0);
        assert_eq!(c.label(), "Adaptive LRU/LFU/FIFO/MRU/Random (8KB, 4-way)");
    }

    #[test]
    fn imitation_counts_sum_to_replacements() {
        let geom = Geometry::new(4096, 64, 4).unwrap();
        let mut c = MultiAdaptiveCache::new(geom, MultiConfig::paper_five_policy(), 1);
        let mut x = 5u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(BlockAddr::new(x % 5000), false);
        }
        let imitated: u64 = c.imitation_counts().iter().sum();
        assert_eq!(imitated, c.stats().evictions);
        let _ = Address::new(0); // keep the import exercised
    }
}
