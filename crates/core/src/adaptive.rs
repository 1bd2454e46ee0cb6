//! The two-policy adaptive cache (paper Sections 2–3).

use crate::engine::{AdaptiveEngine, Selector};
use crate::history::{HistoryKind, MissHistory};
use cache_sim::{Geometry, PolicyKind, ReplacementPolicy, TagMode};
use serde::{Deserialize, Serialize};

/// One of the two component policies of an [`AdaptiveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// The first component policy.
    A,
    /// The second component policy.
    B,
}

impl Component {
    /// The other component.
    pub fn other(self) -> Component {
        match self {
            Component::A => Component::B,
            Component::B => Component::A,
        }
    }
}

/// Configuration of an [`AdaptiveCache`].
///
/// The paper's evaluated design point is available as
/// [`AdaptiveConfig::paper_default`] (LRU/LFU, 8-bit partial shadow tags,
/// `m = 8` bit-vector history) and [`AdaptiveConfig::paper_full_tags`]
/// (same with exact shadow tags).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Component policy A (wins ties in the history).
    pub policy_a: PolicyKind,
    /// Component policy B.
    pub policy_b: PolicyKind,
    /// Tag mode of the two shadow ("parallel") tag arrays. The *real*
    /// directory always keeps full tags — partiality is a property of the
    /// heuristic structures only.
    pub shadow_tags: TagMode,
    /// Per-set miss-history buffer variant.
    pub history: HistoryKind,
    /// Section 3.3's implementation shortcut: "when adapting over LRU,
    /// the adaptive cache can keep a recency order and evict the least
    /// recent block when it wants to imitate LRU, instead of checking
    /// which block is not in the LRU tag structure". Slightly
    /// approximates Algorithm 1 in exchange for a trivial victim search.
    pub lru_victim_shortcut: bool,
}

impl AdaptiveConfig {
    /// The paper's main design point: LRU/LFU, 8-bit partial shadow tags,
    /// bit-vector history with `m = 8`.
    pub fn paper_default() -> Self {
        AdaptiveConfig {
            policy_a: PolicyKind::Lru,
            policy_b: PolicyKind::LFU5,
            shadow_tags: TagMode::PartialLow { bits: 8 },
            history: HistoryKind::paper_default(),
            lru_victim_shortcut: false,
        }
    }

    /// The paper's full-tag reference configuration (used for the main
    /// results of Figures 3 and 4 before partial tags are introduced).
    pub fn paper_full_tags() -> Self {
        AdaptiveConfig {
            shadow_tags: TagMode::Full,
            ..Self::paper_default()
        }
    }

    /// Adaptivity over an arbitrary policy pair, full shadow tags,
    /// paper-default history.
    pub fn with_policies(a: PolicyKind, b: PolicyKind) -> Self {
        AdaptiveConfig {
            policy_a: a,
            policy_b: b,
            ..Self::paper_full_tags()
        }
    }

    /// Returns this configuration with a different shadow-tag mode.
    pub fn shadow_tag_mode(mut self, mode: TagMode) -> Self {
        self.shadow_tags = mode;
        self
    }

    /// Returns this configuration with a different history kind.
    pub fn history_kind(mut self, history: HistoryKind) -> Self {
        self.history = history;
        self
    }

    /// Returns this configuration with the Section 3.3 LRU victim
    /// shortcut enabled.
    pub fn with_lru_shortcut(mut self) -> Self {
        self.lru_victim_shortcut = true;
        self
    }
}

/// A per-set sample of imitation decisions, for the paper's Figure 7
/// phase maps ("white dots correspond to LFU-favorable regions, black to
/// LRU-favorable").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImitationSample {
    /// Replacement decisions that imitated component A in the sampling
    /// interval.
    pub imitated_a: u64,
    /// Replacement decisions that imitated component B.
    pub imitated_b: u64,
}

impl ImitationSample {
    /// The majority component of the interval, or `None` if no
    /// replacements happened.
    pub fn majority(&self) -> Option<Component> {
        if self.imitated_a == 0 && self.imitated_b == 0 {
            None
        } else if self.imitated_a >= self.imitated_b {
            Some(Component::A)
        } else {
            Some(Component::B)
        }
    }
}

/// The adaptive cache of the paper: a real, full-tag directory whose
/// victims are chosen by imitating the better of two component policies,
/// observed through shadow tag arrays and per-set miss histories.
///
/// The replacement logic is exactly Algorithm 1:
///
/// ```text
/// if misses(A) > misses(B) {              // imitate B
///     if B missed and B's victim is in the adaptive cache {
///         evict that same block
///     } else {
///         evict any block not in B        // guaranteed to exist (full tags)
///     }
/// } else { .. symmetric with A .. }
/// ```
///
/// With partial shadow tags the "block not in B" search can fail due to
/// aliasing; the cache then "simply picks an arbitrary block to evict"
/// (Section 3.1) — here a uniformly random way from the seeded RNG. The
/// number of such fallbacks is reported via
/// [`AdaptiveCache::aliasing_fallbacks`].
///
/// The scheme is policy-agnostic: the type parameters accept *any*
/// [`ReplacementPolicy`] implementation (see
/// [`AdaptiveCache::with_custom_policies`]); the default instantiation
/// over [`PolicyKind`] covers the five standard policies.
pub type AdaptiveCache<A = PolicyKind, B = PolicyKind> = AdaptiveEngine<PerSetHistory, A, B>;

impl AdaptiveCache {
    /// Creates an empty adaptive cache over the standard policies.
    pub fn new(geom: Geometry, config: AdaptiveConfig, seed: u64) -> Self {
        let (a, b) = (config.policy_a, config.policy_b);
        let cache = AdaptiveCache::with_custom_policies(
            geom,
            a,
            b,
            config.shadow_tags,
            config.history,
            seed,
        );
        // The Section 3.3 shortcut needs a recency order over the real
        // contents: the LRU component's resident metadata.
        if config.lru_victim_shortcut {
            cache.with_resident(a, b, true)
        } else {
            cache
        }
    }
}

impl<A: ReplacementPolicy, B: ReplacementPolicy> AdaptiveCache<A, B> {
    /// Creates an adaptive cache over two arbitrary replacement policies —
    /// the full generality the paper claims ("a general scheme by which we
    /// can combine any two cache management algorithms").
    pub fn with_custom_policies(
        geom: Geometry,
        policy_a: A,
        policy_b: B,
        shadow_tags: TagMode,
        history: HistoryKind,
        seed: u64,
    ) -> Self {
        let selector = PerSetHistory {
            history: (0..geom.num_sets())
                .map(|_| MissHistory::new(history))
                .collect(),
        };
        AdaptiveEngine::build(geom, selector, policy_a, policy_b, shadow_tags, seed)
    }

    /// The per-set history variant in use.
    pub fn history_kind(&self) -> HistoryKind {
        self.selector.history[0].kind()
    }

    /// The per-set winner the history currently designates.
    pub fn set_winner(&self, set: usize) -> Component {
        self.selector.history[set].winner()
    }
}

/// The paper's selector: every set probes both shadow directories and
/// keeps its own miss history.
pub struct PerSetHistory {
    history: Vec<MissHistory>,
}

impl Selector for PerSetHistory {
    const LABEL: &'static str = "Adaptive";
    const TYPE_NAME: &'static str = "AdaptiveCache";

    #[inline]
    fn slot(&self, set: usize) -> Option<usize> {
        Some(set)
    }

    #[inline]
    fn train(&mut self, slot: usize, a_hit: bool, b_hit: bool) {
        self.history[slot].record(!a_hit, !b_hit);
    }

    #[inline]
    fn winner(&mut self, set: usize, _slot: Option<usize>) -> Component {
        self.history[set].winner()
    }

    #[inline]
    fn prefetch(&self, set: usize) {
        cache_sim::simd::prefetch_read(&self.history[set] as *const _);
    }

    fn label_detail(&self, shadow_tags: TagMode) -> String {
        match shadow_tags {
            TagMode::Full => "full tags".to_string(),
            TagMode::PartialLow { bits } | TagMode::PartialXor { bits } => {
                format!("{bits}-bit tags")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Address, BlockAddr, Cache, CacheModel};

    fn geom() -> Geometry {
        Geometry::new(4096, 64, 4).unwrap() // 16 sets x 4 ways
    }

    /// Blocks that all collide in set 0.
    fn conflict(g: &Geometry, n: u64) -> BlockAddr {
        g.block_of(Address::new(n * 64 * g.num_sets() as u64))
    }

    fn lru_lfu(g: Geometry) -> AdaptiveCache {
        AdaptiveCache::new(g, AdaptiveConfig::paper_full_tags(), 42)
    }

    #[test]
    fn cold_fills_use_invalid_ways() {
        let g = geom();
        let mut c = lru_lfu(g);
        for n in 0..4 {
            let out = c.access(conflict(&g, n), false);
            assert!(!out.hit);
            assert!(out.eviction.is_none());
        }
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.imitation_totals(), (0, 0), "no replacement ran yet");
    }

    #[test]
    fn hits_do_not_touch_replacement() {
        let g = geom();
        let mut c = lru_lfu(g);
        let b = conflict(&g, 0);
        c.access(b, false);
        assert!(c.access(b, false).hit);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn shadow_arrays_mirror_component_policies() {
        // Drive the adaptive cache and two standalone caches with the same
        // stream; the shadow statistics must match the standalone caches
        // exactly (full tags, deterministic policies).
        let g = geom();
        let mut adaptive = lru_lfu(g);
        let mut lru = Cache::new(g, PolicyKind::Lru, 1);
        let mut lfu = Cache::new(g, PolicyKind::LFU5, 1);

        let mut x = 123456789u64;
        for _ in 0..20_000 {
            // xorshift for a scattered but deterministic stream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = g.block_of(Address::new(x % (1 << 16)));
            adaptive.access(b, false);
            lru.access(b, false);
            lfu.access(b, false);
        }
        assert_eq!(adaptive.shadow_stats(Component::A).1, lru.stats().misses);
        assert_eq!(adaptive.shadow_stats(Component::B).1, lfu.stats().misses);
    }

    #[test]
    fn paper_figure2_example() {
        // Reproduces the worked example of Figure 2 with a 4-way single-set
        // cache, component A = LRU, component B = LFU-like... The paper's
        // example uses abstract policies; here we verify the adaptive
        // mechanics directly: after a block misses in only one component,
        // the adaptive cache starts imitating the other.
        let g = Geometry::new(4 * 64, 64, 4).unwrap(); // 1 set, 4 ways
        let cfg = AdaptiveConfig::with_policies(PolicyKind::Lru, PolicyKind::Mru)
            .history_kind(HistoryKind::Counters);
        let mut c = AdaptiveCache::new(g, cfg, 9);
        let b = |n: u64| BlockAddr::new(n);

        // Fill: C A B F (4 distinct blocks) — both components miss 4 times.
        for n in [2u64, 0, 1, 5] {
            c.access(b(n), false);
        }
        // Reference D: both miss again; tie -> imitate A (LRU evicts "C").
        c.access(b(3), false);
        assert!(!c.contains_block(b(2)), "LRU victim imitated on tie");
        // LRU's cache is now A B F D ; MRU's cache is C A B D.
        // Reference A(0): hit in both real and MRU? real: A present. OK.
        assert!(c.access(b(0), false).hit);
    }

    /// A hot set of `hots` blocks, each accessed in bursts of three,
    /// interleaved with a long scan of `scans` blocks. The bursts drive
    /// the hot blocks' frequency counts up so LFU protects them across
    /// scans, while the per-set LRU reuse distance (2x associativity)
    /// makes LRU thrash — the "separating large regions of blocks that
    /// are only used once from commonly accessed data" pattern of paper
    /// Section 2.1.
    fn hot_scan_block(i: u64, hots: u64, scans: u64) -> BlockAddr {
        let group = i / 4;
        if i % 4 < 3 {
            BlockAddr::new(group % hots)
        } else {
            BlockAddr::new(hots + group % scans)
        }
    }

    #[test]
    fn tracks_better_policy_on_lru_hostile_mix() {
        // Hot set + large scan: LRU evicts the hot blocks between reuses,
        // LFU keeps them resident. The adaptive cache must land close to
        // LFU, far below LRU misses.
        let g = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut adaptive = lru_lfu(g);
        let mut lru = Cache::new(g, PolicyKind::Lru, 1);
        let mut lfu = Cache::new(g, PolicyKind::LFU5, 1);
        for i in 0..400_000u64 {
            let b = hot_scan_block(i, 768, 8192);
            adaptive.access(b, false);
            lru.access(b, false);
            lfu.access(b, false);
        }
        let (am, lm, fm) = (
            adaptive.stats().misses,
            lru.stats().misses,
            lfu.stats().misses,
        );
        assert!(
            fm * 5 < lm * 4,
            "precondition: LFU ({fm}) must clearly beat LRU ({lm}) on this mix"
        );
        assert!(am < lm, "adaptive ({am}) should beat LRU ({lm})");
        assert!(
            am as f64 <= fm as f64 * 1.15,
            "adaptive ({am}) must closely track the better policy ({fm})"
        );
    }

    #[test]
    fn tracks_better_policy_on_temporal_stream() {
        // Strong temporal locality with a small hot set: LRU-friendly.
        let g = Geometry::new(16 * 1024, 64, 8).unwrap();
        let mut adaptive = lru_lfu(g);
        let mut lru = Cache::new(g, PolicyKind::Lru, 1);
        let mut lfu = Cache::new(g, PolicyKind::LFU5, 1);
        let mut x = 99u64;
        for i in 0..300_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 90% accesses to a rolling window, 10% to cold blocks.
            let b = if !x.is_multiple_of(10) {
                BlockAddr::new((i / 16 + x % 128) % 4096)
            } else {
                BlockAddr::new(10_000 + x % 100_000)
            };
            adaptive.access(b, false);
            lru.access(b, false);
            lfu.access(b, false);
        }
        let best = lru.stats().misses.min(lfu.stats().misses);
        assert!(
            adaptive.stats().misses <= best * 2,
            "adaptive {} vs best {best}",
            adaptive.stats().misses
        );
    }

    #[test]
    fn partial_tags_track_full_tags_closely() {
        let g = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut full = AdaptiveCache::new(g, AdaptiveConfig::paper_full_tags(), 5);
        let mut partial = AdaptiveCache::new(g, AdaptiveConfig::paper_default(), 5);
        for i in 0..200_000u64 {
            let b = hot_scan_block(i, 768, 8192);
            full.access(b, false);
            partial.access(b, false);
        }
        let (f, p) = (full.stats().misses as f64, partial.stats().misses as f64);
        assert!(
            (p - f).abs() / f < 0.10,
            "8-bit partial ({p}) within 10% of full ({f})"
        );
    }

    #[test]
    fn tiny_partial_tags_fall_back_but_do_not_crash() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let cfg = AdaptiveConfig::paper_default().shadow_tag_mode(TagMode::PartialLow { bits: 1 });
        let mut c = AdaptiveCache::new(g, cfg, 3);
        let mut x = 7u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(BlockAddr::new(x % 50_000), false);
        }
        // With 1-bit tags aliasing is rampant; the arbitrary-eviction
        // fallback must have triggered and the cache must keep functioning.
        assert!(c.aliasing_fallbacks() > 0);
        assert_eq!(
            c.stats().accesses,
            200_000,
            "all accesses processed despite aliasing"
        );
    }

    #[test]
    fn full_tags_never_need_fallback() {
        let g = geom();
        let mut c = lru_lfu(g);
        let mut x = 3u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(BlockAddr::new(x % 10_000), false);
        }
        assert_eq!(
            c.aliasing_fallbacks(),
            0,
            "the not-in-component block is guaranteed to exist with full tags"
        );
    }

    #[test]
    fn imitation_samples_reset() {
        let g = geom();
        let mut c = lru_lfu(g);
        for n in 0..100 {
            c.access(conflict(&g, n), false);
        }
        let s1 = c.take_imitation_samples();
        let decided: u64 = s1.iter().map(|s| s.imitated_a + s.imitated_b).sum();
        assert!(decided > 0);
        let s2 = c.take_imitation_samples();
        assert!(s2.iter().all(|s| s.majority().is_none()), "reset to zero");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let g = geom();
        let mut c = lru_lfu(g);
        c.access(conflict(&g, 0), true); // dirty fill
        for n in 1..4 {
            c.access(conflict(&g, n), false);
        }
        // Overflow the set until block 0 goes; some eviction must carry
        // dirty=true eventually.
        let mut saw_dirty = false;
        for n in 4..20 {
            if let Some(ev) = c.access(conflict(&g, n), false).eviction {
                saw_dirty |= ev.dirty;
            }
        }
        assert!(saw_dirty);
        assert!(c.stats().writebacks >= 1);
    }

    #[test]
    fn label_is_descriptive() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let c = AdaptiveCache::new(g, AdaptiveConfig::paper_default(), 0);
        assert_eq!(c.label(), "Adaptive LRU/LFU (512KB, 8-way, 8-bit tags)");
        let c = AdaptiveCache::new(g, AdaptiveConfig::paper_full_tags(), 0);
        assert_eq!(c.label(), "Adaptive LRU/LFU (512KB, 8-way, full tags)");
    }

    #[test]
    fn component_other() {
        assert_eq!(Component::A.other(), Component::B);
        assert_eq!(Component::B.other(), Component::A);
    }

    #[test]
    fn majority_logic() {
        assert_eq!(ImitationSample::default().majority(), None);
        assert_eq!(
            ImitationSample {
                imitated_a: 3,
                imitated_b: 1
            }
            .majority(),
            Some(Component::A)
        );
        assert_eq!(
            ImitationSample {
                imitated_a: 1,
                imitated_b: 3
            }
            .majority(),
            Some(Component::B)
        );
    }
}

#[cfg(test)]
mod invalidation_tests {
    use super::*;
    use cache_sim::{Address, CacheModel};

    #[test]
    fn invalidation_skips_shadow_arrays() {
        let g = Geometry::new(4096, 64, 4).unwrap();
        let mut c = AdaptiveCache::new(g, AdaptiveConfig::paper_full_tags(), 1);
        let block = g.block_of(Address::new(0x400));
        c.access(block, false);
        assert!(c.contains_block(block));
        assert!(c.invalidate_block(block));
        assert!(!c.contains_block(block));
        // The shadows still believe the block is present (no snooping):
        // re-accessing it misses in the real cache but hits both shadows.
        let before_a = c.shadow_stats(Component::A);
        let out = c.access(block, false);
        assert!(!out.hit, "real cache must miss after invalidation");
        let after_a = c.shadow_stats(Component::A);
        assert_eq!(
            after_a.0,
            before_a.0 + 1,
            "shadow A must hit the stale entry"
        );
        // Second invalidate is a no-op.
        c.invalidate_block(block);
        assert!(!c.invalidate_block(block));
    }
}

#[cfg(test)]
mod lru_shortcut_tests {
    use super::*;
    use cache_sim::{BlockAddr, CacheModel};

    fn run(cfg: AdaptiveConfig, seed: u64) -> u64 {
        let g = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut c = AdaptiveCache::new(g, cfg, seed);
        // Mixed stream: LFU-friendly rescan phase, then LRU-friendly
        // shifting phase, so both components get imitated.
        for i in 0..300_000u64 {
            let group = i / 4;
            let b = if i < 150_000 {
                if i % 4 < 3 {
                    group % 768
                } else {
                    768 + group % 8192
                }
            } else {
                20_000 + (i / 16_000) * 2048 + (i * 7919) % 4096
            };
            c.access(BlockAddr::new(b), false);
        }
        c.stats().misses
    }

    #[test]
    fn shortcut_closely_tracks_exact_algorithm() {
        let exact = run(AdaptiveConfig::paper_full_tags(), 3);
        let shortcut = run(AdaptiveConfig::paper_full_tags().with_lru_shortcut(), 3);
        let ratio = shortcut as f64 / exact as f64;
        assert!(
            (0.97..=1.03).contains(&ratio),
            "Section 3.3 shortcut deviates too much: {shortcut} vs {exact}"
        );
    }

    #[test]
    fn shortcut_flag_round_trips_in_config() {
        let cfg = AdaptiveConfig::paper_default().with_lru_shortcut();
        assert!(cfg.lru_victim_shortcut);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: AdaptiveConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
