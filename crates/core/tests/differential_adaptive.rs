//! Differential test for the adaptive cache's fused replacement path.
//!
//! The optimised [`AdaptiveCache`] hoists the per-miss `mode.store()`
//! reductions of Algorithm 1 into one pass ([`Directory::reduced_tags`]),
//! runs the Case-1/Case-2 scans over bitmasks, and decomposes each address
//! once for all three tag structures. This test re-implements the seed's
//! *unfused* adaptive cache — array-of-structs real directory, per-way
//! `mode.store()` recomputation, early-exit linear scans, over the seed
//! tag structures `cache-sim`'s differential suite also checks
//! (`support/reference.rs`) — and asserts
//! both produce identical access outcomes, statistics, shadow statistics,
//! aliasing fallbacks, and the paper's Figure-7 imitation counters, for
//! full and partial shadow tags.
//!
//! An [`SbarCache`] whose every set is a leader keeps shadow tags and a
//! miss history in every set, which makes it the paper's adaptive cache
//! (Section 4.7: leader sets "behave like the regular adaptive cache");
//! it is driven alongside as a third implementation.

#[path = "../../cache-sim/tests/support/reference.rs"]
mod reference;

use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, Component, MissHistory, SbarCache, SbarConfig,
};
use cache_sim::{
    AccessOutcome, BlockAddr, CacheModel, CacheStats, Eviction, Geometry, PolicyKind, TagMode, Way,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{RefDirectory, RefTagArray};

/// The seed's adaptive cache: unfused Algorithm 1 with per-way
/// `mode.store()` recomputation inside the Case-1 and Case-2 scans.
struct RefAdaptive {
    shadow_tags: TagMode,
    real: RefDirectory,
    shadow_a: RefTagArray<PolicyKind>,
    shadow_b: RefTagArray<PolicyKind>,
    history: Vec<MissHistory>,
    rng: SmallRng,
    stats: CacheStats,
    aliasing_fallbacks: u64,
    imitations_a: u64,
    imitations_b: u64,
}

impl RefAdaptive {
    fn new(geom: Geometry, config: AdaptiveConfig, seed: u64) -> Self {
        assert!(
            !config.lru_victim_shortcut,
            "reference models the exact Algorithm 1 only"
        );
        RefAdaptive {
            shadow_tags: config.shadow_tags,
            real: RefDirectory::new(geom, TagMode::Full),
            shadow_a: RefTagArray::new(geom, config.shadow_tags, config.policy_a, seed ^ 0xA),
            shadow_b: RefTagArray::new(geom, config.shadow_tags, config.policy_b, seed ^ 0xB),
            history: (0..geom.num_sets())
                .map(|_| MissHistory::new(config.history))
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
            stats: CacheStats::default(),
            aliasing_fallbacks: 0,
            imitations_a: 0,
            imitations_b: 0,
        }
    }

    /// Algorithm 1, seed shape: linear scans re-reducing each real tag on
    /// every probe.
    fn choose_victim(&mut self, set: usize, winner: Component, shadow_miss: Option<Way>) -> usize {
        let mode = self.shadow_tags;
        if let Some(evicted) = shadow_miss {
            if let Some(way) = self
                .real
                .set_ways(set)
                .iter()
                .position(|w| w.valid && mode.store(w.tag.raw()) == evicted.tag)
            {
                return way;
            }
        }
        let shadow = match winner {
            Component::A => &self.shadow_a,
            Component::B => &self.shadow_b,
        };
        if let Some(way) = self.real.set_ways(set).iter().position(|w| {
            w.valid && {
                let reduced = mode.store(w.tag.raw());
                !shadow.contains(set, reduced)
            }
        }) {
            return way;
        }
        self.aliasing_fallbacks += 1;
        self.rng.gen_range(0..self.real.geom.associativity())
    }

    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        let (set, stored) = self.real.locate(block);
        let acc_a = self.shadow_a.access(block);
        let acc_b = self.shadow_b.access(block);
        self.history[set].record(!acc_a.hit, !acc_b.hit);

        if let Some(way) = self.real.find(set, stored) {
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
                let winner = self.history[set].winner();
                match winner {
                    Component::A => self.imitations_a += 1,
                    Component::B => self.imitations_b += 1,
                }
                let shadow_miss = match winner {
                    Component::A => (!acc_a.hit).then_some(acc_a.evicted).flatten(),
                    Component::B => (!acc_b.hit).then_some(acc_b.evicted).flatten(),
                };
                self.choose_victim(set, winner, shadow_miss)
            }
        };

        let evicted = self.real.fill_at(set, way, stored);
        if write {
            self.real.mark_dirty(set, way);
        }
        let eviction = evicted.map(|old| {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            Eviction {
                block: self.real.geom.block_from_parts(old.tag.raw(), set),
                dirty: old.dirty,
            }
        });
        AccessOutcome {
            hit: false,
            eviction,
        }
    }
}

/// An SBAR cache in which every set is a leader, over `config`'s
/// components, shadow tags and history.
fn all_leader_sbar(geom: Geometry, config: AdaptiveConfig, seed: u64) -> SbarCache {
    let sbar = SbarConfig {
        policy_a: config.policy_a,
        policy_b: config.policy_b,
        leader_sets: geom.num_sets(),
        shadow_tags: config.shadow_tags,
        history: config.history,
        psel_bits: 10,
    };
    SbarCache::new(geom, sbar, seed)
}

fn drive_and_compare(
    geom: Geometry,
    config: AdaptiveConfig,
    seed: u64,
    blocks: impl Iterator<Item = (u64, bool)>,
) {
    let mut fused = AdaptiveCache::new(geom, config, seed);
    let mut sbar = all_leader_sbar(geom, config, seed);
    let mut reference = RefAdaptive::new(geom, config, seed);
    for (i, (a, write)) in blocks.enumerate() {
        let block = BlockAddr::new(a);
        let got = fused.access(block, write);
        let want = reference.access(block, write);
        assert_eq!(got, want, "{config:?} diverged at access {i} ({a:#x})");
        let leader = sbar.access(block, write);
        assert_eq!(
            leader, want,
            "all-leader SBAR diverged at access {i} ({a:#x})"
        );
    }
    assert_eq!(fused.stats(), &reference.stats, "cache stats");
    assert_eq!(sbar.stats(), &reference.stats, "all-leader SBAR stats");
    assert_eq!(
        fused.imitation_totals(),
        (reference.imitations_a, reference.imitations_b),
        "Figure-7 imitation counters"
    );
    assert_eq!(sbar.imitation_totals(), fused.imitation_totals());
    assert_eq!(sbar.exclusive_miss_totals(), fused.exclusive_miss_totals());
    assert_eq!(
        fused.aliasing_fallbacks(),
        reference.aliasing_fallbacks,
        "partial-tag alias fallbacks"
    );
    assert_eq!(sbar.aliasing_fallbacks(), reference.aliasing_fallbacks);
    for (c, shadow) in [
        (Component::A, &reference.shadow_a),
        (Component::B, &reference.shadow_b),
    ] {
        let (hits, misses) = (shadow.stats.hits, shadow.stats.misses);
        assert_eq!(fused.shadow_stats(c), (hits, misses), "{c:?} shadow stats");
        assert_eq!(
            sbar.shadow_stats(c),
            (hits, misses),
            "{c:?} leader shadow stats"
        );
    }
}

/// Small geometry keeps sets saturated so Algorithm 1 (not the
/// invalid-way fill path) decides most victims.
fn small_geom() -> Geometry {
    Geometry::new(16 * 1024, 64, 8).unwrap()
}

/// The small geometry plus 6- and 12-way ones, whose way counts are not
/// a power of two: the full-tag compares take the generic loop, and the
/// 12-way partial shadows are too wide for a packed lane.
fn small_geoms() -> [Geometry; 3] {
    [
        small_geom(),
        Geometry::new(24 * 1024, 64, 6).unwrap(),
        Geometry::new(48 * 1024, 64, 12).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full shadow tags: every case branch except the alias fallback.
    #[test]
    fn adaptive_full_tags_matches_unfused_reference(
        addrs in proptest::collection::vec((0u64..2048, any::<bool>()), 1..500),
        seed in any::<u64>(),
    ) {
        for geom in small_geoms() {
            drive_and_compare(
                geom,
                AdaptiveConfig::paper_full_tags(),
                seed,
                addrs.iter().copied(),
            );
        }
    }

    /// Partial (8-bit) shadow tags: aliasing makes Case 2 fail and
    /// exercises the RNG fallback, which must consume the generator
    /// identically in both implementations.
    #[test]
    fn adaptive_partial_tags_matches_unfused_reference(
        addrs in proptest::collection::vec((0u64..2048, any::<bool>()), 1..500),
        seed in any::<u64>(),
    ) {
        for geom in small_geoms() {
            drive_and_compare(
                geom,
                AdaptiveConfig::paper_default(),
                seed,
                addrs.iter().copied(),
            );
        }
    }

    /// Narrow 2-bit shadow tags alias aggressively, forcing the Case-3
    /// fallback often.
    #[test]
    fn adaptive_heavy_aliasing_matches_unfused_reference(
        addrs in proptest::collection::vec((0u64..4096, any::<bool>()), 1..400),
        seed in any::<u64>(),
    ) {
        let config = AdaptiveConfig::paper_default()
            .shadow_tag_mode(TagMode::PartialLow { bits: 2 });
        drive_and_compare(small_geom(), config, seed, addrs.iter().copied());
    }

    /// Alternative policy pairs route through the same fused scans.
    #[test]
    fn adaptive_other_policy_pairs_match(
        addrs in proptest::collection::vec((0u64..2048, any::<bool>()), 1..300),
        seed in any::<u64>(),
    ) {
        for (a, b) in [
            (PolicyKind::Fifo, PolicyKind::Random),
            (PolicyKind::Mru, PolicyKind::Lru),
        ] {
            let config = AdaptiveConfig::with_policies(a, b);
            drive_and_compare(small_geom(), config, seed, addrs.iter().copied());
        }
    }
}

/// Fixed long-stream soak on the paper's L2 geometry with both headline
/// shadow-tag modes; also checks the per-set imitation samples (the
/// Figure-7 plotting input) agree in aggregate.
#[test]
fn paper_geometry_imitation_counters_match() {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    for config in [
        AdaptiveConfig::paper_full_tags(),
        AdaptiveConfig::paper_default(),
    ] {
        let mut fused = AdaptiveCache::new(geom, config, 0xFEED);
        let mut sbar = all_leader_sbar(geom, config, 0xFEED);
        let mut reference = RefAdaptive::new(geom, config, 0xFEED);
        let mut x = 0x9E37_79B9u64;
        for i in 0..150_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Phase-switching stream: LRU-friendly bursts, then scans.
            let block = if (i / 20_000) % 2 == 0 {
                BlockAddr::new(x % 4_000)
            } else {
                BlockAddr::new(i % 40_000)
            };
            let write = x & 7 == 0;
            let want = reference.access(block, write);
            assert_eq!(
                fused.access(block, write),
                want,
                "{:?} diverged at access {i}",
                config.shadow_tags
            );
            assert_eq!(sbar.access(block, write), want, "all-leader SBAR at {i}");
        }
        assert_eq!(fused.stats(), &reference.stats);
        assert_eq!(sbar.stats(), &reference.stats);
        assert_eq!(
            fused.imitation_totals(),
            (reference.imitations_a, reference.imitations_b)
        );
        assert_eq!(sbar.imitation_totals(), fused.imitation_totals());
        let (ia, ib) = fused.imitation_totals();
        assert!(ia + ib > 1_000, "stream must exercise Algorithm 1");
        let samples = fused.take_imitation_samples();
        let (sa, sb): (u64, u64) = samples
            .iter()
            .fold((0, 0), |(a, b), s| (a + s.imitated_a, b + s.imitated_b));
        assert_eq!((sa, sb), (ia, ib), "per-set samples sum to the totals");
    }
}
