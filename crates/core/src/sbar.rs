//! Set-sampling adaptivity — the SBAR-like cache of paper Section 4.7.
//!
//! Sampling Based Adaptive Replacement (Qureshi, Lynch, Mutlu & Patt)
//! eliminates nearly all of the adaptive cache's overhead: only a few
//! **leader sets** keep duplicate (shadow) tag structures and behave like
//! the regular adaptive cache; their exclusive misses train a global
//! policy-selection counter. **Follower sets** keep no shadow tags at all.
//! Instead, policy-specific metadata (recency order *and* frequency
//! counts) is maintained for the blocks currently in the cache, so when
//! the global selector switches from, e.g., LRU to LFU, "the LFU algorithm
//! begins executing on the blocks that are currently in the cache, and
//! replaces the one with the lowest frequency".
//!
//! The SBAR-like cache forgoes the theoretical guarantees of the full
//! scheme (its contents never converge towards a component cache's), but
//! in the paper it recovers almost all of the benefit (12.5% vs 12.9%
//! average CPI improvement) at 0.16% storage overhead.

use crate::adaptive::Component;
use crate::engine::{AdaptiveEngine, Selector};
use crate::history::{HistoryKind, MissHistory};
use crate::psel::{SharedPsel, Votes};
use ac_telemetry::DecisionEvent;
use cache_sim::{Geometry, PolicyKind, TagMode};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a [`SbarCache`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SbarConfig {
    /// Component policy A (selected when the global counter favours it or
    /// ties).
    pub policy_a: PolicyKind,
    /// Component policy B.
    pub policy_b: PolicyKind,
    /// Number of leader sets (spread uniformly across the cache). Must be
    /// at least 1 and at most the number of sets.
    pub leader_sets: usize,
    /// Tag mode for the leader sets' shadow arrays (Section 4.7 also
    /// evaluates 8-bit partial tags here, shrinking overhead to 0.09%).
    pub shadow_tags: TagMode,
    /// Per-leader-set miss history (leaders run the regular adaptive
    /// algorithm locally).
    pub history: HistoryKind,
    /// Width of the global policy-selection counter.
    pub psel_bits: u32,
}

impl SbarConfig {
    /// The configuration evaluated in the paper's Section 4.7: LRU/LFU,
    /// 16 leader sets, full shadow tags in the leaders, 10-bit selector.
    pub fn paper_default() -> Self {
        SbarConfig {
            policy_a: PolicyKind::Lru,
            policy_b: PolicyKind::LFU5,
            leader_sets: 16,
            shadow_tags: TagMode::Full,
            history: HistoryKind::paper_default(),
            psel_bits: 10,
        }
    }

    /// Paper variant with 8-bit partial tags in the leader shadow arrays.
    pub fn paper_partial_tags() -> Self {
        SbarConfig {
            shadow_tags: TagMode::PartialLow { bits: 8 },
            ..Self::paper_default()
        }
    }
}

/// The paper's leader-set layout: `leader_sets` sets spread uniformly
/// over `0..sets`, each offset half a stride into its stripe so leaders
/// are not all set-0-aligned. `out[slot]` is the set index of leader
/// `slot` (clamped to the last set when the stride rounds past the end).
///
/// Public so a sharded front end can compute the *global* layout and
/// distribute it across shard-local [`SbarCache::with_leaders`] calls.
pub fn default_leader_sets(sets: usize, leader_sets: usize) -> Vec<usize> {
    let stride = sets / leader_sets;
    (0..leader_sets)
        .map(|slot| (slot * stride + stride / 2).min(sets - 1))
        .collect()
}

/// The SBAR-like set-sampling adaptive cache: the adaptive engine run
/// with shadow tags on its leader sets only.
///
/// ```
/// use adaptive_cache::{SbarCache, SbarConfig};
/// use cache_sim::{BlockAddr, CacheModel, Geometry};
///
/// let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
/// let mut cache = SbarCache::new(geom, SbarConfig::paper_default(), 21);
/// for i in 0..50_000u64 {
///     cache.access(BlockAddr::new(i % 9000), false);
/// }
/// assert!(cache.stats().accesses == 50_000);
/// ```
pub type SbarCache = AdaptiveEngine<SetSampling>;

impl SbarCache {
    /// Creates an empty SBAR-like cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.leader_sets` is 0 or exceeds the set count.
    pub fn new(geom: Geometry, config: SbarConfig, seed: u64) -> Self {
        let sets = geom.num_sets();
        assert!(
            config.leader_sets >= 1 && config.leader_sets <= sets,
            "leader_sets must be in 1..={sets}, got {}",
            config.leader_sets
        );
        let leaders = default_leader_sets(sets, config.leader_sets);
        Self::with_leaders(
            geom,
            config,
            seed,
            &leaders,
            Arc::new(SharedPsel::new(config.psel_bits)),
        )
    }

    /// Creates an SBAR-like cache with an explicit leader-set list and a
    /// caller-supplied (possibly shared) policy selector.
    ///
    /// This is the building block of the sharded concurrent front end:
    /// each shard receives the leader sets that the global layout mapped
    /// into it (`leaders` may be empty — a follower-only shard trains
    /// nothing but still imitates the shared selector) and all shards
    /// clone one [`SharedPsel`]. `leaders[slot]` gives the set index of
    /// leader `slot`; duplicate entries keep the last slot, matching the
    /// clamped default layout.
    ///
    /// # Panics
    ///
    /// Panics if any leader index is out of range.
    pub fn with_leaders(
        geom: Geometry,
        config: SbarConfig,
        seed: u64,
        leaders: &[usize],
        psel: Arc<SharedPsel>,
    ) -> Self {
        let sets = geom.num_sets();
        let mut leader_index = vec![None; sets];
        for (slot, &set) in leaders.iter().enumerate() {
            assert!(set < sets, "leader set {set} out of range (sets={sets})");
            leader_index[set] = Some(slot as u32);
        }
        let selector = SetSampling {
            leader_index,
            history: (0..leaders.len())
                .map(|_| MissHistory::new(config.history))
                .collect(),
            votes: Votes::new(&psel),
            psel,
            config,
        };
        let (a, b) = (config.policy_a, config.policy_b);
        AdaptiveEngine::build(geom, selector, a, b, config.shadow_tags, seed)
            .with_resident(a, b, false)
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &SbarConfig {
        &self.selector.config
    }

    /// The component the global selector currently favours.
    pub fn global_winner(&self) -> Component {
        self.selector.psel.winner()
    }

    /// Number of times the global selector changed its mind.
    pub fn policy_switches(&self) -> u64 {
        self.selector.votes.switches
    }

    /// The current value of the global policy-selector register.
    pub fn psel(&self) -> u32 {
        self.selector.psel.load()
    }

    /// The selector register itself — clone it into every shard of a
    /// concurrent front end to share one arbitration across all of them.
    pub fn shared_psel(&self) -> &Arc<SharedPsel> {
        &self.selector.psel
    }

    /// Total leader votes that actually moved the selector (ties in
    /// either direction do not train and are not counted).
    pub fn leader_votes(&self) -> u64 {
        self.selector.votes.count
    }

    /// Whether `set` is a leader set.
    pub fn is_leader(&self, set: usize) -> bool {
        self.selector.leader_index[set].is_some()
    }
}

/// SBAR's sampling selector: leader sets keep shadow tags and a miss
/// history each, and their exclusive misses vote into a global
/// [`SharedPsel`]; follower sets imitate its winner.
pub struct SetSampling {
    config: SbarConfig,
    /// `leader_index[set]` = Some(slot) if `set` is a leader.
    leader_index: Vec<Option<u32>>,
    /// Per-leader miss history (indexed by leader slot).
    history: Vec<MissHistory>,
    /// Global saturating policy selector; above midpoint = imitate B.
    /// Behind an `Arc` so several shards of a concurrent front end can
    /// train and read one selector (a lone cache owns its own).
    psel: Arc<SharedPsel>,
    votes: Votes,
}

impl Selector for SetSampling {
    const LABEL: &'static str = "SBAR";
    const TYPE_NAME: &'static str = "SbarCache";

    #[inline]
    fn slot(&self, set: usize) -> Option<usize> {
        self.leader_index[set].map(|s| s as usize)
    }

    #[inline]
    fn train(&mut self, set: usize, slot: usize, a_hit: bool, b_hit: bool) {
        // Leaders run the regular adaptive algorithm locally ...
        self.history[slot].record(!a_hit, !b_hit);
        // ... and their exclusive misses vote; ties in either direction
        // do not train the selector.
        if a_hit == b_hit {
            return;
        }
        let (value, now) = self.votes.cast(&self.psel, !a_hit);
        ac_telemetry::decision(|| DecisionEvent::LeaderVote {
            set: set as u32,
            slot: slot as u32,
            psel: value,
            global: now.telemetry(),
        });
    }

    /// Leaders follow their own history (Algorithm 1 against the local
    /// shadow arrays); followers apply the globally selected policy to
    /// the blocks they hold.
    #[inline]
    fn winner(&mut self, _set: usize, slot: Option<usize>) -> Component {
        match slot {
            Some(slot) => self.history[slot].winner(),
            None => self.psel.winner(),
        }
    }

    fn votes(&self) -> (u64, Option<u32>) {
        (self.votes.count, Some(self.psel.load()))
    }

    fn label_detail(&self, _shadow_tags: TagMode) -> String {
        format!("{} leaders", self.config.leader_sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{BlockAddr, Cache, CacheModel};

    #[test]
    fn leaders_are_spread_out() {
        let geom = Geometry::new(512 * 1024, 64, 8).unwrap(); // 1024 sets
        let c = SbarCache::new(geom, SbarConfig::paper_default(), 0);
        let leaders: Vec<_> = (0..1024).filter(|&s| c.is_leader(s)).collect();
        assert_eq!(leaders.len(), 16);
        // Uniformly strided (64 apart, offset 32).
        assert_eq!(leaders[0], 32);
        assert_eq!(leaders[1], 96);
    }

    /// LFU-friendly: hot blocks accessed in bursts of three, interleaved
    /// with a long scan (LRU thrashes the hot blocks between bursts,
    /// LFU's counters protect them).
    fn hot_scan_block(i: u64) -> BlockAddr {
        let group = i / 4;
        if i % 4 < 3 {
            BlockAddr::new(group % 768)
        } else {
            BlockAddr::new(768 + group % 8192)
        }
    }

    /// LRU-friendly: a hot window that shifts over time. Blocks from old
    /// windows keep high frequency counts but never return, polluting LFU;
    /// LRU adapts immediately.
    fn shifting_hot_block(i: u64, x: u64) -> BlockAddr {
        let phase = i / 20_000;
        BlockAddr::new(phase * 400 + x % 512)
    }

    #[test]
    fn selector_moves_toward_better_policy() {
        let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut c = SbarCache::new(geom, SbarConfig::paper_default(), 5);
        for i in 0..300_000u64 {
            c.access(hot_scan_block(i), false);
        }
        assert_eq!(c.global_winner(), Component::B);
        // And the cache should beat plain LRU clearly.
        let mut lru = Cache::new(geom, PolicyKind::Lru, 5);
        for i in 0..300_000u64 {
            lru.access(hot_scan_block(i), false);
        }
        assert!(c.stats().misses < lru.stats().misses);
    }

    #[test]
    fn shifting_hot_set_keeps_selector_at_lru() {
        let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut c = SbarCache::new(geom, SbarConfig::paper_default(), 5);
        let mut x = 77u64;
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(shifting_hot_block(i, x), false);
        }
        assert_eq!(c.global_winner(), Component::A);
    }

    #[test]
    fn partial_leader_tags_work() {
        let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
        let mut c = SbarCache::new(geom, SbarConfig::paper_partial_tags(), 5);
        for i in 0..200_000u64 {
            c.access(hot_scan_block(i), false);
        }
        assert_eq!(c.global_winner(), Component::B);
    }

    #[test]
    #[should_panic(expected = "leader_sets")]
    fn rejects_zero_leaders() {
        let geom = Geometry::new(4096, 64, 4).unwrap();
        let cfg = SbarConfig {
            leader_sets: 0,
            ..SbarConfig::paper_default()
        };
        let _ = SbarCache::new(geom, cfg, 0);
    }

    #[test]
    fn switch_counter_counts_mind_changes() {
        let geom = Geometry::new(16 * 1024, 64, 4).unwrap();
        let mut c = SbarCache::new(geom, SbarConfig::paper_default(), 1);
        assert_eq!(c.policy_switches(), 0);
        // Alternate hostile phases; expect at least one switch. The
        // LRU-friendly phase is a completely shifting window sized well
        // under the 16 KB cache: stale high-count blocks poison LFU while
        // LRU adapts immediately.
        let mut x = 9u64;
        for phase in 0..4u64 {
            for i in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let b = if phase % 2 == 0 {
                    // LFU-friendly hot/scan mix scaled to the 16 KB cache
                    // (3 hot blocks per 4-way set + long scan).
                    let group = i / 4;
                    if i % 4 < 3 {
                        BlockAddr::new(group % 192)
                    } else {
                        BlockAddr::new(192 + group % 2048)
                    }
                } else {
                    let window = (phase * 100_000 + i) / 5_000;
                    BlockAddr::new(window * 192 + x % 192) // LRU-friendly
                };
                c.access(b, false);
            }
        }
        assert!(c.policy_switches() >= 1);
    }

    #[test]
    fn label_mentions_leaders() {
        let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
        let c = SbarCache::new(geom, SbarConfig::paper_default(), 0);
        assert_eq!(c.label(), "SBAR LRU/LFU (512KB, 8-way, 16 leaders)");
    }
}
