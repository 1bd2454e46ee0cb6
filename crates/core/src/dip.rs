//! DIP — Dynamic Insertion Policy (Qureshi et al., ISCA 2007) — as a
//! related-work comparison point.
//!
//! The paper's Section 4.7 evaluates the SBAR set-sampling idea from
//! Qureshi et al.'s MLP work; one year after MICRO 2006, the same group's
//! *set dueling* matured into DIP, which became the more influential
//! follow-up to adaptive replacement. Implementing it here lets the
//! benchmark harness compare the paper's scheme against its successor:
//!
//! * **LIP** inserts incoming blocks at the *LRU* position instead of the
//!   MRU position, so single-use scan blocks evict themselves;
//! * **BIP** promotes an inserted block to MRU only every 32nd fill,
//!   keeping a trickle of adaptation;
//! * **DIP** set-duels LRU-insertion against BIP: a few dedicated leader
//!   sets always use one or the other and a PSEL counter picks the policy
//!   for the follower sets.
//!
//! DIP needs *no* shadow tags at all (cheaper than even SBAR) but can only
//! choose between insertion behaviours of one recency order, whereas the
//! adaptive cache can combine arbitrary policies.

use crate::adaptive::Component;
use crate::engine::install;
use crate::psel::{SharedPsel, Votes};
use cache_sim::{
    AccessOutcome, BlockAddr, CacheModel, CacheStats, Directory, Geometry, MetaTable, PolicyKind,
    TagMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of a [`DipCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DipConfig {
    /// Dedicated leader sets *per policy* (LRU-insertion leaders and
    /// BIP leaders).
    pub leaders_per_policy: usize,
    /// BIP promotes to MRU once every `bip_epsilon` fills.
    pub bip_epsilon: u32,
    /// PSEL width in bits.
    pub psel_bits: u32,
}

impl DipConfig {
    /// The ISCA 2007 configuration: 32 leader sets per policy,
    /// epsilon = 1/32, 10-bit PSEL.
    pub fn paper_default() -> Self {
        DipConfig {
            leaders_per_policy: 32,
            bip_epsilon: 32,
            psel_bits: 10,
        }
    }
}

/// Which insertion behaviour a set uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    LeaderLru,
    LeaderBip,
    Follower,
}

/// A DIP-managed cache: LRU victim selection with dueling insertion
/// policies.
///
/// ```
/// use adaptive_cache::{DipCache, DipConfig};
/// use cache_sim::{BlockAddr, CacheModel, Geometry};
///
/// let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
/// let mut cache = DipCache::new(geom, DipConfig::paper_default(), 3);
/// for i in 0..50_000u64 {
///     cache.access(BlockAddr::new(i % 9000), false);
/// }
/// assert_eq!(cache.stats().accesses, 50_000);
/// ```
pub struct DipCache {
    config: DipConfig,
    real: Directory,
    /// Recency order (victims are always the LRU block).
    recency: MetaTable<PolicyKind>,
    roles: Vec<SetRole>,
    /// The dueling counter: it favours component B, BIP, above its
    /// midpoint.
    psel: SharedPsel,
    /// Leader-set misses that trained the dueling counter, and the times
    /// the selected insertion policy flipped across the midpoint.
    votes: Votes,
    /// Fill counter driving BIP's deterministic 1-in-epsilon promotion.
    fills: u64,
    /// Seeded RNG for the policy victim call (LRU never consults it, so
    /// DIP remains fully deterministic).
    rng: SmallRng,
    stats: CacheStats,
}

impl DipCache {
    /// Creates an empty DIP cache.
    ///
    /// # Panics
    ///
    /// Panics if the leader sets do not fit the geometry, `bip_epsilon`
    /// is zero, or `psel_bits` is outside `1..=31`.
    pub fn new(geom: Geometry, config: DipConfig, seed: u64) -> Self {
        let sets = geom.num_sets();
        assert!(config.bip_epsilon >= 1, "bip_epsilon must be >= 1");
        assert!(
            config.leaders_per_policy >= 1 && config.leaders_per_policy * 2 <= sets,
            "need 1..={} leader sets per policy, got {}",
            sets / 2,
            config.leaders_per_policy
        );
        // Complement-select style leader placement: interleave the two
        // leader kinds uniformly across the index space.
        let mut roles = vec![SetRole::Follower; sets];
        let stride = sets / (config.leaders_per_policy * 2);
        for i in 0..config.leaders_per_policy {
            roles[(2 * i) * stride] = SetRole::LeaderLru;
            roles[(2 * i + 1) * stride] = SetRole::LeaderBip;
        }
        let psel = SharedPsel::new(config.psel_bits);
        DipCache {
            real: Directory::new(geom, TagMode::Full),
            recency: MetaTable::new(PolicyKind::Lru, sets, geom.associativity()),
            roles,
            votes: Votes::new(&psel),
            psel,
            fills: 0,
            rng: SmallRng::seed_from_u64(seed),
            stats: CacheStats::default(),
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &DipConfig {
        &self.config
    }

    /// Whether the follower sets currently use BIP insertion.
    pub fn bip_selected(&self) -> bool {
        self.psel.winner() == Component::B
    }

    /// The current value of the dueling counter.
    pub fn psel(&self) -> u32 {
        self.psel.load()
    }

    /// Total leader-set misses that trained the dueling counter.
    pub fn duel_votes(&self) -> u64 {
        self.votes.count
    }

    /// Number of times the selected insertion policy flipped.
    pub fn policy_switches(&self) -> u64 {
        self.votes.switches
    }

    /// Whether this set's insertion policy is BIP right now.
    fn uses_bip(&self, set: usize) -> bool {
        match self.roles[set] {
            SetRole::LeaderLru => false,
            SetRole::LeaderBip => true,
            SetRole::Follower => self.bip_selected(),
        }
    }

    /// Demote `way` to the LRU position of `set` (insertion at LRU):
    /// give it a metadata word below the current minimum.
    fn demote_to_lru(&mut self, set: usize, way: usize) {
        let min = self
            .recency
            .set_meta(set)
            .iter()
            .filter(|&(w, _)| w != way)
            .map(|(_, word)| word)
            .min()
            .unwrap_or(1);
        self.recency
            .set_meta_mut(set)
            .set_word(way, min.saturating_sub(1));
    }
}

impl CacheModel for DipCache {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        let (set, stored) = self.real.locate(block);
        if let Some(way) = self.real.find(set, stored) {
            self.stats.record(true, write);
            // Writes reaching an L2 are L1 writebacks, not demand reuse;
            // promoting on them would let every dirty scan block rotate
            // the BIP-retained set out. Real DIP deployments leave
            // replacement state untouched on writebacks.
            if !write {
                self.recency.on_hit(set, way);
            }
            if write {
                self.real.mark_dirty(set, way);
            }
            return AccessOutcome::hit();
        }
        self.stats.record(false, write);

        // Train the dueling counter on leader-set misses: an LRU-insertion
        // leader's miss counts towards BIP, a BIP leader's against it.
        if self.roles[set] != SetRole::Follower {
            let bip_leader = self.roles[set] == SetRole::LeaderBip;
            self.votes.cast(&self.psel, !bip_leader);
        }

        let way = match self.real.invalid_way(set) {
            Some(w) => w,
            None => {
                // Victims are always chosen by recency (LRU).
                self.recency.victim(set, &mut self.rng)
            }
        };
        let eviction = install(&mut self.real, &mut self.stats, set, way, stored, write);
        self.fills += 1;
        // Insertion policy: MRU (normal LRU), or LRU-position (BIP)
        // with a deterministic 1-in-epsilon MRU promotion.
        self.recency.on_fill(set, way);
        if self.uses_bip(set)
            && !self
                .fills
                .is_multiple_of(u64::from(self.config.bip_epsilon))
        {
            self.demote_to_lru(set, way);
        }
        AccessOutcome::miss(eviction)
    }

    fn prefetch_hint(&self, block: BlockAddr) {
        let set = self.real.geometry().set_index(block);
        self.real.prefetch_record(set);
        self.recency.prefetch(set);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn geometry(&self) -> &Geometry {
        self.real.geometry()
    }

    fn label(&self) -> String {
        let g = self.geometry();
        format!(
            "DIP ({}KB, {}-way, {} leaders/policy)",
            g.size_bytes() / 1024,
            g.associativity(),
            self.config.leaders_per_policy
        )
    }

    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        ac_telemetry::TimelineProbe {
            accesses: self.stats.accesses,
            hits: self.stats.hits,
            misses: self.stats.misses,
            leader_votes: self.votes.count,
            psel: Some(self.psel.load()),
            ..ac_telemetry::TimelineProbe::default()
        }
    }
}

impl fmt::Debug for DipCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DipCache")
            .field("label", &self.label())
            .field("stats", &self.stats)
            .field("bip_selected", &self.bip_selected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(64 * 1024, 64, 8).unwrap()
    }

    #[test]
    fn leader_layout() {
        let c = DipCache::new(geom(), DipConfig::paper_default(), 0);
        let lru = c.roles.iter().filter(|r| **r == SetRole::LeaderLru).count();
        let bip = c.roles.iter().filter(|r| **r == SetRole::LeaderBip).count();
        assert_eq!(lru, 32);
        assert_eq!(bip, 32);
    }

    #[test]
    fn behaves_like_lru_on_friendly_streams() {
        // A working set that fits: DIP must not lose to plain LRU.
        let mut dip = DipCache::new(geom(), DipConfig::paper_default(), 0);
        let mut lru = cache_sim::Cache::new(geom(), PolicyKind::Lru, 0);
        for i in 0..200_000u64 {
            let b = BlockAddr::new((i / 8) % 800);
            dip.access(b, false);
            lru.access(b, false);
        }
        let (d, l) = (dip.stats().misses, lru.stats().misses);
        assert!(
            (d as f64) < (l as f64) * 1.05 + 100.0,
            "DIP {d} vs LRU {l} on an LRU-friendly stream"
        );
    }

    #[test]
    fn selects_bip_and_wins_on_thrashing_scans() {
        // A cyclic scan slightly larger than the cache: pure LRU gets 0%
        // hits; BIP retains most of the cache. DIP must switch to BIP and
        // clearly beat LRU.
        let blocks = (64 * 1024 / 64) * 3 / 2; // 1.5x the cache
        let mut dip = DipCache::new(geom(), DipConfig::paper_default(), 0);
        let mut lru = cache_sim::Cache::new(geom(), PolicyKind::Lru, 0);
        for i in 0..600_000u64 {
            let b = BlockAddr::new(i % blocks as u64);
            dip.access(b, false);
            lru.access(b, false);
        }
        assert!(dip.bip_selected(), "DIP must select BIP under thrashing");
        assert!(
            dip.stats().misses * 10 < lru.stats().misses * 9,
            "DIP {} vs LRU {}",
            dip.stats().misses,
            lru.stats().misses
        );
    }

    #[test]
    #[should_panic(expected = "leader sets")]
    fn rejects_oversized_leaders() {
        let g = Geometry::new(4096, 64, 4).unwrap(); // 16 sets
        let _ = DipCache::new(
            g,
            DipConfig {
                leaders_per_policy: 16,
                ..DipConfig::paper_default()
            },
            0,
        );
    }

    #[test]
    fn label_and_debug() {
        let c = DipCache::new(geom(), DipConfig::paper_default(), 0);
        assert!(c.label().starts_with("DIP"));
        assert!(format!("{c:?}").contains("bip_selected"));
    }
}
