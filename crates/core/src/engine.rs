//! The two-component adaptive engine shared by the paper's cache and its
//! set-sampling (SBAR) variant, plus the Algorithm-1 scan and install
//! path that the other organisations reuse.

use crate::adaptive::{Component, ImitationSample};
use cache_sim::{
    AccessOutcome, BlockAddr, CacheModel, CacheStats, Directory, Eviction, Geometry, MetaTable,
    PolicyKind, ReplacementPolicy, StoredTag, TagArray, TagMode, Way,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Where an [`AdaptiveEngine`] keeps its shadow state, and how it picks
/// the component a replacement imitates.
///
/// [`crate::PerSetHistory`] is the paper's cache: every set probes both
/// shadow directories and keeps its own miss history.
/// [`crate::SetSampling`] is SBAR (Section 4.7): only leader sets probe
/// and vote into a global selector, and follower sets evict from the
/// per-component metadata of their resident blocks.
pub trait Selector: Send {
    /// Organisation name at the head of [`CacheModel::label`].
    const LABEL: &'static str;
    /// Type name printed by `Debug`.
    const TYPE_NAME: &'static str;

    /// The history slot of `set` when the set probes the shadow
    /// directories, `None` for a follower set.
    fn slot(&self, set: usize) -> Option<usize>;

    /// Trains history `slot` (see [`Selector::slot`]) with one
    /// shadow-probed reference.
    fn train(&mut self, slot: usize, a_hit: bool, b_hit: bool);

    /// The component a replacement in `set` imitates; `slot` is
    /// [`Selector::slot`] of `set`.
    fn winner(&mut self, set: usize, slot: Option<usize>) -> Component;

    /// Prefetches the selector state an access to `set` touches.
    fn prefetch(&self, _set: usize) {}

    /// `(leader votes, selector register)` for [`CacheModel::timeline_probe`].
    fn votes(&self) -> (u64, Option<u32>) {
        (0, None)
    }

    /// The label's last field.
    fn label_detail(&self, shadow_tags: TagMode) -> String;
}

/// A real, full-tag directory whose victims imitate the better of two
/// component policies, observed through shadow tag arrays. The selector
/// `S` decides which sets keep shadow state and which component wins;
/// [`crate::AdaptiveCache`] and [`crate::SbarCache`] are its two
/// instantiations.
pub struct AdaptiveEngine<S, A: ReplacementPolicy = PolicyKind, B: ReplacementPolicy = PolicyKind> {
    pub(crate) selector: S,
    real: Directory,
    shadow_a: TagArray<A>,
    shadow_b: TagArray<B>,
    /// Both components' replacement metadata over the real cache's
    /// resident blocks, when kept. SBAR's follower sets evict with it
    /// (Section 4.7).
    resident: Option<(MetaTable<A>, MetaTable<B>)>,
    /// Section 3.3's shortcut: a replacement that imitates an LRU
    /// component evicts the least recent resident block instead of
    /// searching for one outside the shadow.
    lru_shortcut: bool,
    samples: Vec<ImitationSample>,
    rng: SmallRng,
    stats: CacheStats,
    aliasing_fallbacks: u64,
    imitations_a: u64,
    imitations_b: u64,
    excl_a_misses: u64,
    excl_b_misses: u64,
}

impl<S: Selector, A: ReplacementPolicy, B: ReplacementPolicy> AdaptiveEngine<S, A, B> {
    /// An empty engine with no resident metadata.
    pub(crate) fn build(
        geom: Geometry,
        selector: S,
        policy_a: A,
        policy_b: B,
        shadow_tags: TagMode,
        seed: u64,
    ) -> Self {
        let sets = geom.num_sets();
        AdaptiveEngine {
            selector,
            real: Directory::new(geom, TagMode::Full),
            shadow_a: TagArray::new(geom, shadow_tags, policy_a, seed ^ 0xA),
            shadow_b: TagArray::new(geom, shadow_tags, policy_b, seed ^ 0xB),
            resident: None,
            lru_shortcut: false,
            samples: vec![ImitationSample::default(); sets],
            rng: SmallRng::seed_from_u64(seed),
            stats: CacheStats::default(),
            aliasing_fallbacks: 0,
            imitations_a: 0,
            imitations_b: 0,
            excl_a_misses: 0,
            excl_b_misses: 0,
        }
    }

    /// Keeps both components' resident metadata; `lru_shortcut` turns
    /// on the Section 3.3 shortcut.
    pub(crate) fn with_resident(mut self, a: A, b: B, lru_shortcut: bool) -> Self {
        let (sets, ways) = (
            self.real.geometry().num_sets(),
            self.real.geometry().associativity(),
        );
        self.resident = Some((MetaTable::new(a, sets, ways), MetaTable::new(b, sets, ways)));
        self.lru_shortcut = lru_shortcut;
        self
    }

    /// The shadow arrays' tag mode.
    pub fn shadow_tag_mode(&self) -> TagMode {
        self.shadow_a.tag_mode()
    }

    /// Number of misses where partial-tag aliasing prevented finding a
    /// block outside the imitated component cache, forcing an arbitrary
    /// eviction. Always 0 with full shadow tags.
    pub fn aliasing_fallbacks(&self) -> u64 {
        self.aliasing_fallbacks
    }

    /// Total replacement decisions that imitated each component, as
    /// `(a, b)`.
    pub fn imitation_totals(&self) -> (u64, u64) {
        (self.imitations_a, self.imitations_b)
    }

    /// Total *exclusive* misses per component, as `(a, b)`: references
    /// where exactly one shadow missed — the only references that train
    /// the selector (Section 3.1).
    pub fn exclusive_miss_totals(&self) -> (u64, u64) {
        (self.excl_a_misses, self.excl_b_misses)
    }

    /// Statistics of the shadow array for `c` — i.e. the miss behaviour
    /// the pure component policy *would* have had on the references of
    /// the sets that keep shadow state.
    pub fn shadow_stats(&self, c: Component) -> (u64, u64) {
        let s = match c {
            Component::A => self.shadow_a.stats(),
            Component::B => self.shadow_b.stats(),
        };
        (s.hits, s.misses)
    }

    /// Whether the real cache currently holds `block`.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.real.contains_block(block)
    }

    /// Invalidates `block` in the *real* cache only (coherence-style
    /// back-invalidation), returning whether it was present.
    ///
    /// Deliberately does **not** touch the shadow arrays: the paper's
    /// hardware implements them "without support for snooping, which
    /// reduces the area, latency and power" (Section 3.2) — "the parallel
    /// tag may report that a given cache line is present when it has been
    /// invalidated, but this only causes the replacement policy to
    /// deviate slightly".
    pub fn invalidate_block(&mut self, block: BlockAddr) -> bool {
        let (set, stored) = self.real.locate(block);
        match self.real.find(set, stored) {
            Some(way) => {
                self.real.invalidate(set, way);
                true
            }
            None => false,
        }
    }

    /// Takes (and resets) the per-set imitation samples accumulated since
    /// the last call — the paper's Figure 7 samples these every million
    /// cycles.
    pub fn take_imitation_samples(&mut self) -> Vec<ImitationSample> {
        let n = self.samples.len();
        std::mem::replace(&mut self.samples, vec![ImitationSample::default(); n])
    }

    /// Picks the victim for a miss in the full `set` and counts the
    /// imitation. `victim_a`/`victim_b` are the shadows' own victims of
    /// this reference, when they missed.
    fn replace(
        &mut self,
        set: usize,
        slot: Option<usize>,
        victim_a: Option<Way>,
        victim_b: Option<Way>,
    ) -> usize {
        let winner = self.selector.winner(set, slot);
        match winner {
            Component::A => {
                self.samples[set].imitated_a += 1;
                self.imitations_a += 1;
            }
            Component::B => {
                self.samples[set].imitated_b += 1;
                self.imitations_b += 1;
            }
        }
        // The victim the winner's resident metadata picks.
        let resident = |rng: &mut SmallRng| {
            let (a, b) = self.resident.as_ref().expect("resident metadata is kept");
            match winner {
                Component::A => a.victim(set, rng),
                Component::B => b.victim(set, rng),
            }
        };
        match slot {
            // A follower applies the winner to the blocks it holds.
            None => resident(&mut self.rng),
            Some(_) => {
                let (shadow, victim, policy) = match winner {
                    Component::A => (
                        self.shadow_a.directory(),
                        victim_a,
                        self.shadow_a.policy().name(),
                    ),
                    Component::B => (
                        self.shadow_b.directory(),
                        victim_b,
                        self.shadow_b.policy().name(),
                    ),
                };
                let shortcut = self.lru_shortcut && policy == "LRU";
                algorithm1(
                    &self.real,
                    shadow,
                    set,
                    victim,
                    &mut self.rng,
                    &mut self.aliasing_fallbacks,
                    |rng| shortcut.then(|| resident(rng)),
                )
            }
        }
    }
}

impl<S: Selector, A: ReplacementPolicy, B: ReplacementPolicy> CacheModel
    for AdaptiveEngine<S, A, B>
{
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        // Decompose the address once: the real directory keeps full tags,
        // so `stored.raw()` *is* the geometry tag, and the shadows reduce
        // it through their own tag mode without re-deriving the set index.
        let (set, stored) = self.real.locate(block);
        let real_mask = self.real.match_mask(set, stored);

        // Emulate both component caches for this reference and train the
        // selector. The shadow updates never touch the real directory, so
        // the mask above still answers the lookup below. Both shadows
        // share one tag mode: the reduction happens once and, with packed
        // lanes, one 16-byte compare answers for both.
        let slot = self.selector.slot(set);
        let (mut victim_a, mut victim_b) = (None, None);
        if let Some(slot) = slot {
            let shadow_stored = self.shadow_a.tag_mode().store(stored.raw());
            let (mask_a, mask_b) = cache_sim::fused_pair_masks(
                &self.shadow_a,
                &self.shadow_b,
                set,
                shadow_stored,
                shadow_stored,
            );
            let a = self.shadow_a.access_with_mask(set, shadow_stored, mask_a);
            let b = self.shadow_b.access_with_mask(set, shadow_stored, mask_b);
            if !a.hit {
                victim_a = a.evicted;
            }
            if !b.hit {
                victim_b = b.evicted;
            }
            // Exclusive miss: the only kind of reference that moves the
            // selector towards one component.
            if a.hit != b.hit {
                if a.hit {
                    self.excl_b_misses += 1;
                } else {
                    self.excl_a_misses += 1;
                }
            }
            self.selector.train(slot, a.hit, b.hit);
        }

        if real_mask != 0 {
            let way = real_mask.trailing_zeros() as usize;
            self.stats.record(true, write);
            if let Some((a, b)) = &mut self.resident {
                a.on_hit(set, way);
                b.on_hit(set, way);
            }
            if write {
                self.real.mark_dirty(set, way);
            }
            return AccessOutcome::hit();
        }
        self.stats.record(false, write);

        // Miss: fill an invalid way if one exists, otherwise replace.
        let way = match self.real.invalid_way(set) {
            Some(w) => w,
            None => self.replace(set, slot, victim_a, victim_b),
        };
        if let Some((a, b)) = &mut self.resident {
            a.on_fill(set, way);
            b.on_fill(set, way);
        }
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
        // An access touches the real record, both shadow records and
        // their replacement metadata, the selector state and the resident
        // metadata — up to ~6 scattered cache lines. Getting them all in
        // flight one access early is what hides the walk.
        let set = self.real.geometry().set_index(block);
        self.real.prefetch_record(set);
        if self.selector.slot(set).is_some() {
            self.shadow_a.prefetch_set(set);
            self.shadow_b.prefetch_set(set);
        }
        self.selector.prefetch(set);
        if let Some((a, b)) = &self.resident {
            a.prefetch(set);
            b.prefetch(set);
        }
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
            "{} {}/{} ({}KB, {}-way, {})",
            S::LABEL,
            self.shadow_a.policy().name(),
            self.shadow_b.policy().name(),
            g.size_bytes() / 1024,
            g.associativity(),
            self.selector.label_detail(self.shadow_a.tag_mode())
        )
    }

    fn timeline_probe(&self) -> ac_telemetry::TimelineProbe {
        let (a, b) = (self.shadow_a.stats(), self.shadow_b.stats());
        let (leader_votes, psel) = self.selector.votes();
        ac_telemetry::TimelineProbe {
            accesses: self.stats.accesses,
            hits: self.stats.hits,
            misses: self.stats.misses,
            shadow_a_misses: a.misses,
            shadow_b_misses: b.misses,
            shadow_a_hits: a.hits,
            shadow_b_hits: b.hits,
            excl_a_misses: self.excl_a_misses,
            excl_b_misses: self.excl_b_misses,
            imitations_a: self.imitations_a,
            imitations_b: self.imitations_b,
            aliasing_fallbacks: self.aliasing_fallbacks,
            leader_votes,
            psel,
        }
    }
}

impl<S: Selector, A: ReplacementPolicy, B: ReplacementPolicy> fmt::Debug
    for AdaptiveEngine<S, A, B>
{
    // Show the label and headline statistics rather than megabytes of
    // tag-array state.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(S::TYPE_NAME)
            .field("label", &self.label())
            .field("stats", &self.stats)
            .field("aliasing_fallbacks", &self.aliasing_fallbacks)
            .finish()
    }
}

/// Algorithm 1's victim for a miss in the full `set` of the real
/// (full-tag) directory, when the replacement imitates the component
/// whose shadow directory is `shadow`:
///
/// 1. the component missed too and its `victim` is still here: evict
///    that same block;
/// 2. otherwise `shortcut` may name a victim (Section 3.3);
/// 3. otherwise evict the first block the component does not hold,
///    which always exists with full shadow tags;
/// 4. partial-tag aliasing hid every such block: "the adaptive cache
///    simply picks an arbitrary block to evict" (Section 3.1) — a
///    uniformly random way, counted in `fallbacks`.
///
/// The scans of cases 1 and 3 share one pass that reduces each valid
/// real tag to the shadow representation exactly once
/// ([`Directory::reduced_tags`]); the candidates then come from
/// bitmasks over the reduced tags, in first-matching-way order.
pub(crate) fn algorithm1(
    real: &Directory,
    shadow: &Directory,
    set: usize,
    victim: Option<Way>,
    rng: &mut SmallRng,
    fallbacks: &mut u64,
    shortcut: impl FnOnce(&mut SmallRng) -> Option<usize>,
) -> usize {
    let mut reduced = [StoredTag::default(); cache_sim::MAX_ASSOC];
    let valid = real.reduced_tags(set, shadow.tag_mode(), &mut reduced);
    if let Some(evicted) = victim {
        let mut same = 0u64;
        let mut m = valid;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            same |= u64::from(reduced[w] == evicted.tag) << w;
        }
        if same != 0 {
            return same.trailing_zeros() as usize;
        }
    }
    if let Some(way) = shortcut(rng) {
        return way;
    }
    // Each membership probe reuses the reduced tags: a single mask
    // compare in the shadow directory.
    let mut m = valid;
    while m != 0 {
        let w = m.trailing_zeros() as usize;
        m &= m - 1;
        if !shadow.contains(set, reduced[w]) {
            return w;
        }
    }
    *fallbacks += 1;
    rng.gen_range(0..real.geometry().associativity())
}

/// Installs `stored` at `(set, way)` of the real directory, dirty when
/// `write`, and reports the block it evicted. Always inlined, like
/// [`Directory::fill_at`]: it is the tail of every miss, and the
/// compiler otherwise emits it as a call.
#[inline(always)]
pub(crate) fn install(
    real: &mut Directory,
    stats: &mut CacheStats,
    set: usize,
    way: usize,
    stored: StoredTag,
    write: bool,
) -> Option<Eviction> {
    let old = real.fill_at(set, way, stored);
    if write {
        real.mark_dirty(set, way);
    }
    stats.record_eviction(real.geometry(), set, old)
}
