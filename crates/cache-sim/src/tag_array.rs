//! Tag directories and policy-managed tag arrays.
//!
//! [`Directory`] is the bare tag store (valid/dirty bits + stored tags);
//! [`TagArray`] binds a directory to a [`ReplacementPolicy`] and drives it
//! autonomously. The adaptive cache (crate `adaptive-cache`) uses
//! `TagArray`s as its *shadow* ("parallel") tag structures — one per
//! component policy — and a bare `Directory` for its real contents, whose
//! victims are chosen by the adaptivity logic rather than by a single
//! policy.
//!
//! # Layout
//!
//! The directory is stored structure-of-arrays: per-set `u64` valid and
//! dirty bitmasks plus one contiguous tag-word vector, so an 8-way set's
//! entire lookup state (mask word + 8 tag words) spans a single cache line
//! region instead of eight padded structs. Set scans (`find`,
//! `invalid_way`, `valid_count`) are branchless mask-and-compare loops
//! over these words. Partial-tag directories of at most 8 stored bits and
//! 8 ways additionally keep each set's tags swizzled into one `u64` (one
//! byte per way) and match a probe with a single SWAR word compare.

use crate::addr::BlockAddr;
use crate::geometry::Geometry;
use crate::meta::MetaTable;
use crate::partial::{StoredTag, TagMode};
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::simd;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Maximum supported associativity: one way per bit of the per-set masks.
pub const MAX_ASSOC: usize = 64;

/// One way of one set: a stored tag plus valid and dirty bits.
///
/// Since the packed-layout rework this is a *report* type (returned by
/// [`Directory::fill_at`] / [`Directory::invalidate`] and carried in
/// [`TagAccess::evicted`]), not the storage representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Way {
    /// Whether this way holds a block.
    pub valid: bool,
    /// The stored (possibly partial) tag; meaningless when `!valid`.
    pub tag: StoredTag,
    /// Whether the block has been written since it was filled.
    pub dirty: bool,
}

/// Record-word offset of the valid bitmask.
const REC_VALID: usize = 0;
/// Record-word offset of the dirty bitmask.
const REC_DIRTY: usize = 1;
/// Record-word offset of the SWAR lane (present only on eligible
/// partial-tag directories).
const REC_PACKED: usize = 2;

/// A bare tag directory: `num_sets x associativity` ways of
/// (valid, dirty, stored tag) with no replacement policy attached.
///
/// Tags are stored through a [`TagMode`], so the same type backs both
/// full-tag directories (real caches) and partial-tag shadow arrays.
#[derive(Debug)]
pub struct Directory {
    geom: Geometry,
    tag_mode: TagMode,
    assoc: usize,
    /// Bitmask covering ways `0..assoc`.
    full_mask: u64,
    /// Words per set record: `tag_off + assoc` rounded up to a power of
    /// two, so records never straddle more cache lines than they must and
    /// the set-to-base multiply strength-reduces to a shift.
    stride: usize,
    /// Record-word offset of the first tag word (2, or 3 with a SWAR lane).
    tag_off: usize,
    /// Word index of set 0's record inside `words` (chosen so records are
    /// 64-byte aligned; see [`aligned_zeroed`]).
    off: usize,
    /// Per-set records, one contiguous run of `stride` words each:
    /// `[valid bitmask, dirty bitmask, (SWAR lane,) tag words..., pad]`.
    /// Keeping every word a set lookup touches in one aligned record
    /// means an access pulls one or two adjacent cache lines instead of
    /// one line per parallel array. Tag entries of invalid ways are stale
    /// and must be masked by the valid word.
    words: Vec<u64>,
}

/// Allocates `n` zeroed words plus slack, returning the vector and the
/// element offset at which a 64-byte cache-line boundary falls. Indexing
/// from that offset keeps power-of-two records line-aligned without any
/// unsafe allocator calls.
fn aligned_zeroed(n: usize) -> (Vec<u64>, usize) {
    let v = vec![0u64; n + 7];
    let off = v.as_ptr().align_offset(64);
    debug_assert!(off <= 7);
    (v, off)
}

impl Clone for Directory {
    fn clone(&self) -> Self {
        // The alignment offset is allocation-specific, so clone by copying
        // the record region into a freshly aligned vector.
        let n = self.geom.num_sets() * self.stride;
        let (mut words, off) = aligned_zeroed(n);
        words[off..off + n].copy_from_slice(&self.words[self.off..self.off + n]);
        Directory {
            words,
            off,
            ..*self
        }
    }
}

impl Directory {
    /// Creates an empty directory for `geom` storing tags per `tag_mode`.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds [`MAX_ASSOC`] (64): the packed
    /// layout keeps one bitmask word per set.
    pub fn new(geom: Geometry, tag_mode: TagMode) -> Self {
        let assoc = geom.associativity();
        assert!(
            assoc <= MAX_ASSOC,
            "associativity {assoc} exceeds the packed directory limit of {MAX_ASSOC}"
        );
        let sets = geom.num_sets();
        let tag_off = if Self::swar_eligible(tag_mode, assoc) {
            REC_PACKED + 1
        } else {
            REC_PACKED
        };
        let stride = (tag_off + assoc).next_power_of_two();
        let (words, off) = aligned_zeroed(sets * stride);
        Directory {
            geom,
            tag_mode,
            assoc,
            full_mask: full_mask(assoc),
            stride,
            tag_off,
            off,
            words,
        }
    }

    #[inline]
    fn swar_eligible(tag_mode: TagMode, assoc: usize) -> bool {
        match tag_mode {
            TagMode::Full => false,
            TagMode::PartialLow { bits } | TagMode::PartialXor { bits } => bits <= 8 && assoc <= 8,
        }
    }

    /// The directory's geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The directory's tag mode.
    #[inline]
    pub fn tag_mode(&self) -> TagMode {
        self.tag_mode
    }

    /// Reduces a block address to (set index, stored tag).
    #[inline]
    pub fn locate(&self, block: BlockAddr) -> (usize, StoredTag) {
        (
            self.geom.set_index(block),
            self.tag_mode.store(self.geom.tag(block)),
        )
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        self.off + set * self.stride
    }

    /// The whole record of `set`: `[valid, dirty, (packed,) tags...]`.
    #[inline]
    fn rec(&self, set: usize) -> &[u64] {
        let b = self.base(set);
        &self.words[b..b + self.stride]
    }

    /// The valid bitmask of `set` (bit `w` set = way `w` holds a block).
    #[inline]
    pub fn valid_mask(&self, set: usize) -> u64 {
        self.words[self.base(set) + REC_VALID]
    }

    /// Whether `(set, way)` holds a block.
    #[inline]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        debug_assert!(way < self.assoc);
        self.valid_mask(set) >> way & 1 != 0
    }

    /// Whether `(set, way)` is dirty.
    #[inline]
    pub fn is_dirty(&self, set: usize, way: usize) -> bool {
        debug_assert!(way < self.assoc);
        self.words[self.base(set) + REC_DIRTY] >> way & 1 != 0
    }

    /// The stored tag of `(set, way)`; meaningless unless the way is valid.
    #[inline]
    pub fn way_tag(&self, set: usize, way: usize) -> StoredTag {
        debug_assert!(way < self.assoc);
        StoredTag(self.words[self.base(set) + self.tag_off + way])
    }

    /// Bitmask of the valid ways of `set` whose stored tag equals
    /// `stored` — the branchless core of [`Directory::find`] and
    /// [`Directory::contains`].
    ///
    /// Forced inline: callers run this once per simulated access, and
    /// inlining lets the layout fields (`tag_off`, `assoc`, `stride`) and
    /// the path dispatch below hoist out of trace loops entirely.
    #[inline(always)]
    pub fn match_mask(&self, set: usize, stored: StoredTag) -> u64 {
        let rec = self.rec(set);
        let valid = rec[REC_VALID];
        if self.tag_off > REC_PACKED {
            // SWAR path: compare all (<= 8) ways with one swizzled word.
            // A single resident lane beats a vector round-trip, so this
            // stays scalar (the fused *pair* compare,
            // [`Directory::pair_match_mask`], is where a vector wins).
            return simd::swar_lane_eq(rec[REC_PACKED], stored.0) & valid;
        }
        let tags = &rec[self.tag_off..self.tag_off + self.assoc];
        // Wide-tag compare: an unrolled loop, `vpcmpeqq` on AVX2 builds.
        simd::eq_mask_u64(tags, stored.0) & valid
    }

    /// [`Directory::match_mask`] across *two* directories of one geometry
    /// in a single pass, returning `(self mask, other mask)`.
    ///
    /// When both directories keep SWAR-packed lanes (≤8-bit partial tags,
    /// ≤8 ways — the adaptive cache's shadow pair) and probe for the same
    /// stored byte, both 8-byte lanes are compared side by side with one
    /// 16-byte vector compare on x86-64 ([`simd::lane_pair_eq`]);
    /// otherwise this decays to two independent `match_mask` calls.
    /// Either way the result is bit-identical to the two-call form.
    #[inline(always)]
    pub fn pair_match_mask(
        &self,
        other: &Directory,
        set: usize,
        stored_self: StoredTag,
        stored_other: StoredTag,
    ) -> (u64, u64) {
        if self.tag_off > REC_PACKED && other.tag_off > REC_PACKED && stored_self == stored_other {
            let ra = self.rec(set);
            let rb = other.rec(set);
            let (ea, eb) = simd::lane_pair_eq(ra[REC_PACKED], rb[REC_PACKED], stored_self.0);
            return (ea & ra[REC_VALID], eb & rb[REC_VALID]);
        }
        (
            self.match_mask(set, stored_self),
            other.match_mask(set, stored_other),
        )
    }

    /// Issues read prefetches for the cache line(s) holding `set`'s
    /// record, so a shortly-following probe of the set finds its words
    /// resident. Records are 64-byte aligned and `stride` words long, so
    /// this touches one line for ≤8-word records and the first two lines
    /// otherwise (tags beyond way ~13 are only reached on wide scans).
    #[inline(always)]
    pub fn prefetch_record(&self, set: usize) {
        let p = self.words.as_ptr().wrapping_add(self.base(set));
        simd::prefetch_read(p);
        if self.stride > 8 {
            simd::prefetch_read(p.wrapping_add(8));
        }
    }

    /// Finds the way of `set` holding `stored`, if any.
    #[inline]
    pub fn find(&self, set: usize, stored: StoredTag) -> Option<usize> {
        let m = self.match_mask(set, stored);
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// Whether `set` holds `stored`.
    #[inline]
    pub fn contains(&self, set: usize, stored: StoredTag) -> bool {
        self.match_mask(set, stored) != 0
    }

    /// Whether the directory holds `block` (full lookup).
    #[inline]
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let (set, stored) = self.locate(block);
        self.contains(set, stored)
    }

    /// First invalid way of `set`, if any.
    #[inline]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        let free = self.free_mask(set);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Bitmask of the invalid (fillable) ways of `set`.
    #[inline]
    pub fn free_mask(&self, set: usize) -> u64 {
        !self.valid_mask(set) & self.full_mask
    }

    /// Reduces the full tags of `set`'s valid ways through `mode`, writing
    /// `out[w]` for each valid way `w`, and returns the set's valid mask.
    ///
    /// This is the fused-pass helper for the adaptive replacement
    /// algorithm: it hoists the per-way `mode.store(tag)` conversions of
    /// the Case-1 ("same victim") and Case-2 ("not in shadow") scans into
    /// one loop with the tag-mode dispatch resolved once per call. Only
    /// meaningful on full-tag directories (the adaptive cache's real
    /// contents).
    pub fn reduced_tags(&self, set: usize, mode: TagMode, out: &mut [StoredTag; MAX_ASSOC]) -> u64 {
        debug_assert!(
            !self.tag_mode.is_partial(),
            "reduced_tags re-reduces full tags; the directory already stores partial ones"
        );
        let rec = self.rec(set);
        let valid = rec[REC_VALID];
        let tags = &rec[self.tag_off..self.tag_off + self.assoc];
        match mode {
            TagMode::Full => {
                let mut m = valid;
                while m != 0 {
                    let w = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[w] = StoredTag(tags[w]);
                }
            }
            _ => {
                let mut m = valid;
                while m != 0 {
                    let w = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[w] = mode.store(tags[w]);
                }
            }
        }
        valid
    }

    #[inline]
    fn set_packed_byte(rec: &mut [u64], tag_off: usize, way: usize, tag: u64) {
        if tag_off > REC_PACKED {
            let shift = 8 * way;
            rec[REC_PACKED] = (rec[REC_PACKED] & !(0xFFu64 << shift)) | (tag << shift);
        }
    }

    /// Installs `stored` into `(set, way)` and returns the evicted way
    /// (if it was valid).
    #[inline(always)]
    pub fn fill_at(&mut self, set: usize, way: usize, stored: StoredTag) -> Option<Way> {
        debug_assert!(way < self.assoc);
        let bit = 1u64 << way;
        let b = self.base(set);
        let tag_off = self.tag_off;
        let rec = &mut self.words[b..b + self.stride];
        let old = Way {
            valid: rec[REC_VALID] & bit != 0,
            tag: StoredTag(rec[tag_off + way]),
            dirty: rec[REC_DIRTY] & bit != 0,
        };
        rec[REC_VALID] |= bit;
        rec[REC_DIRTY] &= !bit;
        rec[tag_off + way] = stored.0;
        Self::set_packed_byte(rec, tag_off, way, stored.0);
        old.valid.then_some(old)
    }

    /// Marks `(set, way)` dirty.
    #[inline]
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        let bit = 1u64 << way;
        let b = self.base(set);
        debug_assert!(self.words[b + REC_VALID] & bit != 0);
        self.words[b + REC_DIRTY] |= bit;
    }

    /// Invalidates `(set, way)`, returning its previous contents if valid.
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<Way> {
        debug_assert!(way < self.assoc);
        let bit = 1u64 << way;
        let b = self.base(set);
        let tag_off = self.tag_off;
        let rec = &mut self.words[b..b + self.stride];
        let old = Way {
            valid: rec[REC_VALID] & bit != 0,
            tag: StoredTag(rec[tag_off + way]),
            dirty: rec[REC_DIRTY] & bit != 0,
        };
        rec[REC_VALID] &= !bit;
        rec[REC_DIRTY] &= !bit;
        rec[tag_off + way] = 0;
        Self::set_packed_byte(rec, tag_off, way, 0);
        old.valid.then_some(old)
    }

    /// Number of valid ways in `set`.
    pub fn valid_count(&self, set: usize) -> usize {
        self.valid_mask(set).count_ones() as usize
    }
}

#[inline]
fn full_mask(assoc: usize) -> u64 {
    if assoc >= 64 {
        u64::MAX
    } else {
        (1u64 << assoc) - 1
    }
}

/// Statistics of a [`TagArray`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl TagStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Result of a single [`TagArray::access`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// The way that now holds the block (hit way, or the fill way).
    pub way: usize,
    /// On a miss that replaced a valid block: the evicted way.
    pub evicted: Option<Way>,
}

/// A self-managed tag array: a [`Directory`] whose victims are chosen by a
/// [`ReplacementPolicy`].
///
/// This models both a conventional cache's tag side and the paper's shadow
/// tag structures. Accessing it fully simulates the component cache's
/// behaviour for the reference:
///
/// ```
/// use cache_sim::{Geometry, PolicyKind, TagArray, TagMode, Address};
///
/// let geom = Geometry::new(4096, 64, 4).unwrap();
/// let mut shadow = TagArray::new(geom, TagMode::PartialLow { bits: 8 },
///                                PolicyKind::Lru, 7);
/// let block = geom.block_of(Address::new(0x1000));
/// assert!(!shadow.access(block).hit);
/// assert!(shadow.access(block).hit);
/// ```
#[derive(Debug, Clone)]
pub struct TagArray<P: ReplacementPolicy = PolicyKind> {
    dir: Directory,
    meta: MetaTable<P>,
    rng: SmallRng,
    stats: TagStats,
}

impl<P: ReplacementPolicy> TagArray<P> {
    /// Creates an empty tag array.
    pub fn new(geom: Geometry, tag_mode: TagMode, policy: P, seed: u64) -> Self {
        TagArray {
            dir: Directory::new(geom, tag_mode),
            meta: MetaTable::new(policy, geom.num_sets(), geom.associativity()),
            rng: SmallRng::seed_from_u64(seed),
            stats: TagStats::default(),
        }
    }

    /// The underlying directory.
    #[inline]
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Mutable access to the underlying directory (crate-internal: used by
    /// [`crate::Cache`] to maintain dirty bits).
    #[inline]
    pub(crate) fn directory_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// The bound policy.
    #[inline]
    pub fn policy(&self) -> &P {
        self.meta.policy()
    }

    /// The array's geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        self.dir.geometry()
    }

    /// The array's tag mode.
    #[inline]
    pub fn tag_mode(&self) -> TagMode {
        self.dir.tag_mode()
    }

    /// Hit/miss statistics.
    #[inline]
    pub fn stats(&self) -> TagStats {
        self.stats
    }

    /// Simulates one reference to `block`: on a hit the policy's hit update
    /// runs; on a miss the policy chooses a victim (after invalid ways are
    /// exhausted), the block is installed and the policy's fill update runs.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> TagAccess {
        let (set, stored) = self.dir.locate(block);
        self.access_at(set, stored)
    }

    /// [`TagArray::access`] with the geometry decomposition precomputed:
    /// `set` must be the block's set index and `full_tag` its *full*
    /// geometry tag (this array reduces it through its own [`TagMode`]).
    ///
    /// Lets organisations that drive several arrays of one geometry (the
    /// adaptive cache's real + shadow structures) decompose each address
    /// once instead of once per array.
    #[inline]
    pub fn access_tag(&mut self, set: usize, full_tag: u64) -> TagAccess {
        let stored = self.dir.tag_mode().store(full_tag);
        self.access_at(set, stored)
    }

    /// [`TagArray::access`] with the location fully precomputed: `stored`
    /// must already be reduced through this array's [`TagMode`].
    ///
    /// The hit path (mask match + policy hit update) is forced inline into
    /// callers; the miss path (victim choice, fill, eviction bookkeeping)
    /// stays a call so the common case compiles to straight-line code.
    #[inline(always)]
    pub fn access_at(&mut self, set: usize, stored: StoredTag) -> TagAccess {
        // Work on raw masks rather than `Option` accessors: one data-
        // dependent hit/miss branch, everything else straight-line.
        let m = self.dir.match_mask(set, stored);
        self.access_with_mask(set, stored, m)
    }

    /// [`TagArray::access_at`] with the probe already resolved: `m` must
    /// be exactly `self.directory().match_mask(set, stored)`.
    ///
    /// This is the consume half of the fused multi-directory probe: an
    /// organisation that answered "hit in shadow A? hit in B?" with one
    /// wide compare ([`fused_pair_masks`]) feeds each array its half of
    /// the answer here instead of re-probing.
    #[inline(always)]
    pub fn access_with_mask(&mut self, set: usize, stored: StoredTag, m: u64) -> TagAccess {
        debug_assert_eq!(m, self.dir.match_mask(set, stored));
        if m != 0 {
            let way = m.trailing_zeros() as usize;
            self.stats.hits += 1;
            self.meta.on_hit(set, way);
            return TagAccess {
                hit: true,
                way,
                evicted: None,
            };
        }
        self.miss_at(set, stored)
    }

    /// Cold half of [`TagArray::access_at`]: install `stored` on a miss.
    fn miss_at(&mut self, set: usize, stored: StoredTag) -> TagAccess {
        self.stats.misses += 1;
        let free = self.dir.free_mask(set);
        let way = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            self.meta.victim(set, &mut self.rng)
        };
        let evicted = self.dir.fill_at(set, way, stored);
        self.meta.on_fill(set, way);
        TagAccess {
            hit: false,
            way,
            evicted,
        }
    }

    /// Issues read prefetches for the directory and metadata records of
    /// `set` so that a shortly-following access to the same set finds
    /// them close to the core. Trace-driven loops call this a few
    /// references ahead to overlap the (otherwise serial) record fetches
    /// across accesses.
    #[inline]
    pub fn prefetch_set(&self, set: usize) {
        self.dir.prefetch_record(set);
        self.meta.prefetch(set);
    }

    /// Whether the array currently holds `block`.
    ///
    /// With partial tags this can produce false positives — exactly the
    /// aliasing behaviour the paper analyses in Section 3.1.
    #[inline]
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.dir.contains_block(block)
    }

    /// Whether `set` holds the stored tag `stored` (for cross-array
    /// membership queries: the caller must have stored `stored` under this
    /// array's [`TagMode`]).
    #[inline]
    pub fn contains(&self, set: usize, stored: StoredTag) -> bool {
        self.dir.contains(set, stored)
    }

    /// Invalidate `block` if present (coherence-style back-invalidation).
    pub fn invalidate_block(&mut self, block: BlockAddr) -> bool {
        let (set, stored) = self.dir.locate(block);
        match self.dir.find(set, stored) {
            Some(way) => {
                self.dir.invalidate(set, way);
                true
            }
            None => false,
        }
    }
}

/// Probes two tag arrays' directories for `set` in one fused pass,
/// returning their match masks `(a, b)` — see
/// [`Directory::pair_match_mask`]. The arrays may run different policies
/// (hence the two type parameters); when they share a SWAR-packed tag
/// mode and probe byte — the adaptive cache's shadow pair — one 16-byte
/// compare answers for both. Feed each mask back through
/// [`TagArray::access_with_mask`].
#[inline(always)]
pub fn fused_pair_masks<P: ReplacementPolicy, Q: ReplacementPolicy>(
    a: &TagArray<P>,
    b: &TagArray<Q>,
    set: usize,
    stored_a: StoredTag,
    stored_b: StoredTag,
) -> (u64, u64) {
    a.dir.pair_match_mask(&b.dir, set, stored_a, stored_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::policy::{Lru, Mru};

    fn geom() -> Geometry {
        Geometry::new(1024, 64, 4).unwrap() // 4 sets, 4 ways
    }

    fn block(g: &Geometry, n: u64) -> BlockAddr {
        // n distinct blocks all mapping to set 0.
        g.block_of(Address::new(n * 64 * g.num_sets() as u64))
    }

    #[test]
    fn fills_invalid_ways_first() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        for n in 0..4 {
            let acc = a.access(block(&g, n));
            assert!(!acc.hit);
            assert_eq!(acc.evicted, None, "no eviction while ways are free");
        }
        assert_eq!(a.stats().misses, 4);
    }

    #[test]
    fn lru_array_evicts_oldest_block() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        for n in 0..4 {
            a.access(block(&g, n));
        }
        a.access(block(&g, 0)); // refresh block 0
        let acc = a.access(block(&g, 9)); // set full -> evict block 1
        assert!(!acc.hit);
        assert!(acc.evicted.is_some());
        assert!(a.contains_block(block(&g, 0)));
        assert!(!a.contains_block(block(&g, 1)));
    }

    #[test]
    fn mru_array_keeps_old_blocks() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Mru, 1);
        for n in 0..4 {
            a.access(block(&g, n));
        }
        a.access(block(&g, 9)); // evicts block 3 (most recent)
        assert!(a.contains_block(block(&g, 0)));
        assert!(!a.contains_block(block(&g, 3)));
    }

    #[test]
    fn hits_are_counted() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        a.access(block(&g, 0));
        assert!(a.access(block(&g, 0)).hit);
        assert_eq!(a.stats(), TagStats { hits: 1, misses: 1 });
        assert_eq!(a.stats().accesses(), 2);
    }

    #[test]
    fn partial_tags_alias() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mut a = TagArray::new(g, TagMode::PartialLow { bits: 4 }, Lru, 1);
        let b0 = g.block_of(Address::new(0));
        // Same set (index bits identical), tag differs only above bit 4.
        let alias = g.block_of(Address::new(1u64 << (6 + 10 + 4)));
        assert_ne!(g.tag(b0), g.tag(alias));
        a.access(b0);
        assert!(
            a.access(alias).hit,
            "4-bit partial tags must alias these blocks"
        );
    }

    #[test]
    fn full_tags_do_not_alias() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        a.access(g.block_of(Address::new(0)));
        assert!(!a.access(g.block_of(Address::new(1u64 << 20))).hit);
    }

    #[test]
    fn invalidate_block_removes_entry() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        let b = block(&g, 0);
        a.access(b);
        assert!(a.invalidate_block(b));
        assert!(!a.contains_block(b));
        assert!(!a.invalidate_block(b), "second invalidate is a no-op");
    }

    #[test]
    fn access_tag_matches_access() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::PartialLow { bits: 8 }, Lru, 1);
        let mut b = TagArray::new(g, TagMode::PartialLow { bits: 8 }, Lru, 1);
        let mut x = 11u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let blk = BlockAddr::new(x % 2_000);
            let set = g.set_index(blk);
            let tag = g.tag(blk);
            assert_eq!(a.access(blk), b.access_tag(set, tag));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn directory_fill_and_dirty() {
        let g = geom();
        let mut d = Directory::new(g, TagMode::Full);
        let (set, stored) = d.locate(block(&g, 5));
        assert_eq!(d.valid_count(set), 0);
        assert_eq!(d.fill_at(set, 2, stored), None);
        d.mark_dirty(set, 2);
        assert!(d.is_dirty(set, 2));
        let old = d.fill_at(set, 2, d.locate(block(&g, 6)).1).unwrap();
        assert!(old.dirty, "eviction reports dirtiness of the old block");
        assert_eq!(d.valid_count(set), 1);
    }

    #[test]
    fn directory_invalidate() {
        let g = geom();
        let mut d = Directory::new(g, TagMode::Full);
        let (set, stored) = d.locate(block(&g, 1));
        d.fill_at(set, 0, stored);
        assert!(d.contains(set, stored));
        let old = d.invalidate(set, 0).unwrap();
        assert_eq!(old.tag, stored);
        assert!(!d.contains(set, stored));
        assert!(d.invalidate(set, 0).is_none());
    }

    #[test]
    fn masks_track_fill_state() {
        let g = geom();
        let mut d = Directory::new(g, TagMode::Full);
        assert_eq!(d.valid_mask(0), 0);
        assert_eq!(d.invalid_way(0), Some(0));
        d.fill_at(0, 0, StoredTag(7));
        d.fill_at(0, 2, StoredTag(9));
        assert_eq!(d.valid_mask(0), 0b0101);
        assert_eq!(d.invalid_way(0), Some(1));
        assert!(d.is_valid(0, 2));
        assert!(!d.is_valid(0, 1));
        assert_eq!(d.way_tag(0, 2), StoredTag(9));
        d.fill_at(0, 1, StoredTag(1));
        d.fill_at(0, 3, StoredTag(2));
        assert_eq!(d.invalid_way(0), None);
        assert_eq!(d.valid_count(0), 4);
    }

    #[test]
    fn swar_matches_scalar_semantics() {
        // An 8-bit partial, 8-way directory takes the swizzled-word path;
        // it must agree exactly with a wider directory forced onto the
        // scalar path for the same stored values.
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mode = TagMode::PartialLow { bits: 8 };
        let mut swar = Directory::new(g, mode);
        let g16 = Geometry::new(1024 * 1024, 64, 16).unwrap(); // scalar path
        let mut scalar = Directory::new(g16, mode);
        let mut x = 5u64;
        for i in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tag = mode.store(x);
            let way = (x >> 8) % 8;
            if i % 7 == 0 {
                swar.invalidate(0, way as usize);
                scalar.invalidate(0, way as usize);
            } else {
                swar.fill_at(0, way as usize, tag);
                scalar.fill_at(0, way as usize, tag);
            }
            let probe = mode.store(x >> 16);
            assert_eq!(swar.find(0, probe), scalar.find(0, probe));
            assert_eq!(swar.find(0, tag), scalar.find(0, tag));
        }
    }

    #[test]
    fn swar_ignores_stale_invalid_tags() {
        let g = Geometry::new(4096, 64, 8).unwrap();
        let mode = TagMode::PartialLow { bits: 8 };
        let mut d = Directory::new(g, mode);
        let t = mode.store(0xAB);
        d.fill_at(0, 3, t);
        assert_eq!(d.find(0, t), Some(3));
        d.invalidate(0, 3);
        assert_eq!(d.find(0, t), None, "stale byte must not match");
        // Adjacent-byte borrow hazard: a matching byte next to a byte
        // whose xor-difference is 1 must not produce a phantom match.
        d.fill_at(0, 0, mode.store(0x10));
        d.fill_at(0, 1, mode.store(0x11));
        assert_eq!(d.find(0, mode.store(0x10)), Some(0));
        assert_eq!(d.find(0, mode.store(0x11)), Some(1));
        assert_eq!(d.find(0, mode.store(0x12)), None);
    }

    #[test]
    fn fully_associative_uses_all_64_ways() {
        let g = Geometry::new(4096, 64, 64).unwrap(); // 1 set, 64 ways
        let mut d = Directory::new(g, TagMode::Full);
        for w in 0..64 {
            assert_eq!(d.invalid_way(0), Some(w));
            d.fill_at(0, w, StoredTag(w as u64 + 100));
        }
        assert_eq!(d.invalid_way(0), None);
        assert_eq!(d.valid_count(0), 64);
        assert_eq!(d.find(0, StoredTag(163)), Some(63));
    }

    #[test]
    fn reduced_tags_reduce_like_store() {
        let g = geom();
        let mut d = Directory::new(g, TagMode::Full);
        d.fill_at(0, 0, StoredTag(0x1234));
        d.fill_at(0, 3, StoredTag(0xABCD));
        let mode = TagMode::PartialLow { bits: 8 };
        let mut out = [StoredTag::default(); MAX_ASSOC];
        let valid = d.reduced_tags(0, mode, &mut out);
        assert_eq!(valid, 0b1001);
        assert_eq!(out[0], mode.store(0x1234));
        assert_eq!(out[3], mode.store(0xABCD));
        let valid = d.reduced_tags(0, TagMode::Full, &mut out);
        assert_eq!(valid, 0b1001);
        assert_eq!(out[3], StoredTag(0xABCD));
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_oversized_associativity() {
        let g = Geometry::new(128 * 64, 64, 128).unwrap(); // 1 set, 128 ways
        let _ = Directory::new(g, TagMode::Full);
    }

    #[test]
    fn pair_match_mask_agrees_with_two_probes() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mode = TagMode::PartialLow { bits: 8 };
        let mut a = Directory::new(g, mode);
        let mut b = Directory::new(g, mode);
        let mut x = 3u64;
        for i in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tag = mode.store(x);
            let way = ((x >> 8) % 8) as usize;
            if i % 3 == 0 {
                a.fill_at(0, way, tag);
            } else {
                b.fill_at(0, way, tag);
            }
            if i % 11 == 0 {
                a.invalidate(0, way);
            }
            let probe = mode.store(x >> 16);
            let fused = a.pair_match_mask(&b, 0, probe, probe);
            assert_eq!(fused, (a.match_mask(0, probe), b.match_mask(0, probe)));
            let fused = a.pair_match_mask(&b, 0, tag, tag);
            assert_eq!(fused, (a.match_mask(0, tag), b.match_mask(0, tag)));
        }
    }

    #[test]
    fn pair_match_mask_mixed_modes_falls_back() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mut a = Directory::new(g, TagMode::PartialLow { bits: 8 });
        let mut b = Directory::new(g, TagMode::Full); // no packed lane
        let (set, sa) = a.locate(BlockAddr::new(0x1234));
        let sb = b.locate(BlockAddr::new(0x1234)).1;
        a.fill_at(set, 2, sa);
        b.fill_at(set, 5, sb);
        let (ma, mb) = a.pair_match_mask(&b, set, sa, sb);
        assert_eq!(ma, a.match_mask(set, sa));
        assert_eq!(mb, b.match_mask(set, sb));
        assert_eq!((ma, mb), (1 << 2, 1 << 5));
    }

    #[test]
    fn access_with_mask_equals_access_at() {
        let g = geom();
        let mut a = TagArray::new(g, TagMode::Full, Lru, 1);
        let mut b = TagArray::new(g, TagMode::Full, Lru, 1);
        let mut x = 5u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let blk = BlockAddr::new(x % 300);
            let (set, stored) = a.directory().locate(blk);
            let m = a.directory().match_mask(set, stored);
            assert_eq!(a.access_with_mask(set, stored, m), b.access_at(set, stored));
        }
        assert_eq!(a.stats(), b.stats());
    }
}
