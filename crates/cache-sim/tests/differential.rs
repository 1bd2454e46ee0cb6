//! Differential tests: the packed structure-of-arrays [`Directory`] and
//! the mask-based [`TagArray`] access path against a straightforward
//! array-of-structs reference with the seed implementation's layout and
//! scan order.
//!
//! The packed rework is required to be *behaviour-preserving*: identical
//! hit/miss outcomes, identical way choices (first-match / first-invalid
//! order), identical eviction reports, for every tag mode. These tests
//! drive both implementations with the same generated operation and
//! reference streams; the original `Vec<Way>` directory lives in
//! `support/reference.rs`, shared with `adaptive-cache`'s differential
//! suite.

#[path = "support/reference.rs"]
mod reference;

use cache_sim::{BlockAddr, Geometry, PolicyKind, TagArray, TagMode};
use proptest::prelude::*;
use reference::{RefDirectory, RefTagArray};

/// Geometries covering the specialised scan widths: 8-way (fixed-width +
/// SWAR eligible), 4-way (fixed-width), 2-way and 16-way (generic loop),
/// 6-way and 12-way (generic loop over a way count that is not a power
/// of two, so each record ends in padding words), 64-way
/// fully-associative (mask-width edge).
fn geometries() -> Vec<Geometry> {
    vec![
        Geometry::new(16 * 1024, 64, 8).unwrap(),
        Geometry::new(8 * 1024, 64, 4).unwrap(),
        Geometry::new(4 * 1024, 64, 2).unwrap(),
        Geometry::new(32 * 1024, 64, 16).unwrap(),
        Geometry::new(24 * 1024, 64, 6).unwrap(),
        Geometry::new(48 * 1024, 64, 12).unwrap(),
        Geometry::new(4 * 1024, 64, 64).unwrap(),
    ]
}

/// Tag modes covering each match path: full 64-bit compare, SWAR packed
/// byte lanes (both partial reductions), and the scalar partial path
/// (stored width above the SWAR byte limit).
fn tag_modes() -> Vec<TagMode> {
    vec![
        TagMode::Full,
        TagMode::PartialLow { bits: 8 },
        TagMode::PartialLow { bits: 4 },
        TagMode::PartialXor { bits: 8 },
        TagMode::PartialLow { bits: 12 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw directory operations: packed and reference directories agree on
    /// every query after every mutation, for every tag mode and geometry.
    #[test]
    fn directory_matches_reference(ops in proptest::collection::vec(
        (0u8..4, any::<u16>(), any::<u8>()), 1..400,
    )) {
        for geom in geometries() {
            for mode in tag_modes() {
                let mut packed = cache_sim::Directory::new(geom, mode);
                let mut reference = RefDirectory::new(geom, mode);
                for &(op, addr, way_sel) in &ops {
                    let block = BlockAddr::new(u64::from(addr));
                    let (set, stored) = reference.locate(block);
                    prop_assert_eq!(packed.locate(block), (set, stored));
                    let way = way_sel as usize % geom.associativity();
                    match op {
                        0 => {
                            prop_assert_eq!(
                                packed.fill_at(set, way, stored),
                                reference.fill_at(set, way, stored)
                            );
                        }
                        1 => {
                            prop_assert_eq!(
                                packed.invalidate(set, way),
                                reference.invalidate(set, way)
                            );
                        }
                        // mark_dirty requires a valid way.
                        2 if reference.set_ways(set)[way].valid => {
                            packed.mark_dirty(set, way);
                            reference.mark_dirty(set, way);
                        }
                        _ => {} // pure queries below
                    }
                    prop_assert_eq!(packed.find(set, stored), reference.find(set, stored));
                    prop_assert_eq!(
                        packed.contains(set, stored),
                        reference.find(set, stored).is_some()
                    );
                    prop_assert_eq!(packed.invalid_way(set), reference.invalid_way(set));
                    prop_assert_eq!(packed.valid_count(set), reference.valid_count(set));
                    for w in 0..geom.associativity() {
                        let r = reference.set_ways(set)[w];
                        prop_assert_eq!(packed.is_valid(set, w), r.valid);
                        if r.valid {
                            prop_assert_eq!(packed.way_tag(set, w), r.tag);
                            prop_assert_eq!(packed.is_dirty(set, w), r.dirty);
                        }
                    }
                }
            }
        }
    }

    /// Full access sequences: for every geometry, policy and match path
    /// (full compare, SWAR lane, wide partial compare), the packed tag
    /// array reports the exact [`TagAccess`] sequence (hit flag, way,
    /// evicted way contents — i.e. the eviction order) and statistics of
    /// the reference, including RNG-consuming policies, which must draw
    /// identical victim sequences from identically seeded generators.
    #[test]
    fn tag_array_access_sequence_matches_reference(
        addrs in proptest::collection::vec(0u64..4096, 1..600),
        seed in any::<u64>(),
    ) {
        for geom in geometries() {
            for mode in [
                TagMode::Full,
                TagMode::PartialLow { bits: 8 },
                TagMode::PartialLow { bits: 12 },
            ] {
                for policy in [
                    PolicyKind::Lru,
                    PolicyKind::LFU5,
                    PolicyKind::Fifo,
                    PolicyKind::Mru,
                    PolicyKind::Random,
                    PolicyKind::TreePlru,
                ] {
                    let mut packed = TagArray::new(geom, mode, policy, seed);
                    let mut reference = RefTagArray::new(geom, mode, policy, seed);
                    for (i, &a) in addrs.iter().enumerate() {
                        let block = BlockAddr::new(a);
                        let got = packed.access(block);
                        let want = reference.access(block);
                        prop_assert_eq!(
                            got, want,
                            "{:?}/{:?}/{}-way diverged at access {} (block {:#x})",
                            policy, mode, geom.associativity(), i, a,
                        );
                    }
                    prop_assert_eq!(packed.stats(), reference.stats);
                }
            }
        }
    }

    /// The precomputed-location entry points hit the same path as the
    /// address-based one.
    #[test]
    fn access_tag_equals_access(addrs in proptest::collection::vec(0u64..2048, 1..300)) {
        let geom = Geometry::new(8 * 1024, 64, 4).unwrap();
        let mode = TagMode::PartialLow { bits: 8 };
        let mut by_addr = TagArray::new(geom, mode, PolicyKind::Lru, 9);
        let mut by_tag = TagArray::new(geom, mode, PolicyKind::Lru, 9);
        for &a in &addrs {
            let block = BlockAddr::new(a);
            let set = geom.set_index(block);
            let tag = geom.tag(block);
            prop_assert_eq!(by_addr.access(block), by_tag.access_tag(set, tag));
        }
        prop_assert_eq!(by_addr.stats(), by_tag.stats());
    }
}

/// Long mixed-locality stream over the paper's L2 geometry: a scaled-down
/// soak of the exact configuration the experiments run, as a fixed
/// (non-property) regression case.
#[test]
fn paper_geometry_long_stream_matches_reference() {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    for mode in [TagMode::Full, TagMode::PartialLow { bits: 8 }] {
        for policy in [PolicyKind::Lru, PolicyKind::LFU5] {
            let mut packed = TagArray::new(geom, mode, policy, 7);
            let mut reference = RefTagArray::new(geom, mode, policy, 7);
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for i in 0..200_000u64 {
                // Hot/scan mix: bursts over a resident working set plus a
                // cold sweep that forces steady evictions.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let block = if i % 4 < 3 {
                    BlockAddr::new(x % 6_000)
                } else {
                    BlockAddr::new(8_192 + x % 60_000)
                };
                assert_eq!(
                    packed.access(block),
                    reference.access(block),
                    "{policy:?}/{mode:?} diverged at access {i}"
                );
            }
            assert_eq!(packed.stats(), reference.stats);
            assert!(packed.stats().misses > 10_000, "stream must evict");
        }
    }
}
