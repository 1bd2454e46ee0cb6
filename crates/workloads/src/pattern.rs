//! Data-access archetypes.
//!
//! Every benchmark stand-in is assembled from a handful of archetypes, each
//! reproducing one of the locality behaviours the paper discusses in
//! Section 2.1:
//!
//! * [`BasePattern::LinearScan`] — "a linear loop slightly larger than the
//!   cache is bad for a set-associative, LRU-managed cache",
//! * [`BasePattern::HotScan`] / [`BasePattern::Zipf`] — "LFU is ideal for
//!   separating large regions of blocks that are only used once from
//!   commonly accessed data",
//! * [`BasePattern::Temporal`] — "code that manipulates scattered data with
//!   good temporal locality performs almost optimally with LRU",
//! * [`BasePattern::ShiftingHot`] — working sets that move, poisoning stale
//!   frequency counts (LFU's classic pathology),
//! * [`BasePattern::PointerChase`] — long pseudo-random dependence chains
//!   (mcf-style),
//!
//! composed by [`AccessPattern`] into single-region, phased (ammp/mgrid
//! style) or spatially interleaved streams.
//!
//! All addresses are *block* numbers; the instruction weaver multiplies by
//! the line size. Region placement (`base`) decides which cache sets a
//! pattern touches, which is how the per-set spatial variation of the
//! paper's Figure 7 arises.

use crate::mix::SpecError;
use crate::stack::StackDistanceGen;
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A primitive access archetype (configuration only; see [`PatternState`]
/// for the runtime form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BasePattern {
    /// Cyclic scan over `region_blocks` blocks with the given stride.
    LinearScan {
        /// Footprint in blocks.
        region_blocks: u64,
        /// Stride in blocks between consecutive references.
        stride: u64,
    },
    /// A hot set accessed in bursts, interleaved with an endless scan:
    /// `scan_burst` scan references follow every `hot_burst` hot
    /// references. The scan-to-hot ratio controls how hard LRU thrashes
    /// (higher `scan_burst` widens the per-set reuse distance).
    HotScan {
        /// Number of hot blocks (cycled through).
        hot_blocks: u64,
        /// Scan footprint in blocks.
        scan_blocks: u64,
        /// Consecutive references to each hot block.
        hot_burst: u32,
        /// Scan references after each hot burst.
        scan_burst: u32,
    },
    /// Zipf-popularity references over a footprint (media/graphics style).
    Zipf {
        /// Footprint in blocks.
        footprint_blocks: u64,
        /// Zipf exponent (1.0 is classic).
        exponent: f64,
    },
    /// Stack-distance-profiled temporal locality (LRU-friendly).
    Temporal {
        /// Probability of touching a brand-new block.
        p_new: f64,
        /// Mean geometric reuse depth.
        mean_depth: f64,
        /// Maximum distinct blocks.
        footprint_blocks: u64,
    },
    /// A uniformly used window that shifts wholesale every `period_refs`
    /// references (stale frequency counts poison LFU; LRU adapts).
    ShiftingHot {
        /// Window size in blocks.
        window_blocks: u64,
        /// References between shifts.
        period_refs: u64,
        /// How far the window moves per shift, in blocks.
        shift_blocks: u64,
    },
    /// A full-cycle pseudo-random walk over `nodes` blocks (rounded up to
    /// a power of two), emulating pointer chasing over a large heap.
    PointerChase {
        /// Number of nodes (blocks) in the walk.
        nodes: u64,
    },
    /// `passes` consecutive sweeps over a hot region, then `scan_chunk`
    /// blocks of an endless scan, repeated (the art archetype: network
    /// weights rescanned every iteration against streaming image data).
    ///
    /// The multiple passes give the hot blocks level-2 reuse *behind an
    /// L1 filter* — the pass gap exceeds the L1 but fits the L2 — so
    /// frequency counters accumulate and protect the hot region across the
    /// scan chunks, while LRU drops it whenever `scan_chunk / num_sets`
    /// exceeds the associativity.
    RescanLoop {
        /// Hot region size in blocks (should exceed the L1, fit the L2).
        hot_blocks: u64,
        /// Consecutive sweeps over the hot region per repetition.
        passes: u32,
        /// Scan footprint in blocks.
        scan_blocks: u64,
        /// Scan blocks visited between hot-region repetitions.
        scan_chunk: u64,
    },
    /// Confines `inner`'s blocks to a window of `sets` consecutive cache
    /// sets out of `total_sets` (the paper's L2 has 1024). Block `b` maps
    /// to `(b / sets) * total_sets + b % sets`, so the stream only ever
    /// indexes sets `0..sets` (shift with the enclosing pattern `base`).
    ///
    /// This is the tool behind the paper's Figure 7: *spatially* varying
    /// behaviour, where different cache sets favour different policies.
    Striped {
        /// The confined pattern.
        inner: Box<BasePattern>,
        /// Width of the set window.
        sets: u64,
        /// Total sets of the target cache.
        total_sets: u64,
    },
    /// Round-robins draws over `parts`, confining part `i` to the `i`-th
    /// equal stripe of `total_sets` — several behaviours running
    /// simultaneously in disjoint set ranges (ammp's early phase).
    Split {
        /// The simultaneous patterns.
        parts: Vec<BasePattern>,
        /// Total sets of the target cache.
        total_sets: u64,
    },
}

impl BasePattern {
    /// Approximate footprint in blocks (for documentation/reporting).
    pub fn footprint_blocks(&self) -> u64 {
        match *self {
            BasePattern::LinearScan { region_blocks, .. } => region_blocks,
            BasePattern::HotScan {
                hot_blocks,
                scan_blocks,
                ..
            } => hot_blocks + scan_blocks,
            BasePattern::Zipf {
                footprint_blocks, ..
            }
            | BasePattern::Temporal {
                footprint_blocks, ..
            } => footprint_blocks,
            BasePattern::ShiftingHot { window_blocks, .. } => window_blocks,
            BasePattern::PointerChase { nodes } => nodes.next_power_of_two(),
            BasePattern::RescanLoop {
                hot_blocks,
                scan_blocks,
                ..
            } => hot_blocks + scan_blocks,
            BasePattern::Striped { ref inner, .. } => inner.footprint_blocks(),
            BasePattern::Split { ref parts, .. } => {
                parts.iter().map(|p| p.footprint_blocks()).sum()
            }
        }
    }
}

/// A complete data-access pattern: one archetype, a phase schedule, or a
/// spatial interleaving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// A single archetype placed at `base` (block offset).
    Single {
        /// The archetype.
        pattern: BasePattern,
        /// Region base in blocks.
        base: u64,
    },
    /// A cyclic schedule of phases, each running an archetype at a region
    /// base for a number of references (the paper's ammp/mgrid temporal
    /// phase behaviour).
    Phased {
        /// `(archetype, region base, references)` per phase.
        phases: Vec<(BasePattern, u64, u64)>,
    },
    /// A per-reference weighted mix of archetypes at different bases
    /// (spatial variation across cache sets).
    Interleaved {
        /// `(archetype, region base, weight)` per component.
        parts: Vec<(BasePattern, u64, u32)>,
    },
}

impl AccessPattern {
    /// Convenience: a single archetype at base 0.
    pub fn single(pattern: BasePattern) -> Self {
        AccessPattern::Single { pattern, base: 0 }
    }

    /// Instantiates the runtime state for this pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern breaks a precondition of its archetypes or
    /// of the samplers they build: an empty schedule, a zero size or
    /// length, a stripe wider than its cache, or a `Zipf` or `Temporal`
    /// parameter those samplers reject.
    pub fn state(&self) -> PatternState {
        if let Err(e) = self.check() {
            panic!("{}", e.message);
        }
        PatternState(match self {
            AccessPattern::Single { pattern, base } => Inner::Single {
                state: BaseState::new(pattern),
                base: *base,
            },
            AccessPattern::Phased { phases } => Inner::Phased {
                states: phases
                    .iter()
                    .map(|(p, base, refs)| (BaseState::new(p), *base, *refs))
                    .collect(),
                current: 0,
                remaining: phases[0].2,
            },
            AccessPattern::Interleaved { parts } => Inner::Interleaved {
                states: parts
                    .iter()
                    .map(|(p, base, w)| (BaseState::new(p), *base, *w))
                    .collect(),
                total_weight: total_weight(parts),
            },
        })
    }

    /// Checks every precondition of [`AccessPattern::state`], including
    /// those the [`Zipf`] and [`StackDistanceGen`] samplers it builds
    /// assert, and names the field at fault.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        match self {
            AccessPattern::Single { pattern, .. } => pattern.check("pattern"),
            AccessPattern::Phased { phases } => {
                if phases.is_empty() {
                    return Err(SpecError::new(
                        "pattern.phases",
                        "phased pattern needs phases",
                    ));
                }
                phases.iter().enumerate().try_for_each(|(i, (p, _, refs))| {
                    let at = format!("pattern.phases[{i}]");
                    if *refs == 0 {
                        return Err(SpecError::new(at, "phase length must be positive"));
                    }
                    p.check(&at)
                })
            }
            AccessPattern::Interleaved { parts } => {
                if parts.is_empty() {
                    return Err(SpecError::new(
                        "pattern.parts",
                        "interleaved pattern needs parts",
                    ));
                }
                if total_weight(parts) == 0 {
                    return Err(SpecError::new(
                        "pattern.parts",
                        "interleaved weights must not all be zero",
                    ));
                }
                parts
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, (p, ..))| p.check(&format!("pattern.parts[{i}]")))
            }
        }
    }
}

/// The draw range of an interleaving: its weights summed as `u32`,
/// wrapping as a release build's `sum` does.
fn total_weight(parts: &[(BasePattern, u64, u32)]) -> u32 {
    parts
        .iter()
        .fold(0, |total, (_, _, w)| total.wrapping_add(*w))
}

impl BasePattern {
    /// [`AccessPattern::check`] for one archetype at the field path `at`.
    fn check(&self, at: &str) -> Result<(), SpecError> {
        let fail =
            |field: &str, message: &str| Err(SpecError::new(format!("{at}.{field}"), message));
        let positive =
            |variant: &str, fields: &[(&str, u64)]| match fields.iter().find(|(_, v)| *v == 0) {
                Some((name, _)) => fail(
                    &format!("{variant}.{name}"),
                    &format!("{name} must be positive"),
                ),
                None => Ok(()),
            };
        match *self {
            BasePattern::LinearScan {
                region_blocks,
                stride,
            } => positive(
                "LinearScan",
                &[("region_blocks", region_blocks), ("stride", stride)],
            ),
            BasePattern::HotScan {
                hot_blocks,
                scan_blocks,
                hot_burst,
                scan_burst,
            } => positive(
                "HotScan",
                &[
                    ("hot_blocks", hot_blocks),
                    ("scan_blocks", scan_blocks),
                    ("hot_burst", u64::from(hot_burst)),
                    ("scan_burst", u64::from(scan_burst)),
                ],
            ),
            BasePattern::Zipf {
                footprint_blocks,
                exponent,
            } => {
                let n = footprint_blocks as usize;
                if n == 0 {
                    fail("Zipf.footprint_blocks", "Zipf needs at least one item")
                } else if u32::try_from(n).is_err() {
                    fail(
                        "Zipf.footprint_blocks",
                        "Zipf supports at most 2^32 - 1 items",
                    )
                } else if exponent < 0.0 || !exponent.is_finite() {
                    fail("Zipf.exponent", "Zipf exponent must be >= 0")
                } else {
                    Ok(())
                }
            }
            BasePattern::Temporal {
                p_new,
                mean_depth,
                footprint_blocks,
            } => {
                if !(0.0..=1.0).contains(&p_new) {
                    fail("Temporal.p_new", "p_new must be in [0,1]")
                } else if mean_depth.is_nan() || mean_depth < 1.0 {
                    fail("Temporal.mean_depth", "mean_depth must be >= 1")
                } else if footprint_blocks as usize == 0 {
                    fail("Temporal.footprint_blocks", "footprint must be positive")
                } else {
                    Ok(())
                }
            }
            BasePattern::ShiftingHot {
                window_blocks,
                period_refs,
                ..
            } => positive(
                "ShiftingHot",
                &[
                    ("window_blocks", window_blocks),
                    ("period_refs", period_refs),
                ],
            ),
            BasePattern::PointerChase { .. } => Ok(()),
            BasePattern::RescanLoop {
                hot_blocks,
                passes,
                scan_blocks,
                scan_chunk,
            } => positive(
                "RescanLoop",
                &[
                    ("hot_blocks", hot_blocks),
                    ("passes", u64::from(passes)),
                    ("scan_blocks", scan_blocks),
                    ("scan_chunk", scan_chunk),
                ],
            ),
            BasePattern::Striped {
                ref inner,
                sets,
                total_sets,
            } => {
                if sets == 0 || sets > total_sets {
                    return fail("Striped.sets", "stripe must fit the cache");
                }
                inner.check(&format!("{at}.Striped.inner"))
            }
            BasePattern::Split {
                ref parts,
                total_sets,
            } => {
                if parts.is_empty() {
                    return fail("Split.parts", "split needs at least one part");
                }
                if total_sets / parts.len() as u64 == 0 {
                    return fail("Split.parts", "more parts than sets");
                }
                parts
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, p)| p.check(&format!("{at}.Split.parts[{i}]")))
            }
        }
    }
}

/// Runtime state of one [`BasePattern`].
#[derive(Debug, Clone)]
enum BaseState {
    LinearScan {
        region: u64,
        stride: u64,
        pos: u64,
    },
    HotScan {
        hot: u64,
        scan: u64,
        hot_burst: u32,
        scan_burst: u32,
        group: u64,
        in_group: u32,
        scan_pos: u64,
    },
    Zipf {
        sampler: Zipf,
    },
    Temporal {
        gen: StackDistanceGen,
    },
    ShiftingHot {
        window: u64,
        period: u64,
        shift: u64,
        refs: u64,
    },
    PointerChase {
        size: u64, // power of two
        mult: u64, // LCG multiplier (= 1 mod 4)
        inc: u64,  // odd increment
        cur: u64,
    },
    RescanLoop {
        hot: u64,
        passes: u32,
        scan: u64,
        chunk: u64,
        /// Position within the repetition: draws 0..hot*passes are hot
        /// sweeps, then `chunk` scan draws.
        pos: u64,
        scan_pos: u64,
    },
    Striped {
        inner: Box<BaseState>,
        sets: u64,
        total: u64,
    },
    Split {
        parts: Vec<BaseState>,
        stripe: u64,
        total: u64,
        next: usize,
    },
}

impl BaseState {
    /// The runtime state of `p`, which [`BasePattern::check`] accepted.
    fn new(p: &BasePattern) -> Self {
        match *p {
            BasePattern::LinearScan {
                region_blocks,
                stride,
            } => BaseState::LinearScan {
                region: region_blocks,
                stride,
                pos: 0,
            },
            BasePattern::HotScan {
                hot_blocks,
                scan_blocks,
                hot_burst,
                scan_burst,
            } => BaseState::HotScan {
                hot: hot_blocks,
                scan: scan_blocks,
                hot_burst,
                scan_burst,
                group: 0,
                in_group: 0,
                scan_pos: 0,
            },
            BasePattern::Zipf {
                footprint_blocks,
                exponent,
            } => BaseState::Zipf {
                sampler: Zipf::new(footprint_blocks as usize, exponent),
            },
            BasePattern::Temporal {
                p_new,
                mean_depth,
                footprint_blocks,
            } => BaseState::Temporal {
                gen: StackDistanceGen::new(p_new, mean_depth, footprint_blocks as usize),
            },
            BasePattern::ShiftingHot {
                window_blocks,
                period_refs,
                shift_blocks,
            } => BaseState::ShiftingHot {
                window: window_blocks,
                period: period_refs,
                shift: shift_blocks,
                refs: 0,
            },
            BasePattern::PointerChase { nodes } => {
                let size = nodes.next_power_of_two().max(4);
                BaseState::PointerChase {
                    size,
                    // Hull–Dobell: full period for power-of-two modulus.
                    mult: 0xA5A5_A5A5u64 & !3 | 1, // = 1 mod 4
                    inc: 0x9E37_79B9 | 1,          // odd
                    cur: 0,
                }
            }
            BasePattern::RescanLoop {
                hot_blocks,
                passes,
                scan_blocks,
                scan_chunk,
            } => BaseState::RescanLoop {
                hot: hot_blocks,
                passes,
                scan: scan_blocks,
                chunk: scan_chunk,
                pos: 0,
                scan_pos: 0,
            },
            BasePattern::Striped {
                ref inner,
                sets,
                total_sets,
            } => BaseState::Striped {
                inner: Box::new(BaseState::new(inner)),
                sets,
                total: total_sets,
            },
            BasePattern::Split {
                ref parts,
                total_sets,
            } => BaseState::Split {
                parts: parts.iter().map(BaseState::new).collect(),
                stripe: total_sets / parts.len() as u64,
                total: total_sets,
                next: 0,
            },
        }
    }

    fn next_block(&mut self, rng: &mut SmallRng) -> u64 {
        match self {
            BaseState::LinearScan {
                region,
                stride,
                pos,
            } => {
                let b = *pos;
                *pos = (*pos + *stride) % *region;
                b
            }
            BaseState::HotScan {
                hot,
                scan,
                hot_burst,
                scan_burst,
                group,
                in_group,
                scan_pos,
            } => {
                let b = if *in_group < *hot_burst {
                    *group % *hot
                } else {
                    let s = *hot + *scan_pos % *scan;
                    *scan_pos += 1;
                    s
                };
                *in_group += 1;
                if *in_group >= *hot_burst + *scan_burst {
                    *in_group = 0;
                    *group += 1;
                }
                b
            }
            BaseState::Zipf { sampler } => sampler.sample(rng) as u64,
            BaseState::Temporal { gen } => gen.next_block(rng),
            BaseState::ShiftingHot {
                window,
                period,
                shift,
                refs,
            } => {
                let epoch = *refs / *period;
                *refs += 1;
                epoch * *shift + rng.gen_range(0..*window)
            }
            BaseState::PointerChase {
                size,
                mult,
                inc,
                cur,
            } => {
                let b = *cur;
                *cur = (cur.wrapping_mul(*mult).wrapping_add(*inc)) & (*size - 1);
                b
            }
            BaseState::RescanLoop {
                hot,
                passes,
                scan,
                chunk,
                pos,
                scan_pos,
            } => {
                let hot_len = *hot * u64::from(*passes);
                let b = if *pos < hot_len {
                    *pos % *hot
                } else {
                    let s = *hot + *scan_pos % *scan;
                    *scan_pos += 1;
                    s
                };
                *pos += 1;
                if *pos >= hot_len + *chunk {
                    *pos = 0;
                }
                b
            }
            BaseState::Striped { inner, sets, total } => {
                let b = inner.next_block(rng);
                (b / *sets) * *total + b % *sets
            }
            BaseState::Split {
                parts,
                stripe,
                total,
                next,
            } => {
                let i = *next;
                *next = (*next + 1) % parts.len();
                let b = parts[i].next_block(rng);
                // Confine part i to its own stripe of the set space.
                (b / *stripe) * *total + b % *stripe + i as u64 * *stripe
            }
        }
    }
}

/// Runtime state of an [`AccessPattern`]; draw blocks with
/// [`PatternState::next_block`]. Construct via [`AccessPattern::state`].
#[derive(Debug, Clone)]
pub struct PatternState(Inner);

#[derive(Debug, Clone)]
enum Inner {
    Single {
        state: BaseState,
        base: u64,
    },
    Phased {
        /// `(state, base, phase length)` per phase.
        states: Vec<(BaseState, u64, u64)>,
        current: usize,
        remaining: u64,
    },
    Interleaved {
        /// `(state, base, weight)` per part.
        states: Vec<(BaseState, u64, u32)>,
        total_weight: u32,
    },
}

impl PatternState {
    /// Draws the next absolute block number.
    pub fn next_block(&mut self, rng: &mut SmallRng) -> u64 {
        match &mut self.0 {
            Inner::Single { state, base } => *base + state.next_block(rng),
            Inner::Phased {
                states,
                current,
                remaining,
            } => {
                if *remaining == 0 {
                    *current = (*current + 1) % states.len();
                    *remaining = states[*current].2;
                }
                *remaining -= 1;
                let (state, base, _) = &mut states[*current];
                *base + state.next_block(rng)
            }
            Inner::Interleaved {
                states,
                total_weight,
            } => {
                let mut pick = rng.gen_range(0..*total_weight);
                for (state, base, w) in states.iter_mut() {
                    if pick < *w {
                        return *base + state.next_block(rng);
                    }
                    pick -= *w;
                }
                unreachable!("weights exhausted");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn linear_scan_cycles() {
        let mut s = AccessPattern::single(BasePattern::LinearScan {
            region_blocks: 5,
            stride: 1,
        })
        .state();
        let mut r = rng();
        let seq: Vec<_> = (0..7).map(|_| s.next_block(&mut r)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 4, 0, 1]);
    }

    #[test]
    fn strided_scan() {
        let mut s = AccessPattern::single(BasePattern::LinearScan {
            region_blocks: 8,
            stride: 3,
        })
        .state();
        let mut r = rng();
        let seq: Vec<_> = (0..4).map(|_| s.next_block(&mut r)).collect();
        assert_eq!(seq, vec![0, 3, 6, 1]);
    }

    #[test]
    fn hot_scan_bursts() {
        let mut s = AccessPattern::single(BasePattern::HotScan {
            hot_blocks: 4,
            scan_blocks: 100,
            hot_burst: 2,
            scan_burst: 2,
        })
        .state();
        let mut r = rng();
        let seq: Vec<_> = (0..8).map(|_| s.next_block(&mut r)).collect();
        // burst of 2 hots, then 2 scans, advancing the group.
        assert_eq!(seq, vec![0, 0, 4, 5, 1, 1, 6, 7]);
    }

    #[test]
    fn base_offsets_apply() {
        let mut s = AccessPattern::Single {
            pattern: BasePattern::LinearScan {
                region_blocks: 3,
                stride: 1,
            },
            base: 1000,
        }
        .state();
        let mut r = rng();
        assert_eq!(s.next_block(&mut r), 1000);
        assert_eq!(s.next_block(&mut r), 1001);
    }

    #[test]
    fn phased_switches_and_cycles() {
        let mut s = AccessPattern::Phased {
            phases: vec![
                (
                    BasePattern::LinearScan {
                        region_blocks: 10,
                        stride: 1,
                    },
                    0,
                    3,
                ),
                (
                    BasePattern::LinearScan {
                        region_blocks: 10,
                        stride: 1,
                    },
                    500,
                    2,
                ),
            ],
        }
        .state();
        let mut r = rng();
        let seq: Vec<_> = (0..8).map(|_| s.next_block(&mut r)).collect();
        assert_eq!(seq, vec![0, 1, 2, 500, 501, 3, 4, 5]);
    }

    #[test]
    fn interleaved_respects_regions() {
        let mut s = AccessPattern::Interleaved {
            parts: vec![
                (
                    BasePattern::LinearScan {
                        region_blocks: 10,
                        stride: 1,
                    },
                    0,
                    1,
                ),
                (
                    BasePattern::LinearScan {
                        region_blocks: 10,
                        stride: 1,
                    },
                    10_000,
                    1,
                ),
            ],
        }
        .state();
        let mut r = rng();
        let mut low = 0;
        let mut high = 0;
        for _ in 0..1000 {
            let b = s.next_block(&mut r);
            if b < 10 {
                low += 1;
            } else {
                assert!((10_000..10_010).contains(&b));
                high += 1;
            }
        }
        assert!(low > 350 && high > 350, "low={low} high={high}");
    }

    #[test]
    fn pointer_chase_visits_all_nodes() {
        let mut s = AccessPattern::single(BasePattern::PointerChase { nodes: 16 }).state();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            seen.insert(s.next_block(&mut r));
        }
        assert_eq!(seen.len(), 16, "full-cycle LCG must visit every node");
    }

    #[test]
    fn shifting_hot_moves() {
        let mut s = AccessPattern::single(BasePattern::ShiftingHot {
            window_blocks: 8,
            period_refs: 100,
            shift_blocks: 50,
        })
        .state();
        let mut r = rng();
        let first: Vec<_> = (0..100).map(|_| s.next_block(&mut r)).collect();
        let second: Vec<_> = (0..100).map(|_| s.next_block(&mut r)).collect();
        assert!(first.iter().all(|&b| b < 8));
        assert!(second.iter().all(|&b| (50..58).contains(&b)));
    }

    #[test]
    fn footprints_reported() {
        assert_eq!(
            BasePattern::LinearScan {
                region_blocks: 7,
                stride: 2
            }
            .footprint_blocks(),
            7
        );
        assert_eq!(
            BasePattern::HotScan {
                hot_blocks: 3,
                scan_blocks: 10,
                hot_burst: 1,
                scan_burst: 1
            }
            .footprint_blocks(),
            13
        );
        assert_eq!(
            BasePattern::PointerChase { nodes: 9 }.footprint_blocks(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "phases")]
    fn empty_phases_rejected() {
        let _ = AccessPattern::Phased { phases: vec![] }.state();
    }

    #[test]
    fn rescan_loop_sequence() {
        let mut s = AccessPattern::single(BasePattern::RescanLoop {
            hot_blocks: 3,
            passes: 2,
            scan_blocks: 100,
            scan_chunk: 2,
        })
        .state();
        let mut r = rng();
        let seq: Vec<_> = (0..16).map(|_| s.next_block(&mut r)).collect();
        // Two passes over {0,1,2}, then 2 scan blocks, repeating with the
        // scan continuing where it left off.
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 3, 4, 0, 1, 2, 0, 1, 2, 5, 6]);
    }

    #[test]
    fn striped_confines_sets() {
        let mut s = AccessPattern::single(BasePattern::Striped {
            inner: Box::new(BasePattern::LinearScan {
                region_blocks: 1000,
                stride: 1,
            }),
            sets: 64,
            total_sets: 1024,
        })
        .state();
        let mut r = rng();
        for _ in 0..5000 {
            let b = s.next_block(&mut r);
            assert!(b % 1024 < 64, "block {b} escaped the stripe");
        }
    }

    #[test]
    fn split_partitions_sets() {
        let mut s = AccessPattern::single(BasePattern::Split {
            parts: vec![
                BasePattern::LinearScan {
                    region_blocks: 500,
                    stride: 1,
                },
                BasePattern::LinearScan {
                    region_blocks: 500,
                    stride: 1,
                },
            ],
            total_sets: 1024,
        })
        .state();
        let mut r = rng();
        let mut low = 0;
        let mut high = 0;
        for _ in 0..2000 {
            let set = s.next_block(&mut r) % 1024;
            if set < 512 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert_eq!(low, 1000, "round robin puts half the draws per stripe");
        assert_eq!(high, 1000);
    }
}
