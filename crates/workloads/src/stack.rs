//! Stack-distance-driven address generation.
//!
//! The most direct way to synthesise a stream with a prescribed amount of
//! *temporal locality* is to drive an LRU stack: each reference either
//! re-touches the block at a sampled stack depth (moving it to the top) or
//! touches a brand-new block. Geometric depth distributions give the
//! short-reuse-dominated profiles typical of integer codes — the streams
//! on which LRU is close to optimal.

use crate::threshold::Coin;
use rand::Rng;
use std::collections::VecDeque;

/// Generates block addresses with a geometric stack-depth profile.
///
/// With probability `p_new` a never-seen block is referenced (a compulsory
/// miss); otherwise a resident block at geometric depth (mean
/// `mean_depth`) is re-referenced and moved to the top of the stack.
///
/// Once `footprint` distinct blocks are live, each new reference *retires*
/// the coldest block: the working set drifts through the address space.
/// This is what makes the archetype genuinely LRU-friendly — retired
/// blocks never return, but their high frequency counts linger in an
/// LFU-managed cache and pollute it.
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use workloads::StackDistanceGen;
///
/// let mut g = StackDistanceGen::new(0.05, 8.0, 4096);
/// let mut rng = SmallRng::seed_from_u64(9);
/// let a = g.next_block(&mut rng);
/// let b = g.next_block(&mut rng);
/// // Blocks are distinct u64 block numbers within the footprint.
/// assert!(a < 4096 && b < 4096);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceGen {
    /// `gen_bool(p_new)` as a threshold on the word it draws.
    p_new: Coin,
    /// `ln(1 - 1/mean_depth)`, the per-generator constant of the depth
    /// formula.
    ln_q: f64,
    /// Maximum *live* blocks; when full, a new reference retires the
    /// coldest entry (working-set drift).
    footprint: usize,
    /// Live blocks, most recent first. A ring, so pushing to the top and
    /// retiring from the bottom cost O(1) and a re-reference at depth
    /// `d` moves at most `d` entries.
    stack: VecDeque<u64>,
    next_block: u64,
}

impl StackDistanceGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `p_new` is outside `[0, 1]`, `mean_depth < 1`, or
    /// `footprint` is 0.
    pub fn new(p_new: f64, mean_depth: f64, footprint: usize) -> Self {
        assert!((0.0..=1.0).contains(&p_new), "p_new must be in [0,1]");
        assert!(mean_depth >= 1.0, "mean_depth must be >= 1");
        assert!(footprint > 0, "footprint must be positive");
        StackDistanceGen {
            p_new: Coin::new(p_new),
            ln_q: (1.0 - 1.0 / mean_depth).ln(),
            footprint,
            stack: VecDeque::new(),
            next_block: 0,
        }
    }

    /// Current number of distinct blocks touched.
    pub fn touched(&self) -> usize {
        self.stack.len()
    }

    /// Draws the next block address.
    pub fn next_block<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let want_new = self.stack.is_empty() || self.p_new.flip(rng.next_u64());
        if want_new {
            let b = self.next_block;
            self.next_block += 1;
            if self.stack.len() >= self.footprint {
                self.stack.pop_back(); // retire the coldest live block
            }
            self.stack.push_front(b);
            return b;
        }
        // Geometric depth with the configured mean, clamped to the stack.
        let depth = {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let d = (u.ln() / self.ln_q).floor() as usize;
            d.min(self.stack.len() - 1)
        };
        let b = self
            .stack
            .remove(depth)
            .expect("depth is clamped to the stack");
        self.stack.push_front(b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The generator before its stack became a ring: a `Vec` shifted on
    /// every draw. Kept as the reference the ring must reproduce.
    struct VecStack {
        p_new: f64,
        mean_depth: f64,
        footprint: usize,
        stack: Vec<u64>,
        next_block: u64,
    }

    impl VecStack {
        fn next_block(&mut self, rng: &mut SmallRng) -> u64 {
            let want_new = self.stack.is_empty() || rng.gen_bool(self.p_new);
            if want_new {
                let b = self.next_block;
                self.next_block += 1;
                if self.stack.len() >= self.footprint {
                    self.stack.pop();
                }
                self.stack.insert(0, b);
                return b;
            }
            let depth = {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let d = (u.ln() / (1.0 - 1.0 / self.mean_depth).ln()).floor() as usize;
                d.min(self.stack.len() - 1)
            };
            let b = self.stack.remove(depth);
            self.stack.insert(0, b);
            b
        }
    }

    #[test]
    fn ring_matches_the_vec_reference() {
        for footprint in [1, 7, 4096] {
            for (p_new, mean_depth) in [(0.05, 8.0), (0.3, 1.0), (0.002, 300.0)] {
                let mut ring = StackDistanceGen::new(p_new, mean_depth, footprint);
                let mut reference = VecStack {
                    p_new,
                    mean_depth,
                    footprint,
                    stack: Vec::new(),
                    next_block: 0,
                };
                let seed = footprint as u64;
                let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                for draw in 0..100_000 {
                    assert_eq!(
                        ring.next_block(&mut a),
                        reference.next_block(&mut b),
                        "draw {draw}, footprint {footprint}, p_new {p_new}, mean {mean_depth}"
                    );
                }
                assert!(ring.stack.iter().eq(&reference.stack));
                assert_eq!(a, b, "both consumed the same RNG words");
            }
        }
    }

    #[test]
    fn live_set_is_bounded() {
        let mut g = StackDistanceGen::new(0.5, 4.0, 100);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            g.next_block(&mut rng);
            assert!(g.touched() <= 100, "live set exceeded the footprint");
        }
    }

    #[test]
    fn working_set_drifts() {
        let mut g = StackDistanceGen::new(0.3, 4.0, 50);
        let mut rng = SmallRng::seed_from_u64(6);
        let early: std::collections::HashSet<u64> =
            (0..500).map(|_| g.next_block(&mut rng)).collect();
        for _ in 0..20_000 {
            g.next_block(&mut rng);
        }
        let late: std::collections::HashSet<u64> =
            (0..500).map(|_| g.next_block(&mut rng)).collect();
        assert!(
            early.intersection(&late).count() == 0,
            "after heavy drift the old working set must be fully retired"
        );
    }

    #[test]
    fn low_p_new_reuses_heavily() {
        let mut g = StackDistanceGen::new(0.01, 4.0, 10_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..10_000 {
            distinct.insert(g.next_block(&mut rng));
        }
        // ~1% new-block probability => ~100-200 distinct blocks.
        assert!(distinct.len() < 500, "{}", distinct.len());
    }

    #[test]
    fn shallow_depths_dominate() {
        let mut g = StackDistanceGen::new(0.05, 4.0, 1000);
        let mut rng = SmallRng::seed_from_u64(3);
        // Warm up.
        for _ in 0..2000 {
            g.next_block(&mut rng);
        }
        // Re-references should mostly hit the most recent few blocks: an
        // 8-entry LRU window over the stream should have a high hit rate.
        let mut window: Vec<u64> = Vec::new();
        let mut hits = 0;
        for _ in 0..10_000 {
            let b = g.next_block(&mut rng);
            if let Some(pos) = window.iter().position(|&w| w == b) {
                window.remove(pos);
                hits += 1;
            }
            window.insert(0, b);
            window.truncate(8);
        }
        assert!(hits > 6000, "LRU-8 hits only {hits}/10000");
    }

    #[test]
    #[should_panic(expected = "p_new")]
    fn rejects_bad_probability() {
        let _ = StackDistanceGen::new(1.5, 4.0, 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut g = StackDistanceGen::new(0.1, 6.0, 500);
            let mut rng = SmallRng::seed_from_u64(7);
            (0..1000)
                .map(|_| g.next_block(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
