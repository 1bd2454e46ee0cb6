//! A Zipf-distributed sampler over `0..n`.
//!
//! Used by the hot/cold archetypes: media and graphics codes touch a small
//! popular region very often and a long tail rarely, which is exactly the
//! behaviour frequency-based replacement exploits.

use rand::Rng;

/// Samples ranks from a Zipf distribution with exponent `s` over `n`
/// items, by inversion of a precomputed CDF (exact, expected O(1) per
/// sample).
///
/// A guide table of `K = n.next_power_of_two()` entries holds, for each
/// bucket `[j/K, (j+1)/K)` of the uniform, the first rank whose CDF value
/// is at least `j/K`. A draw starts at its bucket's entry and scans
/// forward, about 1.5 CDF probes on average, to the rank a binary search
/// of the CDF would find (see [`Zipf::sample`]).
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use workloads::Zipf;
///
/// let z = Zipf::new(1000, 1.0);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut first = 0u32;
/// for _ in 0..10_000 {
///     if z.sample(&mut rng) == 0 {
///         first += 1;
///     }
/// }
/// // Rank 0 receives ~1/H(1000) ~ 13% of samples.
/// assert!(first > 800, "rank 0 sampled {first} times");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalised cumulative weights. The last is the total divided by
    /// itself, exactly 1, so it is above every uniform.
    cdf: Vec<f64>,
    /// `guide[j]`: the first rank whose CDF value is at least `j/K`.
    guide: Vec<u32>,
    /// `K`, the number of guide buckets (a power of two).
    buckets: f64,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above `u32::MAX`, or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf supports at most 2^32 - 1 items"
        );
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..buckets)
            .map(|j| {
                let edge = j as f64 / buckets as f64;
                while cdf[rank] < edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Zipf {
            cdf,
            guide,
            buckets: buckets as f64,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler covers zero items (never true — see `new`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..n` (0 = most popular): the first rank whose
    /// CDF value is at least the uniform `u`. The last CDF value is 1 and
    /// `u < 1`, so that rank exists.
    ///
    /// `u` is a multiple of 2^-53 and `K` a power of two, so `u * K` is
    /// exact and its integer part `j` is the bucket holding `u`. The CDF
    /// never decreases and `u >= j/K`, so the bucket's guide entry never
    /// lies past the answer: the scan only steps over ranks whose CDF
    /// value is below `u`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut rank = self.guide[(u * self.buckets) as usize] as usize;
        // Most draws stop on their guide entry or one rank past it: take
        // the scan's first step without a branch.
        rank += usize::from(self.cdf[rank] < u);
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_in_range() {
        let z = Zipf::new(50, 1.2);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn popularity_is_monotone() {
        let z = Zipf::new(20, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 20];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[10]);
        assert!(counts[2] > counts[19]);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 25_000.0).abs() < 1500.0, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(!z.is_empty());
        assert_eq!(z.len(), 1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
