//! Integer forms of the float draws the generators make.
//!
//! `rand`'s `Standard` `f64` is `u = x·2^-53` for `x = w >> 11` of one
//! RNG word `w`, and `gen_bool(p)` compares `w` with `(p·2^64) as u64`.
//! A comparison of such a draw with a per-spec constant can therefore be
//! made on the integers once the constant is converted. The conversions
//! below are exact: every word decides the same outcome as the float
//! draw, so each stream stays bit-identical.

/// `2^64`, computed exactly as `gen_bool` scales its probability.
const TWO_64: f64 = u64::MAX as f64 + 1.0;

/// `gen_bool(p)` as a threshold on the word it consumes: the outcome is
/// `true` exactly when the word is below the threshold.
///
/// The threshold is `2^64` for `p >= 1` (always true) and 0 for
/// `p <= 0` (never), the two cases `gen_bool` answers without comparing.
/// Between them it is `gen_bool`'s own `(p·2^64) as u64`, which is also
/// 0 for NaN, as in `gen_bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Coin(u128);

impl Coin {
    /// `gen_bool(0.5)`: `(0.5·2^64) as u64` is `2^63`.
    pub(crate) const HALF: Coin = Coin(1 << 63);

    pub(crate) fn new(p: f64) -> Self {
        Coin(if p >= 1.0 {
            1 << 64
        } else if p <= 0.0 {
            0
        } else {
            u128::from((p * TWO_64) as u64)
        })
    }

    /// The outcome `gen_bool(p)` draws from the word `w`.
    #[inline]
    pub(crate) fn flip(self, w: u64) -> bool {
        u128::from(w) < self.0
    }
}

/// The integer `t` with `x < t` exactly when `x·2^-bits < p`, for every
/// integer `x` in `[0, 2^bits)`, `bits <= 53`.
///
/// `x·2^-bits` is exact, and so is `p·2^bits` (scaling by a power of
/// two), and an integer is below a real exactly when it is below the
/// real's ceiling. The saturating cast maps NaN and every `p <= 0` to 0,
/// which no `x` is below, as no `u` is below them; and `p·2^bits >=
/// 2^64` to `u64::MAX`, which every `x` is below.
pub(crate) fn unit_threshold(p: f64, bits: u32) -> u64 {
    (p * (1u64 << bits) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Probabilities at and around the special cases, at exact multiples
    /// of `2^-bits` and one ulp either side, and uniform ones.
    fn probabilities(bits: u32) -> Vec<f64> {
        let mut ps = vec![
            0.0,
            -0.0,
            1.0,
            f64::NAN,
            -0.5,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            0.92,
            0.35,
            0.15,
            1e-300,
            f64::MIN_POSITIVE / 4.0,
            1.0 - f64::EPSILON / 2.0,
        ];
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..200 {
            let k = rng.gen_range(1..1u64 << bits);
            let exact = k as f64 / (1u64 << bits) as f64;
            ps.extend([
                exact,
                f64::from_bits(exact.to_bits() - 1),
                f64::from_bits(exact.to_bits() + 1),
                rng.gen(),
            ]);
        }
        ps
    }

    /// `t - 1`, `t` and `t + 1`, kept inside `[0, end)`, plus both ends.
    fn around(t: u128, end: u128) -> Vec<u64> {
        [t.wrapping_sub(1), t, t + 1, 0, end - 1]
            .into_iter()
            .filter(|&v| v < end)
            .map(|v| v as u64)
            .collect()
    }

    #[test]
    fn coin_agrees_with_gen_bool_around_its_threshold() {
        for p in probabilities(53) {
            let coin = Coin::new(p);
            for w in around(coin.0, 1 << 64) {
                let want = StepRng::new(w, 0).gen_bool(p);
                assert_eq!(coin.flip(w), want, "p {p:e}, word {w:#x}");
            }
        }
        assert_eq!(Coin::new(0.5), Coin::HALF);
    }

    #[test]
    fn class_threshold_agrees_with_the_uniform_around_it() {
        for p in probabilities(53) {
            let t = unit_threshold(p, 53);
            for x in around(u128::from(t), 1 << 53) {
                // The word's low 11 bits do not reach the uniform.
                for w in [x << 11, x << 11 | 0x7ff] {
                    let u: f64 = StepRng::new(w, 0).gen();
                    assert_eq!(x < t, u < p, "p {p:e}, x {x:#x}");
                }
            }
        }
    }

    #[test]
    fn hard_branch_threshold_agrees_with_the_float_compare_around_it() {
        for p in probabilities(24) {
            let t = unit_threshold(p, 24);
            for h in around(u128::from(t), 1 << 24) {
                let float = (h as f64 / (1u64 << 24) as f64) < p;
                assert_eq!(h < t, float, "p {p:e}, h {h:#x}");
            }
        }
    }
}
