//! `Zipf::sample` returns exactly the rank a binary search of the CDF
//! would, and `ThreadStream`'s countdown counters keep the cadence of
//! `i % write_every` and `i / burst`.
//!
//! The references below copy the CDF construction and the inversion
//! (`partition_point`, capped at the last rank) that the sampler's guide
//! table replaced, and the `ThreadStream::next_op` that computed its
//! write and phase cadence by division.

use ac_concurrent::{StreamKind, ThreadStream};
use rand::rngs::mock::StepRng;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::Zipf;

const SIZES: [usize; 11] = [1, 2, 3, 5, 255, 256, 257, 4096, 16_384, 65_536, 100_000];

const EXPONENTS: [f64; 7] = [0.0, 0.5, 0.8, 0.9, 1.0, 1.4, 2.0];

/// Random draws compared per size and exponent.
const DRAWS: usize = 100_000;

/// Uniforms compared on each side of every bucket edge, in units of 2^-53.
const EDGE_SPAN: u64 = 64;

/// The largest uniform, `1 - 2^-53`, in units of 2^-53.
const MAX_UNITS: u64 = (1 << 53) - 1;

/// The CDF and inversion of the binary-search sampler.
struct Reference {
    cdf: Vec<f64>,
}

impl Reference {
    fn new(n: usize, s: f64) -> Self {
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
        Reference { cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A generator whose `Standard` uniforms are `units * 2^-53`,
/// `(units + 1) * 2^-53`, ...
fn uniforms_from(units: u64) -> StepRng {
    StepRng::new(units << 11, 1 << 11)
}

/// Compares the consecutive uniforms `first * 2^-53 ..= last * 2^-53`.
///
/// The reference's rank never decreases with `u`, so where it is the
/// same at both ends of the run it is that rank throughout, and only the
/// sampler needs drawing at every uniform.
fn compare_run(
    zipf: &Zipf,
    reference: &Reference,
    first: u64,
    last: u64,
    what: &dyn Fn() -> String,
) {
    let at = |units| reference.sample(&mut uniforms_from(units));
    let constant = (at(first) == at(last)).then(|| at(first));
    let (mut a, mut b) = (uniforms_from(first), uniforms_from(first));
    for units in first..=last {
        let want = constant.unwrap_or_else(|| reference.sample(&mut b));
        assert_eq!(zipf.sample(&mut a), want, "{}: u = {units} * 2^-53", what());
    }
}

fn for_each_sampler(check: impl Fn(usize, f64, &Zipf, &Reference)) {
    for n in SIZES {
        for s in EXPONENTS {
            check(n, s, &Zipf::new(n, s), &Reference::new(n, s));
        }
    }
}

#[test]
fn random_draws_match_the_binary_search() {
    for_each_sampler(|n, s, zipf, reference| {
        let mut a = SmallRng::seed_from_u64(n as u64 ^ s.to_bits());
        let mut b = a.clone();
        for _ in 0..DRAWS {
            assert_eq!(zipf.sample(&mut a), reference.sample(&mut b), "n={n} s={s}");
        }
    });
}

/// Every edge `j/K` of the guide's buckets, for every power of two `K`
/// up to `n.next_power_of_two()` (the edges of a smaller `K` are a
/// subset), with the [`EDGE_SPAN`] uniforms on each side of it.
#[test]
fn bucket_edges_match_the_binary_search() {
    for_each_sampler(|n, s, zipf, reference| {
        let buckets = n.next_power_of_two() as u64;
        let unit_shift = 53 - buckets.trailing_zeros();
        for j in 0..=buckets {
            let edge = j << unit_shift;
            let (first, last) = (
                edge.saturating_sub(EDGE_SPAN),
                (edge + EDGE_SPAN).min(MAX_UNITS),
            );
            compare_run(zipf, reference, first, last, &|| {
                format!("n={n} s={s} edge {j}/{buckets}")
            });
        }
    });
}

/// The smallest and the largest uniform. At `u = 1 - 2^-53` the scan
/// must stop on the last rank, whose CDF value is exactly 1.
#[test]
fn extreme_uniforms_match_the_binary_search() {
    for_each_sampler(|n, s, zipf, reference| {
        for units in [0, MAX_UNITS] {
            compare_run(zipf, reference, units, units, &|| format!("n={n} s={s}"));
        }
    });
}

/// `ThreadStream::next_op` with its cadence computed by division.
struct ReferenceStream {
    kind: StreamKind,
    zipf: Option<Reference>,
    rng: SmallRng,
    i: u64,
    offset: u64,
    write_every: u64,
}

impl ReferenceStream {
    fn new(kind: StreamKind, write_every: u64, seed: u64, thread: u64) -> Self {
        let rng = SmallRng::seed_from_u64(seed ^ (thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let zipf = match kind {
            StreamKind::Zipf { blocks, theta } | StreamKind::Mixed { blocks, theta, .. } => {
                Some(Reference::new(blocks.max(1) as usize, theta))
            }
            StreamKind::Stride { .. } => None,
        };
        ReferenceStream {
            kind,
            zipf,
            rng,
            i: 0,
            offset: thread.wrapping_mul(8191),
            write_every,
        }
    }

    fn next_op(&mut self) -> (u64, bool) {
        let block = match self.kind {
            StreamKind::Zipf { .. } => self.zipf_block(),
            StreamKind::Stride { blocks, stride } => self.stride_block(blocks, stride),
            StreamKind::Mixed {
                blocks,
                stride,
                burst,
                ..
            } => {
                if (self.i / burst.max(1)).is_multiple_of(2) {
                    self.zipf_block()
                } else {
                    self.stride_block(blocks, stride)
                }
            }
        };
        self.i += 1;
        let write = self.write_every != 0 && self.i.is_multiple_of(self.write_every);
        (block, write)
    }

    fn zipf_block(&mut self) -> u64 {
        self.zipf.as_ref().unwrap().sample(&mut self.rng) as u64
    }

    fn stride_block(&self, blocks: u64, stride: u64) -> u64 {
        (self.offset + self.i.wrapping_mul(stride.max(1))) % blocks.max(1)
    }
}

/// Operations compared per cadence.
const OPS: u64 = 1_000_000;

fn compare_streams(kind: StreamKind, write_every: u64) {
    let mut got = ThreadStream::new(kind, write_every, 7, 1);
    let mut want = ReferenceStream::new(kind, write_every, 7, 1);
    for i in 0..OPS {
        let (block, write) = got.next_op();
        assert_eq!(
            (block.raw(), write),
            want.next_op(),
            "{kind:?} write_every={write_every} op {i}"
        );
    }
}

#[test]
fn write_cadence_matches_the_division() {
    let kind = StreamKind::Stride {
        blocks: 1 << 20,
        stride: 3,
    };
    for write_every in [0, 1, 2, 16, 17] {
        compare_streams(kind, write_every);
    }
}

#[test]
fn phase_cadence_matches_the_division() {
    for burst in [1, 3, 65_536] {
        let kind = StreamKind::Mixed {
            blocks: 4096,
            theta: 0.8,
            stride: 1,
            burst,
        };
        compare_streams(kind, 17);
    }
}
