//! `TraceGen` against a float reference of its instruction weaving.
//!
//! `TraceGen` decides each instruction by comparing raw RNG words with
//! integer thresholds it builds once per spec. The reference below is the
//! weaving as it was written before that: a class uniform compared with
//! the mix's ratios, `gen_bool` for every Bernoulli draw, the hard-branch
//! hash compared as a float, and the dependency formula evaluated per
//! draw. Both consume the same words in the same order, so over random
//! specs, including fractions at 0, 1, NaN and one ulp around a
//! threshold, the two streams must be identical.
//!
//! The suite's own streams are pinned by `tests/stream_digests.rs`; this
//! test covers the specs no suite benchmark reaches.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::{
    AccessPattern, BasePattern, CodeSpec, Inst, InstKind, MixSpec, PatternState, WorkloadSpec,
    LINE_BYTES,
};

/// Base address of the synthetic code segment and the region spacing.
const CODE_BASE: u64 = 0x0040_0000;
const REGION_SPACING: u64 = 0x0010_0000;

/// Instructions compared per generated spec.
const INSTS: usize = 20_000;

/// The float weaving: draw for draw, the generator before its plan.
struct FloatWeaver {
    mix: MixSpec,
    code: CodeSpec,
    pattern: PatternState,
    rng: SmallRng,
    idx: u64,
    cur_block: u64,
    burst_left: u32,
    word_idx: u32,
    body_pos: u32,
    region: u32,
    last_switch: u64,
}

impl FloatWeaver {
    fn new(spec: &WorkloadSpec) -> Self {
        FloatWeaver {
            mix: spec.mix,
            code: spec.code,
            pattern: spec.pattern.state(),
            rng: SmallRng::seed_from_u64(spec.seed),
            idx: 0,
            cur_block: 0,
            burst_left: 0,
            word_idx: 0,
            body_pos: 0,
            region: 0,
            last_switch: 0,
        }
    }

    fn dep(&mut self) -> u8 {
        let u: f64 = self.rng.gen();
        let d = 1.0 + u.max(1e-12).ln() / (1.0 - 1.0 / self.mix.mean_dep_dist).ln();
        d.clamp(1.0, 255.0) as u8
    }

    fn is_hard_branch(&self, pc: u64) -> bool {
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (h as f64 / (1u64 << 24) as f64) < self.mix.hard_branch_frac
    }

    fn next(&mut self) -> Inst {
        let pc = CODE_BASE + u64::from(self.region) * REGION_SPACING + u64::from(self.body_pos) * 4;
        self.idx += 1;
        if self.body_pos + 1 >= self.code.loop_body {
            self.body_pos = 0;
            let switch = self.code.regions > 1
                && self.idx.saturating_sub(self.last_switch) >= self.code.region_period;
            if switch {
                self.region = (self.region + 1) % self.code.regions;
                self.last_switch = self.idx;
            }
            let target = CODE_BASE + u64::from(self.region) * REGION_SPACING;
            return Inst {
                pc,
                kind: InstKind::Branch {
                    taken: true,
                    target,
                },
                deps: [0, 0],
            };
        }
        self.body_pos += 1;

        let u: f64 = self.rng.gen();
        let kind = if u < self.mix.mem_ratio {
            if self.burst_left == 0 {
                self.cur_block = self.pattern.next_block(&mut self.rng);
                self.burst_left = self.mix.line_burst.max(1);
                self.word_idx = 0;
            }
            let addr = self.cur_block * LINE_BYTES + u64::from(self.word_idx) * 8 % LINE_BYTES;
            self.word_idx += 1;
            self.burst_left -= 1;
            if self.rng.gen_bool(self.mix.store_frac) {
                InstKind::Store { addr }
            } else {
                InstKind::Load { addr }
            }
        } else if u < self.mix.mem_ratio + self.mix.branch_ratio {
            let taken = if self.is_hard_branch(pc) {
                self.rng.gen_bool(0.5)
            } else {
                self.rng.gen_bool(0.92)
            };
            InstKind::Branch {
                taken,
                target: pc + 64,
            }
        } else {
            let fp = self.rng.gen_bool(self.mix.fp_frac);
            let long = self.rng.gen_bool(self.mix.long_op_frac);
            match (fp, long) {
                (false, false) => InstKind::IntAlu,
                (false, true) => {
                    if self.rng.gen_bool(0.5) {
                        InstKind::IntMul
                    } else {
                        InstKind::IntDiv
                    }
                }
                (true, false) => InstKind::FpAdd,
                (true, true) => InstKind::FpDiv,
            }
        };
        let d1 = self.dep();
        let d2 = if self.rng.gen_bool(0.5) {
            self.dep()
        } else {
            0
        };
        Inst {
            pc,
            kind,
            deps: [d1, d2],
        }
    }
}

/// `k·2^-bits` for a random `k`, then one ulp down, unchanged or one ulp
/// up: a fraction at or next to a threshold of the integer draws.
fn near_threshold(bits: u32) -> impl Strategy<Value = f64> {
    (1..1u64 << bits, 0..3u64).prop_map(move |(k, side)| {
        let exact = k as f64 / (1u64 << bits) as f64;
        f64::from_bits(exact.to_bits() + side - 1)
    })
}

/// A fraction: 0, 1, NaN, one outside `[0, 1]`, one next to a threshold
/// of the class (2^-53), hard-branch (2^-24) or coin (2^-64 scale, so a
/// 2^-53 grid reaches it too) compares, or a uniform one.
fn fraction() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.0),
        Just(f64::NAN),
        Just(-0.25),
        Just(1.25),
        near_threshold(53),
        near_threshold(24),
        0.0..1.0,
        0.0..1.0,
    ]
}

/// A class split whose sum the generator accepts: each ratio a
/// [`fraction`], the branch ratio pulled down when the sum would
/// exceed 1 (or is NaN).
fn split() -> impl Strategy<Value = (f64, f64)> {
    (fraction(), fraction()).prop_map(|(mem, branch)| {
        let mem = if mem.is_nan() { 0.0 } else { mem };
        let branch = if mem + branch <= 1.0 {
            branch
        } else {
            1.0 - mem
        };
        (mem, branch)
    })
}

fn pattern() -> impl Strategy<Value = AccessPattern> {
    let temporal = |p_new, mean_depth| BasePattern::Temporal {
        p_new,
        mean_depth,
        footprint_blocks: 512,
    };
    prop_oneof![
        (prop_oneof![Just(0.0), Just(1.0), 0.0..1.0], 1.0..40.0)
            .prop_map(move |(p, d)| AccessPattern::single(temporal(p, d))),
        (1..4096u64, 0.0..1.5).prop_map(|(n, exponent)| AccessPattern::single(BasePattern::Zipf {
            footprint_blocks: n,
            exponent,
        })),
        (1..64u64, 1..100u64).prop_map(move |(window, period)| AccessPattern::Interleaved {
            parts: vec![
                (
                    BasePattern::ShiftingHot {
                        window_blocks: window,
                        period_refs: period,
                        shift_blocks: 3,
                    },
                    0,
                    2,
                ),
                (temporal(0.05, 6.0), 1 << 20, 1),
            ],
        }),
    ]
}

fn spec() -> impl Strategy<Value = WorkloadSpec> {
    let mix = (
        split(),
        (fraction(), fraction(), fraction(), fraction()),
        prop_oneof![Just(1.0), Just(300.0), 1.0..40.0],
        1..10u32,
    )
        .prop_map(
            |((mem_ratio, branch_ratio), (store, fp, long, hard), mean_dep_dist, line_burst)| {
                MixSpec {
                    mem_ratio,
                    store_frac: store,
                    branch_ratio,
                    fp_frac: fp,
                    long_op_frac: long,
                    mean_dep_dist,
                    hard_branch_frac: hard,
                    line_burst,
                }
            },
        );
    let code = (2..600u32, 1..5u32, 1..3000u64).prop_map(|(loop_body, regions, period)| CodeSpec {
        loop_body,
        regions,
        region_period: period,
    });
    (pattern(), mix, code, any::<u64>()).prop_map(|(pattern, mix, code, seed)| WorkloadSpec {
        pattern,
        mix,
        code,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trace_gen_matches_the_float_weaving(spec in spec()) {
        prop_assert!(spec.check().is_ok(), "generated an invalid spec: {spec:?}");
        let mut reference = FloatWeaver::new(&spec);
        for (i, inst) in spec.generator().take(INSTS).enumerate() {
            let want = reference.next();
            prop_assert_eq!(inst, want, "instruction {} of {:?}", i, spec);
        }
    }
}

/// The special cases, each in a stream of its own, so a failure names
/// the case rather than a random spec.
#[test]
fn trace_gen_matches_the_float_weaving_at_each_special_case() {
    let base = WorkloadSpec {
        pattern: AccessPattern::single(BasePattern::Temporal {
            p_new: 0.05,
            mean_depth: 8.0,
            footprint_blocks: 1024,
        }),
        mix: MixSpec::int_default(),
        code: CodeSpec::medium(),
        seed: 3,
    };
    let mut cases = Vec::new();
    for value in [0.0, 1.0, f64::NAN, -1.0, 2.0, 0.5, 1.0 - f64::EPSILON / 2.0] {
        for field in 0..4 {
            let mut s = base.clone();
            let m = &mut s.mix;
            *[
                &mut m.store_frac,
                &mut m.fp_frac,
                &mut m.long_op_frac,
                &mut m.hard_branch_frac,
            ][field] = value;
            cases.push(s);
        }
    }
    for (mem, branch) in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4), (0.0, 0.0), (-0.5, 1.0)] {
        let mut s = base.clone();
        (s.mix.mem_ratio, s.mix.branch_ratio) = (mem, branch);
        cases.push(s);
    }
    for mean_dep_dist in [1.0, 300.0] {
        let mut s = base.clone();
        s.mix.mean_dep_dist = mean_dep_dist;
        cases.push(s);
    }
    for p_new in [0.0, 1.0] {
        let mut s = base.clone();
        s.pattern = AccessPattern::single(BasePattern::Temporal {
            p_new,
            mean_depth: 8.0,
            footprint_blocks: 1024,
        });
        cases.push(s);
    }
    let mut s = base.clone();
    s.mix.line_burst = 1;
    cases.push(s);
    for spec in cases {
        let mut reference = FloatWeaver::new(&spec);
        for (i, inst) in spec.generator().take(INSTS * 2).enumerate() {
            assert_eq!(inst, reference.next(), "instruction {i} of {:?}", spec.mix);
        }
    }
}
