//! Instruction-mix weaving: turning a data-access pattern into a full
//! instruction stream (computation, branches, loads/stores, dependencies)
//! that the CPU timing model can execute.

use crate::inst::{Inst, InstKind};
use crate::pattern::{AccessPattern, PatternState};
use crate::threshold::{unit_threshold, Coin};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cache line size assumed when converting pattern block numbers to byte
/// addresses (matches the paper's 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// Statistical shape of the instruction stream around the memory
/// references.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    /// Fraction of instructions that reference data memory.
    pub mem_ratio: f64,
    /// Fraction of memory references that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_ratio: f64,
    /// Fraction of compute instructions that are floating point.
    pub fp_frac: f64,
    /// Fraction of compute instructions that are long-latency (mul/div).
    pub long_op_frac: f64,
    /// Mean backward dependency distance; small = serial (low ILP),
    /// large = parallel (high ILP). Must be >= 1.
    pub mean_dep_dist: f64,
    /// Fraction of *static* branch sites whose outcome is essentially
    /// random (data-dependent); the rest are heavily biased and thus
    /// predictable by the gshare/bimodal hybrid.
    pub hard_branch_frac: f64,
    /// Consecutive memory references issued to the same cache line before
    /// the data pattern advances (spatial locality within a line: real
    /// code touches several words per line, which the L1 absorbs).
    pub line_burst: u32,
}

impl MixSpec {
    /// Typical SPECint-like mix: third of instructions touch memory,
    /// frequent branches, integer-dominated, moderate ILP.
    pub fn int_default() -> Self {
        MixSpec {
            line_burst: 6,
            mem_ratio: 0.35,
            store_frac: 0.30,
            branch_ratio: 0.15,
            fp_frac: 0.02,
            long_op_frac: 0.03,
            mean_dep_dist: 5.0,
            hard_branch_frac: 0.10,
        }
    }

    /// Typical SPECfp-like mix: fewer branches, FP-heavy, high ILP.
    pub fn fp_default() -> Self {
        MixSpec {
            line_burst: 8,
            mem_ratio: 0.40,
            store_frac: 0.25,
            branch_ratio: 0.05,
            fp_frac: 0.60,
            long_op_frac: 0.08,
            mean_dep_dist: 12.0,
            hard_branch_frac: 0.03,
        }
    }

    /// Media/streaming mix: very regular, load-dominated, predictable.
    pub fn media_default() -> Self {
        MixSpec {
            line_burst: 8,
            mem_ratio: 0.45,
            store_frac: 0.35,
            branch_ratio: 0.10,
            fp_frac: 0.10,
            long_op_frac: 0.05,
            mean_dep_dist: 8.0,
            hard_branch_frac: 0.04,
        }
    }

    /// Pointer-chasing mix: serial dependence chains, hard branches.
    pub fn pointer_default() -> Self {
        MixSpec {
            line_burst: 2,
            mem_ratio: 0.40,
            store_frac: 0.15,
            branch_ratio: 0.20,
            fp_frac: 0.0,
            long_op_frac: 0.01,
            mean_dep_dist: 2.0,
            hard_branch_frac: 0.30,
        }
    }
}

/// Shape of the instruction footprint (for the instruction cache and the
/// branch predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeSpec {
    /// Instructions per loop body (one static code region).
    pub loop_body: u32,
    /// Number of distinct code regions (functions) cycled through.
    pub regions: u32,
    /// Dynamic instructions between region switches.
    pub region_period: u64,
}

impl CodeSpec {
    /// A tight kernel: one 512-instruction loop (2 KB of code).
    pub fn kernel() -> Self {
        CodeSpec {
            loop_body: 512,
            regions: 1,
            region_period: u64::MAX,
        }
    }

    /// A mid-sized program: eight 1K-instruction functions.
    pub fn medium() -> Self {
        CodeSpec {
            loop_body: 1024,
            regions: 8,
            region_period: 20_000,
        }
    }

    /// A large, instruction-cache-hostile footprint (gcc-like): thirty-two
    /// 2K-instruction functions (256 KB of code).
    pub fn large() -> Self {
        CodeSpec {
            loop_body: 2048,
            regions: 32,
            region_period: 6_000,
        }
    }

    /// Total static code footprint in bytes (4-byte instructions).
    pub fn footprint_bytes(&self) -> u64 {
        u64::from(self.loop_body) * 4 * u64::from(self.regions)
    }
}

/// Full specification of a synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Data-access archetype.
    pub pattern: AccessPattern,
    /// Instruction-mix statistics.
    pub mix: MixSpec,
    /// Code-footprint shape.
    pub code: CodeSpec,
    /// RNG seed; every stream is a pure function of the spec.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Creates the infinite instruction stream for this spec.
    ///
    /// # Panics
    ///
    /// Panics if [`WorkloadSpec::check`] rejects the spec.
    pub fn generator(&self) -> TraceGen {
        TraceGen::new(self.clone())
    }

    /// Checks every precondition generating this spec asserts: those of
    /// the instruction mix and code shape, and those its pattern's
    /// [`AccessPattern::state`], [`crate::StackDistanceGen::new`] and
    /// [`crate::Zipf::new`] assert. A spec that passes trips none of
    /// those assertions.
    pub fn check(&self) -> Result<(), SpecError> {
        let mix = &self.mix;
        if mix.mean_dep_dist.is_nan() || mix.mean_dep_dist < 1.0 {
            return Err(SpecError::new(
                "mix.mean_dep_dist",
                format!("mean_dep_dist must be >= 1, got {}", mix.mean_dep_dist),
            ));
        }
        let mem_or_branch = mix.mem_ratio + mix.branch_ratio;
        if mem_or_branch.is_nan() || mem_or_branch > 1.0 {
            return Err(SpecError::new(
                "mix.mem_ratio + mix.branch_ratio",
                "mem_ratio + branch_ratio must not exceed 1",
            ));
        }
        if self.code.loop_body < 2 {
            return Err(SpecError::new(
                "code.loop_body",
                "loop body needs >= 2 instructions",
            ));
        }
        if mix.line_burst < 1 {
            return Err(SpecError::new("mix.line_burst", "line_burst must be >= 1"));
        }
        self.pattern.check()
    }
}

/// Why a [`WorkloadSpec`] cannot be generated (see
/// [`WorkloadSpec::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Path of the offending field inside the spec, such as
    /// `mix.mean_dep_dist` or `pattern.parts[1].Temporal.p_new`.
    pub field: String,
    /// The precondition the field breaks.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Buckets of [`DepTable`]: a power of two, so `u * DEP_BUCKETS` is
/// exact and its integer part is the bucket of `u`.
const DEP_BUCKETS: usize = 4096;

/// `2^-53`, the spacing of `Standard` uniforms, written as `rand` writes
/// it so `x as f64 * UNIT` is the uniform of `x`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// How far a bucket's edge distances must stay from a step of the
/// truncated output for the whole bucket to share one value: far above
/// the formula's rounding error where it has steps (about 1e-13 for
/// distances up to 256).
const DEP_MARGIN: f64 = 1e-6;

/// Geometric dependency distances, `1 + ln(u) / ln(1 - 1/mean)` clamped
/// to 1..=255 and truncated, for a uniform `u` in `[0, 1)`.
///
/// Most draws read the answer from a 4096-entry table indexed by the
/// bucket `[j/4096, (j+1)/4096)` that holds `u`. The formula never
/// increases with `u`, so when it computes to the same output at both
/// edges of a bucket, more than [`DEP_MARGIN`] from a step, every `u`
/// inside computes to that output too. The other buckets hold 0 and
/// evaluate the formula.
#[derive(Debug, Clone)]
struct DepTable {
    /// `ln(1 - 1/mean)`, the per-spec constant of the formula.
    ln_q: f64,
    /// Output per bucket; 0 where the bucket must evaluate the formula.
    table: Box<[u8; DEP_BUCKETS]>,
}

impl DepTable {
    fn new(mean_dep_dist: f64) -> Self {
        let ln_q = (1.0 - 1.0 / mean_dep_dist).ln();
        let mut table = Box::new([0; DEP_BUCKETS]);
        let edge = |j: usize| Self::distance(ln_q, j as f64 / DEP_BUCKETS as f64);
        let mut high = edge(0);
        for (j, slot) in table.iter_mut().enumerate() {
            let low = edge(j + 1);
            let out = Self::truncate(high);
            if out == Self::truncate(low) && Self::clear_of_steps(high) && Self::clear_of_steps(low)
            {
                *slot = out;
            }
            high = low;
        }
        DepTable { ln_q, table }
    }

    /// The distance for the `Standard` uniform of the RNG word `w`,
    /// `u = x·2^-53` with `x = w >> 11`. The bucket of `u` is `x >> 41`,
    /// because `u·4096 = x·2^-41` exactly.
    #[inline]
    fn draw(&self, w: u64) -> u8 {
        let x = w >> 11;
        match self.table[(x >> 41) as usize] {
            0 => Self::truncate(Self::distance(self.ln_q, x as f64 * UNIT)),
            d => d,
        }
    }

    /// The formula before clamping and truncation.
    fn distance(ln_q: f64, u: f64) -> f64 {
        1.0 + u.max(1e-12).ln() / ln_q
    }

    fn truncate(d: f64) -> u8 {
        d.clamp(1.0, 255.0) as u8
    }

    /// Whether `d` is more than [`DEP_MARGIN`] from every value where
    /// [`Self::truncate`] steps (the integers 2..=255).
    fn clear_of_steps(d: f64) -> bool {
        let step = d.round();
        !(2.0..=255.0).contains(&step) || (d - step).abs() > DEP_MARGIN
    }
}

/// A spec's per-instruction draws as integer thresholds, built once per
/// generator. Every decision [`TraceGen`] makes per instruction compares
/// one RNG word, or its uniform's 53 bits `x = w >> 11`, with one of
/// these constants, and decides what the float draw it replaces decided
/// from the same word (see `crate::threshold`).
#[derive(Debug, Clone)]
struct Plan {
    /// `x < mem` exactly when the class uniform is below `mem_ratio`.
    mem: u64,
    /// `x < mem_or_branch` exactly when it is below `mem_ratio +
    /// branch_ratio`, summed in `f64` as the float draw summed it.
    mem_or_branch: u64,
    store: Coin,
    fp: Coin,
    long: Coin,
    /// The taken coin of a biased (predictable) branch site.
    biased: Coin,
    /// `h < hard_branch` exactly when `h·2^-24 < hard_branch_frac`.
    hard_branch: u64,
    line_burst: u32,
    dep_table: DepTable,
}

impl Plan {
    /// Checks `spec` (see [`WorkloadSpec::check`]) and builds its plan.
    fn new(spec: &WorkloadSpec) -> Result<Self, SpecError> {
        spec.check()?;
        let mix = &spec.mix;
        Ok(Plan {
            mem: unit_threshold(mix.mem_ratio, 53),
            mem_or_branch: unit_threshold(mix.mem_ratio + mix.branch_ratio, 53),
            store: Coin::new(mix.store_frac),
            fp: Coin::new(mix.fp_frac),
            long: Coin::new(mix.long_op_frac),
            biased: Coin::new(0.92),
            hard_branch: unit_threshold(mix.hard_branch_frac, 24),
            line_burst: mix.line_burst,
            dep_table: DepTable::new(mix.mean_dep_dist),
        })
    }
}

/// A deterministic, infinite instruction stream (see [`WorkloadSpec`]).
///
/// Implements `Iterator<Item = Inst>`; use `.take(n)` for a fixed-length
/// trace.
#[derive(Debug, Clone)]
pub struct TraceGen {
    plan: Plan,
    code: CodeSpec,
    pattern: PatternState,
    rng: SmallRng,
    /// Dynamic instruction index.
    idx: u64,
    /// Current data line and remaining same-line references.
    cur_block: u64,
    burst_left: u32,
    word_idx: u32,
    /// Position inside the current loop body.
    body_pos: u32,
    /// Current code region.
    region: u32,
    /// Instruction index of the last region switch.
    last_switch: u64,
}

/// Base address of the synthetic code segment; regions are spaced 1 MB.
const CODE_BASE: u64 = 0x0040_0000;
const REGION_SPACING: u64 = 0x0010_0000;

impl TraceGen {
    fn new(spec: WorkloadSpec) -> Self {
        let plan = Plan::new(&spec).unwrap_or_else(|e| panic!("{}", e.message));
        TraceGen {
            pattern: spec.pattern.state(),
            rng: SmallRng::seed_from_u64(spec.seed),
            plan,
            code: spec.code,
            idx: 0,
            cur_block: 0,
            burst_left: 0,
            word_idx: 0,
            body_pos: 0,
            region: 0,
            last_switch: 0,
        }
    }

    fn pc(&self) -> u64 {
        CODE_BASE + u64::from(self.region) * REGION_SPACING + u64::from(self.body_pos) * 4
    }

    fn region_base(&self, region: u32) -> u64 {
        CODE_BASE + u64::from(region) * REGION_SPACING
    }

    /// Geometric dependency distance with the configured mean, in 1..=255.
    fn dep(&mut self) -> u8 {
        self.plan.dep_table.draw(self.rng.next_u64())
    }

    /// The outcome of `coin` on the next RNG word.
    fn flip(&mut self, coin: Coin) -> bool {
        coin.flip(self.rng.next_u64())
    }

    /// Whether the static branch at `pc` is "hard" (data-dependent).
    fn is_hard_branch(&self, pc: u64) -> bool {
        // Deterministic per-site classification via a cheap hash.
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        h < self.plan.hard_branch
    }
}

impl Iterator for TraceGen {
    type Item = Inst;

    #[inline]
    fn next(&mut self) -> Option<Inst> {
        let pc = self.pc();
        self.idx += 1;

        // Structural control flow first: loop-back and region switches.
        let at_body_end = self.body_pos + 1 >= self.code.loop_body;
        if at_body_end {
            self.body_pos = 0;
            let switch = self.code.regions > 1
                && self.idx.saturating_sub(self.last_switch) >= self.code.region_period;
            if switch {
                self.region = (self.region + 1) % self.code.regions;
                self.last_switch = self.idx;
            }
            let target = self.region_base(self.region);
            return Some(Inst {
                pc,
                kind: InstKind::Branch {
                    taken: true,
                    target,
                },
                deps: [0, 0],
            });
        }
        self.body_pos += 1;

        let x = self.rng.next_u64() >> 11;
        let kind = if x < self.plan.mem {
            if self.burst_left == 0 {
                self.cur_block = self.pattern.next_block(&mut self.rng);
                self.burst_left = self.plan.line_burst;
                self.word_idx = 0;
            }
            let addr = self.cur_block * LINE_BYTES + u64::from(self.word_idx) * 8 % LINE_BYTES;
            self.word_idx += 1;
            self.burst_left -= 1;
            if self.flip(self.plan.store) {
                InstKind::Store { addr }
            } else {
                InstKind::Load { addr }
            }
        } else if x < self.plan.mem_or_branch {
            let coin = if self.is_hard_branch(pc) {
                Coin::HALF
            } else {
                self.plan.biased
            };
            InstKind::Branch {
                taken: self.flip(coin),
                target: pc + 64, // short forward branch within the region
            }
        } else {
            let fp = self.flip(self.plan.fp);
            let long = self.flip(self.plan.long);
            match (fp, long) {
                (false, false) => InstKind::IntAlu,
                (false, true) => {
                    if self.flip(Coin::HALF) {
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
        // Second operand dependency present half the time.
        let d2 = if self.flip(Coin::HALF) { self.dep() } else { 0 };
        Some(Inst {
            pc,
            kind,
            deps: [d1, d2],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::BasePattern;
    use rand::rngs::mock::StepRng;
    use rand::Rng;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            pattern: AccessPattern::single(BasePattern::LinearScan {
                region_blocks: 1000,
                stride: 1,
            }),
            mix: MixSpec::int_default(),
            code: CodeSpec::kernel(),
            seed: 123,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<_> = spec().generator().take(5000).collect();
        let b: Vec<_> = spec().generator().take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_ratios_roughly_hold() {
        let n = 200_000;
        let insts: Vec<_> = spec().generator().take(n).collect();
        let mem = insts.iter().filter(|i| i.is_mem()).count() as f64 / n as f64;
        let br = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Branch { .. }))
            .count() as f64
            / n as f64;
        assert!((mem - 0.35).abs() < 0.02, "mem ratio {mem}");
        // Structural loop-back branches add ~1/loop_body on top.
        assert!((br - 0.152).abs() < 0.02, "branch ratio {br}");
    }

    #[test]
    fn stores_match_store_frac() {
        let insts: Vec<_> = spec().generator().take(100_000).collect();
        let loads = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count() as f64;
        let stores = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Store { .. }))
            .count() as f64;
        let frac = stores / (loads + stores);
        assert!((frac - 0.30).abs() < 0.02, "store fraction {frac}");
    }

    #[test]
    fn pcs_stay_in_code_footprint() {
        let s = spec();
        let footprint = s.code.footprint_bytes();
        for i in s.generator().take(50_000) {
            let off = i.pc - CODE_BASE;
            let region = off / REGION_SPACING;
            let within = off % REGION_SPACING;
            assert!(region < u64::from(s.code.regions));
            assert!(within < u64::from(s.code.loop_body) * 4);
        }
        assert_eq!(footprint, 2048);
    }

    #[test]
    fn loop_back_branch_every_body() {
        let insts: Vec<_> = spec().generator().take(2048).collect();
        // Instruction at body position 511 must be the taken loop-back.
        let back = &insts[511];
        match back.kind {
            InstKind::Branch { taken, target } => {
                assert!(taken);
                assert_eq!(target, CODE_BASE);
            }
            ref k => panic!("expected loop-back branch, got {k:?}"),
        }
    }

    #[test]
    fn region_switching_changes_pc_region() {
        let s = WorkloadSpec {
            code: CodeSpec::medium(),
            ..spec()
        };
        let regions: std::collections::HashSet<u64> = s
            .generator()
            .take(200_000)
            .map(|i| (i.pc - CODE_BASE) / REGION_SPACING)
            .collect();
        assert!(regions.len() >= 4, "saw regions {regions:?}");
    }

    #[test]
    fn addresses_follow_the_pattern() {
        let addrs: Vec<u64> = spec()
            .generator()
            .take(10_000)
            .filter_map(|i| i.mem_addr())
            .collect();
        // Linear scan: consecutive references stay in a line for
        // `line_burst` accesses, then advance exactly one block.
        assert!(addrs.len() > 3000);
        let mut blocks: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        blocks.dedup();
        for w in blocks.windows(2) {
            let delta = (w[1] + 1000 - w[0]) % 1000;
            assert_eq!(delta, 1, "scan must advance one block per line burst");
        }
        // The line burst really happens: fewer distinct lines than refs.
        assert!(blocks.len() * 4 < addrs.len());
    }

    #[test]
    fn dep_distances_have_configured_scale() {
        let insts: Vec<_> = spec().generator().take(50_000).collect();
        let mean: f64 =
            insts.iter().map(|i| f64::from(i.deps[0])).sum::<f64>() / insts.len() as f64;
        assert!(
            (mean - 5.0).abs() < 1.0,
            "mean dep distance {mean} vs configured 5.0"
        );
    }

    /// The dependency formula as `TraceGen` evaluated it before the
    /// table.
    fn dep_formula(mean_dep_dist: f64, u: f64) -> u8 {
        let d = 1.0 + u.max(1e-12).ln() / (1.0 - 1.0 / mean_dep_dist).ln();
        d.clamp(1.0, 255.0) as u8
    }

    #[test]
    fn dep_table_matches_the_formula() {
        // A word's `Standard` uniform is `x / 2^53` for `x = w >> 11`.
        const UNITS: u64 = 1 << 53;
        let step = UNITS / DEP_BUCKETS as u64;
        let mut rng = SmallRng::seed_from_u64(5);
        for mean in [1.0, 1.5, 2.0, 5.0, 8.0, 12.0, 300.0] {
            let dt = DepTable::new(mean);
            let check = |w: u64| {
                let u: f64 = StepRng::new(w, 0).gen();
                assert_eq!(dt.draw(w), dep_formula(mean, u), "mean {mean}, u {u:e}");
            };
            // Each bucket edge ±64 uniforms, with the word's low bits
            // clear and set.
            for edge in (0..=DEP_BUCKETS as u64).map(|j| j * step) {
                for x in edge.saturating_sub(64)..(edge + 65).min(UNITS) {
                    check(x << 11);
                    check(x << 11 | 0x7ff);
                }
            }
            for _ in 0..1_000_000 {
                check(rng.next_u64());
            }
        }
    }

    #[test]
    fn dep_table_rarely_falls_back_on_suite_mixes() {
        for mix in [
            MixSpec::int_default(),
            MixSpec::fp_default(),
            MixSpec::media_default(),
            MixSpec::pointer_default(),
        ] {
            let table = DepTable::new(mix.mean_dep_dist).table;
            let share = table.iter().filter(|&&d| d == 0).count() as f64 / table.len() as f64;
            println!(
                "mean_dep_dist {}: {:.2}% of draws evaluate the formula",
                mix.mean_dep_dist,
                share * 100.0
            );
            assert!(
                share < 0.025,
                "mean {}: fallback share {share}",
                mix.mean_dep_dist
            );
        }
    }

    #[test]
    #[should_panic(expected = "mean_dep_dist")]
    fn rejects_zero_ilp() {
        let mut s = spec();
        s.mix.mean_dep_dist = 0.5;
        let _ = s.generator();
    }

    /// One spec breaking each precondition the generator and the pattern
    /// samplers assert, with the field `check` must name.
    fn broken_specs() -> Vec<(WorkloadSpec, &'static str)> {
        use BasePattern as B;
        let with_mix = |edit: fn(&mut MixSpec), field| {
            let mut s = spec();
            edit(&mut s.mix);
            (s, field)
        };
        let with_pattern = |pattern, field| (WorkloadSpec { pattern, ..spec() }, field);
        let single = AccessPattern::single;
        let scan = || B::LinearScan {
            region_blocks: 8,
            stride: 1,
        };
        let temporal = |p_new, mean_depth, footprint_blocks| B::Temporal {
            p_new,
            mean_depth,
            footprint_blocks,
        };
        let mut short_body = spec();
        short_body.code.loop_body = 1;
        vec![
            with_mix(|m| m.mean_dep_dist = 0.5, "mix.mean_dep_dist"),
            with_mix(|m| m.mean_dep_dist = f64::NAN, "mix.mean_dep_dist"),
            with_mix(|m| m.branch_ratio = 0.9, "mix.mem_ratio + mix.branch_ratio"),
            with_mix(
                |m| m.mem_ratio = f64::NAN,
                "mix.mem_ratio + mix.branch_ratio",
            ),
            with_mix(|m| m.line_burst = 0, "mix.line_burst"),
            (short_body, "code.loop_body"),
            with_pattern(AccessPattern::Phased { phases: vec![] }, "pattern.phases"),
            with_pattern(
                AccessPattern::Phased {
                    phases: vec![(scan(), 0, 5), (scan(), 0, 0)],
                },
                "pattern.phases[1]",
            ),
            with_pattern(
                AccessPattern::Interleaved { parts: vec![] },
                "pattern.parts",
            ),
            with_pattern(
                AccessPattern::Interleaved {
                    parts: vec![(scan(), 0, 0)],
                },
                "pattern.parts",
            ),
            with_pattern(
                single(B::LinearScan {
                    region_blocks: 8,
                    stride: 0,
                }),
                "pattern.LinearScan.stride",
            ),
            with_pattern(
                single(B::HotScan {
                    hot_blocks: 4,
                    scan_blocks: 8,
                    hot_burst: 0,
                    scan_burst: 1,
                }),
                "pattern.HotScan.hot_burst",
            ),
            with_pattern(
                single(B::Zipf {
                    footprint_blocks: 0,
                    exponent: 1.0,
                }),
                "pattern.Zipf.footprint_blocks",
            ),
            with_pattern(
                single(B::Zipf {
                    footprint_blocks: 1 << 32,
                    exponent: 1.0,
                }),
                "pattern.Zipf.footprint_blocks",
            ),
            with_pattern(
                single(B::Zipf {
                    footprint_blocks: 8,
                    exponent: f64::INFINITY,
                }),
                "pattern.Zipf.exponent",
            ),
            with_pattern(single(temporal(f64::NAN, 4.0, 8)), "pattern.Temporal.p_new"),
            with_pattern(single(temporal(0.1, 0.5, 8)), "pattern.Temporal.mean_depth"),
            with_pattern(
                single(temporal(0.1, 4.0, 0)),
                "pattern.Temporal.footprint_blocks",
            ),
            with_pattern(
                single(B::ShiftingHot {
                    window_blocks: 8,
                    period_refs: 0,
                    shift_blocks: 1,
                }),
                "pattern.ShiftingHot.period_refs",
            ),
            with_pattern(
                single(B::RescanLoop {
                    hot_blocks: 8,
                    passes: 2,
                    scan_blocks: 8,
                    scan_chunk: 0,
                }),
                "pattern.RescanLoop.scan_chunk",
            ),
            with_pattern(
                single(B::Striped {
                    inner: Box::new(scan()),
                    sets: 9,
                    total_sets: 8,
                }),
                "pattern.Striped.sets",
            ),
            with_pattern(
                single(B::Striped {
                    inner: Box::new(temporal(2.0, 4.0, 8)),
                    sets: 4,
                    total_sets: 8,
                }),
                "pattern.Striped.inner.Temporal.p_new",
            ),
            with_pattern(
                single(B::Split {
                    parts: vec![],
                    total_sets: 8,
                }),
                "pattern.Split.parts",
            ),
            with_pattern(
                single(B::Split {
                    parts: vec![scan(), scan(), scan()],
                    total_sets: 2,
                }),
                "pattern.Split.parts",
            ),
            with_pattern(
                AccessPattern::Interleaved {
                    parts: vec![
                        (scan(), 0, 1),
                        (
                            B::Split {
                                parts: vec![scan(), temporal(0.1, 4.0, 0)],
                                total_sets: 8,
                            },
                            0,
                            1,
                        ),
                    ],
                },
                "pattern.parts[1].Split.parts[1].Temporal.footprint_blocks",
            ),
        ]
    }

    #[test]
    fn check_rejects_exactly_what_the_generator_asserts() {
        for (s, field) in broken_specs() {
            let err = s.check().expect_err(field);
            assert_eq!(err.field, field, "{err}");
            let panicked = std::panic::catch_unwind(|| s.generator()).is_err();
            assert!(panicked, "{field}: the generator must reject it too");
        }
        let mut edges = spec();
        edges.mix.mean_dep_dist = 1.0;
        edges.mix.line_burst = 1;
        edges.code.loop_body = 2;
        (edges.mix.mem_ratio, edges.mix.branch_ratio) = (0.6, 0.4);
        (edges.mix.fp_frac, edges.mix.store_frac) = (f64::NAN, 1.0);
        edges.pattern = AccessPattern::single(BasePattern::Temporal {
            p_new: 1.0,
            mean_depth: 1.0,
            footprint_blocks: 1,
        });
        for s in crate::extended_suite()
            .into_iter()
            .map(|b| b.spec)
            .chain([edges])
        {
            assert_eq!(s.check(), Ok(()));
        }
    }

    #[test]
    fn the_generator_panics_with_the_checks_message() {
        let mut s = spec();
        s.mix.line_burst = 0;
        let panic = std::panic::catch_unwind(|| s.generator()).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("line_burst must be >= 1")
        );
    }
}
