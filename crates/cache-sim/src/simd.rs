//! The probe path's compare kernels and prefetch hint.
//!
//! Every directory probe ends in one of three kernels: [`swar_lane_eq`]
//! (one packed byte lane), [`eq_mask_u64`] (a set's full tag words) or
//! [`lane_pair_eq`] (two packed lanes at once: the adaptive cache's
//! shadow pair). The wide-tag compare is a portable loop whose
//! fixed-width fast paths the compiler unrolls, and vectorises on builds
//! for an AVX2 host. The pair compare is the one hand-written vector
//! kernel: on x86-64 it is a single SSE2 `pcmpeqb` over both lanes,
//! elsewhere two SWAR compares. Both are chosen at build time; nothing
//! here is detected or switched at run time.
//!
//! # Safety
//!
//! The module holds the crate's two `unsafe` blocks. [`lane_pair_eq`]
//! calls an SSE2 intrinsic wrapper, compiled only for x86-64, where SSE2
//! is part of the baseline ISA; the wrapper takes its operands by value
//! and touches no memory. [`prefetch_read`] issues `prefetcht0`, which is
//! architecturally safe for *any* address, including invalid ones: it
//! never faults and has no observable effect besides cache warming.

#![allow(unsafe_code)]

/// The instruction-set tier this binary's probe kernels were compiled
/// for, as stamped on benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Not x86-64: the SWAR pair compare and the portable wide-tag loops.
    Scalar,
    /// x86-64 baseline: the SSE2 pair compare; the wide-tag loops stay
    /// scalar (SSE2 has no 64-bit vector compare).
    Sse2,
    /// Compiled with AVX2: the wide-tag loops vectorise to `vpcmpeqq`.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case name for bench records.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The tier this binary was compiled for: [`SimdLevel::Avx2`] with AVX2
/// enabled (e.g. `-C target-cpu=native` on an AVX2 host),
/// [`SimdLevel::Sse2`] on other x86-64 targets, [`SimdLevel::Scalar`]
/// elsewhere.
pub fn active_level() -> SimdLevel {
    if cfg!(target_feature = "avx2") {
        SimdLevel::Avx2
    } else if cfg!(target_arch = "x86_64") {
        SimdLevel::Sse2
    } else {
        SimdLevel::Scalar
    }
}

/// The `target_feature` set this *binary* was compiled with (compile-time
/// autovectorisation flags, e.g. from `-C target-cpu=native`), as a
/// stable comma-separated string for bench provenance records.
pub fn compiled_target_features() -> &'static str {
    match (
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "sse4.2"),
        cfg!(target_feature = "sse2"),
    ) {
        (true, _, _) => "avx2",
        (false, true, _) => "sse4.2",
        (false, false, true) => "sse2",
        _ => "portable",
    }
}

const LANE_LSB: u64 = 0x0101_0101_0101_0101;
const LANE_MSB: u64 = 0x8080_8080_8080_8080;

/// Portable SWAR equality of each byte of `lane` against the low byte
/// of `byte`: bit `w` of the result is set iff byte `w` matches. The
/// fastest option for a *single* lane — one resident word beats a
/// vector round-trip.
#[inline(always)]
pub fn swar_lane_eq(lane: u64, byte: u64) -> u64 {
    let x = lane ^ byte.wrapping_mul(LANE_LSB);
    // Carry-free per-byte zero detect (no cross-byte borrows, so stale
    // bytes of invalid ways cannot corrupt neighbours).
    let t = (x & !LANE_MSB).wrapping_add(!LANE_MSB);
    let zero = !(t | x) & LANE_MSB;
    // Collapse byte-high-bits to way bits: bit 8w+7 -> bit w.
    (zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Way-tag compare: bit `w` of the result is set iff `tags[w] ==
/// needle` (`tags.len() <= 64`). Fixed-width fast paths for the common
/// associativities let the compiler unroll the loop; on AVX2 builds it
/// becomes `vpcmpeqq` compares.
#[inline(always)]
pub fn eq_mask_u64(tags: &[u64], needle: u64) -> u64 {
    if let Ok(a) = <&[u64; 8]>::try_from(tags) {
        let mut eq = 0u64;
        for (w, &t) in a.iter().enumerate() {
            eq |= u64::from(t == needle) << w;
        }
        return eq;
    }
    if let Ok(a) = <&[u64; 4]>::try_from(tags) {
        let mut eq = 0u64;
        for (w, &t) in a.iter().enumerate() {
            eq |= u64::from(t == needle) << w;
        }
        return eq;
    }
    let mut eq = 0u64;
    for (w, &t) in tags.iter().enumerate() {
        eq |= u64::from(t == needle) << w;
    }
    eq
}

/// Fused two-lane compare: both shadow directories' packed 8-byte tag
/// lanes are compared against the probe byte at once, answering "hit in
/// shadow A? hit in shadow B?" together. Returns the per-way match masks
/// `(a, b)` (bit `w` = byte `w` matched), identical to [`swar_lane_eq`]
/// on each lane.
///
/// On x86-64 the lanes sit side by side in one 16-byte vector and a
/// single `pcmpeqb` compares them; elsewhere this is two SWAR compares.
#[inline(always)]
pub fn lane_pair_eq(lane_a: u64, lane_b: u64, byte: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline ISA.
        let m = unsafe { lane_pair_eq_sse2(lane_a, lane_b, byte) };
        (u64::from(m & 0xFF), u64::from(m >> 8))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (swar_lane_eq(lane_a, byte), swar_lane_eq(lane_b, byte))
    }
}

/// # Safety
/// The CPU must support SSE2, as every x86-64 CPU does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn lane_pair_eq_sse2(lane_a: u64, lane_b: u64, byte: u64) -> u16 {
    use std::arch::x86_64::*;
    let lanes = _mm_set_epi64x(lane_b as i64, lane_a as i64);
    let probe = _mm_set1_epi8(byte as i8);
    _mm_movemask_epi8(_mm_cmpeq_epi8(lanes, probe)) as u16
}

/// Issues a read prefetch (`prefetcht0` / no-op off x86-64) for the
/// cache line holding `p`.
///
/// # Safety (why this function is safe to call)
///
/// Prefetch instructions are architecturally defined to never fault:
/// they are hints, valid for any address including unmapped ones, and
/// have no effect other than possibly warming the cache. The pointer is
/// never dereferenced.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` never dereferences its operand; see above.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn eq_mask_matches_per_way_scan_at_every_width() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for width in 1..=64usize {
            let mut tags = vec![0u64; width];
            for _ in 0..200 {
                for t in tags.iter_mut() {
                    *t = xorshift(&mut x) % 7; // small range forces frequent matches
                }
                let needle = xorshift(&mut x) % 7;
                let want = tags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t == needle)
                    .fold(0u64, |m, (w, _)| m | 1 << w);
                assert_eq!(
                    eq_mask_u64(&tags, needle),
                    want,
                    "width {width} needle {needle}"
                );
            }
        }
    }

    #[test]
    fn lane_pair_matches_swar() {
        let mut x = 99u64;
        for _ in 0..5_000 {
            let a = xorshift(&mut x);
            let b = x.rotate_left(17) ^ 0xA5;
            let byte = x >> 56 & 0xFF;
            let want = (swar_lane_eq(a, byte), swar_lane_eq(b, byte));
            assert_eq!(lane_pair_eq(a, b, byte), want);
        }
    }

    #[test]
    fn build_stamps_agree() {
        assert_eq!(
            active_level() == SimdLevel::Avx2,
            compiled_target_features() == "avx2"
        );
    }

    #[test]
    fn prefetch_accepts_any_pointer() {
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u64>()); // hints never fault
        prefetch_read(usize::MAX as *const u64);
    }
}
