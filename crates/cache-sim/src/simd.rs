//! Runtime-dispatched SIMD kernels for the probe path.
//!
//! Every `unsafe` block in the crate lives in this module, and each one
//! is a call to an `std::arch` x86-64 intrinsic wrapper gated on a
//! runtime CPU-feature check (see *Safety* below). The rest of the
//! crate consumes only the safe dispatch functions, which fall back to
//! the portable SWAR/scalar code — bit-for-bit the pre-SIMD
//! implementation — whenever the hardware lacks the feature or the
//! `AC_FORCE_SCALAR=1` environment variable forces the fallback.
//!
//! # Feature-detection ladder
//!
//! [`active_level`] resolves once per process:
//!
//! 1. `AC_FORCE_SCALAR=1` → [`SimdLevel::Scalar`] (portable SWAR/scalar
//!    paths only; used by the differential suites and the CI fallback
//!    matrix),
//! 2. `is_x86_feature_detected!("avx2")` → [`SimdLevel::Avx2`]
//!    (4×`u64` tag compares via `vpcmpeqq`),
//! 3. any x86-64 → [`SimdLevel::Sse2`] (SSE2 is part of the x86-64
//!    baseline ISA: 2×`u64` tag compares emulated with `pcmpeqd`, and
//!    the 16×`u8` fused shadow-lane compare via `pcmpeqb`),
//! 4. any other architecture → [`SimdLevel::Scalar`].
//!
//! Directories capture the level at construction (so dispatch is one
//! predictable branch on a resident field, not a global load per probe)
//! and can be re-pinned per instance with
//! [`crate::Directory::force_simd_level`] for differential testing.
//!
//! # Safety
//!
//! The `#[target_feature]` functions below are only reachable through
//! dispatchers that check the corresponding [`SimdLevel`], and a level
//! above the hardware's capability is unrepresentable: [`active_level`]
//! never exceeds [`hardware_level`], and `force_simd_level` clamps to
//! it. All pointer-based loads use the unaligned (`loadu`) forms on
//! ranges proved in-bounds by the borrow checker (`&[u64]` slices), so
//! the only obligation the intrinsics add — "the CPU supports this
//! instruction" — is exactly what the ladder establishes. Prefetch
//! hints ([`prefetch_read`]) are architecturally safe for *any*
//! address, including invalid ones: they never fault and have no
//! observable effect besides cache warming.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// The instruction-set tier the probe kernels run at.
///
/// Ordered: a higher level strictly extends the capabilities of the
/// lower ones, so capping is `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable SWAR + scalar word loops (any architecture, or
    /// `AC_FORCE_SCALAR=1`).
    Scalar = 0,
    /// x86-64 baseline vectors: `pcmpeqd`-emulated 64-bit compares and
    /// the 16-byte fused shadow-lane compare.
    Sse2 = 1,
    /// AVX2: 256-bit `vpcmpeqq` tag compares, 4 ways per instruction.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lower-case name for telemetry and bench records.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The best level the hardware supports, ignoring `AC_FORCE_SCALAR`.
/// Detected once per process.
pub fn hardware_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                // SSE2 is architecturally guaranteed on x86-64.
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    })
}

/// The level new directories adopt: [`hardware_level`] unless
/// `AC_FORCE_SCALAR=1` demands the portable fallback. Resolved once per
/// process (the differential tests pin levels per instance instead of
/// mutating the environment).
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var("AC_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            SimdLevel::Scalar
        } else {
            hardware_level()
        }
    })
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
/// of `byte`: bit `w` of the result is set iff byte `w` matches. This
/// is the pre-SIMD packed-lane compare, kept verbatim as the scalar
/// fallback (and as the fastest option for a *single* lane — one
/// resident word beats a vector round-trip).
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

/// Scalar/autovectorised equality scan: bit `w` set iff `tags[w] ==
/// needle`. Fixed-width fast paths for the common associativities let
/// the compiler unroll; this is the portable fallback for
/// [`eq_mask_u64`] and bit-identical to it by construction.
#[inline(always)]
fn eq_mask_u64_scalar(tags: &[u64], needle: u64) -> u64 {
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

/// Vectorised way-tag compare: bit `w` of the result is set iff
/// `tags[w] == needle` (`tags.len() <= 64`). Dispatches on `level`;
/// every tier returns identical bits.
///
/// On binaries already *compiled* with AVX2 enabled (`-C
/// target-cpu=native` on modern x86-64) the portable fixed-width loops
/// autovectorise to the same `vpcmpeqq` compares without the explicit
/// `movemask` round-trips, and measure ~5% faster on the full-tag access
/// path — so such builds keep the portable path and the hand kernels
/// serve their real purpose: lifting *portable* builds to the hardware's
/// tier at runtime.
#[inline(always)]
pub fn eq_mask_u64(level: SimdLevel, tags: &[u64], needle: u64) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
    {
        if level >= SimdLevel::Avx2 {
            // SAFETY: `level >= Avx2` implies AVX2 was runtime-detected
            // (see module Safety notes).
            return unsafe { eq_mask_u64_avx2(tags, needle) };
        }
        if level >= SimdLevel::Sse2 {
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            return unsafe { eq_mask_u64_sse2(tags, needle) };
        }
    }
    let _ = level;
    eq_mask_u64_scalar(tags, needle)
}

/// Fused two-lane compare: both shadow directories' packed 8-byte tag
/// lanes are laid side by side in one 16-byte vector and compared
/// against the broadcast probe byte with a single `pcmpeqb`, answering
/// "hit in shadow A? hit in shadow B?" in one instruction. Returns the
/// per-way match masks `(a, b)` (bit `w` = byte `w` matched), identical
/// to [`swar_lane_eq`] on each lane.
#[inline(always)]
pub fn lane_pair_eq(level: SimdLevel, lane_a: u64, lane_b: u64, byte: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if level >= SimdLevel::Sse2 {
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            let m = unsafe { lane_pair_eq_sse2(lane_a, lane_b, byte) };
            return (u64::from(m & 0xFF), u64::from(m >> 8));
        }
    }
    let _ = level;
    (swar_lane_eq(lane_a, byte), swar_lane_eq(lane_b, byte))
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have runtime-detected AVX2.
    #[cfg(not(target_feature = "avx2"))]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn eq_mask_u64_avx2(tags: &[u64], needle: u64) -> u64 {
        let n = _mm256_set1_epi64x(needle as i64);
        let mut eq = 0u64;
        let mut w = 0usize;
        while w + 4 <= tags.len() {
            // SAFETY: `w + 4 <= tags.len()` bounds the 32-byte load.
            let v = _mm256_loadu_si256(tags.as_ptr().add(w) as *const __m256i);
            let m = _mm256_cmpeq_epi64(v, n);
            eq |= (_mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64 & 0xF) << w;
            w += 4;
        }
        while w < tags.len() {
            eq |= u64::from(tags[w] == needle) << w;
            w += 1;
        }
        eq
    }

    /// 64-bit equality on the SSE2 baseline: `pcmpeqd` gives 32-bit
    /// lane equality; AND-ing with the lane-swapped mask makes each
    /// 64-bit half all-ones iff both of its 32-bit halves matched.
    ///
    /// # Safety
    /// SSE2 is part of the x86-64 baseline ISA; always available here.
    #[cfg(not(target_feature = "avx2"))]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn eq_mask_u64_sse2(tags: &[u64], needle: u64) -> u64 {
        let n = _mm_set1_epi64x(needle as i64);
        let mut eq = 0u64;
        let mut w = 0usize;
        while w + 2 <= tags.len() {
            // SAFETY: `w + 2 <= tags.len()` bounds the 16-byte load.
            let v = _mm_loadu_si128(tags.as_ptr().add(w) as *const __m128i);
            let c = _mm_cmpeq_epi32(v, n);
            let c64 = _mm_and_si128(c, _mm_shuffle_epi32::<0xB1>(c));
            eq |= (_mm_movemask_pd(_mm_castsi128_pd(c64)) as u64 & 0x3) << w;
            w += 2;
        }
        if w < tags.len() {
            eq |= u64::from(tags[w] == needle) << w;
        }
        eq
    }

    /// # Safety
    /// SSE2 is part of the x86-64 baseline ISA; always available here.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn lane_pair_eq_sse2(lane_a: u64, lane_b: u64, byte: u64) -> u16 {
        let lanes = _mm_set_epi64x(lane_b as i64, lane_a as i64);
        let probe = _mm_set1_epi8(byte as i8);
        let eq = _mm_cmpeq_epi8(lanes, probe);
        _mm_movemask_epi8(eq) as u16
    }
}

#[cfg(target_arch = "x86_64")]
use x86::lane_pair_eq_sse2;
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
use x86::{eq_mask_u64_avx2, eq_mask_u64_sse2};

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        let mut ls = vec![SimdLevel::Scalar];
        for l in [SimdLevel::Sse2, SimdLevel::Avx2] {
            if l <= hardware_level() {
                ls.push(l);
            }
        }
        ls
    }

    #[test]
    fn eq_mask_matches_scalar_across_levels_and_widths() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for width in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 31, 64] {
            let mut tags = vec![0u64; width];
            for _ in 0..200 {
                for t in tags.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *t = x % 7; // small range forces frequent matches
                }
                x ^= x << 13;
                let needle = x % 7;
                let want = eq_mask_u64_scalar(&tags, needle);
                for &l in &levels() {
                    assert_eq!(
                        eq_mask_u64(l, &tags, needle),
                        want,
                        "{l:?} width {width} needle {needle}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_pair_matches_swar() {
        let mut x = 99u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x;
            let b = x.rotate_left(17) ^ 0xA5;
            let byte = x >> 56 & 0xFF;
            let want = (swar_lane_eq(a, byte), swar_lane_eq(b, byte));
            for &l in &levels() {
                assert_eq!(lane_pair_eq(l, a, b, byte), want, "{l:?}");
            }
        }
    }

    #[test]
    fn ladder_is_ordered_and_named() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert!(active_level() <= hardware_level());
        assert!(!compiled_target_features().is_empty());
    }

    #[test]
    fn prefetch_accepts_any_pointer() {
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u64>()); // hints never fault
        prefetch_read(usize::MAX as *const u64);
    }
}
