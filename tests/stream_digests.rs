//! Pins the exact streams the generators emit.
//!
//! Every figure, golden and replay capture is a pure function of these
//! streams, so a generator change that is meant to keep its output must
//! leave these digests unchanged. `tests/properties.rs` only checks that
//! one process regenerates the same stream twice, which a drift in every
//! run alike would pass.
//!
//! Run `cargo test --test stream_digests -- --nocapture` to print the
//! current digests when a mismatch needs diagnosing.

use ac_concurrent::{StreamKind, ThreadStream};
use workloads::{extended_suite, primary_suite, Benchmark, Inst, InstKind};

/// Instructions hashed per benchmark stream.
const INSTS: usize = 100_000;

/// Operations hashed per concurrent thread stream: two of the phase
/// stream's bursts, so both its Zipf and its scan phase are covered.
const OPS: usize = 1 << 17;

/// The perturbed seed: `acbench --seed 1` xors every generator seed with
/// `splitmix64(1)`.
const PERTURB_SEED: u64 = 1;

/// Stream seed of the concurrent workloads at seed 0.
const THREAD_SEED: u64 = 0xBEAC;

/// FNV-1a over the little-endian bytes of `word`.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every field of an instruction as three words.
fn inst_words(i: &Inst) -> [u64; 3] {
    let (tag, payload, taken) = match i.kind {
        InstKind::IntAlu => (0, 0, false),
        InstKind::IntMul => (1, 0, false),
        InstKind::IntDiv => (2, 0, false),
        InstKind::FpAdd => (3, 0, false),
        InstKind::FpDiv => (4, 0, false),
        InstKind::Load { addr } => (5, addr, false),
        InstKind::Store { addr } => (6, addr, false),
        InstKind::Branch { taken, target } => (7, target, taken),
    };
    let meta =
        tag | u64::from(taken) << 8 | u64::from(i.deps[0]) << 16 | u64::from(i.deps[1]) << 24;
    [i.pc, meta, payload]
}

/// The extended-suite benchmarks whose data pattern draws Zipf ranks.
/// No primary benchmark does.
const ZIPF_BENCHMARKS: [&str; 11] = [
    "crafty",
    "perlbmk-2",
    "mesa",
    "g721-enc",
    "g721-dec",
    "pegwit",
    "bitcount",
    "blowfish",
    "rijndael",
    "hmmer",
    "unreal",
];

/// `(benchmark, digest)` of the first [`INSTS`] instructions of each of
/// `suite`, with each generator seed xored with `perturb`.
fn suite_digests(suite: Vec<Benchmark>, perturb: u64) -> Vec<(String, u64)> {
    suite
        .into_iter()
        .map(|mut b| {
            b.spec.seed ^= perturb;
            let digest = b
                .spec
                .generator()
                .take(INSTS)
                .flat_map(|i| inst_words(&i))
                .fold(FNV_OFFSET, fnv);
            (b.name, digest)
        })
        .collect()
}

fn thread_digest(kind: StreamKind, write_every: u64, thread: u64) -> u64 {
    let mut s = ThreadStream::new(kind, write_every, THREAD_SEED, thread);
    (0..OPS).fold(FNV_OFFSET, |h, _| {
        let (block, write) = s.next_op();
        fnv(fnv(h, block.raw()), u64::from(write))
    })
}

/// Compares `got` with `want` by name, printing every row so one run
/// shows the whole table.
fn check(label: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let mut wrong = Vec::new();
    for (name, digest) in got {
        println!("{label}: (\"{name}\", 0x{digest:016x}),");
        match want.iter().find(|(n, _)| n == name) {
            Some((_, w)) if w == digest => {}
            _ => wrong.push(name.as_str()),
        }
    }
    assert_eq!(got.len(), want.len(), "{label}: stream count changed");
    assert!(wrong.is_empty(), "{label}: streams drifted: {wrong:?}");
}

fn zipf_suite() -> Vec<Benchmark> {
    extended_suite()
        .into_iter()
        .filter(|b| ZIPF_BENCHMARKS.contains(&b.name.as_str()))
        .collect()
}

#[test]
fn primary_streams_are_pinned_at_seed_0() {
    check("seed 0", &suite_digests(primary_suite(), 0), SEED0);
}

#[test]
fn primary_streams_are_pinned_at_a_perturbed_seed() {
    let got = suite_digests(primary_suite(), splitmix64(PERTURB_SEED));
    check("seed 1", &got, SEED1);
}

#[test]
fn zipf_streams_are_pinned_at_seed_0() {
    check("zipf seed 0", &suite_digests(zipf_suite(), 0), ZIPF_SEED0);
}

#[test]
fn zipf_streams_are_pinned_at_a_perturbed_seed() {
    let got = suite_digests(zipf_suite(), splitmix64(PERTURB_SEED));
    check("zipf seed 1", &got, ZIPF_SEED1);
}

#[test]
fn thread_streams_are_pinned() {
    // The two stream kinds the concurrent benchmark drives.
    let zipf = StreamKind::Zipf {
        blocks: 16_384,
        theta: 0.8,
    };
    let phase = StreamKind::Mixed {
        blocks: 65_536,
        theta: 0.8,
        stride: 1,
        burst: 65_536,
    };
    let got = [
        ("zipf/t0", thread_digest(zipf, 16, 0)),
        ("zipf/t1", thread_digest(zipf, 16, 1)),
        ("phase/t0", thread_digest(phase, 2, 0)),
        ("phase/t1", thread_digest(phase, 2, 1)),
    ]
    .map(|(name, digest)| (name.to_string(), digest));
    check("threads", &got, THREADS);
}

const SEED0: &[(&str, u64)] = &[
    ("ammp", 0x1a17588c903e266f),
    ("applu", 0x7b567c3d20dad1f8),
    ("art-1", 0x8dd1365754914e71),
    ("art-2", 0xd88d4686d9dd01ed),
    ("bzip2", 0x09581c4a4704b3c1),
    ("equake", 0x0523c95b56753c2c),
    ("facerec", 0x2277e46188e829a0),
    ("fma3d", 0x94b761758c98363b),
    ("ft", 0xcab58bbeed2228c6),
    ("gap", 0x14bcf9bc84e8ff33),
    ("gcc-1", 0xf155942d63255918),
    ("gcc-2", 0x24bd0aedfe67ec87),
    ("lucas", 0x4e009275a44ad350),
    ("mcf", 0x82f2cf44a7287217),
    ("mgrid", 0x64515ed9959767a0),
    ("parser", 0xc5cdf8017174036f),
    ("swim", 0x43358bf68bf9a124),
    ("tiff2rgba", 0x74024f42f0ddaf6c),
    ("twolf", 0x53d2b1ad8cc25c9e),
    ("unepic", 0x9d8792720fee1faf),
    ("vpr-1", 0x790646174229801c),
    ("vpr-2", 0xa6ba7e4fe24eeaec),
    ("wupwise", 0xcf954006219d5c6c),
    ("x11quake-1", 0x5c49040f401dcaf6),
    ("x11quake-2", 0xf2394eb1e1242604),
    ("xanim", 0x57c700646818b268),
];

const SEED1: &[(&str, u64)] = &[
    ("ammp", 0xcab6a9aab44652f6),
    ("applu", 0x743a22d912fa841c),
    ("art-1", 0x5b15d5f5ce86e1c4),
    ("art-2", 0xac6e118d35b0a182),
    ("bzip2", 0x702d338fdd21f396),
    ("equake", 0xcb507752120f7d40),
    ("facerec", 0x1e5529e99a8c1583),
    ("fma3d", 0xe6f11e5a6e7a2eb0),
    ("ft", 0xb6a28a090a82cca9),
    ("gap", 0xd7c39e16f6339c04),
    ("gcc-1", 0xb4a93b1cfb87632d),
    ("gcc-2", 0xb9824d36933159ba),
    ("lucas", 0x2fd5caea5d193a27),
    ("mcf", 0xce5745dbcfd57fa2),
    ("mgrid", 0x110a73b55dc38819),
    ("parser", 0x75b3591d97062893),
    ("swim", 0x439645749515ac24),
    ("tiff2rgba", 0xb58c31d1f5fe677f),
    ("twolf", 0xb4b465bef8471799),
    ("unepic", 0xf4cd82ec48a73439),
    ("vpr-1", 0x67a2c8c8a9868102),
    ("vpr-2", 0xf0ef080a3de39f69),
    ("wupwise", 0x8b1ab64eed38c287),
    ("x11quake-1", 0xa151256cffc2b759),
    ("x11quake-2", 0x4085b8525c08d589),
    ("xanim", 0x510e9d0351247494),
];

const THREADS: &[(&str, u64)] = &[
    ("zipf/t0", 0xdff5f7781cc04b08),
    ("zipf/t1", 0x89ac68550fc07bf9),
    ("phase/t0", 0xd47b4badf9f68826),
    ("phase/t1", 0x50c0e1b655e4e3d4),
];

const ZIPF_SEED0: &[(&str, u64)] = &[
    ("crafty", 0x074af269a8b30bd0),
    ("perlbmk-2", 0xa55b28a138a70ff8),
    ("mesa", 0x7b127a82b3fce97b),
    ("g721-enc", 0x451decd6e3037600),
    ("g721-dec", 0xfac93f317055656d),
    ("pegwit", 0x6fe9debd7fc1c9a0),
    ("bitcount", 0xfb44d75a0cac67d2),
    ("blowfish", 0xb6f1717a576d8ac6),
    ("rijndael", 0x202ca2b060feb0aa),
    ("hmmer", 0x597657bb2fc43201),
    ("unreal", 0x7637d1ae7d5a585e),
];

const ZIPF_SEED1: &[(&str, u64)] = &[
    ("crafty", 0x77d97e71a7609814),
    ("perlbmk-2", 0x35b3589c09d91c4d),
    ("mesa", 0x71e2623ce4b34ac4),
    ("g721-enc", 0x8df4d59d17ba17ab),
    ("g721-dec", 0x6160774c1568d623),
    ("pegwit", 0x7b83039a8c9b6057),
    ("bitcount", 0xbbe2cf96f61c97c2),
    ("blowfish", 0xc6faa113c8a3cfdf),
    ("rijndael", 0xe05edcef7ba66e99),
    ("hmmer", 0x70fe9fa36b6b49e5),
    ("unreal", 0xe6d5a5b5d4b4f69b),
];
