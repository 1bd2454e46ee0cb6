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
use workloads::{
    extended_suite, primary_suite, AccessPattern, BasePattern, Benchmark, CodeSpec, Inst, InstKind,
    MixSpec, Suite, WorkloadSpec,
};

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

/// The extended-suite benchmarks neither the primary nor the Zipf
/// tables pin: the other 63 of the 100.
fn rest_suite() -> Vec<Benchmark> {
    let primary: Vec<String> = primary_suite().into_iter().map(|b| b.name).collect();
    extended_suite()
        .into_iter()
        .filter(|b| !primary.contains(&b.name) && !ZIPF_BENCHMARKS.contains(&b.name.as_str()))
        .collect()
}

/// Specs at the edges of the generator's draws, which no suite
/// benchmark reaches: each fraction at exactly 0 and 1, a NaN fraction,
/// a class split summing to exactly 1, the extreme dependency means,
/// one reference per line and a stack that always or never grows.
fn edge_suite() -> Vec<Benchmark> {
    fn temporal(p_new: f64) -> AccessPattern {
        AccessPattern::single(BasePattern::Temporal {
            p_new,
            mean_depth: 8.0,
            footprint_blocks: 2048,
        })
    }
    let base = WorkloadSpec {
        pattern: temporal(0.05),
        mix: MixSpec::int_default(),
        code: CodeSpec::medium(),
        seed: 7,
    };
    type Edit = fn(&mut WorkloadSpec);
    let edges: [(&str, Edit); 19] = [
        ("store_frac=0", |s| s.mix.store_frac = 0.0),
        ("store_frac=1", |s| s.mix.store_frac = 1.0),
        ("fp_frac=0", |s| s.mix.fp_frac = 0.0),
        ("fp_frac=1", |s| s.mix.fp_frac = 1.0),
        ("fp_frac=NaN", |s| s.mix.fp_frac = f64::NAN),
        ("long_op_frac=0", |s| s.mix.long_op_frac = 0.0),
        ("long_op_frac=1", |s| s.mix.long_op_frac = 1.0),
        ("hard_branch_frac=0", |s| s.mix.hard_branch_frac = 0.0),
        ("hard_branch_frac=1", |s| s.mix.hard_branch_frac = 1.0),
        ("hard_branch_frac=NaN", |s| {
            s.mix.hard_branch_frac = f64::NAN
        }),
        ("mem+branch=1", |s| {
            (s.mix.mem_ratio, s.mix.branch_ratio) = (0.6, 0.4);
        }),
        ("mem_ratio=1", |s| {
            (s.mix.mem_ratio, s.mix.branch_ratio) = (1.0, 0.0);
        }),
        ("branch_ratio=1", |s| {
            (s.mix.mem_ratio, s.mix.branch_ratio) = (0.0, 1.0);
        }),
        ("mean_dep_dist=1", |s| s.mix.mean_dep_dist = 1.0),
        ("mean_dep_dist=300", |s| s.mix.mean_dep_dist = 300.0),
        ("line_burst=1", |s| s.mix.line_burst = 1),
        ("p_new=0", |s| s.pattern = temporal(0.0)),
        ("p_new=1", |s| s.pattern = temporal(1.0)),
        ("fractions=0", |s| {
            let m = &mut s.mix;
            (m.store_frac, m.fp_frac, m.long_op_frac) = (0.0, 0.0, 0.0);
            m.hard_branch_frac = 0.0;
        }),
    ];
    edges
        .iter()
        .map(|(name, edit)| {
            let mut spec = base.clone();
            edit(&mut spec);
            let sum = spec.mix.mem_ratio + spec.mix.branch_ratio;
            assert!(sum <= 1.0, "{name}: class split {sum} above 1");
            Benchmark {
                name: name.to_string(),
                suite: Suite::SpecInt,
                spec,
            }
        })
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
fn extended_streams_are_pinned_at_seed_0() {
    check("rest seed 0", &suite_digests(rest_suite(), 0), REST_SEED0);
}

#[test]
fn extended_streams_are_pinned_at_a_perturbed_seed() {
    let got = suite_digests(rest_suite(), splitmix64(PERTURB_SEED));
    check("rest seed 1", &got, REST_SEED1);
}

#[test]
fn edge_specs_are_pinned() {
    let edges = edge_suite();
    let mem_and_branch = &edges.iter().find(|b| b.name == "mem+branch=1").unwrap();
    assert_eq!(
        mem_and_branch.spec.mix.mem_ratio + mem_and_branch.spec.mix.branch_ratio,
        1.0
    );
    check("edge", &suite_digests(edges, 0), EDGE);
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

const REST_SEED0: &[(&str, u64)] = &[
    ("gzip-1", 0xb8d0bf9ca2449f3b),
    ("gzip-2", 0x5cc339bfe187711c),
    ("eon", 0xaeb84eb66b14b9a7),
    ("perlbmk-1", 0x268d17ee51e38198),
    ("vortex-1", 0x0c8042616068ca09),
    ("vortex-2", 0x8996133035fbcffe),
    ("wupwise-2", 0xada25afee55c58ef),
    ("galgel", 0xb2eba127e334c7b6),
    ("sixtrack", 0xae8ee32c3aa42344),
    ("apsi", 0xda822d2c81ce8760),
    ("mgrid-2", 0x5b6a369b971c046c),
    ("applu-2", 0x1a8548b5d8fb621a),
    ("equake-2", 0xb61960d1a2d80795),
    ("adpcm-enc", 0x6e1be8ed99bb9d8f),
    ("adpcm-dec", 0x7e58d88a3d859117),
    ("epic", 0x0e140226e439a7df),
    ("ghostscript", 0x514a9c144d494992),
    ("gsm-enc", 0xa828b32b634a2d0b),
    ("gsm-dec", 0x2042a7a47b84ecd3),
    ("jpeg-enc", 0x998f1c28b7433b6a),
    ("jpeg-dec", 0xc46c6219a4c41c92),
    ("mpeg2-enc", 0x0dc771e1f92c3025),
    ("mpeg2-dec", 0x992b6ed11d75ee32),
    ("pgp", 0x4006c8385891a8c1),
    ("rasta", 0xa822e5fdfe7d6886),
    ("basicmath", 0x14a213f5144579f7),
    ("qsort", 0x6d1fe99beccd46bb),
    ("susan", 0x78dd3dd2d3707646),
    ("dijkstra", 0x2627494391be3dc8),
    ("patricia", 0x8a34b9dc59af2886),
    ("stringsearch", 0xfa45f5069be031d8),
    ("sha", 0xf4a44d4bf5b9d8d2),
    ("crc32", 0x8a3fa5ed4d2d5668),
    ("fft-mi", 0xf64337a6c52ba286),
    ("lame", 0x81e7547735644c9a),
    ("typeset", 0x758a867e77fa6c70),
    ("mummer", 0xf360f38d0876c03a),
    ("tigr", 0xe8ffaeba690f9ef9),
    ("fasta", 0x96d9b5f0a2df69bb),
    ("clustalw", 0x6ba1b965f496bae3),
    ("blastp", 0x41e2c45eb2181e12),
    ("phylip", 0x9906212e2316b7e0),
    ("anagram", 0xd237e7ec50190636),
    ("bc", 0xc1dbce3c60ad146a),
    ("ks", 0xc872995b8de96eb2),
    ("yacr2", 0x66d562108f582bf9),
    ("bh", 0xb71cd49484b8a59c),
    ("bisort", 0xeda31097e70d11cd),
    ("em3d", 0x59d6cc159ee687fa),
    ("health", 0x768d576c13b4577b),
    ("mst", 0x0fca9990b97ec7a5),
    ("perimeter", 0xca64a791e042827f),
    ("power", 0x7a0c8820117df746),
    ("treeadd", 0x94fd4290dfee9d08),
    ("tsp", 0xc8a0497732be5a67),
    ("voronoi", 0x1c050fb501b655d2),
    ("doom", 0xd13f428dd699d458),
    ("quake2", 0xc341e0dfc17dd122),
    ("povray", 0xb1cdde280a2ee814),
    ("tachyon", 0xf5b3a70722510e31),
    ("raytrace", 0x2b8bfc4712487251),
    ("glquake", 0x5642eefb29890c40),
    ("descent", 0x4d36b823d096f9d9),
];

const REST_SEED1: &[(&str, u64)] = &[
    ("gzip-1", 0x888d513eb0243b65),
    ("gzip-2", 0x87335079b12be87a),
    ("eon", 0x7bc7fe9ed6777dc3),
    ("perlbmk-1", 0x99d96ca1d1697a38),
    ("vortex-1", 0xb155151f0a284353),
    ("vortex-2", 0xf9371082f477a190),
    ("wupwise-2", 0x4b99331cb55cff9f),
    ("galgel", 0xf8316cf5942abfd2),
    ("sixtrack", 0xd3e241b619e32577),
    ("apsi", 0x330f9e90d7d48f9e),
    ("mgrid-2", 0xf560bf2d22a7451d),
    ("applu-2", 0xaca76a4c6460ca5d),
    ("equake-2", 0x4ee6ff1b0cd195be),
    ("adpcm-enc", 0x31ac4aa994ed1785),
    ("adpcm-dec", 0xa09f36f1b5d564e8),
    ("epic", 0x441c7816db98f97c),
    ("ghostscript", 0x4bad7c6d95b749f0),
    ("gsm-enc", 0x0b3ac686bb004f21),
    ("gsm-dec", 0xa8b30ddac9811c1d),
    ("jpeg-enc", 0xd299db7c1781557e),
    ("jpeg-dec", 0x17d988d21b5e3ce4),
    ("mpeg2-enc", 0x667b21b2219a0119),
    ("mpeg2-dec", 0x78cdef0c0b7f2067),
    ("pgp", 0x315569285847e7c1),
    ("rasta", 0x2eb07cec163f72a0),
    ("basicmath", 0xbcca2be49a6a88f9),
    ("qsort", 0xab4183f8a34507d4),
    ("susan", 0x8b4f3855829618e1),
    ("dijkstra", 0x84f543b6758e139b),
    ("patricia", 0x5a0e9e0460a52f6a),
    ("stringsearch", 0x9c55db0486b39d5b),
    ("sha", 0x51379ed2cc2ce9b6),
    ("crc32", 0x0a747973f2191b29),
    ("fft-mi", 0xcb19ebbcd751ea3c),
    ("lame", 0x55812d4d417b585b),
    ("typeset", 0xd230c9de93dc41a8),
    ("mummer", 0xb72dfcf1a74e1c12),
    ("tigr", 0x4d74147e9d5d7c0b),
    ("fasta", 0xabf74e6dfb17b6db),
    ("clustalw", 0xf4524b7a122ab580),
    ("blastp", 0x90ad3a74143b4d33),
    ("phylip", 0xb6f9644ee03354ba),
    ("anagram", 0x4bea14b61f26f239),
    ("bc", 0x77dd82026a68736c),
    ("ks", 0x68e9b0567cc8cf34),
    ("yacr2", 0xceeb7a0996f3421d),
    ("bh", 0xf99d392f3a4e3c0d),
    ("bisort", 0x3ed70f511e6f7c81),
    ("em3d", 0xf991bd83a630cc18),
    ("health", 0x0f40ca198783ea90),
    ("mst", 0xa3aa597846aa002d),
    ("perimeter", 0xa4ac6f5b45bb5d94),
    ("power", 0x288194657c03d515),
    ("treeadd", 0x1509bb33f0c24238),
    ("tsp", 0x3c3360e4b2e11f8a),
    ("voronoi", 0x16d705c260571556),
    ("doom", 0xa685c11ba71d1a6c),
    ("quake2", 0x8a29e164d67d0c71),
    ("povray", 0x2da8b49d8b07af1a),
    ("tachyon", 0x45bd8175fb12fb10),
    ("raytrace", 0xeb220431b87daeb0),
    ("glquake", 0xfea9654c67ee8edc),
    ("descent", 0x7ee4ee457260beb2),
];

const EDGE: &[(&str, u64)] = &[
    ("store_frac=0", 0x15a9820e791ff9ac),
    ("store_frac=1", 0x3b9d5f6cf9cb8f44),
    ("fp_frac=0", 0xfdd1bed02dec6ee5),
    ("fp_frac=1", 0x269e307b58bff4db),
    ("fp_frac=NaN", 0xfdd1bed02dec6ee5),
    ("long_op_frac=0", 0x378c2ec05628d06c),
    ("long_op_frac=1", 0x66d4d9260cbf8b2f),
    ("hard_branch_frac=0", 0x0d01ff51bfe573b0),
    ("hard_branch_frac=1", 0x34a32abd7e6ebb3b),
    ("hard_branch_frac=NaN", 0x0d01ff51bfe573b0),
    ("mem+branch=1", 0x63bc4fbfeff72365),
    ("mem_ratio=1", 0xb4834017116e4646),
    ("branch_ratio=1", 0xfe45ec27017bffdc),
    ("mean_dep_dist=1", 0x5c8ae7884ed8f08b),
    ("mean_dep_dist=300", 0x7869fe96694b615e),
    ("line_burst=1", 0xa73ef284156698f1),
    ("p_new=0", 0x649fd1752c2891fd),
    ("p_new=1", 0x1d5dde198a919af1),
    ("fractions=0", 0x2379dd8d7d6c6e70),
];
