//! Pins the exact statistics of the timing model.
//!
//! Every timed figure (4, 6, 9 and 10, Sections 4.4, 4.6 and 4.7) is a
//! pure function of `Pipeline`'s per-instruction bookkeeping, so a
//! change to that bookkeeping that is meant to keep its output must
//! leave these digests unchanged. Each run is reduced to an FNV-1a
//! digest of every `RunStats` counter, in the word order of the
//! benchmark's `digest::timed` (`benchmark/src/digest.rs`).
//!
//! Run `cargo test --test pipeline_digests -- --nocapture` to print the
//! current digests when a mismatch needs diagnosing.

use adaptive_cache::{AdaptiveCache, AdaptiveConfig, HistoryKind};
use cache_sim::{Cache, Geometry, PolicyKind};
use cpu_model::{l1_geometry, CpuConfig, Hierarchy, Pipeline, RunStats};
use experiments::runner::{run_timed, L2Kind, PAPER_L2};
use workloads::{primary_suite, Benchmark};

/// Instructions simulated per digested run.
const INSTS: u64 = 50_000;

/// The benchmarks that also run every configuration variant: a
/// memory-bound, a branchy large-footprint and a floating-point one.
const VARIANT_BENCHMARKS: [&str; 3] = ["mcf", "gcc-1", "swim"];

/// FNV-1a over the little-endian bytes of 64-bit words.
fn fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
    })
}

/// Every counter of `s`, in the benchmark's timed-digest order.
fn digest(s: &RunStats) -> u64 {
    let mut words = vec![
        s.instructions,
        s.cycles,
        s.sb_stall_cycles,
        s.wc_merged_stores,
    ];
    for c in [&s.l1i, &s.l1d, &s.l2] {
        words.extend([c.accesses, c.hits, c.misses, c.evictions, c.writebacks]);
    }
    words.extend([
        s.branches.predictions,
        s.branches.mispredictions,
        s.branches.btb_misses,
    ]);
    fnv(&words)
}

fn benchmark(name: &str) -> Benchmark {
    primary_suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name} is a primary benchmark"))
}

fn paper_l2() -> Geometry {
    let (size, line, ways) = PAPER_L2;
    Geometry::new(size, line, ways).unwrap()
}

fn lru() -> L2Kind {
    L2Kind::Plain(PolicyKind::Lru)
}

fn adaptive_full() -> L2Kind {
    L2Kind::Adaptive(AdaptiveConfig::paper_full_tags())
}

/// The configurations the figures and the proptests sweep, one
/// resource at a time away from Table 1.
fn variants() -> Vec<(&'static str, CpuConfig)> {
    let base = CpuConfig::paper_default();
    vec![
        ("sb1", base.store_buffer(1)),
        ("sb3", base.store_buffer(3)),
        ("sb256", base.store_buffer(256)),
        ("wc", base.write_combining(true)),
        ("wb1", base.writeback_buffer(1)),
        ("mshr1", CpuConfig { mshrs: 1, ..base }),
        (
            "rob48_rs20",
            CpuConfig {
                rob_entries: 48,
                rs_entries: 20,
                ..base
            },
        ),
        ("width1", CpuConfig { width: 1, ..base }),
        (
            "alu1_port1",
            CpuConfig {
                int_alu_units: 1,
                mem_ports: 1,
                ..base
            },
        ),
        (
            "fpdiv0",
            CpuConfig {
                fp_div_units: 0,
                ..base
            },
        ),
        ("l2_16way", base.l2_shape(512 * 1024, 16)),
        (
            "alu5_mshr6",
            CpuConfig {
                int_alu_units: 5,
                mshrs: 6,
                ..base
            },
        ),
    ]
}

/// Section 4.6's pipeline: LRU/LFU-adaptive L1s in front of an LRU L2.
fn adaptive_l1_run(bench: &Benchmark) -> RunStats {
    let config = CpuConfig::paper_default();
    let l1 = |params: cpu_model::CacheParams, seed| {
        let history = HistoryKind::BitVector {
            m: params.associativity as u32,
        };
        AdaptiveCache::new(
            l1_geometry(params),
            AdaptiveConfig::paper_full_tags().history_kind(history),
            seed,
        )
    };
    let hierarchy = Hierarchy::with_l1s(
        l1(config.l1i, 0x11),
        l1(config.l1d, 0x1D),
        Cache::new(paper_l2(), PolicyKind::Lru, 1),
    );
    Pipeline::with_hierarchy(config, hierarchy).run(bench.spec.generator(), INSTS)
}

fn timed(bench: &Benchmark, kind: &L2Kind, config: CpuConfig) -> u64 {
    digest(&run_timed(bench, kind, config, INSTS).expect("valid L2 geometry"))
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
    assert_eq!(got.len(), want.len(), "{label}: run count changed");
    assert!(wrong.is_empty(), "{label}: runs drifted: {wrong:?}");
}

#[test]
fn primary_suite_is_pinned_with_an_lru_l2() {
    let got: Vec<_> = primary_suite()
        .iter()
        .map(|b| (b.name.to_string(), timed(b, &lru(), CpuConfig::default())))
        .collect();
    check("lru", &got, LRU);
}

#[test]
fn primary_suite_is_pinned_with_an_adaptive_l2() {
    let got: Vec<_> = primary_suite()
        .iter()
        .map(|b| {
            let d = timed(b, &adaptive_full(), CpuConfig::default());
            (b.name.to_string(), d)
        })
        .collect();
    check("adaptive_full", &got, ADAPTIVE_FULL);
}

#[test]
fn configuration_variants_are_pinned() {
    let mut got = Vec::new();
    for name in VARIANT_BENCHMARKS {
        let b = benchmark(name);
        for (variant, config) in variants() {
            got.push((format!("{name}/{variant}"), timed(&b, &lru(), config)));
        }
        let config = CpuConfig::paper_default().l2_shape(512 * 1024, 16);
        let d = timed(&b, &adaptive_full(), config);
        got.push((format!("{name}/l2_16way_adaptive_full"), d));
        got.push((format!("{name}/adaptive_l1s"), digest(&adaptive_l1_run(&b))));
        // 50 k instructions barely fill the paper's L2; a 64 KiB one
        // sends many more misses and dirty writebacks over the bus.
        let small = CpuConfig::paper_default().l2_shape(64 * 1024, 8);
        got.push((format!("{name}/l2_64k"), timed(&b, &lru(), small)));
    }
    check("variants", &got, VARIANTS);
}

/// Figure 7 drives the pipeline one `step` at a time; that must be the
/// same machine as one `run` over the same instructions.
#[test]
fn stepping_equals_one_run() {
    let odd = CpuConfig {
        rob_entries: 48,
        rs_entries: 20,
        width: 3,
        ..CpuConfig::paper_default().store_buffer(3)
    };
    for (name, config) in [("mcf", CpuConfig::paper_default()), ("swim", odd)] {
        let b = benchmark(name);
        let want = Pipeline::with_lru_l2(config).run(b.spec.generator(), INSTS);
        let mut stepped = Pipeline::with_lru_l2(config);
        let mut retired = 0;
        for inst in b.spec.generator().take(INSTS as usize) {
            retired = stepped.step(&inst);
        }
        assert_eq!(retired, want.cycles, "{name}: last retirement time");
        assert_eq!(stepped.instructions(), INSTS, "{name}");
        assert_eq!(stepped.cycles(), want.cycles, "{name}");
        assert_eq!(stepped.stats(), want, "{name}");
    }
}

/// A run resumed where the last one stopped is the same machine as one
/// run over both stretches, and each run consumes exactly its budget.
#[test]
fn split_runs_equal_one_run() {
    let config = CpuConfig::paper_default().store_buffer(3);
    for (name, split) in [("gcc-1", 1), ("swim", 20_011)] {
        let b = benchmark(name);
        let l2 = || adaptive_full().build(paper_l2());
        let want = Pipeline::new(config, l2()).run(b.spec.generator(), INSTS);
        let mut trace = b.spec.generator();
        let mut pipe = Pipeline::new(config, l2());
        let first = pipe.run(trace.by_ref(), split);
        assert_eq!(first.instructions, split, "{name}");
        let got = pipe.run(trace.by_ref(), INSTS - split);
        assert_eq!(got, want, "{name}");
    }
}

const LRU: &[(&str, u64)] = &[
    ("ammp", 0xaa262806b9ae291e),
    ("applu", 0xee11e16433d96dd6),
    ("art-1", 0x31d294a89709b282),
    ("art-2", 0x773285b562ab4baf),
    ("bzip2", 0xc0693652fa986681),
    ("equake", 0xbaa103962b13f8d7),
    ("facerec", 0x52fe47b9bc83a610),
    ("fma3d", 0x2d29660697992429),
    ("ft", 0x29fe3623a67975a9),
    ("gap", 0xa476f4048542ad94),
    ("gcc-1", 0xb91a698e1726f41b),
    ("gcc-2", 0x424d4dba29df8937),
    ("lucas", 0x93f2837c7bc93184),
    ("mcf", 0x16dd9331c0edb188),
    ("mgrid", 0xf70048add53d7257),
    ("parser", 0x33ad910c737f6d4b),
    ("swim", 0x69e7d6f7ba74ed10),
    ("tiff2rgba", 0x61357084f8a5448d),
    ("twolf", 0x77d531ac7a1c01e6),
    ("unepic", 0xb703eb4fb74b75e6),
    ("vpr-1", 0x25f94dcfd239e68f),
    ("vpr-2", 0xc75d14ef36e5539c),
    ("wupwise", 0x4ca2c8b742bf9e46),
    ("x11quake-1", 0xed9d6feae869ebda),
    ("x11quake-2", 0xc29ee0967c615cc7),
    ("xanim", 0x8d012d537b0a758e),
];

const ADAPTIVE_FULL: &[(&str, u64)] = &[
    ("ammp", 0xaa262806b9ae291e),
    ("applu", 0xee11e16433d96dd6),
    ("art-1", 0x31d294a89709b282),
    ("art-2", 0x773285b562ab4baf),
    ("bzip2", 0xc0693652fa986681),
    ("equake", 0xbaa103962b13f8d7),
    ("facerec", 0x52fe47b9bc83a610),
    ("fma3d", 0x2d29660697992429),
    ("ft", 0x29fe3623a67975a9),
    ("gap", 0xa476f4048542ad94),
    ("gcc-1", 0xb91a698e1726f41b),
    ("gcc-2", 0x424d4dba29df8937),
    ("lucas", 0x93f2837c7bc93184),
    ("mcf", 0x16dd9331c0edb188),
    ("mgrid", 0xf70048add53d7257),
    ("parser", 0x33ad910c737f6d4b),
    ("swim", 0x69e7d6f7ba74ed10),
    ("tiff2rgba", 0x61357084f8a5448d),
    ("twolf", 0x77d531ac7a1c01e6),
    ("unepic", 0xb703eb4fb74b75e6),
    ("vpr-1", 0x25f94dcfd239e68f),
    ("vpr-2", 0xc75d14ef36e5539c),
    ("wupwise", 0x4ca2c8b742bf9e46),
    ("x11quake-1", 0xed9d6feae869ebda),
    ("x11quake-2", 0xc29ee0967c615cc7),
    ("xanim", 0x8d012d537b0a758e),
];

const VARIANTS: &[(&str, u64)] = &[
    ("mcf/sb1", 0x655d8b0b3c6e02ad),
    ("mcf/sb3", 0x72c83590edbb2dc2),
    ("mcf/sb256", 0x0a8db5a547926e30),
    ("mcf/wc", 0xa2e3ea8c001d8c44),
    ("mcf/wb1", 0x16dd9331c0edb188),
    ("mcf/mshr1", 0x984599dd68497095),
    ("mcf/rob48_rs20", 0xb9fe38c88c62265d),
    ("mcf/width1", 0xa8047478be9d2795),
    ("mcf/alu1_port1", 0x314511f5496be9e5),
    ("mcf/fpdiv0", 0x16dd9331c0edb188),
    ("mcf/l2_16way", 0x16dd9331c0edb188),
    ("mcf/alu5_mshr6", 0xe8707c06d9e7eb7b),
    ("mcf/l2_16way_adaptive_full", 0x16dd9331c0edb188),
    ("mcf/adaptive_l1s", 0x16dd9331c0edb188),
    ("mcf/l2_64k", 0x951af379e4a12976),
    ("gcc-1/sb1", 0x6ced7eb033aa2fed),
    ("gcc-1/sb3", 0x5547e381a781614e),
    ("gcc-1/sb256", 0xc67b10f6ae72e22a),
    ("gcc-1/wc", 0xd0427a45a6ee6239),
    ("gcc-1/wb1", 0xb91a698e1726f41b),
    ("gcc-1/mshr1", 0xe650a62c063096ac),
    ("gcc-1/rob48_rs20", 0x296e81d93897a071),
    ("gcc-1/width1", 0x0cf1c216f02ca803),
    ("gcc-1/alu1_port1", 0x25c66ea92cd96be2),
    ("gcc-1/fpdiv0", 0xb91a698e1726f41b),
    ("gcc-1/l2_16way", 0x1a32c2a9613c1b78),
    ("gcc-1/alu5_mshr6", 0xf0def34744480050),
    ("gcc-1/l2_16way_adaptive_full", 0x1a32c2a9613c1b78),
    ("gcc-1/adaptive_l1s", 0xb91a698e1726f41b),
    ("gcc-1/l2_64k", 0xa65d5ab4d41065da),
    ("swim/sb1", 0xf4028afc47272aa8),
    ("swim/sb3", 0xa0bee915b663a0a5),
    ("swim/sb256", 0xcfe8b0d1eb650219),
    ("swim/wc", 0x26aa37720423798a),
    ("swim/wb1", 0x69e7d6f7ba74ed10),
    ("swim/mshr1", 0x0506b09c6b56c53a),
    ("swim/rob48_rs20", 0xbaa238d8212a39ed),
    ("swim/width1", 0xd87b799de1b3ea6d),
    ("swim/alu1_port1", 0x4591044637eb6a70),
    ("swim/fpdiv0", 0x6d7b2c8437cec6d1),
    ("swim/l2_16way", 0x69e7d6f7ba74ed10),
    ("swim/alu5_mshr6", 0xc3c2e8c4582d3eb5),
    ("swim/l2_16way_adaptive_full", 0x69e7d6f7ba74ed10),
    ("swim/adaptive_l1s", 0x69e7d6f7ba74ed10),
    ("swim/l2_64k", 0x2bd8d683377b236c),
];
