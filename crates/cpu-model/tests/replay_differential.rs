//! Differential check of the front-end memoisation path: for every L2
//! organisation, replaying a captured [`cpu_model::L2Trace`] must be
//! bit-identical to running the front-end directly — same
//! [`cpu_model::FunctionalStats`], same L2 [`cache_sim::CacheStats`],
//! and (for the adaptive organisations) the same Figure-7 decision
//! counters, including the partial-tag RNG fallback paths.

use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, Component, DipCache, DipConfig, MultiAdaptiveCache, MultiConfig,
    SbarCache, SbarConfig,
};
use cache_sim::{Cache, CacheModel, Geometry, PolicyKind};
use cpu_model::prefetch::PrefetchKind;
use cpu_model::{
    capture_functional, replay_into, replay_l2, run_functional, CpuConfig, Hierarchy, L2Complex,
    L2Trace,
};
use proptest::prelude::*;
use workloads::{primary_suite, Benchmark};

/// The paper's L2 geometry (512KB, 64B lines, 8-way).
fn paper_geom() -> Geometry {
    Geometry::new(512 * 1024, 64, 8).unwrap()
}

/// Same seed the experiment runner uses, so the RNG-dependent paths
/// (partial-tag aliasing, random replacement) are exercised exactly as
/// sweeps exercise them.
const SEED: u64 = 0x0C0FFEE;

const INSTS: u64 = 40_000;

fn capture(bench: &Benchmark) -> L2Trace {
    let cfg = CpuConfig::paper_default();
    capture_functional(&cfg, bench.spec.generator(), INSTS)
}

/// Runs the direct front-end against `l2` and the captured `trace`
/// against `replayed_l2`, asserting identical functional statistics and
/// identical L2-side counters.
fn assert_differential<L2: CacheModel>(
    bench: &Benchmark,
    trace: &L2Trace,
    mut direct_l2: L2,
    mut replayed_l2: L2,
) -> (L2, L2) {
    let cfg = CpuConfig::paper_default();
    let mut h = Hierarchy::new(&cfg, &mut direct_l2);
    let direct = run_functional(&mut h, bench.spec.generator(), INSTS);
    drop(h);
    let replayed = replay_l2(trace, &mut replayed_l2);
    assert_eq!(replayed, direct, "{}: FunctionalStats diverge", bench.name);
    assert_eq!(
        replayed_l2.stats(),
        direct_l2.stats(),
        "{}: CacheStats diverge",
        bench.name
    );
    (direct_l2, replayed_l2)
}

#[test]
fn plain_policies_replay_identically() {
    let bench = &primary_suite()[0];
    let trace = capture(bench);
    for policy in [PolicyKind::Lru, PolicyKind::LFU5, PolicyKind::Fifo] {
        assert_differential(
            bench,
            &trace,
            Cache::new(paper_geom(), policy, SEED),
            Cache::new(paper_geom(), policy, SEED),
        );
    }
}

#[test]
fn adaptive_full_and_partial_tags_replay_identically() {
    let bench = &primary_suite()[1];
    let trace = capture(bench);
    // paper_default uses 8-bit partial shadow tags: aliasing resolution
    // draws from the cache's RNG, so this covers the stochastic path;
    // paper_full_tags is the deterministic reference.
    for cfg in [
        AdaptiveConfig::paper_full_tags(),
        AdaptiveConfig::paper_default(),
    ] {
        let (direct, replayed) = assert_differential(
            bench,
            &trace,
            AdaptiveCache::new(paper_geom(), cfg, SEED),
            AdaptiveCache::new(paper_geom(), cfg, SEED),
        );
        // Figure-7 decision counters must match too — the replay drives
        // the same fills in the same order, so imitation sampling,
        // shadow outcomes and aliasing fallbacks are reproduced exactly.
        assert_eq!(replayed.imitation_totals(), direct.imitation_totals());
        assert_eq!(
            replayed.exclusive_miss_totals(),
            direct.exclusive_miss_totals()
        );
        for c in [Component::A, Component::B] {
            assert_eq!(replayed.shadow_stats(c), direct.shadow_stats(c));
        }
        assert_eq!(replayed.aliasing_fallbacks(), direct.aliasing_fallbacks());
    }
}

#[test]
fn sbar_multi_and_dip_replay_identically() {
    let bench = &primary_suite()[2];
    let trace = capture(bench);
    for cfg in [
        SbarConfig::paper_default(),
        SbarConfig::paper_partial_tags(),
    ] {
        assert_differential(
            bench,
            &trace,
            SbarCache::new(paper_geom(), cfg, SEED),
            SbarCache::new(paper_geom(), cfg, SEED),
        );
    }
    assert_differential(
        bench,
        &trace,
        MultiAdaptiveCache::new(paper_geom(), MultiConfig::paper_five_policy(), SEED),
        MultiAdaptiveCache::new(paper_geom(), MultiConfig::paper_five_policy(), SEED),
    );
    assert_differential(
        bench,
        &trace,
        DipCache::new(paper_geom(), DipConfig::paper_default(), SEED),
        DipCache::new(paper_geom(), DipConfig::paper_default(), SEED),
    );
}

#[test]
fn prefetch_attached_replay_is_identical() {
    let bench = &primary_suite()[0];
    let trace = capture(bench);
    let cfg = CpuConfig::paper_default();
    for kind in [
        PrefetchKind::NextLine,
        PrefetchKind::Stride,
        PrefetchKind::Adaptive,
    ] {
        let mut h = Hierarchy::new(&cfg, Cache::new(paper_geom(), PolicyKind::Lru, SEED));
        h.set_prefetcher(kind.build());
        let direct = run_functional(&mut h, bench.spec.generator(), INSTS);

        let mut cx = L2Complex::new(Cache::new(paper_geom(), PolicyKind::Lru, SEED));
        cx.set_prefetcher(kind.build());
        let replayed = replay_into(&trace, &mut cx);

        assert_eq!(replayed, direct, "{kind:?}: FunctionalStats diverge");
        assert_eq!(
            cx.l2().stats(),
            h.l2().stats(),
            "{kind:?}: CacheStats diverge"
        );
        assert_eq!(
            cx.prefetch_stats(),
            h.prefetch_stats(),
            "{kind:?}: PrefetchStats diverge"
        );
    }
}

#[test]
fn replay_against_boxed_dyn_model_matches_concrete() {
    // The experiment runner replays into a `Box<dyn CacheModel>`; the
    // blanket `&mut T` impl must not change behaviour vs the concrete
    // type.
    let bench = &primary_suite()[1];
    let trace = capture(bench);
    let mut concrete = AdaptiveCache::new(paper_geom(), AdaptiveConfig::paper_default(), SEED);
    let mut boxed: Box<dyn CacheModel> = Box::new(AdaptiveCache::new(
        paper_geom(),
        AdaptiveConfig::paper_default(),
        SEED,
    ));
    let a = replay_l2(&trace, &mut concrete);
    let b = replay_l2(&trace, boxed.as_mut());
    assert_eq!(a, b);
    assert_eq!(concrete.stats(), boxed.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed delta/bit encoding round-trips arbitrary event
    /// sequences (addresses anywhere in the u64 space, arbitrary
    /// writeback flags, non-decreasing instruction indices).
    #[test]
    fn trace_encoding_roundtrips(
        raw in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u64..1000), 0..300),
    ) {
        let mut events: Vec<(u64, bool, u64)> = raw;
        // Instruction indices are non-decreasing in a real capture.
        events.sort_by_key(|&(_, _, inst)| inst);
        let mut b = cpu_model::L2TraceBuilder::new();
        for &(addr, wb, inst) in &events {
            b.push(addr, wb, inst);
        }
        let t = b.finish(cpu_model::FunctionalStats::default());
        let back: Vec<(u64, bool, u64)> =
            t.events().map(|e| (e.addr, e.writeback, e.inst)).collect();
        prop_assert_eq!(back, events);
    }
}
