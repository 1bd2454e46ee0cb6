//! Criterion micro-benchmarks of the cycle model: the timed pipeline with
//! and without trace generation in the timed loop, and a functional
//! (cache-only) run of the same stream. Timed figure cells (Figures 4, 6,
//! 9 and 10, Sections 4.4–4.7) pay for generation plus the pipeline per
//! instruction. Functional figures replay captured L2 streams instead
//! (`cpu_model::replay`), so `functional_lru_l2` is no longer their
//! cost.

use cache_sim::{Cache, Geometry, PolicyKind};
use cpu_model::{run_functional, CpuConfig, Hierarchy, Pipeline};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use workloads::{primary_suite, Inst};

/// Instructions per timed iteration.
const INSTS: u64 = 20_000;

/// Length of the pre-generated stream `timed_pregenerated` cycles through.
const STREAM: usize = 200_000;

fn bench_timed_pipeline(c: &mut Criterion) {
    let bench = primary_suite()
        .into_iter()
        .find(|b| b.name == "equake")
        .unwrap();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(INSTS));
    group.bench_function("timed_lru_l2", |b| {
        b.iter(|| {
            let mut pipe = Pipeline::with_lru_l2(CpuConfig::paper_default());
            black_box(pipe.run(bench.spec.generator(), INSTS).cycles)
        });
    });
    // The shape of the benchmark ledger's `pipeline_self` probe: the
    // stream is generated and the pipeline built before timing starts.
    // Each iteration runs the next INSTS instructions of one stream on
    // the same machine.
    group.bench_function("timed_pregenerated", |b| {
        let insts: Vec<Inst> = bench.spec.generator().take(STREAM).collect();
        let mut chunks = insts.chunks(INSTS as usize).cycle();
        let mut pipe = Pipeline::with_lru_l2(CpuConfig::paper_default());
        b.iter(|| {
            let chunk = chunks.next().unwrap();
            black_box(pipe.run(chunk.iter().copied(), INSTS).cycles)
        });
    });
    group.bench_function("functional_lru_l2", |b| {
        let config = CpuConfig::paper_default();
        let geom = Geometry::new(
            config.l2.size_bytes,
            config.l2.line_bytes,
            config.l2.associativity,
        )
        .unwrap();
        b.iter(|| {
            let mut h = Hierarchy::new(&config, Cache::new(geom, PolicyKind::Lru, 1));
            black_box(run_functional(&mut h, bench.spec.generator(), INSTS).l2_misses)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_timed_pipeline);
criterion_main!(benches);
