//! Criterion micro-benchmarks: instruction-stream generation throughput
//! per archetype, and trace decode throughput (replay must never be
//! I/O-format-bound).
//!
//! Generation is a first-order share of a timed simulation's cost, not a
//! negligible one (DESIGN.md §5d, "Trace generation"), so the generator
//! rows time steady state: each generator is first advanced by
//! [`WARM_INSTS`], past the point where the deepest LRU stack in the suite
//! has filled. A fresh generator's stack is nearly empty and would hide
//! the cost of re-referencing deep into it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use workloads::trace_io::{read_binary, read_text, write_binary, write_text};
use workloads::{extended_suite, primary_suite};

/// Instructions per timed iteration.
const BATCH: usize = 10_000;

/// Instructions each generator runs before it is timed: parser's stack
/// (10 240 blocks, 3% new blocks) fills after about 6 M.
const WARM_INSTS: usize = 8_000_000;

fn bench_archetypes(c: &mut Criterion) {
    let suite = primary_suite();
    let mut group = c.benchmark_group("trace_gen");
    group.throughput(Throughput::Elements(BATCH as u64));
    for name in ["applu", "art-1", "mcf", "parser", "ammp", "fma3d"] {
        let bench = suite.iter().find(|b| b.name == name).unwrap();
        let mut gen = bench.spec.generator();
        gen.by_ref().take(WARM_INSTS).for_each(drop);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0u64;
                for inst in gen.by_ref().take(BATCH) {
                    total ^= inst.pc;
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

fn bench_suite_construction(c: &mut Criterion) {
    c.bench_function("extended_suite_construction", |b| {
        b.iter(|| black_box(extended_suite()).len())
    });
}

/// Decode throughput for both interchange formats over a representative
/// 10k-instruction capture.
fn bench_trace_decode(c: &mut Criterion) {
    let n = 10_000usize;
    let bench = primary_suite()
        .iter()
        .find(|b| b.name == "mcf")
        .unwrap()
        .clone();
    let insts: Vec<_> = bench.spec.generator().take(n).collect();

    let mut binary = Vec::new();
    write_binary(&mut binary, insts.iter().cloned()).unwrap();
    let mut text = Vec::new();
    write_text(&mut text, insts.iter().cloned()).unwrap();

    let mut group = c.benchmark_group("trace_decode");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("binary", |b| {
        b.iter(|| {
            let decoded = read_binary(binary.as_slice()).unwrap();
            black_box(decoded.len())
        });
    });
    group.bench_function("text", |b| {
        b.iter(|| {
            let decoded = read_text(text.as_slice()).unwrap();
            black_box(decoded.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_archetypes,
    bench_suite_construction,
    bench_trace_decode
);
criterion_main!(benches);
