//! Criterion micro-benchmarks: instruction-stream generation throughput
//! per archetype, Zipf rank draws and the concurrent benchmark's thread
//! streams, and trace decode throughput (replay must never be
//! I/O-format-bound).
//!
//! Generation is a first-order share of a timed simulation's cost, not a
//! negligible one (DESIGN.md §5d, "Trace generation"), so the generator
//! rows time steady state: each generator is first advanced by
//! [`WARM_INSTS`], past the point where the deepest LRU stack in the suite
//! has filled. A fresh generator's stack is nearly empty and would hide
//! the cost of re-referencing deep into it.

use ac_concurrent::{StreamKind, ThreadStream};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use workloads::trace_io::{read_binary, read_text, write_binary, write_text};
use workloads::{extended_suite, primary_suite, Zipf};

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

/// Zipf rank draws at the concurrent benchmark's exponent, over the
/// footprints of its two streams.
fn bench_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf_sample");
    group.throughput(Throughput::Elements(BATCH as u64));
    for items in [16_384, 65_536] {
        let zipf = Zipf::new(items, 0.8);
        let mut rng = SmallRng::seed_from_u64(1);
        group.bench_function(format!("{}Ki", items / 1024), |b| {
            b.iter(|| {
                let mut total = 0;
                for _ in 0..BATCH {
                    total ^= zipf.sample(&mut rng);
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// `ThreadStream` operations of the concurrent benchmark's two streams
/// (`benchmark/src/concurrent.rs`), which generate its rings.
fn bench_thread_streams(c: &mut Criterion) {
    let streams = [
        (
            "zipf",
            StreamKind::Zipf {
                blocks: 16_384,
                theta: 0.8,
            },
            16,
        ),
        (
            "phase",
            StreamKind::Mixed {
                blocks: 65_536,
                theta: 0.8,
                stride: 1,
                burst: 65_536,
            },
            2,
        ),
    ];
    let mut group = c.benchmark_group("thread_stream");
    group.throughput(Throughput::Elements(BATCH as u64));
    for (name, kind, write_every) in streams {
        let mut stream = ThreadStream::new(kind, write_every, 0xBEAC, 0);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0u64;
                for _ in 0..BATCH {
                    let (block, write) = stream.next_op();
                    total ^= block.raw() ^ u64::from(write);
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
    bench_zipf,
    bench_thread_streams,
    bench_suite_construction,
    bench_trace_decode
);
criterion_main!(benches);
