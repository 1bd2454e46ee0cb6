//! The per-layer ledger of a traced run.
//!
//! Each layer is timed by calling it alone, from this file, on inputs
//! built the way the workloads build theirs: every fourth primary
//! benchmark at [`LEDGER_INSTS`] instructions (caches start empty), and
//! the run's own concurrent stream (the Zipf stream for the sweeps).
//! A layer's self time is its measured time minus the measured time of
//! the layers it calls, e.g. `l2complex_self = replay − decode − engine`.
//! Times are reference-host times, like the end-to-end metrics (see
//! [`crate::meter`]), so the layers can be set against them.

use crate::concurrent::{self, Spec, RING, THREADS};
use crate::harness::Ctx;
use crate::meter::Meter;
use crate::record::Metric;
use crate::stats::{median, percentile};
use crate::sweeps::{self, functional_orgs, paper_l2, suite, timed_orgs};
use crate::trace::{SpanId, Tracer};
use ac_concurrent::ConcurrentMode;
use adaptive_cache::{AdaptiveCache, SbarCache};
use cache_sim::{AccessOutcome, Address, BlockAddr, Cache, CacheModel, CacheStats, Geometry};
use cpu_model::{capture_functional, replay_l2, CpuConfig, L2Trace, Pipeline};
use experiments::replay_cache;
use experiments::runner::{run_functional_l2, PAPER_L2};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Benchmark, Inst};

/// Instructions per ledger benchmark (the timed sweep's cell length).
pub const LEDGER_INSTS: u64 = 500_000;

/// Times each probe is repeated; metrics are medians over repetitions.
const REPS: usize = 3;

/// One in this many L2 accesses is bracketed by clock reads when the
/// pipeline's L2 share is sampled.
const SAMPLE_EVERY: u64 = 64;

/// Operations of the one-thread front-end and engine probes.
const OPS_1T: u64 = 1 << 21;

/// Operations per thread of the two-thread probe.
const OPS_2T: u64 = 1 << 21;

/// Runs `f` inside a span as one metered unit; returns its result and
/// its reference seconds (the meter's wall seconds stay readable).
fn probe<R>(
    meter: &mut Meter,
    tracer: &Tracer,
    name: &str,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    meter.reset();
    let r = meter.time(|| tracer.span(|| name.to_string(), parent, 0, |_| f()));
    (r, meter.reference_secs())
}

/// A [`CacheModel`] that forwards to `inner` and times one `access` in
/// every [`SAMPLE_EVERY`], so the L2's share of a pipeline run can be
/// estimated without timing every access.
#[derive(Debug)]
struct Sampled<M> {
    inner: M,
    calls: u64,
    sampled_secs: f64,
    /// Cost of an empty clock-read pair, subtracted from each sample.
    clock_secs: f64,
}

impl<M: CacheModel> Sampled<M> {
    fn new(inner: M, clock_secs: f64) -> Self {
        Sampled {
            inner,
            calls: 0,
            sampled_secs: 0.0,
            clock_secs,
        }
    }

    /// Estimated wall seconds spent in `inner.access`.
    fn estimated_secs(&self) -> f64 {
        self.sampled_secs * SAMPLE_EVERY as f64
    }
}

impl<M: CacheModel> CacheModel for Sampled<M> {
    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.access(block, write);
        }
        let t = Instant::now();
        let out = self.inner.access(block, write);
        self.sampled_secs += (t.elapsed().as_secs_f64() - self.clock_secs).max(0.0);
        out
    }
    fn prefetch_hint(&self, block: BlockAddr) {
        self.inner.prefetch_hint(block)
    }
    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Median cost of two back-to-back clock reads.
fn clock_pair_secs() -> f64 {
    let samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Layer name of an organisation's engine: plain policies live in
/// `cache_sim`, the adaptive organisations in `core`.
fn engine_layer(label: &str) -> &'static str {
    if matches!(label, "lru" | "lfu5") {
        "cache_sim"
    } else {
        "core"
    }
}

/// Reference seconds of one repetition of the sweep-side probes, summed
/// over the ledger's benchmarks.
#[derive(Debug, Default)]
struct SweepRep {
    gen: f64,
    capture: f64,
    decode: f64,
    replay: Vec<f64>,
    engine: Vec<f64>,
    pipeline: Vec<f64>,
    /// The L2's share of each pipeline run (wall over wall).
    l2_share: Vec<Vec<f64>>,
    /// Per-cell fixed cost, averaged over the organisations.
    cell_overhead: f64,
}

/// Per-benchmark inputs shared by every repetition.
struct Input {
    bench: Benchmark,
    trace: Arc<L2Trace>,
    /// The trace decoded to the L2 accesses it makes.
    accesses: Vec<(BlockAddr, bool)>,
}

fn sweep_rep(tracer: &Tracer, parent: SpanId, inputs: &[Input], clock_secs: f64) -> SweepRep {
    let mut meter = Meter::serial(sweeps::ELASTICITY);
    let meter = &mut meter;
    let cfg = CpuConfig::paper_default();
    let geom = paper_l2();
    let orgs = functional_orgs();
    let pipe_orgs = timed_orgs();
    let mut r = SweepRep {
        replay: vec![0.0; orgs.len()],
        engine: vec![0.0; orgs.len()],
        pipeline: vec![0.0; pipe_orgs.len()],
        l2_share: vec![Vec::new(); pipe_orgs.len()],
        ..SweepRep::default()
    };
    for input in inputs {
        let b = &input.bench;
        let gen = || b.spec.generator().take(LEDGER_INSTS as usize);
        r.gen += probe(meter, tracer, "TraceGen", parent, || {
            gen().for_each(|i| {
                black_box(i);
            })
        })
        .1;
        r.capture += probe(meter, tracer, "capture_functional", parent, || {
            black_box(capture_functional(&cfg, gen(), LEDGER_INSTS))
        })
        .1;
        r.decode += probe(meter, tracer, "L2Trace::events", parent, || {
            input.trace.events().for_each(|e| {
                black_box(e);
            })
        })
        .1;
        for (i, (label, kind)) in orgs.iter().enumerate() {
            let mut l2 = kind.build(geom);
            r.replay[i] += probe(meter, tracer, &format!("replay_l2 {label}"), parent, || {
                black_box(replay_l2(&input.trace, &mut l2))
            })
            .1;
            // The engine alone, fed the decoded accesses with the same
            // one-ahead prefetch hint the replay loop gives it.
            let mut l2 = kind.build(geom);
            let accesses = &input.accesses;
            r.engine[i] += probe(meter, tracer, &format!("access {label}"), parent, || {
                for (k, &(block, write)) in accesses.iter().enumerate() {
                    if let Some(&(next, _)) = accesses.get(k + 1) {
                        l2.prefetch_hint(next);
                    }
                    black_box(l2.access(block, write));
                }
            })
            .1;
        }
        let insts: Vec<Inst> = gen().collect();
        for (i, (label, kind)) in pipe_orgs.iter().enumerate() {
            let mut pipe = Pipeline::new(cfg, Sampled::new(kind.build(geom), clock_secs));
            r.pipeline[i] += probe(
                meter,
                tracer,
                &format!("Pipeline::run {label}"),
                parent,
                || black_box(pipe.run(insts.iter().copied(), LEDGER_INSTS)),
            )
            .1;
            r.l2_share[i].push(pipe.l2().estimated_secs() / meter.busy_secs());
        }
    }
    r.cell_overhead = cell_overhead(meter, tracer, parent, &inputs[0].bench);
    r
}

/// Instructions of the stream [`cell_overhead`] replays: short enough
/// that the replay itself costs next to nothing.
const TINY_INSTS: u64 = 1_000;

/// Cells per [`cell_overhead`] probe.
const TINY_CELLS: u32 = 50;

/// Reference seconds a cell costs beyond replaying its stream — L2
/// construction, labels, the replay-cache lookup — averaged over the
/// functional organisations: whole runner cells over a stream so short
/// that replay is negligible, minus bare replays of it into one L2.
fn cell_overhead(meter: &mut Meter, tracer: &Tracer, parent: SpanId, bench: &Benchmark) -> f64 {
    let cfg = CpuConfig::paper_default();
    let geom = paper_l2();
    let (tiny, _) = replay_cache::get_or_capture(bench, &cfg, TINY_INSTS);
    let orgs = functional_orgs();
    let mut total = 0.0;
    for (label, kind) in &orgs {
        let name = format!("run_functional_l2 {label} x{TINY_CELLS}");
        let cells = probe(meter, tracer, &name, parent, || {
            for _ in 0..TINY_CELLS {
                black_box(run_functional_l2(bench, kind, PAPER_L2, TINY_INSTS))
                    .expect("the paper's L2 geometry is valid");
            }
        })
        .1;
        let mut l2 = kind.build(geom);
        let name = format!("replay_l2 {label} x{TINY_CELLS}");
        let bare = probe(meter, tracer, &name, parent, || {
            for _ in 0..TINY_CELLS {
                black_box(replay_l2(&tiny, &mut l2));
            }
        })
        .1;
        total += (cells - bare) / f64::from(TINY_CELLS);
    }
    total / orgs.len() as f64
}

/// Hit ratio of each functional organisation's engine over the ledger's
/// accesses (deterministic, so measured once).
fn engine_hit_ratios(inputs: &[Input]) -> Vec<f64> {
    let geom = paper_l2();
    let accesses: usize = inputs.iter().map(|i| i.accesses.len()).sum();
    functional_orgs()
        .iter()
        .map(|(_, kind)| {
            let hits: u64 = inputs
                .iter()
                .map(|input| {
                    let mut l2 = kind.build(geom);
                    for &(block, write) in &input.accesses {
                        l2.access(block, write);
                    }
                    l2.stats().hits
                })
                .sum();
            hits as f64 / accesses.max(1) as f64
        })
        .collect()
}

/// Reference seconds (and counts) of one repetition of the concurrent
/// probes.
#[derive(Debug, Default)]
struct ConcurrentRep {
    gen: f64,
    front_1t: f64,
    engine_1t: f64,
    /// Operations per reference second of the two-thread drive while
    /// both threads ran.
    rate_2t: f64,
    hits_2t: u64,
    /// Accesses per shard during the two-thread drive.
    shard_accesses: Vec<u64>,
}

/// Reference seconds of [`OPS_1T`] operations of `ring` through `m`,
/// after one untimed lap.
fn engine_probe<M: CacheModel>(
    mut m: M,
    meter: &mut Meter,
    tracer: &Tracer,
    parent: SpanId,
    ring: &concurrent::Ring,
) -> f64 {
    concurrent::drive(|b, w| m.access(b, w).hit, ring, RING as u64, None);
    probe(meter, tracer, "unsharded engine access", parent, || {
        black_box(concurrent::drive(
            |b, w| m.access(b, w).hit,
            ring,
            OPS_1T,
            None,
        ))
    })
    .1
}

fn concurrent_rep(
    tracer: &Tracer,
    parent: SpanId,
    spec: &Spec,
    seed: u64,
    batch_us: &mut Vec<f64>,
) -> ConcurrentRep {
    let mut meter = Meter::serial(concurrent::ELASTICITY);
    let meter = &mut meter;
    let mut r = ConcurrentRep::default();
    let (rings, gen) = probe(meter, tracer, "ThreadStream::next_op", parent, || {
        concurrent::rings(spec, seed)
    });
    r.gen = gen;
    let cache = concurrent::build(spec, seed);
    concurrent::drive(|b, w| cache.access(b, w).hit, &rings[0], RING as u64, None);
    r.front_1t = probe(
        meter,
        tracer,
        "ConcurrentAdaptiveCache::access 1t",
        parent,
        || {
            black_box(concurrent::drive(
                |b, w| cache.access(b, w).hit,
                &rings[0],
                OPS_1T,
                None,
            ))
        },
    )
    .1;
    let geom = paper_l2();
    r.engine_1t = match spec.mode {
        ConcurrentMode::Plain(p) => {
            engine_probe(Cache::new(geom, p, seed), meter, tracer, parent, &rings[0])
        }
        ConcurrentMode::Adaptive(cfg) => engine_probe(
            AdaptiveCache::new(geom, cfg, seed),
            meter,
            tracer,
            parent,
            &rings[0],
        ),
        ConcurrentMode::Sbar(cfg) => engine_probe(
            SbarCache::new(geom, cfg, seed),
            meter,
            tracer,
            parent,
            &rings[0],
        ),
    };
    let before = cache.shard_stats();
    let ops_2t = (THREADS as u64 * OPS_2T) as f64;
    let mut meter = Meter::sharded(THREADS, concurrent::ELASTICITY);
    let d = meter.time_as(|| {
        let d = tracer.span(
            || "ConcurrentAdaptiveCache::access 2t".to_string(),
            parent,
            0,
            |span| concurrent::drive_threads(&cache, &rings, OPS_2T, tracer, span),
        );
        let secs = ops_2t / d.concurrent_rate();
        (d, secs)
    });
    r.rate_2t = ops_2t / meter.reference_secs();
    r.hits_2t = d.thread_hits().iter().sum();
    r.shard_accesses = cache
        .shard_stats()
        .iter()
        .zip(&before)
        .map(|(a, b)| a.accesses - b.accesses)
        .collect();
    batch_us.extend(d.batch_us());
    r
}

/// Measures every per-layer metric. `concurrent_spec` is the stream the
/// concurrent probes drive.
pub fn measure(ctx: &Ctx, concurrent_spec: &Spec) -> Vec<Metric> {
    let tracer = &ctx.tracer;
    let cfg = CpuConfig::paper_default();
    let geom = paper_l2();
    let inputs: Vec<Input> = suite(ctx)
        .into_iter()
        .step_by(4)
        .map(|bench| {
            let (trace, _) = replay_cache::get_or_capture(&bench, &cfg, LEDGER_INSTS);
            let accesses = trace
                .events()
                .map(|e| (geom.block_of(Address::new(e.addr)), e.writeback))
                .collect();
            Input {
                bench,
                trace,
                accesses,
            }
        })
        .collect();
    let insts = (inputs.len() as u64 * LEDGER_INSTS) as f64;
    let events = inputs.iter().map(|i| i.trace.len()).sum::<usize>() as f64;
    let bytes = inputs.iter().map(|i| i.trace.approx_bytes()).sum::<usize>() as f64;
    let hit_ratio = engine_hit_ratios(&inputs);
    let clock_secs = clock_pair_secs();
    let seed = concurrent::stream_seed(ctx);

    let mut sweep = Vec::new();
    let mut conc = Vec::new();
    let mut batch_us = Vec::new();
    for rep in 0..REPS {
        tracer.span(
            || format!("ledger rep {rep}"),
            0,
            0,
            |span| {
                sweep.push(sweep_rep(tracer, span, &inputs, clock_secs));
                conc.push(concurrent_rep(
                    tracer,
                    span,
                    concurrent_spec,
                    seed,
                    &mut batch_us,
                ));
            },
        );
    }

    let mut m = Vec::new();
    let ns = |secs: f64, per: f64| secs * 1e9 / per;
    let per_rep = |f: &dyn Fn(&SweepRep) -> f64| sweep.iter().map(f).collect::<Vec<f64>>();
    let gen = per_rep(&|r| ns(r.gen, insts));
    let decode = per_rep(&|r| ns(r.decode, events));
    m.push(Metric::sampled(
        "workloads.gen_ns_per_inst",
        "ns/inst",
        &gen,
    ));
    m.push(Metric::sampled(
        "cpu_model.l1_self_ns_per_inst",
        "ns/inst",
        &per_rep(&|r| ns(r.capture - r.gen, insts)),
    ));
    m.push(Metric::single(
        "cpu_model.l2_events_per_kinst",
        "events/kinst",
        events * 1000.0 / insts,
    ));
    m.push(Metric::single(
        "cpu_model.trace_bytes_per_event",
        "bytes/event",
        bytes / events,
    ));
    m.push(Metric::sampled(
        "cpu_model.decode_ns_per_event",
        "ns/event",
        &decode,
    ));
    for (i, (label, _)) in functional_orgs().iter().enumerate() {
        let replay = per_rep(&|r| ns(r.replay[i], events));
        let engine = per_rep(&|r| ns(r.engine[i], events));
        let self_ns: Vec<f64> = (0..REPS)
            .map(|k| replay[k] - decode[k] - engine[k])
            .collect();
        m.push(Metric::sampled(
            format!("cpu_model.replay_ns_per_event.{label}"),
            "ns/event",
            &replay,
        ));
        m.push(Metric::sampled(
            format!("cpu_model.l2complex_self_ns_per_event.{label}"),
            "ns/event",
            &self_ns,
        ));
        let layer = engine_layer(label);
        m.push(Metric::sampled(
            format!("{layer}.{label}.ns_per_access"),
            "ns/access",
            &engine,
        ));
        m.push(Metric::single(
            format!("{layer}.{label}.hit_ratio"),
            "ratio",
            hit_ratio[i],
        ));
    }
    for (i, (label, _)) in timed_orgs().iter().enumerate() {
        m.push(Metric::sampled(
            format!("cpu_model.pipeline_self_ns_per_inst.{label}"),
            "ns/inst",
            &per_rep(&|r| ns(r.pipeline[i], insts)),
        ));
        let shares: Vec<f64> = sweep.iter().flat_map(|r| r.l2_share[i].clone()).collect();
        m.push(Metric::sampled(
            format!("cpu_model.l2_share.{label}"),
            "ratio",
            &shares,
        ));
    }
    m.push(Metric::sampled(
        "experiments.cell_overhead_us",
        "us",
        &per_rep(&|r| r.cell_overhead * 1e6),
    ));

    let per_conc = |f: &dyn Fn(&ConcurrentRep) -> f64| conc.iter().map(f).collect::<Vec<f64>>();
    let front = per_conc(&|r| ns(r.front_1t, OPS_1T as f64));
    let engine = per_conc(&|r| ns(r.engine_1t, OPS_1T as f64));
    m.push(Metric::sampled(
        "concurrent.gen_ns_per_op",
        "ns/op",
        &per_conc(&|r| ns(r.gen, (THREADS * RING) as f64)),
    ));
    m.push(Metric::sampled("concurrent.ns_per_op_1t", "ns/op", &front));
    m.push(Metric::sampled(
        "concurrent.shard_self_ns_per_op",
        "ns/op",
        &(0..REPS).map(|k| front[k] - engine[k]).collect::<Vec<_>>(),
    ));
    m.push(Metric::sampled(
        "concurrent.scaling_2t",
        "x",
        &(0..REPS)
            .map(|k| conc[k].rate_2t * front[k] / 1e9)
            .collect::<Vec<_>>(),
    ));
    m.push(Metric::single(
        "concurrent.batch_p50_us",
        "us",
        percentile(&batch_us, 50.0),
    ));
    m.push(Metric::single(
        "concurrent.batch_p99_us",
        "us",
        percentile(&batch_us, 99.0),
    ));
    m.push(Metric::single(
        "concurrent.batch_count",
        "count",
        batch_us.len() as f64,
    ));
    let ops_2t = (THREADS as u64 * OPS_2T) as f64;
    m.push(Metric::sampled(
        "concurrent.hit_ratio",
        "ratio",
        &per_conc(&|r| r.hits_2t as f64 / ops_2t),
    ));
    m.push(Metric::sampled(
        "concurrent.shard_imbalance",
        "ratio",
        &per_conc(&|r| {
            let max = r.shard_accesses.iter().copied().max().unwrap_or(0) as f64;
            let mean = r.shard_accesses.iter().sum::<u64>() as f64 / r.shard_accesses.len() as f64;
            max / mean
        }),
    ));
    m
}
