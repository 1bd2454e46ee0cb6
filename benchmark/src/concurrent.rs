//! The sharded concurrent front end, driven by closed-loop threads: each
//! thread issues its next operation when the previous one returns.
//!
//! Operations come from per-thread rings generated during set-up, so
//! stream generation stays out of the timed loop.

use crate::harness::{repeat_setup, run_passes, Ctx, Outcome};
use crate::meter::{overlap_rate, Lane, Meter};
use crate::trace::{SpanId, Tracer};
use ac_concurrent::{ConcurrentAdaptiveCache, ConcurrentMode, StreamKind, ThreadStream};
use adaptive_cache::{AdaptiveConfig, SbarConfig};
use cache_sim::BlockAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Driving threads: one per CPU of the 2-CPU reference host.
pub const THREADS: usize = 2;

/// Shards of the front end.
pub const SHARDS: usize = 8;

/// Operations pre-generated per thread (a power of two; threads cycle
/// through their ring).
pub const RING: usize = 1 << 18;

/// Operations per latency batch.
pub const BATCH: usize = 4096;

/// How the front end's speed, and its set-up's, follow their reference
/// kernels' (see [`crate::meter`]).
pub const ELASTICITY: f64 = 1.0;

/// Stream seed of seed 0; other seeds perturb it.
const BASE_SEED: u64 = 0xBEAC;

/// One concurrent workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub mode: ConcurrentMode,
    pub stream: StreamKind,
    /// Every `write_every`-th operation is a write.
    pub write_every: u64,
    /// Operations each thread issues per measured pass (a multiple of
    /// [`RING`]).
    pub ops_per_thread: u64,
}

/// `concurrent_zipf`: the 8-bit adaptive cache on its hit path — a Zipf
/// θ=0.8 stream over twice the cache's blocks, 1 write in 16.
pub fn zipf() -> Spec {
    Spec {
        mode: ConcurrentMode::Adaptive(AdaptiveConfig::paper_default()),
        stream: StreamKind::Zipf {
            blocks: 16_384,
            theta: 0.8,
        },
        write_every: 16,
        ops_per_thread: 1 << 21,
    }
}

/// `concurrent_phase`: shard-global SBAR on its miss, eviction and dirty
/// paths — Zipf bursts alternating with stride-1 scans every 64 Ki ops
/// over eight times the cache's blocks, 1 write in 2.
pub fn phase() -> Spec {
    Spec {
        mode: ConcurrentMode::Sbar(SbarConfig::paper_default()),
        stream: StreamKind::Mixed {
            blocks: 65_536,
            theta: 0.8,
            stride: 1,
            burst: 65_536,
        },
        write_every: 2,
        ops_per_thread: 1 << 20,
    }
}

/// The stream seed of a run.
pub fn stream_seed(ctx: &Ctx) -> u64 {
    ctx.perturb(BASE_SEED)
}

/// One pre-generated operation stream.
pub type Ring = Vec<(BlockAddr, bool)>;

/// Each thread's ring of `spec`'s stream.
pub fn rings(spec: &Spec, seed: u64) -> Vec<Ring> {
    (0..THREADS as u64)
        .map(|t| {
            let mut s = ThreadStream::new(spec.stream, spec.write_every, seed, t);
            (0..RING).map(|_| s.next_op()).collect()
        })
        .collect()
}

/// A fresh front end for `spec`.
pub fn build(spec: &Spec, seed: u64) -> ConcurrentAdaptiveCache {
    ConcurrentAdaptiveCache::new(crate::sweeps::paper_l2(), spec.mode, SHARDS, seed)
}

/// Issues `ops` operations from `ring` (from its start, cycling) through
/// `access`, which returns whether the operation hit. Pushes the end
/// time of each [`BATCH`] to `batch_ends` when given. Returns the hit
/// count.
pub fn drive(
    mut access: impl FnMut(BlockAddr, bool) -> bool,
    ring: &Ring,
    ops: u64,
    mut batch_ends: Option<&mut Vec<Instant>>,
) -> u64 {
    debug_assert!(ring.len().is_power_of_two() && ops.is_multiple_of(BATCH as u64));
    let mask = ring.len() - 1;
    let mut pos = 0;
    let mut hits = 0u64;
    for _ in 0..ops / BATCH as u64 {
        for _ in 0..BATCH {
            let (block, write) = ring[pos];
            pos = (pos + 1) & mask;
            hits += u64::from(access(block, write));
        }
        if let Some(ends) = batch_ends.as_deref_mut() {
            ends.push(Instant::now());
        }
    }
    hits
}

/// Result of one multi-threaded drive.
#[derive(Debug)]
pub struct Drive {
    lanes: Vec<Lane>,
    /// Hits seen by each thread.
    thread_hits: Vec<u64>,
}

impl Drive {
    /// Hits seen by each thread.
    pub fn thread_hits(&self) -> &[u64] {
        &self.thread_hits
    }

    /// Operations per second while all threads ran at once
    /// ([`overlap_rate`]): the front end scales negatively, so a thread
    /// left running alone is several times faster.
    pub fn concurrent_rate(&self) -> f64 {
        overlap_rate(&self.lanes, BATCH)
    }

    /// Latency of every batch of every thread, in microseconds.
    pub fn batch_us(&self) -> Vec<f64> {
        self.lanes
            .iter()
            .flat_map(|lane| {
                std::iter::once(&lane.start)
                    .chain(&lane.batch_ends)
                    .zip(&lane.batch_ends)
                    .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6)
            })
            .collect()
    }
}

/// Drives `cache` with one thread per ring, all released together by a
/// barrier, each issuing `ops` operations.
pub fn drive_threads(
    cache: &ConcurrentAdaptiveCache,
    rings: &[Ring],
    ops: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Drive {
    let barrier = Barrier::new(rings.len());
    let (lanes, thread_hits) = std::thread::scope(|s| {
        let handles: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(t, ring)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut batch_ends = Vec::with_capacity((ops / BATCH as u64) as usize);
                    barrier.wait();
                    let start = Instant::now();
                    let hits = tracer.span(
                        || format!("ConcurrentAdaptiveCache::access x{ops} thread {t}"),
                        parent,
                        t as u32 + 1,
                        |_| {
                            drive(
                                |b, w| cache.access(b, w).hit,
                                ring,
                                ops,
                                Some(&mut batch_ends),
                            )
                        },
                    );
                    (Lane { start, batch_ends }, hits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a driving thread panicked"))
            .collect()
    });
    Drive { lanes, thread_hits }
}

/// Set-up: generate the rings, build the front end, and warm it by
/// driving every ring once from one thread.
pub fn setup(spec: &Spec, seed: u64) -> (Vec<Ring>, ConcurrentAdaptiveCache) {
    let rings = rings(spec, seed);
    let cache = build(spec, seed);
    for ring in &rings {
        drive(|b, w| cache.access(b, w).hit, ring, RING as u64, None);
    }
    (rings, cache)
}

/// Runs a concurrent workload: passes of [`THREADS`] threads, each pass
/// checked for conservation — the threads' hits sum to the growth of the
/// cache's hit count, and its access count grows by exactly the
/// operations issued. Throughput is operations per second across
/// threads while all of them run ([`Drive::concurrent_rate`]).
pub fn run(ctx: &Ctx, spec: &Spec) -> Outcome {
    let mut out = Outcome::default();
    let seed = stream_seed(ctx);
    let (rings, cache) = repeat_setup(&mut out.timings, Meter::serial(ELASTICITY), |meter| {
        meter.time(|| setup(spec, seed))
    });
    let checks = &mut out.checks;
    run_passes(
        ctx,
        &mut out.timings,
        Meter::sharded(THREADS, ELASTICITY),
        |tracer, index, meter| {
            let before = cache.stats();
            let mut hits = [0; THREADS];
            tracer.span(
                || format!("concurrent pass {index}"),
                0,
                0,
                |pass| {
                    // One metered unit per lap of the rings, so kernel
                    // slices are spread through the pass: the host's fast
                    // and slow moments last milliseconds, and one slice
                    // per pass sampled them far less evenly than the pass.
                    for _ in 0..spec.ops_per_thread / RING as u64 {
                        let d = meter.time_as(|| {
                            let d = drive_threads(&cache, &rings, RING as u64, tracer, pass);
                            let secs = (THREADS * RING) as f64 / d.concurrent_rate();
                            (d, secs)
                        });
                        for (sum, h) in hits.iter_mut().zip(d.thread_hits()) {
                            *sum += h;
                        }
                    }
                },
            );
            let issued = THREADS as u64 * spec.ops_per_thread;
            let after = cache.stats();
            check_conservation(checks, index, &hits, issued, &before, &after);
            issued as f64
        },
    );
    out
}

/// Conservation of one pass: Σ thread hits = Δ hits, Δ accesses = ops
/// issued. Each is one checked unit.
pub fn check_conservation(
    checks: &mut crate::harness::Checks,
    index: usize,
    thread_hits: &[u64],
    issued: u64,
    before: &cache_sim::CacheStats,
    after: &cache_sim::CacheStats,
) {
    let hits: u64 = thread_hits.iter().sum();
    let d_hits = after.hits - before.hits;
    let d_accesses = after.accesses - before.accesses;
    checks.check(hits == d_hits, || {
        format!("pass {index}: threads saw {hits} hits, cache counted {d_hits}")
    });
    checks.check(d_accesses == issued, || {
        format!("pass {index}: issued {issued} ops, cache counted {d_accesses} accesses")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Checks;

    #[test]
    fn conservation_catches_a_tampered_count() {
        let spec = zipf();
        let (rings, cache) = setup(&spec, 7);
        let before = cache.stats();
        let ops = 4 * BATCH as u64;
        let d = drive_threads(&cache, &rings, ops, &Tracer::new(false), 0);
        let after = cache.stats();
        let issued = THREADS as u64 * ops;
        assert_eq!(d.batch_us().len(), THREADS * 4);
        assert!(d.concurrent_rate() > 0.0);

        let mut ok = Checks::default();
        check_conservation(&mut ok, 1, d.thread_hits(), issued, &before, &after);
        assert_eq!((ok.attempted, ok.failed), (2, 0));

        let mut tampered_hits = d.thread_hits().to_vec();
        tampered_hits[0] += 1;
        let mut bad = Checks::default();
        check_conservation(&mut bad, 1, &tampered_hits, issued, &before, &after);
        assert_eq!(bad.failed, 1);

        let mut bad = Checks::default();
        check_conservation(&mut bad, 1, d.thread_hits(), issued - 1, &before, &after);
        assert_eq!(bad.failed, 1);
    }

    #[test]
    fn rings_are_seed_stable_and_per_thread() {
        let spec = phase();
        let (a, b) = (rings(&spec, 3), rings(&spec, 3));
        assert_eq!(a, b);
        assert_eq!(a.len(), THREADS);
        assert_ne!(a[0], a[1]);
        assert_ne!(rings(&spec, 4)[0], a[0]);
    }

    #[test]
    fn drive_cycles_through_the_ring() {
        let ring: Ring = (0..8).map(|i| (BlockAddr::new(i), false)).collect();
        let mut seen = Vec::new();
        // BATCH ops over an 8-entry ring: every entry BATCH / 8 times.
        drive(
            |b, _| {
                seen.push(b.raw());
                b.raw() % 2 == 0
            },
            &ring,
            BATCH as u64,
            None,
        );
        assert_eq!(seen.len(), BATCH);
        assert_eq!(&seen[..9], &[0, 1, 2, 3, 4, 5, 6, 7, 0]);
    }
}
