//! Deterministic multi-threaded load generation.
//!
//! Every thread owns an independent stream: its RNG is seeded from
//! `(seed, thread id)` only, and the stream consumes no cross-thread
//! state — so the *set of operations* each thread issues is stable
//! across runs and thread interleavings. (Cache contents, and therefore
//! hit counts, still depend on interleaving in the multi-shard case;
//! conservation of aggregate statistics does not, which is exactly what
//! the stress tests assert.)

use crate::cache::ConcurrentAdaptiveCache;
use cache_sim::BlockAddr;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use workloads::Zipf;

/// Shape of each thread's reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Zipf-popular blocks over `0..blocks` (service-cache shape: a hot
    /// head every thread shares, a long cold tail).
    Zipf {
        /// Footprint in blocks.
        blocks: u64,
        /// Zipf exponent (0 = uniform; ~0.8-1.0 = web-like skew).
        theta: f64,
    },
    /// A per-thread strided walk over `0..blocks` (engineering-code
    /// shape; threads start phase-shifted so they do not march in step).
    Stride {
        /// Footprint in blocks.
        blocks: u64,
        /// Walk stride in blocks.
        stride: u64,
    },
    /// Alternating bursts of the two above, flipping every
    /// `burst` operations — the phase-change shape adaptive arbitration
    /// exists for.
    Mixed {
        /// Footprint in blocks.
        blocks: u64,
        /// Zipf exponent for the popular phase.
        theta: f64,
        /// Walk stride for the scan phase.
        stride: u64,
        /// Operations per phase before flipping.
        burst: u64,
    },
}

/// One thread's deterministic operation stream.
#[derive(Debug)]
pub struct ThreadStream {
    kind: StreamKind,
    zipf: Option<Zipf>,
    rng: SmallRng,
    /// Position in this thread's stream (drives strides).
    i: u64,
    /// Phase offset so strided threads do not alias each other.
    offset: u64,
    /// Every `write_every`-th operation is a write (0 = reads only).
    write_every: u64,
    /// Operations up to and including the next write: the countdown form
    /// of `i % write_every` (0 = reads only).
    until_write: u64,
    /// Operations left in the current `Mixed` burst: the countdown form
    /// of `i / burst`.
    burst_left: u64,
    /// Whether the current `Mixed` burst is the strided one (`i / burst`
    /// is odd).
    scan_phase: bool,
}

impl ThreadStream {
    /// The stream thread `thread` of `seed` would issue. Depends on
    /// nothing but its arguments — re-creating it replays the identical
    /// operation sequence regardless of what other threads did.
    pub fn new(kind: StreamKind, write_every: u64, seed: u64, thread: u64) -> Self {
        let rng = SmallRng::seed_from_u64(seed ^ (thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let zipf = match kind {
            StreamKind::Zipf { blocks, theta } | StreamKind::Mixed { blocks, theta, .. } => {
                Some(Zipf::new(blocks.max(1) as usize, theta))
            }
            StreamKind::Stride { .. } => None,
        };
        let burst_left = match kind {
            StreamKind::Mixed { burst, .. } => burst.max(1),
            _ => 0,
        };
        ThreadStream {
            kind,
            zipf,
            rng,
            i: 0,
            offset: thread.wrapping_mul(8191),
            write_every,
            until_write: write_every,
            burst_left,
            scan_phase: false,
        }
    }

    /// The next `(block, is_write)` operation.
    #[inline]
    pub fn next_op(&mut self) -> (BlockAddr, bool) {
        let block = match self.kind {
            StreamKind::Zipf { .. } => self.zipf_block(),
            StreamKind::Stride { blocks, stride } => self.stride_block(blocks, stride),
            StreamKind::Mixed {
                blocks,
                stride,
                burst,
                ..
            } => {
                let scan = self.scan_phase;
                self.burst_left -= 1;
                if self.burst_left == 0 {
                    self.burst_left = burst.max(1);
                    self.scan_phase = !scan;
                }
                if scan {
                    self.stride_block(blocks, stride)
                } else {
                    self.zipf_block()
                }
            }
        };
        self.i += 1;
        let write = match self.until_write {
            0 => false,
            1 => {
                self.until_write = self.write_every;
                true
            }
            _ => {
                self.until_write -= 1;
                false
            }
        };
        (block, write)
    }

    #[inline]
    fn zipf_block(&mut self) -> BlockAddr {
        let rank = self
            .zipf
            .as_ref()
            .expect("zipf sampler exists for zipf kinds")
            .sample(&mut self.rng) as u64;
        BlockAddr::new(rank)
    }

    #[inline]
    fn stride_block(&mut self, blocks: u64, stride: u64) -> BlockAddr {
        BlockAddr::new((self.offset + self.i.wrapping_mul(stride.max(1))) % blocks.max(1))
    }
}

/// Aggregate result of one threaded drive.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Operations issued across all threads.
    pub issued: u64,
    /// Hits observed by the issuing threads (sums exactly into the
    /// cache's merged stats — conservation is asserted by tests).
    pub hits: u64,
    /// Wall-clock seconds for the whole drive.
    pub secs: f64,
    /// `issued / secs`.
    pub ops_per_sec: f64,
}

/// How many operations each driving thread runs between adds to the
/// hub's `concurrent.thread_ops`/`concurrent.thread_hits` counters;
/// thread 0 also refreshes the shard-occupancy / PSEL gauges then. Both
/// are no-ops with telemetry disabled.
const PUBLISH_EVERY: u64 = 1 << 16;

/// Adds one thread's operations and hits since its last add to the
/// hub's per-thread totals.
fn count_ops(ops: u64, hits: u64) {
    ac_telemetry::counter_add("concurrent.thread_ops", ops);
    ac_telemetry::counter_add("concurrent.thread_hits", hits);
}

/// Drives `cache` with `threads` concurrent streams of `ops_per_thread`
/// operations each and returns aggregate throughput. Deterministic in
/// its issued operations for a given `(kind, seed, threads,
/// ops_per_thread)` regardless of scheduling.
pub fn run_threads(
    cache: &ConcurrentAdaptiveCache,
    kind: StreamKind,
    write_every: u64,
    seed: u64,
    threads: usize,
    ops_per_thread: u64,
) -> LoadReport {
    assert!(threads >= 1, "need at least one thread");
    let start = std::time::Instant::now();
    let mut thread_hits = vec![0u64; threads];
    std::thread::scope(|s| {
        for (t, hits_out) in thread_hits.iter_mut().enumerate() {
            s.spawn(move || {
                let mut stream = ThreadStream::new(kind, write_every, seed, t as u64);
                let (mut hits, mut hits_counted) = (0u64, 0u64);
                for n in 1..=ops_per_thread {
                    let (block, write) = stream.next_op();
                    hits += u64::from(cache.access(block, write).hit);
                    if n % PUBLISH_EVERY == 0 {
                        count_ops(PUBLISH_EVERY, hits - hits_counted);
                        hits_counted = hits;
                        if t == 0 {
                            cache.publish_metrics();
                        }
                    }
                }
                count_ops(ops_per_thread % PUBLISH_EVERY, hits - hits_counted);
                *hits_out = hits;
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    cache.publish_metrics();
    let issued = threads as u64 * ops_per_thread;
    LoadReport {
        issued,
        hits: thread_hits.iter().sum(),
        secs,
        ops_per_sec: issued as f64 / secs.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_stable() {
        let mk = || {
            ThreadStream::new(
                StreamKind::Zipf {
                    blocks: 500,
                    theta: 0.9,
                },
                16,
                42,
                3,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn threads_get_distinct_streams() {
        let mut a = ThreadStream::new(
            StreamKind::Zipf {
                blocks: 500,
                theta: 0.9,
            },
            0,
            42,
            0,
        );
        let mut b = ThreadStream::new(
            StreamKind::Zipf {
                blocks: 500,
                theta: 0.9,
            },
            0,
            42,
            1,
        );
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 1000, "thread streams must differ");
    }

    #[test]
    fn write_every_marks_writes() {
        let mut s = ThreadStream::new(
            StreamKind::Stride {
                blocks: 64,
                stride: 1,
            },
            4,
            1,
            0,
        );
        let writes = (0..100).filter(|_| s.next_op().1).count();
        assert_eq!(writes, 25);
    }

    #[test]
    fn mixed_alternates_phases() {
        let mut s = ThreadStream::new(
            StreamKind::Mixed {
                blocks: 1 << 20,
                theta: 1.0,
                stride: 1,
                burst: 8,
            },
            0,
            7,
            0,
        );
        // Burst 2 (ops 8..16) is the strided phase: consecutive blocks.
        let ops: Vec<u64> = (0..16).map(|_| s.next_op().0.raw()).collect();
        assert!(ops[8..16].windows(2).all(|w| w[1] == w[0] + 1), "{ops:?}");
    }
}
