//! Timing in reference-host seconds.
//!
//! Shared hosts drift between fast and slow periods lasting seconds, and
//! the simulator slows with them: on the 2-vCPU host this benchmark was
//! defined on, the same timed sweep pass ran anywhere from 6.7 M to
//! 12.7 M simulated instructions per second, and the two-thread front
//! end swung threefold as the host moved its vCPUs. A [`Meter`] times
//! each unit of measured work and, right after it, a short slice of a
//! frozen reference kernel, so both sample the same period. Work seconds
//! are then scaled by the kernel's rate relative to its typical rate on
//! that host, raised to the work's elasticity: the result estimates the
//! time the work would have taken at that typical speed. The kernels
//! live in the benchmark, not in the program, so no change to the
//! repository's crates can move them.
//!
//! Each kind of work gets the kernel whose speed follows it:
//!
//! - [`Meter::serial`]: one thread on an 8-way LRU tag store, for work
//!   on one thread. The sweeps slow more than this kernel when a
//!   neighbour loads the host; the log-log slope of their speed against
//!   the kernel's (their elasticity) was 1.0 to 1.7 over the periods
//!   measured, and 1.5 kept their run-to-run spread lowest.
//! - [`Meter::sharded`]: two threads on eight mutex-guarded LRU shards,
//!   for the sharded front end. The front end's speed depends on how
//!   fast cache lines move between the two vCPUs, which a one-thread
//!   kernel cannot see: over 5-8 second windows its speed correlated
//!   0.25-0.87 with the serial kernel's and 0.96-0.97 with this one's,
//!   at an elasticity of 1.0.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// The serial kernel's typical rate (accesses per second) on the
/// reference host.
pub const SERIAL_RATE: f64 = 4.5e7;

/// The sharded kernel's typical rate (accesses per second across both
/// threads) on the reference host.
pub const SHARDED_RATE: f64 = 8.0e6;

/// Serial kernel accesses per slice (under 1 ms on the reference host).
const SLICE: u64 = 20_000;

/// Sharded kernel accesses per thread per slice (about 5 ms).
const SHARDED_SLICE: u64 = 20_000;

/// Sharded kernel accesses per timed batch.
const KERNEL_BATCH: u64 = 1_000;

/// Sets of the serial kernel's table.
const SERIAL_SETS: usize = 1 << 12;

/// Shards of the sharded kernel, and its sets in all: the front end's
/// shard count over the paper L2's 1024 sets.
const SHARDS: usize = 8;
const SHARDED_SETS: usize = 1 << 10;

const WAYS: usize = 8;

/// An 8-way LRU tag store.
#[derive(Debug)]
struct Table {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    tick: u32,
}

impl Table {
    fn new(sets: usize) -> Table {
        Table {
            tags: vec![u64::MAX; sets * WAYS],
            stamps: vec![0; sets * WAYS],
            tick: 0,
        }
    }

    /// Accesses `tag` in `set`; returns whether it hit.
    fn access(&mut self, set: usize, tag: u64) -> bool {
        self.tick = self.tick.wrapping_add(1);
        let ways = &mut self.tags[set * WAYS..][..WAYS];
        let stamps = &mut self.stamps[set * WAYS..][..WAYS];
        let (way, hit) = match ways.iter().position(|&w| w == tag) {
            Some(w) => (w, true),
            None => {
                let lru = (0..WAYS).min_by_key(|&w| stamps[w]).expect("WAYS > 0");
                ways[lru] = tag;
                (lru, false)
            }
        };
        stamps[way] = self.tick;
        hit
    }

    /// Reads every cache line of the table.
    fn touch(&self) -> u64 {
        let tags = self.tags.iter().step_by(8).fold(0u64, |a, &t| a ^ t);
        let stamps = self.stamps.iter().step_by(16).fold(0u32, |a, &s| a ^ s);
        tags ^ u64::from(stamps)
    }
}

/// A fixed pseudo-random block stream over `SETS` sets: three in four
/// accesses go to a hot region of 6 blocks per set (mostly hits), the
/// rest to 64 blocks per set (misses). `SETS` is a constant so the
/// modulo compiles to a multiply, as it did when the typical rates were
/// measured.
#[derive(Debug)]
struct Stream<const SETS: usize> {
    x: u64,
}

impl<const SETS: usize> Stream<SETS> {
    fn new(lane: u64) -> Stream<SETS> {
        Stream {
            x: 0x2545_F491_4F6C_DD1D ^ lane,
        }
    }

    /// The next access as `(set, tag)`.
    fn next(&mut self) -> (usize, u64) {
        self.x = self
            .x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = self.x >> 24;
        let per_set = if r & 3 != 0 { 6 } else { 64 };
        let block = r % (SETS as u64 * per_set);
        (
            (block as usize) & (SETS - 1),
            block >> SETS.trailing_zeros(),
        )
    }
}

/// The serial kernel: one stream over a 4096-set table (256 KiB of
/// tags, 384 KiB with their stamps).
#[derive(Debug)]
struct Serial {
    table: Table,
    stream: Stream<SERIAL_SETS>,
}

impl Serial {
    fn new() -> Serial {
        Serial {
            table: Table::new(SERIAL_SETS),
            stream: Stream::new(0),
        }
    }

    /// Runs `n` accesses; returns their hit count.
    fn run(&mut self, n: u64) -> u64 {
        (0..n)
            .map(|_| {
                let (set, tag) = self.stream.next();
                u64::from(self.table.access(set, tag))
            })
            .sum()
    }

    /// One timed slice as `(seconds, accesses)`. The table is touched
    /// and an untimed slice run first, so the timed slice starts from the
    /// same cache, TLB and branch-predictor state whatever ran before it.
    /// (Measured on the reference host with a 3 MiB variant of the
    /// kernel: the timed rate after a simulator cell was within about 5%
    /// of its rate after idling; without this warm-up it was 10-40%
    /// lower.)
    fn slice(&mut self) -> (f64, u64) {
        black_box((self.table.touch(), self.run(SLICE)));
        let t = Instant::now();
        black_box(self.run(SLICE));
        (t.elapsed().as_secs_f64(), SLICE)
    }
}

/// The sharded kernel: one stream per thread over [`SHARDED_SETS`] sets
/// split across [`SHARDS`] mutex-guarded tables on the low set bits, the
/// way the front end splits the L2.
#[derive(Debug)]
struct Sharded {
    shards: Vec<Mutex<Table>>,
    streams: Vec<Stream<SHARDED_SETS>>,
}

impl Sharded {
    fn new(threads: usize) -> Sharded {
        Sharded {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Table::new(SHARDED_SETS / SHARDS)))
                .collect(),
            streams: (0..threads as u64).map(Stream::new).collect(),
        }
    }

    /// Runs `n` accesses of `stream`; returns their hit count.
    fn run(shards: &[Mutex<Table>], stream: &mut Stream<SHARDED_SETS>, n: u64) -> u64 {
        (0..n)
            .map(|_| {
                let (set, tag) = stream.next();
                let mut shard = shards[set % SHARDS]
                    .lock()
                    .expect("a kernel thread panicked holding a shard");
                u64::from(shard.access(set / SHARDS, tag))
            })
            .sum()
    }

    /// One timed slice as `(seconds, accesses)`: every thread runs an
    /// untimed quarter slice, waits for the others, then runs a slice in
    /// batches of [`KERNEL_BATCH`], timed by [`overlap_rate`] like the
    /// front end's passes, so a slice whose threads did not run at once
    /// does not read as fast. The wait ends in a spin, not a sleep, so
    /// both threads are running when timing starts: woken from a sleep,
    /// one thread often started milliseconds late, after the other had
    /// run its whole slice alone.
    fn slice(&mut self) -> (f64, u64) {
        let barrier = Barrier::new(self.streams.len());
        let arrived = AtomicUsize::new(0);
        let threads = self.streams.len();
        let shards = &self.shards;
        let lanes: Vec<Lane> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .map(|stream| {
                    let (barrier, arrived) = (&barrier, &arrived);
                    s.spawn(move || {
                        black_box(Sharded::run(shards, stream, SHARDED_SLICE / 4));
                        barrier.wait();
                        // Relaxed: the counter publishes no other data.
                        arrived.fetch_add(1, Ordering::Relaxed);
                        while arrived.load(Ordering::Relaxed) < threads {
                            std::hint::spin_loop();
                        }
                        let start = Instant::now();
                        let batch_ends = (0..SHARDED_SLICE / KERNEL_BATCH)
                            .map(|_| {
                                black_box(Sharded::run(shards, stream, KERNEL_BATCH));
                                Instant::now()
                            })
                            .collect();
                        Lane { start, batch_ends }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel thread panicked"))
                .collect()
        });
        let accesses = self.streams.len() as u64 * SHARDED_SLICE;
        let rate = overlap_rate(&lanes, KERNEL_BATCH as usize);
        (accesses as f64 / rate, accesses)
    }
}

/// One thread's part of a run on several threads: when it started and
/// when each of its batches ended.
#[derive(Debug)]
pub struct Lane {
    pub start: Instant,
    pub batch_ends: Vec<Instant>,
}

impl Lane {
    fn end(&self) -> Instant {
        *self.batch_ends.last().unwrap_or(&self.start)
    }
}

/// Items per second while every lane ran at once: the batches (of
/// `batch` items) that ended inside the window all lanes were running,
/// over that window. A host that deschedules one vCPU lets the other
/// thread run alone, uncontended and so faster, which would otherwise
/// read as a speed-up. Lanes that never overlapped give the whole run's
/// rate.
///
/// # Panics
///
/// Panics on no lanes.
pub fn overlap_rate(lanes: &[Lane], batch: usize) -> f64 {
    let from = lanes
        .iter()
        .map(|l| l.start)
        .max()
        .expect("a run has lanes");
    let to = lanes.iter().map(Lane::end).min().expect("a run has lanes");
    let batches: usize = lanes
        .iter()
        .map(|l| {
            l.batch_ends
                .iter()
                .filter(|&&t| t > from && t <= to)
                .count()
        })
        .sum();
    if to > from && batches > 0 {
        return (batches * batch) as f64 / (to - from).as_secs_f64();
    }
    let first = lanes
        .iter()
        .map(|l| l.start)
        .min()
        .expect("a run has lanes");
    let last = lanes.iter().map(Lane::end).max().expect("a run has lanes");
    let items: usize = lanes.iter().map(|l| l.batch_ends.len() * batch).sum();
    items as f64 / (last - first).as_secs_f64()
}

#[derive(Debug)]
enum Kernel {
    Serial(Serial),
    Sharded(Sharded),
}

/// Accumulates work time and the reference kernel's rate over the same
/// window.
#[derive(Debug)]
pub struct Meter {
    kernel: Kernel,
    elasticity: f64,
    busy_secs: f64,
    /// Wall seconds of each unit timed in this window.
    unit_secs: Vec<f64>,
    kernel_secs: f64,
    kernel_accesses: u64,
}

impl Meter {
    fn with(kernel: Kernel, elasticity: f64) -> Meter {
        Meter {
            kernel,
            elasticity,
            busy_secs: 0.0,
            unit_secs: Vec::new(),
            kernel_secs: 0.0,
            kernel_accesses: 0,
        }
    }

    /// A meter for work on one thread whose speed moves as the serial
    /// kernel's rate to the power `elasticity`.
    pub fn serial(elasticity: f64) -> Meter {
        Meter::with(Kernel::Serial(Serial::new()), elasticity)
    }

    /// A meter for work on `threads` threads sharing a sharded cache,
    /// timed against the sharded kernel on as many threads.
    pub fn sharded(threads: usize, elasticity: f64) -> Meter {
        Meter::with(Kernel::Sharded(Sharded::new(threads.max(1))), elasticity)
    }

    /// Starts a new window (the kernel's state is kept).
    pub fn reset(&mut self) {
        self.busy_secs = 0.0;
        self.unit_secs.clear();
        self.kernel_secs = 0.0;
        self.kernel_accesses = 0;
    }

    /// Runs one unit of measured work, then a slice of the kernel.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> R {
        self.time_as(|| {
            let t = Instant::now();
            let out = work();
            (out, t.elapsed().as_secs_f64())
        })
    }

    /// [`Meter::time`] for work that reports its own busy seconds.
    pub fn time_as<R>(&mut self, work: impl FnOnce() -> (R, f64)) -> R {
        let (out, secs) = work();
        self.busy_secs += secs;
        self.unit_secs.push(secs);
        let (kernel_secs, accesses) = match &mut self.kernel {
            Kernel::Serial(k) => k.slice(),
            Kernel::Sharded(k) => k.slice(),
        };
        self.kernel_secs += kernel_secs;
        self.kernel_accesses += accesses;
        out
    }

    /// Wall seconds of the work timed in this window.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Wall seconds of each unit timed in this window, in order.
    pub fn unit_secs(&self) -> &[f64] {
        &self.unit_secs
    }

    /// The kernel's rate over this window, in accesses per second.
    pub fn kernel_rate(&self) -> f64 {
        self.kernel_accesses as f64 / self.kernel_secs
    }

    /// The work's seconds scaled to the reference host's typical speed.
    pub fn reference_secs(&self) -> f64 {
        assert!(self.kernel_accesses > 0, "no work was timed in this window");
        let typical = match self.kernel {
            Kernel::Serial(_) => SERIAL_RATE,
            Kernel::Sharded(_) => SHARDED_RATE,
        };
        self.busy_secs * (self.kernel_rate() / typical).powf(self.elasticity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_mix_hits_and_misses() {
        let (mut a, mut b) = (Serial::new(), Serial::new());
        assert_eq!(a.run(50_000), b.run(50_000));
        let hits = a.run(200_000);
        assert!(hits > 50_000 && hits < 200_000, "serial: {hits}");

        let k = Sharded::new(1);
        let mut stream = Stream::new(0);
        Sharded::run(&k.shards, &mut stream, 50_000);
        let hits = Sharded::run(&k.shards, &mut stream, 200_000);
        assert!(hits > 50_000 && hits < 200_000, "sharded: {hits}");
    }

    #[test]
    fn meter_scales_work_by_the_kernel_rate() {
        let meters = [
            (Meter::serial(1.5), SERIAL_RATE, 1.5),
            (Meter::sharded(2, 1.0), SHARDED_RATE, 1.0),
        ];
        for (mut m, typical, e) in meters {
            let v = m.time(|| 7);
            assert_eq!(v, 7);
            assert!(m.busy_secs() >= 0.0 && m.kernel_rate() > 0.0);
            let expect = m.busy_secs() * (m.kernel_rate() / typical).powf(e);
            assert!((m.reference_secs() - expect).abs() <= 1e-12 * expect.max(1e-9));
            assert_eq!(m.unit_secs(), [m.busy_secs()]);
            m.reset();
            assert_eq!(m.busy_secs(), 0.0);
            assert!(m.unit_secs().is_empty());
        }
    }

    #[test]
    fn overlap_rate_counts_only_the_shared_window() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // Ten batches of 10 items, one every 10 ms from `from`.
        let lane = |from: u64| Lane {
            start: at(from),
            batch_ends: (1..=10).map(|i| at(from + i * 10)).collect(),
        };
        // Both run from 50 to 100 ms: five batches each end in there.
        let rate = overlap_rate(&[lane(0), lane(50)], 10);
        assert!((rate - 100.0 / 0.05).abs() < 1e-6, "{rate}");
        // Never at once: 200 items over the whole 300 ms.
        let rate = overlap_rate(&[lane(0), lane(200)], 10);
        assert!((rate - 200.0 / 0.3).abs() < 1e-6, "{rate}");
    }
}
