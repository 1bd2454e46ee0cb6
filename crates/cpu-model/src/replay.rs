//! Front-end memoisation: capture the L2-visible reference stream once,
//! replay it against any number of L2 organisations.
//!
//! In functional mode the L1 caches are fixed (the paper's Table 1
//! geometry, deterministic seeds) and never observe the L2 — there is no
//! inclusion enforcement or back-invalidation — so the sequence of
//! events the L2 sees (demand fills from the I- and D-side plus L1D
//! dirty-eviction writebacks) is **bit-identical across every L2
//! organisation** of a benchmark. [`capture_functional`] runs the
//! front-end once and records that sequence into a packed, delta-encoded
//! structure-of-arrays buffer ([`L2Trace`], a few bytes per event);
//! [`replay_l2`] then drives any [`CacheModel`] with it, producing
//! [`FunctionalStats`] — and timeline windows — exactly equal to a
//! direct [`crate::run_functional`] run, with zero trace generation and
//! zero L1 work. Functional timelines tick in retired instructions, so
//! the replay closes each window from the instruction index every event
//! carries.

use crate::config::CpuConfig;
use crate::hierarchy::{build_l1, FunctionalStats, L2Complex, L1D_SEED, L1I_SEED};
use cache_sim::{Address, CacheModel};
use workloads::packed::{BitSeq, DeltaIter, DeltaSeq};

/// One L2-visible event, decoded from an [`L2Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Event {
    /// Byte address of the reference (line-aligned for writebacks).
    pub addr: u64,
    /// `true` for an L1D dirty-eviction writeback, `false` for a demand
    /// fill.
    pub writeback: bool,
    /// 1-based index of the instruction that caused the event.
    pub inst: u64,
}

/// A captured L2-visible reference stream: the front-end's
/// [`FunctionalStats`] plus every L2 event, packed structure-of-arrays
/// style (zigzag-varint address deltas, varint instruction-index deltas,
/// one flag bit per event — typically under 4 bytes/event).
#[derive(Debug, Clone, Default)]
pub struct L2Trace {
    /// Front-end statistics (the `l2_misses` field is zero; it is
    /// L2-dependent and computed at replay time).
    front: FunctionalStats,
    addrs: DeltaSeq,
    insts: DeltaSeq,
    writebacks: BitSeq,
}

impl L2Trace {
    /// The front-end statistics of the captured run (`l2_misses` = 0).
    pub fn front_stats(&self) -> FunctionalStats {
        self.front
    }

    /// Number of L2-visible events captured.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the capture saw no L2 traffic.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Approximate resident size in bytes (packed buffers + header).
    pub fn approx_bytes(&self) -> usize {
        self.addrs.byte_len()
            + self.insts.byte_len()
            + self.writebacks.byte_len()
            + std::mem::size_of::<L2Trace>()
    }

    /// Decodes the event stream.
    pub fn events(&self) -> impl Iterator<Item = L2Event> + '_ {
        self.accesses()
            .zip(self.insts.iter())
            .map(|((addr, writeback), inst)| L2Event {
                addr,
                writeback,
                inst,
            })
    }

    /// Decodes the address and writeback flag of every event — all the
    /// replay needs while no timeline records, so the instruction-index
    /// stream is never touched.
    pub fn accesses(&self) -> Accesses<'_> {
        Accesses {
            addrs: self.addrs.iter(),
            flags: self.writebacks.as_bytes(),
            index: 0,
        }
    }
}

/// The `(addr, writeback)` pairs of an [`L2Trace`]: its events without
/// their instruction indices (see [`L2Trace::accesses`]).
///
/// One iterator rather than a zip of the address and flag iterators:
/// the zip's second end-of-stream check measured about 1 ns per event
/// slower in the replay loop.
#[derive(Debug, Clone)]
pub struct Accesses<'a> {
    addrs: DeltaIter<'a>,
    /// The packed writeback flags, LSB first within each byte.
    flags: &'a [u8],
    index: usize,
}

impl Iterator for Accesses<'_> {
    type Item = (u64, bool);

    #[inline]
    fn next(&mut self) -> Option<(u64, bool)> {
        let addr = self.addrs.next()?;
        let writeback = (self.flags[self.index >> 3] >> (self.index & 7)) & 1 != 0;
        self.index += 1;
        Some((addr, writeback))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.addrs.size_hint()
    }
}

/// Incremental [`L2Trace`] encoder. [`capture_functional`] is the real
/// producer; the builder is public so tests can round-trip arbitrary
/// event sequences.
#[derive(Debug, Default)]
pub struct L2TraceBuilder {
    trace: L2Trace,
}

impl L2TraceBuilder {
    /// An empty builder.
    pub fn new() -> L2TraceBuilder {
        L2TraceBuilder::default()
    }

    /// Appends one L2-visible event.
    pub fn push(&mut self, addr: u64, writeback: bool, inst: u64) {
        self.trace.addrs.push(addr);
        self.trace.insts.push(inst);
        self.trace.writebacks.push(writeback);
    }

    /// Seals the trace with the front-end totals.
    pub fn finish(mut self, front: FunctionalStats) -> L2Trace {
        self.trace.front = FunctionalStats {
            l2_misses: 0,
            ..front
        };
        self.trace
    }
}

/// Runs the functional front-end (trace generation + L1I/L1D) once and
/// captures the L2-visible reference stream.
///
/// The loop is shape-identical to [`crate::run_functional`] — same
/// instruction budget handling, same I-block deduplication, same
/// event order (dirty writeback before the fill of the missing access)
/// — but no L2 is attached: events are recorded instead of applied.
pub fn capture_functional<I>(config: &CpuConfig, trace: I, max_insts: u64) -> L2Trace
where
    I: Iterator<Item = workloads::Inst>,
{
    let _span = ac_telemetry::span("cpu", || "capture_functional".to_string());
    let (mut l1i, l1i_geom) = build_l1(config.l1i, L1I_SEED);
    let (mut l1d, l1d_geom) = build_l1(config.l1d, L1D_SEED);
    let mut b = L2TraceBuilder::new();
    let mut stats = FunctionalStats::default();
    let mut last_iblock = u64::MAX;
    let mut trace = trace;
    while stats.instructions < max_insts {
        let Some(inst) = trace.next() else { break };
        stats.instructions += 1;
        let iblock = inst.pc / l1i_geom.line_bytes() as u64;
        if iblock != last_iblock {
            last_iblock = iblock;
            stats.inst_fetches += 1;
            let out = l1i.access(l1i_geom.block_of(Address::new(inst.pc)), false);
            if !out.hit {
                // Instruction lines are never dirty; no writeback event.
                b.push(inst.pc, false, stats.instructions);
            }
        }
        if let Some(addr) = inst.mem_addr() {
            stats.data_accesses += 1;
            let write = matches!(inst.kind, workloads::InstKind::Store { .. });
            let out = l1d.access(l1d_geom.block_of(Address::new(addr)), write);
            if let Some(ev) = out.eviction {
                if ev.dirty {
                    let byte = ev.block.raw() << l1d_geom.offset_bits();
                    b.push(byte, true, stats.instructions);
                }
            }
            if !out.hit {
                b.push(addr, false, stats.instructions);
            }
        }
    }
    stats.l1d_misses = l1d.stats().misses;
    stats.l1i_misses = l1i.stats().misses;
    b.finish(stats)
}

/// Replays a captured reference stream against `l2`, producing the same
/// [`FunctionalStats`] (and, when telemetry is enabled, the same
/// timeline windows) a direct [`crate::run_functional`] run over that L2
/// would produce.
///
/// Generic so a concrete organisation replays without dynamic dispatch;
/// `M` may also be `dyn CacheModel` or a `Box<dyn CacheModel>`.
pub fn replay_l2<M: CacheModel + ?Sized>(trace: &L2Trace, l2: &mut M) -> FunctionalStats {
    let mut cx = L2Complex::new(l2);
    replay_into(trace, &mut cx)
}

/// The timeline side of a replay: the timeline and the
/// instruction-index stream, decoded only while a timeline records.
struct Recording<'a> {
    timeline: ac_telemetry::Timeline,
    insts: DeltaIter<'a>,
}

impl Recording<'_> {
    /// Closes every window whose boundary is at or before instruction
    /// `last`, each at its boundary, as the direct run closes it at the
    /// end of that instruction: the L2 has seen nothing since.
    fn close_through<L2: CacheModel>(&mut self, last: u64, l2: &L2) {
        while self.timeline.due(last) {
            let at = self.timeline.next_boundary();
            self.timeline.record(
                at,
                at,
                l2.timeline_probe(),
                ac_telemetry::TimelineGauges::default(),
            );
        }
    }
}

/// Replays a captured reference stream into an existing [`L2Complex`]
/// (use this form to attach a prefetcher before replaying).
///
/// One loop serves both cases: per event it decodes the address and the
/// writeback flag, and only while a timeline records also the
/// instruction index that places the event among the window boundaries.
pub fn replay_into<L2: CacheModel>(trace: &L2Trace, cx: &mut L2Complex<L2>) -> FunctionalStats {
    let _span = ac_telemetry::span("cpu", || format!("replay_run {}", cx.l2().label()));
    let started = std::time::Instant::now();
    let demand_before = cx.demand_misses();
    // Same label as the direct driver: replayed runs are
    // indistinguishable in timeline.jsonl.
    let mut recording = ac_telemetry::Timeline::from_hub("instructions", || {
        format!("functional {}", cx.l2().label())
    })
    .map(|timeline| Recording {
        timeline,
        insts: trace.insts.iter(),
    });
    let mut accesses = trace.accesses();
    let mut next = accesses.next();
    while let Some((addr, writeback)) = next {
        if let Some(rec) = recording.as_mut() {
            // The direct run's due-check happens at the *end* of each
            // instruction, so every boundary before this event's
            // instruction closes first.
            let inst = rec.insts.next().expect("one instruction index per event");
            rec.close_through(inst.saturating_sub(1), cx.l2());
        }
        next = accesses.next();
        // Get the next event's L2 lookup records in flight before
        // resolving this one: the stream is random enough that the
        // records are never resident, and this one-ahead overlap is
        // what hides the (otherwise serial) pointer-chase per event.
        if let Some((next_addr, _)) = next {
            cx.prefetch(next_addr);
        }
        if writeback {
            cx.write_back(addr);
        } else {
            cx.fill(addr);
        }
    }
    let mut stats = trace.front_stats();
    stats.l2_misses = cx.demand_misses() - demand_before;
    if let Some(mut rec) = recording {
        rec.close_through(stats.instructions, cx.l2());
        rec.timeline.finish(
            stats.instructions,
            stats.instructions,
            cx.l2().timeline_probe(),
            ac_telemetry::TimelineGauges::default(),
        );
    }
    if ac_telemetry::enabled() {
        cx.l2().flush_telemetry();
        // Same dashboard counters as the direct driver, so sweeps report
        // identical totals whether the front-end ran or was memoised.
        ac_telemetry::counter_add("functional_instructions_total", stats.instructions);
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            ac_telemetry::gauge_set(
                "engine.accesses_per_sec",
                (stats.inst_fetches + stats.data_accesses) as f64 / secs,
            );
            ac_telemetry::gauge_set("engine.replay_events_per_sec", trace.len() as f64 / secs);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Cache, Geometry, PolicyKind};
    use workloads::{Inst, InstKind};

    fn mixed_trace(n: u64) -> impl Iterator<Item = Inst> {
        (0..n).map(|i| {
            Inst::free(
                0x40_0000 + (i % 64) * 4,
                if i % 3 == 0 {
                    InstKind::Store {
                        addr: (i % 700) * 64,
                    }
                } else {
                    InstKind::Load {
                        addr: (i.wrapping_mul(31) % 9000) * 64,
                    }
                },
            )
        })
    }

    #[test]
    fn builder_round_trips_events() {
        let mut b = L2TraceBuilder::new();
        let evs = [
            (0x1000u64, false, 1u64),
            (0x40, true, 1),
            (u64::MAX - 63, false, 2),
            (0x1000, false, 9),
        ];
        for &(a, w, i) in &evs {
            b.push(a, w, i);
        }
        let t = b.finish(FunctionalStats {
            instructions: 9,
            data_accesses: 5,
            inst_fetches: 4,
            l1d_misses: 3,
            l1i_misses: 1,
            l2_misses: 777, // must be zeroed
        });
        let back: Vec<(u64, bool, u64)> =
            t.events().map(|e| (e.addr, e.writeback, e.inst)).collect();
        assert_eq!(back, evs);
        assert_eq!(t.front_stats().l2_misses, 0);
        assert_eq!(t.front_stats().instructions, 9);
        assert_eq!(t.len(), 4);
        assert!(t.approx_bytes() < 1024);

        // Lengths around a flag byte's 8 bits, and a long trace.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for n in [0usize, 1, 7, 8, 9, 10_000] {
            let mut b = L2TraceBuilder::new();
            let mut pushed = Vec::new();
            let mut inst = 0u64;
            for _ in 0..n {
                // xorshift64: addresses jump across the whole space (long
                // varints) and the flags form no pattern.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                inst += rng >> 62;
                let ev = L2Event {
                    addr: rng,
                    writeback: rng & 0x100 != 0,
                    inst,
                };
                b.push(ev.addr, ev.writeback, ev.inst);
                pushed.push(ev);
            }
            let t = b.finish(FunctionalStats::default());
            let events: Vec<L2Event> = t.events().collect();
            assert_eq!(events, pushed);
            // The replay's address-and-flag iteration is `events()`
            // without the instruction indices.
            let projected: Vec<(u64, bool)> =
                events.iter().map(|e| (e.addr, e.writeback)).collect();
            assert_eq!(t.accesses().size_hint(), (n, Some(n)));
            assert_eq!(t.accesses().collect::<Vec<_>>(), projected);
        }
    }

    #[test]
    fn capture_matches_direct_run_on_plain_l2() {
        let cfg = CpuConfig::paper_default();
        let n = 120_000;
        let trace = capture_functional(&cfg, mixed_trace(n), n);
        assert_eq!(trace.front_stats().instructions, n);
        assert!(!trace.is_empty());

        let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
        let mut l2 = Cache::new(geom, PolicyKind::Lru, 7);
        let replayed = replay_l2(&trace, &mut l2);

        let mut h = crate::Hierarchy::new(&cfg, Cache::new(geom, PolicyKind::Lru, 7));
        let direct = crate::run_functional(&mut h, mixed_trace(n), n);

        assert_eq!(replayed, direct);
        assert_eq!(l2.stats(), h.l2().stats());
    }
}
