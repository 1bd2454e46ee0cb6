//! Front-end memoisation: capture the L2-visible reference stream once,
//! replay it against any number of L2 organisations.
//!
//! In functional mode the L1 caches are fixed (the paper's Table 1
//! geometry, deterministic seeds) and never observe the L2 — there is no
//! inclusion enforcement or back-invalidation — so the sequence of
//! events the L2 sees (demand fills from the I- and D-side plus L1D
//! dirty-eviction writebacks) is **bit-identical across every L2
//! organisation** of a benchmark. [`capture_functional`] runs the
//! front-end once and records that sequence into one byte stream
//! ([`L2Trace`], under 3 bytes/event on the primary suite);
//! [`replay_l2`] then drives any [`CacheModel`] with it, producing
//! [`FunctionalStats`] — and timeline windows — exactly equal to a
//! direct [`crate::run_functional`] run, with zero trace generation and
//! zero L1 work. Functional timelines tick in retired instructions, so
//! the replay closes each window from the instruction index every event
//! carries.
//!
//! # Format
//!
//! Each event is one header byte and one varint. The header's low bit
//! is the writeback flag and its upper seven bits the event's
//! instruction-index delta; a delta of 127 or more stores 127 there and
//! the rest as an unsigned LEB128 varint right after the header. Then
//! comes the zigzag LEB128 varint of the event's line-number delta
//! against the previous event of the same kind: fills and writebacks
//! keep separate chains, because each is far more regular than the two
//! interleaved. Line numbers are addresses at the capture's line
//! granularity ([`L2Trace::line_bytes`]), the smaller L1 line, so an
//! event's address comes back aligned to that line. Every L2 consumer
//! maps an address to its block with `Geometry::block_of`, which gives
//! the same block for every address of one line as long as the L2 line
//! is not shorter than the capture's; [`replay_into`] and the oracle
//! replays assert that.

use crate::config::CpuConfig;
use crate::hierarchy::{build_l1, FunctionalStats, L2Complex, L1D_SEED, L1I_SEED};
use cache_sim::{Address, CacheModel, Geometry};

/// Header value of an instruction delta that continues in a varint.
const ESCAPE: u8 = 0x7F;

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the unsigned LEB128 varint at `*pos`, advancing `*pos`. The
/// bytes were written by [`write_uvarint`]: every varint is complete and
/// at most 10 bytes long, so this loop needs neither checks nor an error
/// path.
#[inline(always)]
fn read_uvarint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut byte = bytes[*pos];
    *pos += 1;
    let mut v = u64::from(byte & 0x7F);
    let mut shift = 0;
    while byte & 0x80 != 0 {
        byte = bytes[*pos];
        *pos += 1;
        shift += 7;
        v |= u64::from(byte & 0x7F) << shift;
    }
    v
}

/// Zigzag-maps a signed delta onto the unsigned varint domain so small
/// negative strides stay short: `0, -1, 1, -2, 2, ...` → `0, 1, 2, 3,
/// 4, ...`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The line granularity [`capture_functional`] records addresses at
/// under `config`: the smaller of the two L1 lines. An L2 whose line is
/// shorter cannot replay such a capture.
pub fn capture_line_bytes(config: &CpuConfig) -> usize {
    config.l1i.line_bytes.min(config.l1d.line_bytes)
}

/// One L2-visible event, decoded from an [`L2Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Event {
    /// Address of the reference, aligned down to the trace's line
    /// granularity ([`L2Trace::line_bytes`]).
    pub addr: u64,
    /// `true` for an L1D dirty-eviction writeback, `false` for a demand
    /// fill.
    pub writeback: bool,
    /// 1-based index of the instruction that caused the event.
    pub inst: u64,
}

/// A captured L2-visible reference stream: the front-end's
/// [`FunctionalStats`] plus every L2 event, in one byte stream of a
/// header byte and an address varint per event (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct L2Trace {
    /// Front-end statistics (the `l2_misses` field is zero; it is
    /// L2-dependent and computed at replay time).
    front: FunctionalStats,
    bytes: Vec<u8>,
    len: usize,
    /// log2 of the line granularity addresses are recorded at.
    line_shift: u32,
}

impl L2Trace {
    /// The front-end statistics of the captured run (`l2_misses` = 0).
    pub fn front_stats(&self) -> FunctionalStats {
        self.front
    }

    /// Number of L2-visible events captured.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capture saw no L2 traffic.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The line granularity the addresses were recorded at: every
    /// decoded address is a multiple of it.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    /// Approximate resident size in bytes (the byte stream + header).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.len() + std::mem::size_of::<L2Trace>()
    }

    /// Decodes the event stream.
    pub fn events(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            pos: 0,
            remaining: self.len,
            line_shift: self.line_shift,
            inst: 0,
            lines: [0; 2],
        }
    }

    /// The address and writeback flag of every event.
    pub fn accesses(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.events().map(|e| (e.addr, e.writeback))
    }

    /// Panics unless an L2 of geometry `geom` can replay this trace: a
    /// line shorter than the trace's granularity would split one
    /// recorded address across several blocks.
    pub(crate) fn assert_replayable_on(&self, geom: &Geometry) {
        assert!(
            geom.line_bytes() >= self.line_bytes(),
            "an L2 with {}-byte lines cannot replay a trace recorded at {}-byte lines",
            geom.line_bytes(),
            self.line_bytes()
        );
    }
}

/// Decoding iterator over an [`L2Trace`]'s events.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    line_shift: u32,
    inst: u64,
    /// The last line number of each chain: fills, then writebacks.
    lines: [u64; 2],
}

impl Iterator for Events<'_> {
    type Item = L2Event;

    // Always inlined: as a call, decoding cost the replay loop about
    // 1 ns per event.
    #[inline(always)]
    fn next(&mut self) -> Option<L2Event> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let header = self.bytes[self.pos];
        self.pos += 1;
        let writeback = header & 1 != 0;
        let mut delta = u64::from(header >> 1);
        if delta == u64::from(ESCAPE) {
            delta += read_uvarint(self.bytes, &mut self.pos);
        }
        self.inst = self.inst.wrapping_add(delta);
        let step = unzigzag(read_uvarint(self.bytes, &mut self.pos)) as u64;
        let line = &mut self.lines[usize::from(writeback)];
        *line = line.wrapping_add(step);
        Some(L2Event {
            addr: *line << self.line_shift,
            writeback,
            inst: self.inst,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Incremental [`L2Trace`] encoder. [`capture_functional`] is the real
/// producer; the builder is public so tests can round-trip arbitrary
/// event sequences.
#[derive(Debug, Default)]
pub struct L2TraceBuilder {
    trace: L2Trace,
    inst: u64,
    /// The last line number of each chain: fills, then writebacks.
    lines: [u64; 2],
}

impl L2TraceBuilder {
    /// An empty builder that records byte addresses exactly.
    pub fn new() -> L2TraceBuilder {
        L2TraceBuilder::default()
    }

    /// An empty builder that records addresses at `line_bytes`
    /// granularity, a power of two.
    pub(crate) fn with_line_bytes(line_bytes: usize) -> L2TraceBuilder {
        assert!(
            line_bytes.is_power_of_two(),
            "line size {line_bytes} is not a power of two"
        );
        let mut b = L2TraceBuilder::new();
        b.trace.line_shift = line_bytes.trailing_zeros();
        b
    }

    /// Appends one L2-visible event; `addr` is recorded aligned down to
    /// the builder's line granularity.
    pub fn push(&mut self, addr: u64, writeback: bool, inst: u64) {
        let bytes = &mut self.trace.bytes;
        let delta = inst.wrapping_sub(self.inst);
        self.inst = inst;
        let short = delta.min(u64::from(ESCAPE)) as u8;
        bytes.push(short << 1 | u8::from(writeback));
        if short == ESCAPE {
            write_uvarint(bytes, delta - u64::from(ESCAPE));
        }
        let line = addr >> self.trace.line_shift;
        let prev = &mut self.lines[usize::from(writeback)];
        write_uvarint(bytes, zigzag(line.wrapping_sub(*prev) as i64));
        *prev = line;
        self.trace.len += 1;
    }

    /// Seals the trace with the front-end totals.
    pub fn finish(mut self, front: FunctionalStats) -> L2Trace {
        self.trace.front = FunctionalStats {
            l2_misses: 0,
            ..front
        };
        // A finished trace never grows and may stay resident for the
        // whole process: give back the doubling's slack.
        self.trace.bytes.shrink_to_fit();
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
    let mut b = L2TraceBuilder::with_line_bytes(capture_line_bytes(config));
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

/// Closes every window of `timeline` whose boundary is at or before
/// instruction `last`, each at its boundary, as the direct run closes it
/// at the end of that instruction: the L2 has seen nothing since.
fn close_through<L2: CacheModel>(timeline: &mut ac_telemetry::Timeline, last: u64, l2: &L2) {
    while timeline.due(last) {
        let at = timeline.next_boundary();
        timeline.record(
            at,
            at,
            l2.timeline_probe(),
            ac_telemetry::TimelineGauges::default(),
        );
    }
}

/// Replays a captured reference stream into an existing [`L2Complex`]
/// (use this form to attach a prefetcher before replaying).
///
/// One loop serves both cases: every event carries its instruction
/// index, which places it among the window boundaries while a timeline
/// records.
///
/// # Panics
///
/// If the L2's line is shorter than the trace's granularity
/// ([`L2Trace::line_bytes`]).
pub fn replay_into<L2: CacheModel>(trace: &L2Trace, cx: &mut L2Complex<L2>) -> FunctionalStats {
    let _span = ac_telemetry::span("cpu", || format!("replay_run {}", cx.l2().label()));
    trace.assert_replayable_on(cx.l2().geometry());
    let started = std::time::Instant::now();
    let demand_before = cx.demand_misses();
    // Same label as the direct driver: replayed runs are
    // indistinguishable in timeline.jsonl.
    let mut recording = ac_telemetry::Timeline::from_hub("instructions", || {
        format!("functional {}", cx.l2().label())
    });
    let mut events = trace.events();
    let mut next = events.next();
    while let Some(L2Event {
        addr,
        writeback,
        inst,
    }) = next
    {
        if let Some(timeline) = recording.as_mut() {
            // The direct run's due-check happens at the *end* of each
            // instruction, so every boundary before this event's
            // instruction closes first.
            close_through(timeline, inst.saturating_sub(1), cx.l2());
        }
        next = events.next();
        // Get the next event's L2 lookup records in flight before
        // resolving this one: the stream is random enough that the
        // records are never resident, and this one-ahead overlap is
        // what hides the (otherwise serial) pointer-chase per event.
        if let Some(ev) = next {
            cx.prefetch(ev.addr);
        }
        if writeback {
            cx.write_back(addr);
        } else {
            cx.fill(addr);
        }
    }
    let mut stats = trace.front_stats();
    stats.l2_misses = cx.demand_misses() - demand_before;
    if let Some(mut timeline) = recording {
        close_through(&mut timeline, stats.instructions, cx.l2());
        timeline.finish(
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

    /// Pushes `events` into a builder at `line_bytes` granularity.
    fn build(line_bytes: usize, events: &[(u64, bool, u64)]) -> L2Trace {
        let mut b = L2TraceBuilder::with_line_bytes(line_bytes);
        for &(a, w, i) in events {
            b.push(a, w, i);
        }
        b.finish(FunctionalStats::default())
    }

    /// `events` as decoded from `t`.
    fn decoded(t: &L2Trace) -> Vec<(u64, bool, u64)> {
        t.events().map(|e| (e.addr, e.writeback, e.inst)).collect()
    }

    /// The byte stream's length, without the fixed-size header.
    fn stream_bytes(t: &L2Trace) -> usize {
        t.approx_bytes() - std::mem::size_of::<L2Trace>()
    }

    #[test]
    fn builder_round_trips_events() {
        let evs = [
            (0x1000u64, false, 1u64),
            (0x40, true, 1),
            (u64::MAX - 63, false, 2),
            (0x1000, false, 9),
        ];
        assert_eq!(L2TraceBuilder::new().trace.line_bytes(), 1);
        for line in [1u64, 64] {
            let mut b = L2TraceBuilder::with_line_bytes(line as usize);
            for &(a, w, i) in &evs {
                b.push(a + line / 2, w, i);
            }
            let t = b.finish(FunctionalStats {
                instructions: 9,
                data_accesses: 5,
                inst_fetches: 4,
                l1d_misses: 3,
                l1i_misses: 1,
                l2_misses: 777, // must be zeroed
            });
            // Addresses come back aligned down to the granularity.
            let want: Vec<(u64, bool, u64)> = evs
                .iter()
                .map(|&(a, w, i)| ((a + line / 2) & !(line - 1), w, i))
                .collect();
            assert_eq!(decoded(&t), want, "{line}-byte lines");
            assert_eq!(t.line_bytes(), line as usize);
            assert_eq!(t.front_stats().l2_misses, 0);
            assert_eq!(t.front_stats().instructions, 9);
            assert_eq!(t.len(), 4);
            assert!(t.approx_bytes() < 1024);
        }

        // Lengths around the escape's and the varints' boundaries, and a
        // long trace, at both granularities.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for line in [1u64, 64] {
            for n in [0usize, 1, 7, 8, 9, 10_000] {
                let mut b = L2TraceBuilder::with_line_bytes(line as usize);
                let mut pushed = Vec::new();
                let mut inst = 0u64;
                for _ in 0..n {
                    // xorshift64: addresses jump across the whole space
                    // (long varints), the flags form no pattern, and some
                    // instruction deltas escape.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    inst += (rng >> 62) << (((rng >> 60) & 3) * 3);
                    let ev = L2Event {
                        addr: rng,
                        writeback: rng & 0x100 != 0,
                        inst,
                    };
                    b.push(ev.addr, ev.writeback, ev.inst);
                    pushed.push(L2Event {
                        addr: ev.addr & !(line - 1),
                        ..ev
                    });
                }
                let t = b.finish(FunctionalStats::default());
                let events: Vec<L2Event> = t.events().collect();
                assert_eq!(events, pushed, "{line}-byte lines, {n} events");
                // The replay's address-and-flag iteration is `events()`
                // without the instruction indices.
                let projected: Vec<(u64, bool)> =
                    events.iter().map(|e| (e.addr, e.writeback)).collect();
                assert_eq!(t.accesses().size_hint(), (n, Some(n)));
                assert_eq!(t.accesses().collect::<Vec<_>>(), projected);
            }
        }
    }

    #[test]
    fn instruction_deltas_escape_at_127() {
        // One address throughout, so each address varint is one byte.
        let mut inst = 5u64;
        let mut evs = vec![(0x40u64, false, inst)];
        for delta in [0u64, 126, 127, 128, 1 << 40] {
            inst += delta;
            evs.push((0x40, false, inst));
        }
        let t = build(64, &evs);
        assert_eq!(decoded(&t), evs);
        // Header + address: 2 bytes per event while the delta fits the
        // header (5, 0, 126); 127 and 128 add a one-byte varint (0, 1);
        // 2^40 - 127 needs a six-byte one.
        assert_eq!(stream_bytes(&t), 2 + 2 + 2 + 3 + 3 + 8);
    }

    #[test]
    fn fills_and_writebacks_keep_their_own_chains() {
        // A writeback and a fill at the same instruction, then each
        // chain stepping one line from its own last address.
        let evs = [
            (0x10_0000u64, true, 3u64),
            (0x80_0000, false, 3),
            (0x10_0040, true, 4),
            (0x80_0040, false, 4),
        ];
        let t = build(64, &evs);
        assert_eq!(decoded(&t), evs);
        assert_eq!(
            t.events().map(|e| e.writeback).collect::<Vec<_>>(),
            [true, false, true, false]
        );
        // The first two events open their chains (3-byte varints of
        // lines 0x4000 and 0x2_0000); a one-line step is one byte.
        assert_eq!(stream_bytes(&t), 4 + 4 + 2 + 2);
    }

    #[test]
    fn address_deltas_wrap_u64_on_each_chain() {
        // Every chain crosses zero both ways and takes the delta of
        // -2^63, which zigzags to `u64::MAX`, the longest varint.
        let mut evs = Vec::new();
        for (i, addr) in [0u64, u64::MAX, 0, 1 << 63, 0, (1 << 63) - 1, 1]
            .into_iter()
            .enumerate()
        {
            evs.push((addr, false, i as u64));
            evs.push((addr.wrapping_add(1 << 62), true, i as u64));
        }
        assert_eq!(decoded(&build(1, &evs)), evs);
        let aligned: Vec<(u64, bool, u64)> = evs.iter().map(|&(a, w, i)| (a & !63, w, i)).collect();
        assert_eq!(decoded(&build(64, &evs)), aligned);
    }

    #[test]
    fn uvarint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn primary_streams_capture_under_three_bytes_per_event() {
        let cfg = CpuConfig::paper_default();
        let (mut events, mut bytes) = (0, 0);
        for b in workloads::primary_suite() {
            let t = capture_functional(&cfg, b.spec.generator(), 200_000);
            assert_eq!(t.line_bytes(), 64, "the L1 line");
            events += t.len();
            bytes += t.approx_bytes();
        }
        let density = bytes as f64 / events as f64;
        assert!(
            density <= 2.9,
            "{density:.3} bytes/event over {events} events"
        );
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
