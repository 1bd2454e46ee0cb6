//! The timestamp-based out-of-order pipeline model.
//!
//! Instructions are processed in program order; for each one the model
//! computes fetch, dispatch, issue, completion and retirement timestamps
//! under the machine's resource constraints:
//!
//! * **fetch** — `width` per cycle, stalling on I-cache misses and branch
//!   redirects (mispredictions and BTB misses),
//! * **dispatch** — blocked when the ROB (64) or RS (32) window is full,
//! * **issue** — waits for source operands (dependency distances from the
//!   trace) and a free functional unit of the right class,
//! * **memory** — loads occupy a memory port and, on a miss, an MSHR for
//!   the full miss latency (bounding MLP) and the split-transaction bus
//!   for the line transfer,
//! * **retire** — in order, `width` per cycle; stores must claim a store
//!   buffer entry at retirement and drain serially through the hierarchy
//!   (the structure whose capacity Figure 10 sweeps).
//!
//! The final cycle count is the retirement time of the last instruction.
//!
//! Every figure's CPI sends each simulated instruction through this
//! bookkeeping, so its per-instruction path is kept lean: the scalars it
//! updates live in one `Copy` struct that [`Pipeline::run`] holds in a
//! local for its whole loop, functional-unit issue is one lookup in a
//! per-class table, and the path does no division and uses selects where
//! the outcome is data-dependent.

use crate::branch::{BranchPredictor, BranchStats};
use crate::config::CpuConfig;
use crate::hierarchy::{Hierarchy, Level};
use cache_sim::{Cache, CacheModel, CacheStats, Geometry, PolicyKind};
use serde::{Deserialize, Serialize};
use workloads::{Inst, InstKind};

/// Ring buffer of timestamps for window constraints (ROB, RS, store and
/// writeback buffers). Its cursor lives in [`Timing`].
#[derive(Debug, Clone)]
struct TimeRing {
    times: Vec<u64>,
}

impl TimeRing {
    fn new(len: usize) -> Self {
        TimeRing {
            times: vec![0; len.max(1)],
        }
    }

    /// The timestamp recorded `len` pushes before cursor `at` (0 until
    /// the ring wraps).
    #[inline(always)]
    fn oldest(&self, at: usize) -> u64 {
        self.times[at]
    }

    /// Records `t` at cursor `at` and returns the next cursor. Wraps by
    /// compare: ring sizes are arbitrary (Figure 10 sweeps 1–256).
    #[inline(always)]
    fn push(&mut self, at: usize, t: u64) -> usize {
        self.times[at] = t;
        let next = at + 1;
        if next == self.times.len() {
            0
        } else {
            next
        }
    }
}

/// Entries of `times` still occupied at time `t` (occupancy gauge).
fn busy_at(times: &[u64], t: u64) -> u32 {
    times.iter().filter(|&&x| x > t).count() as u32
}

/// Index and value of the first minimum of `times`, the entry
/// `min_by_key` picks (lowest index on ties), found with selects.
#[inline(always)]
fn first_min(times: &[u64]) -> (usize, u64) {
    let mut slot = 0;
    let mut min = times[0];
    for (i, &t) in times.iter().enumerate().skip(1) {
        let less = t < min;
        slot = if less { i } else { slot };
        min = if less { t } else { min };
    }
    (slot, min)
}

/// Row of `kind` in the [`Units`] class table.
#[inline(always)]
fn class_of(kind: &InstKind) -> usize {
    match kind {
        InstKind::IntAlu => 0,
        InstKind::IntMul => 1,
        InstKind::IntDiv => 2,
        InstKind::FpAdd => 3,
        InstKind::FpDiv => 4,
        InstKind::Load { .. } => 5,
        InstKind::Store { .. } => 6,
        InstKind::Branch { .. } => 7,
    }
}

/// The functional units: every pool's next-free times in one flat
/// array, each pool padded with `u64::MAX` to the widest pool's width,
/// and a per-class `(pool offset, occupancy, latency)` table.
#[derive(Debug, Clone)]
struct Units {
    free_at: Vec<u64>,
    width: usize,
    class: [(usize, u64, u64); 8],
}

impl Units {
    fn new(c: &CpuConfig) -> Self {
        // Integer ALUs, integer multiply/divide, FP ALUs, FP multiply/
        // divide, memory ports. A class with no units acts as one unit.
        let pools = [
            c.int_alu_units,
            c.int_mul_units,
            c.fp_alu_units,
            c.fp_div_units,
            c.mem_ports,
        ]
        .map(|n| n.max(1) as usize);
        let width = pools.into_iter().max().unwrap_or(1);
        let mut free_at = vec![u64::MAX; pools.len() * width];
        for (p, n) in pools.into_iter().enumerate() {
            free_at[p * width..][..n].fill(0);
        }
        let [alu, mul, fp, div, mem] = [0, 1, 2, 3, 4].map(|p| p * width);
        let (imul, fdiv) = (u64::from(c.lat_int_mul), u64::from(c.lat_fp_div));
        Units {
            free_at,
            width,
            // In `class_of` order. Divides are unpipelined: they hold
            // their unit for the whole latency. A load's latency is an
            // L1 hit's; stores (address generation) and branches take
            // one cycle.
            class: [
                (alu, 1, u64::from(c.lat_int_alu)),
                (mul, 1, imul),
                (mul, imul, imul),
                (fp, 1, u64::from(c.lat_fp_add)),
                (div, fdiv, fdiv),
                (mem, 1, u64::from(c.l1d.hit_latency)),
                (mem, 1, 1),
                (alu, 1, 1),
            ],
        }
    }

    /// Grants the first earliest-free unit of `class` at or after
    /// `ready` and occupies it; returns the grant time and the class's
    /// latency. Padding never grants: it sorts after the real units.
    #[inline(always)]
    fn issue(&mut self, class: usize, ready: u64) -> (u64, u64) {
        let (base, occupy, latency) = self.class[class];
        let pool = &mut self.free_at[base..base + self.width];
        let (slot, free) = first_min(pool);
        let grant = ready.max(free);
        pool[slot] = grant + occupy;
        (grant, latency)
    }
}

/// Constants of the per-instruction path, derived once from the
/// configuration.
#[derive(Debug, Clone, Copy)]
struct Costs {
    width: u32,
    front_depth: u64,
    mispredict_penalty: u64,
    /// log2 of the L1I and L1D line sizes.
    iblock_shift: u32,
    line_shift: u32,
    write_combining: bool,
    /// L1D plus L2 hit latency: when an L2 hit returns, or a miss's
    /// request goes on to memory, after the access leaves the core.
    l2_request: u64,
    mem_latency: u64,
    /// Cycles the bus takes to move one line.
    transfer: u64,
    /// Fetch stall of an instruction block, and store-buffer drain time
    /// of a store, indexed by the [`Level`] that served it.
    fetch_penalty: [u64; 3],
    drain_cost: [u64; 3],
}

impl Costs {
    fn new(c: &CpuConfig) -> Self {
        let l1 = u64::from(c.l1d.hit_latency);
        let l2 = u64::from(c.l2.hit_latency);
        let mem_latency = u64::from(c.mem_latency);
        let transfer = u64::from(c.bus_transfer_cycles());
        let memory = mem_latency + transfer;
        Costs {
            width: c.width,
            front_depth: u64::from(c.front_depth),
            mispredict_penalty: u64::from(c.mispredict_penalty),
            iblock_shift: line_shift(c.l1i.line_bytes),
            line_shift: line_shift(c.l1d.line_bytes),
            write_combining: c.sb_write_combining,
            l2_request: l1 + l2,
            mem_latency,
            transfer,
            fetch_penalty: [0, l2, l2 + memory],
            drain_cost: [l1, l1 + l2, l1 + l2 + memory],
        }
    }
}

/// log2 of a line size, so block numbers are shifts.
fn line_shift(bytes: usize) -> u32 {
    assert!(
        bytes.is_power_of_two(),
        "L1 line size {bytes} is not a power of two"
    );
    bytes.trailing_zeros()
}

/// Completion times kept for dependency lookups: trace dependency
/// distances are `u8`, so 256 always reach the producer. Indexed by
/// instruction index masked with `WINDOW - 1`.
const WINDOW: usize = 256;

/// Every scalar the model updates per instruction. It is `Copy`, so
/// [`Pipeline::run`] keeps it in a local (in registers) for its whole
/// loop and [`Pipeline::step`] loads and stores it around one
/// instruction.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    /// Instructions processed, which is also the next one's index.
    insts: u64,
    /// Next cycle a fetch slot is available.
    fetch_time: u64,
    /// Fetch slots used in the current fetch cycle.
    fetch_slots: u32,
    /// Last fetched instruction block (same-block fetches are free).
    last_iblock: u64,
    /// In-order retirement cursor: the newest instruction's retirement
    /// time, and the cycle being filled with the slots it has used.
    last_retire: u64,
    retire_cycle: u64,
    retire_slots: u32,
    /// Serial store-buffer drain cursor.
    last_drain_end: u64,
    /// Line of the most recent store (for write combining).
    last_store_line: u64,
    /// Split-transaction bus next-free time.
    bus_free: u64,
    sb_stall_cycles: u64,
    wc_merged: u64,
    /// Cursors of the ROB, RS, store-buffer and writeback-buffer rings.
    rob_at: usize,
    rs_at: usize,
    sb_at: usize,
    wb_at: usize,
}

impl Timing {
    fn new() -> Self {
        Timing {
            last_iblock: u64::MAX,
            last_store_line: u64::MAX,
            ..Timing::default()
        }
    }
}

/// Results of a [`Pipeline::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles (retirement time of the last instruction).
    pub cycles: u64,
    /// L1 instruction-cache statistics.
    pub l1i: CacheStats,
    /// L1 data-cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch predictor statistics.
    pub branches: BranchStats,
    /// Cycles lost waiting for a store-buffer entry at retirement.
    pub sb_stall_cycles: u64,
    /// Stores coalesced by write combining (0 unless enabled).
    pub wc_merged_stores: u64,
    /// Label of the L2 organisation that produced these numbers.
    pub l2_label: String,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L2 misses per thousand instructions.
    pub fn l2_mpki(&self) -> f64 {
        self.l2.mpki(self.instructions)
    }

    /// L1D misses per thousand instructions.
    pub fn l1d_mpki(&self) -> f64 {
        self.l1d.mpki(self.instructions)
    }

    /// L1I misses per thousand instructions.
    pub fn l1i_mpki(&self) -> f64 {
        self.l1i.mpki(self.instructions)
    }
}

/// The out-of-order pipeline bound to a memory hierarchy.
///
/// Generic over the cache organisations so experiments can reach into
/// them (e.g. the phase sampling of Figure 7, or the adaptive-L1
/// experiment of Section 4.6); use [`Pipeline::with_lru_l2`] for the
/// conventional baseline or [`Pipeline::new`] with any [`CacheModel`].
#[derive(Debug)]
pub struct Pipeline<
    L2: CacheModel,
    L1I: CacheModel = Cache<PolicyKind>,
    L1D: CacheModel = Cache<PolicyKind>,
> {
    config: CpuConfig,
    hierarchy: Hierarchy<L2, L1I, L1D>,
    predictor: BranchPredictor,
    costs: Costs,
    state: Timing,
    units: Units,
    /// MSHR next-free times (acquired in two phases: a miss holds its
    /// MSHR until the line returns).
    mshrs: Vec<u64>,
    /// Retirement times of the last `rob_entries` instructions.
    rob: TimeRing,
    /// Issue times of the last `rs_entries` instructions.
    rs: TimeRing,
    /// Store-buffer slots (drain-completion times).
    store_buffer: TimeRing,
    /// Writeback (eviction) buffer slots between L2 and memory.
    wb_buffer: TimeRing,
    /// Completion times of the last [`WINDOW`] instructions.
    completions: [u64; WINDOW],
}

impl Pipeline<Cache<PolicyKind>> {
    /// A pipeline with the conventional LRU L2 of the paper's baseline.
    pub fn with_lru_l2(config: CpuConfig) -> Self {
        let geom = Geometry::new(
            config.l2.size_bytes,
            config.l2.line_bytes,
            config.l2.associativity,
        )
        .expect("invalid L2 geometry");
        Pipeline::new(config, Cache::new(geom, PolicyKind::Lru, 0x12))
    }
}

impl<L2: CacheModel> Pipeline<L2> {
    /// Builds a pipeline around an arbitrary L2 organisation.
    pub fn new(config: CpuConfig, l2: L2) -> Self {
        Pipeline::with_hierarchy(config, Hierarchy::new(&config, l2))
    }
}

impl<L2: CacheModel, L1I: CacheModel, L1D: CacheModel> Pipeline<L2, L1I, L1D> {
    /// Builds a pipeline around a fully custom memory hierarchy.
    ///
    /// # Panics
    ///
    /// If `config`'s L1 line sizes are not powers of two (which
    /// [`Geometry::new`] rejects for the L1s [`Hierarchy::new`] builds).
    pub fn with_hierarchy(config: CpuConfig, hierarchy: Hierarchy<L2, L1I, L1D>) -> Self {
        Pipeline {
            hierarchy,
            predictor: BranchPredictor::paper_default(),
            costs: Costs::new(&config),
            state: Timing::new(),
            units: Units::new(&config),
            mshrs: vec![0; config.mshrs.max(1) as usize],
            rob: TimeRing::new(config.rob_entries as usize),
            rs: TimeRing::new(config.rs_entries as usize),
            store_buffer: TimeRing::new(config.store_buffer_entries as usize),
            wb_buffer: TimeRing::new(config.writeback_buffer_entries as usize),
            completions: [0; WINDOW],
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Cycles elapsed so far (retirement time of the newest instruction).
    pub fn cycles(&self) -> u64 {
        self.state.last_retire
    }

    /// Instructions processed so far.
    pub fn instructions(&self) -> u64 {
        self.state.insts
    }

    /// The L2 organisation (for inspection).
    pub fn l2(&self) -> &L2 {
        self.hierarchy.l2()
    }

    /// Mutable access to the L2 organisation (phase sampling).
    pub fn l2_mut(&mut self) -> &mut L2 {
        self.hierarchy.l2_mut()
    }

    /// Completion time of a load that missed the L1 and leaves the core
    /// at `start`, served at `level` (L2 or memory). Memory transfers
    /// occupy the bus, and dirty L2 victims claim writeback-buffer
    /// entries first.
    #[inline(always)]
    fn miss_time(&mut self, st: &mut Timing, level: Level, start: u64, extra_wbs: u32) -> u64 {
        let k = self.costs;
        let request = start + k.l2_request;
        if level != Level::Memory {
            return request;
        }
        let mut bus_grant = request.max(st.bus_free);
        // Dirty L2 victims need a writeback-buffer entry before the fill
        // can proceed (footnote 5: pre-reserved entries prevent
        // deadlocking the hierarchy's queues).
        for _ in 0..extra_wbs {
            bus_grant = bus_grant.max(self.wb_buffer.oldest(st.wb_at));
            st.wb_at = self.wb_buffer.push(st.wb_at, bus_grant + k.transfer);
        }
        // The response transfer occupies the bus; writebacks add further
        // occupancy behind it.
        st.bus_free = bus_grant + k.transfer * u64::from(1 + extra_wbs);
        bus_grant + k.mem_latency + k.transfer
    }

    /// Processes one instruction and returns its retirement time: the
    /// body shared by [`Pipeline::step`] and [`Pipeline::run`].
    #[inline(always)]
    fn advance(&mut self, st: &mut Timing, inst: &Inst) -> u64 {
        let k = self.costs;
        let idx = st.insts;
        st.insts += 1;

        // ---- FETCH ----
        let iblock = inst.pc >> k.iblock_shift;
        if iblock != st.last_iblock {
            st.last_iblock = iblock;
            let level = self.hierarchy.inst_fetch(inst.pc).level;
            st.fetch_time += k.fetch_penalty[level as usize];
            st.fetch_slots = 0;
        }
        let full = st.fetch_slots >= k.width;
        st.fetch_time += u64::from(full);
        st.fetch_slots = if full { 1 } else { st.fetch_slots + 1 };
        let fetch = st.fetch_time;

        // ---- DISPATCH (ROB/RS window constraints) ----
        let dispatch = (fetch + k.front_depth)
            .max(self.rob.oldest(st.rob_at))
            .max(self.rs.oldest(st.rs_at));

        // ---- operand readiness ----
        let mut ready = dispatch;
        for d in inst.deps.map(u64::from) {
            let producer = self.completions[idx.wrapping_sub(d) as usize & (WINDOW - 1)];
            ready = ready.max(if d != 0 && d <= idx { producer } else { 0 });
        }

        // ---- ISSUE + EXECUTE ----
        let (issue, latency) = self.units.issue(class_of(&inst.kind), ready);
        let mut complete = issue + latency;
        let mut drain_cost = None;
        match inst.kind {
            InstKind::Load { addr } => {
                let acc = self.hierarchy.data_access(addr, false);
                if acc.level != Level::L1 {
                    // A miss occupies an MSHR for its whole lifetime,
                    // bounding how many misses overlap (MLP).
                    let (slot, free) = first_min(&self.mshrs);
                    let start = issue.max(free);
                    complete = self.miss_time(st, acc.level, start, acc.memory_writebacks);
                    self.mshrs[slot] = complete;
                }
            }
            InstKind::Store { addr } => {
                // Record the access now (program order); its data drains
                // after retirement (below).
                let level = self.hierarchy.data_access(addr, true).level;
                let line = addr >> k.line_shift;
                // Coalesced into the previous entry: trivial drain.
                let merged = k.write_combining && line == st.last_store_line;
                st.wc_merged += u64::from(merged);
                drain_cost = Some(if merged {
                    1
                } else {
                    k.drain_cost[level as usize]
                });
                st.last_store_line = line;
            }
            InstKind::Branch { taken, target } => {
                let (correct, btb_hit) = self.predictor.predict_and_update(inst.pc, taken, target);
                if !correct {
                    // Redirect: fetch restarts after resolution.
                    st.fetch_time = st.fetch_time.max(complete + k.mispredict_penalty);
                    st.fetch_slots = 0;
                    st.last_iblock = u64::MAX;
                } else if taken && !btb_hit {
                    // Correct direction but unknown target: short bubble.
                    st.fetch_time = st.fetch_time.max(fetch + k.front_depth);
                    st.fetch_slots = 0;
                }
            }
            _ => {}
        }
        self.completions[idx as usize & (WINDOW - 1)] = complete;
        // RS entry freed at issue/complete.
        st.rs_at = self.rs.push(st.rs_at, complete.max(ready));

        // ---- RETIRE (in order, width per cycle) ----
        let mut retire = complete.max(st.last_retire);
        let same = retire == st.retire_cycle;
        let slots = if same { st.retire_slots + 1 } else { 1 };
        let bump = same & (slots >= k.width);
        retire += u64::from(bump);
        st.retire_cycle = retire;
        st.retire_slots = if bump { 0 } else { slots };

        // Stores claim a store-buffer slot at retirement.
        if let Some(cost) = drain_cost {
            let slot_free = self.store_buffer.oldest(st.sb_at);
            if slot_free > retire {
                st.sb_stall_cycles += slot_free - retire;
                retire = slot_free;
                st.retire_cycle = retire;
                st.retire_slots = 1;
            }
            st.last_drain_end = retire.max(st.last_drain_end) + cost;
            st.sb_at = self.store_buffer.push(st.sb_at, st.last_drain_end);
        }

        st.last_retire = retire;
        st.rob_at = self.rob.push(st.rob_at, retire);
        retire
    }

    /// Processes one instruction and returns its retirement time.
    pub fn step(&mut self, inst: &Inst) -> u64 {
        let mut st = self.state;
        let retire = self.advance(&mut st, inst);
        self.state = st;
        retire
    }

    /// Store-buffer occupancy at cycle `now`.
    fn gauges(&self, now: u64) -> ac_telemetry::TimelineGauges {
        ac_telemetry::TimelineGauges {
            sb_busy: busy_at(&self.store_buffer.times, now),
        }
    }

    /// Runs `max_insts` instructions from `trace` and reports statistics.
    pub fn run<I: Iterator<Item = Inst>>(&mut self, mut trace: I, max_insts: u64) -> RunStats {
        let _span = ac_telemetry::span("cpu", || {
            format!("pipeline_run {}", self.hierarchy.l2().label())
        });
        // Ticks in cycles; window boundaries also sample store-buffer
        // occupancy at the current retirement time.
        let mut timeline = ac_telemetry::Timeline::from_hub("cycles", || {
            format!("pipeline {}", self.hierarchy.l2().label())
        });
        let mut st = self.state;
        // The budget counts in u64, like `run_functional`'s:
        // `take(max_insts as usize)` truncates it on 32-bit hosts.
        for _ in 0..max_insts {
            let Some(inst) = trace.next() else { break };
            let now = self.advance(&mut st, &inst);
            if let Some(tl) = timeline.as_mut() {
                if tl.due(now) {
                    let probe = self.hierarchy.l2().timeline_probe();
                    tl.record(now, st.insts, probe, self.gauges(now));
                }
            }
        }
        self.state = st;
        if let Some(tl) = timeline.take() {
            let now = st.last_retire;
            let probe = self.hierarchy.l2().timeline_probe();
            tl.finish(now, st.insts, probe, self.gauges(now));
        }
        let stats = self.stats();
        if ac_telemetry::enabled() {
            self.hierarchy.l2().flush_telemetry();
            ac_telemetry::counter_add("pipeline_instructions_total", stats.instructions);
            ac_telemetry::counter_add("pipeline_cycles_total", stats.cycles);
        }
        stats
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.state.insts,
            cycles: self.state.last_retire,
            l1i: *self.hierarchy.l1i_stats(),
            l1d: *self.hierarchy.l1d_stats(),
            l2: *self.hierarchy.l2().stats(),
            branches: self.predictor.stats(),
            sb_stall_cycles: self.state.sb_stall_cycles,
            wc_merged_stores: self.state.wc_merged,
            l2_label: self.hierarchy.l2().label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{primary_suite, MixSpec};

    fn pipe() -> Pipeline<Cache<PolicyKind>> {
        Pipeline::with_lru_l2(CpuConfig::paper_default())
    }

    fn alu(pc: u64) -> Inst {
        Inst::free(pc, InstKind::IntAlu)
    }

    #[test]
    fn ideal_ilp_approaches_width() {
        // Independent single-cycle ALU ops in a tiny loop: throughput is
        // bounded by the 4 integer ALUs (CPI 0.25), not the 8-wide front
        // end — exactly Table 1's resource mix.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..200_000u64)
            .map(|i| alu(0x40_0000 + (i % 16) * 4))
            .collect();
        let s = p.run(insts.into_iter(), 200_000);
        let cpi = s.cpi();
        assert!(cpi < 0.27, "ALU-bound CPI should be ~0.25, got {cpi}");
        assert!(cpi >= 0.25 - 0.01, "CPI cannot beat the 4 ALUs, got {cpi}");
    }

    #[test]
    fn serial_dependencies_bound_cpi_to_one() {
        // Every op depends on its predecessor: CPI ~ 1 regardless of width.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::IntAlu,
                deps: [1, 0],
            })
            .collect();
        let s = p.run(insts.into_iter(), 50_000);
        assert!(
            s.cpi() > 0.9,
            "serial chain must serialise, cpi={}",
            s.cpi()
        );
        assert!(
            s.cpi() < 1.3,
            "chain of 1-cycle ops stays near 1, cpi={}",
            s.cpi()
        );
    }

    #[test]
    fn long_latency_serial_ops_scale_cpi() {
        // Serial FP divides: ~16 cycles each.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..5_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::FpDiv,
                deps: [1, 0],
            })
            .collect();
        let s = p.run(insts.into_iter(), 5_000);
        assert!(s.cpi() > 14.0, "serial fdiv cpi={}", s.cpi());
    }

    #[test]
    fn cache_missing_loads_raise_cpi() {
        let mut hot = pipe();
        let hot_insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::Load { addr: (i % 8) * 64 },
                deps: [1, 0],
            })
            .collect();
        let s_hot = hot.run(hot_insts.into_iter(), 50_000);

        let mut cold = pipe();
        let cold_insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::Load {
                    // Pointer-chase-like: every load leaves the L2.
                    addr: (i * 947) % (4 << 20),
                },
                deps: [1, 0],
            })
            .collect();
        let s_cold = cold.run(cold_insts.into_iter(), 50_000);
        assert!(
            s_cold.cpi() > s_hot.cpi() * 10.0,
            "memory-bound {} vs cache-resident {}",
            s_cold.cpi(),
            s_hot.cpi()
        );
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        // Independent missing loads should overlap up to the MSHR count,
        // giving far better CPI than dependent ones.
        let mk = |dep: u8| -> Vec<Inst> {
            (0..30_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: InstKind::Load {
                        addr: (i * 947) % (4 << 20),
                    },
                    deps: [dep, 0],
                })
                .collect()
        };
        let s_ind = pipe().run(mk(0).into_iter(), 30_000);
        let s_dep = pipe().run(mk(1).into_iter(), 30_000);
        assert!(
            s_ind.cpi() * 2.0 < s_dep.cpi(),
            "independent misses {} vs serial misses {}",
            s_ind.cpi(),
            s_dep.cpi()
        );
    }

    #[test]
    fn store_buffer_pressure_stalls() {
        // A store-heavy stream with L2-missing stores: a 1-entry store
        // buffer must stall retirement far more than a 64-entry one.
        let mk = || -> Vec<Inst> {
            (0..30_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: if i % 2 == 0 {
                        InstKind::Store {
                            addr: (i * 947) % (4 << 20),
                        }
                    } else {
                        InstKind::IntAlu
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let small = Pipeline::with_lru_l2(CpuConfig::paper_default().store_buffer(1))
            .run(mk().into_iter(), 30_000);
        let big = Pipeline::with_lru_l2(CpuConfig::paper_default().store_buffer(64))
            .run(mk().into_iter(), 30_000);
        assert!(
            small.cycles > big.cycles,
            "1-entry SB {} cycles vs 64-entry {} cycles",
            small.cycles,
            big.cycles
        );
        assert!(small.sb_stall_cycles > big.sb_stall_cycles);
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        let mk = |hard: f64| -> Vec<Inst> {
            let spec = workloads::WorkloadSpec {
                pattern: workloads::AccessPattern::single(workloads::BasePattern::LinearScan {
                    region_blocks: 64,
                    stride: 1,
                }),
                mix: MixSpec {
                    mem_ratio: 0.05,
                    branch_ratio: 0.3,
                    hard_branch_frac: hard,
                    ..MixSpec::int_default()
                },
                code: workloads::CodeSpec::kernel(),
                seed: 5,
            };
            spec.generator().take(100_000).collect()
        };
        let easy = pipe().run(mk(0.0).into_iter(), 100_000);
        let hard = pipe().run(mk(1.0).into_iter(), 100_000);
        assert!(hard.branches.miss_rate() > easy.branches.miss_rate() + 0.1);
        assert!(
            hard.cycles > easy.cycles,
            "mispredictions must cost: {} vs {}",
            hard.cycles,
            easy.cycles
        );
    }

    #[test]
    fn icache_footprint_matters() {
        // A code footprint far beyond 16 KB causes I-cache misses and
        // lowers fetch throughput.
        let mk = |code: workloads::CodeSpec| -> Vec<Inst> {
            let spec = workloads::WorkloadSpec {
                pattern: workloads::AccessPattern::single(workloads::BasePattern::LinearScan {
                    region_blocks: 64,
                    stride: 1,
                }),
                mix: MixSpec::int_default(),
                code,
                seed: 6,
            };
            spec.generator().take(100_000).collect()
        };
        let small = pipe().run(mk(workloads::CodeSpec::kernel()).into_iter(), 100_000);
        let large = pipe().run(mk(workloads::CodeSpec::large()).into_iter(), 100_000);
        assert!(large.l1i.misses > small.l1i.misses * 5);
        assert!(large.cycles > small.cycles);
    }

    #[test]
    fn runs_every_primary_benchmark() {
        for b in primary_suite().iter().take(4) {
            let mut p = pipe();
            let s = p.run(b.spec.generator(), 20_000);
            assert_eq!(s.instructions, 20_000, "{}", b.name);
            assert!(
                s.cpi() > 0.1 && s.cpi() < 100.0,
                "{}: cpi={}",
                b.name,
                s.cpi()
            );
        }
    }

    #[test]
    fn deterministic_cycles() {
        let b = &primary_suite()[2];
        let run = || pipe().run(b.spec.generator(), 30_000).cycles;
        assert_eq!(run(), run());
    }

    #[test]
    fn time_ring_semantics() {
        // (ring size, pushes, the oldest entry after each push)
        let cases: [(usize, &[u64], &[u64]); 2] = [
            (2, &[5, 9, 11], &[0, 5, 9]),
            (3, &[5, 9, 11, 13, 17], &[0, 0, 5, 9, 11]),
        ];
        for (len, pushes, oldest) in cases {
            let mut r = TimeRing::new(len);
            let mut at = 0;
            assert_eq!(r.oldest(at), 0);
            for (&t, &want) in pushes.iter().zip(oldest) {
                at = r.push(at, t);
                assert_eq!(r.oldest(at), want, "size {len}, after pushing {t}");
            }
        }
    }

    #[test]
    fn pool_grants_in_parallel_up_to_capacity() {
        // Integer divides hold their unit for the latency, here 5.
        let two = CpuConfig {
            int_mul_units: 2,
            lat_int_mul: 5,
            ..CpuConfig::paper_default()
        };
        let div = class_of(&InstKind::IntDiv);
        let mut u = Units::new(&two);
        assert_eq!(u.issue(div, 10), (10, 5));
        assert_eq!(u.issue(div, 10), (10, 5), "second unit free");
        assert_eq!(u.issue(div, 10), (15, 5), "third request waits");
        // Both units were free at 15: the tie went to the first.
        let base = u.class[div].0;
        assert_eq!(u.free_at[base..base + 2], [20, 15]);

        // One FP divider in a four-wide table: its three padding slots
        // never grant. Zero dividers act as one.
        let fdiv = class_of(&InstKind::FpDiv);
        for units in [1, 0] {
            let c = CpuConfig {
                fp_div_units: units,
                ..CpuConfig::paper_default()
            };
            let mut u = Units::new(&c);
            assert_eq!(u.width, 4);
            assert_eq!(u.issue(fdiv, 0), (0, 16));
            assert_eq!(u.issue(fdiv, 0), (16, 16), "{units} units: one divider");
        }

        // Five ALUs widen every pool to five: the fifth ALU grants, and
        // the four-unit multiplier pool's padding slot never does.
        let five = CpuConfig {
            int_alu_units: 5,
            ..CpuConfig::paper_default()
        };
        let mut u = Units::new(&five);
        assert_eq!(u.width, 5);
        for (kind, want) in [
            (InstKind::IntAlu, [0, 0, 0, 0, 0, 1]),
            (InstKind::IntMul, [0, 0, 0, 0, 1, 1]),
        ] {
            let class = class_of(&kind);
            let grants = want.map(|_| u.issue(class, 0).0);
            assert_eq!(grants, want, "{kind:?}");
        }
    }
}

#[cfg(test)]
mod writeback_buffer_tests {
    use super::*;

    /// A dirty streaming workload: every L2 fill evicts a dirty line, so
    /// writeback-buffer pressure is constant. A 1-entry buffer must cost
    /// cycles against a large one.
    #[test]
    fn tiny_writeback_buffer_costs_cycles() {
        let mk = || -> Vec<Inst> {
            (0..60_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: if i % 2 == 0 {
                        InstKind::Store {
                            addr: (i / 2) * 64 % (4 << 20),
                        }
                    } else {
                        InstKind::Load {
                            addr: (8 << 20) + (i / 2) * 64 % (4 << 20),
                        }
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let tiny = Pipeline::with_lru_l2(CpuConfig::paper_default().writeback_buffer(1))
            .run(mk().into_iter(), 60_000);
        let big = Pipeline::with_lru_l2(CpuConfig::paper_default().writeback_buffer(64))
            .run(mk().into_iter(), 60_000);
        assert!(
            tiny.cycles >= big.cycles,
            "1-entry WB buffer {} must not beat 64-entry {}",
            tiny.cycles,
            big.cycles
        );
    }

    #[test]
    #[should_panic(expected = "writeback buffer")]
    fn zero_writeback_buffer_rejected() {
        let _ = CpuConfig::paper_default().writeback_buffer(0);
    }
}

#[cfg(test)]
mod write_combining_tests {
    use super::*;

    /// Stores walking a line one word at a time: write combining should
    /// merge the same-line stores and sharply reduce drain pressure.
    #[test]
    fn write_combining_merges_same_line_stores() {
        let mk = || -> Vec<Inst> {
            (0..40_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: InstKind::Store {
                        // 8 consecutive words per line, lines from a
                        // large region so drains are expensive.
                        addr: (i / 8) * 64 + (i % 8) * 8 + ((i / 8) * 977 % (4 << 20)),
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let base = Pipeline::with_lru_l2(CpuConfig::paper_default()).run(mk().into_iter(), 40_000);
        let wc = Pipeline::with_lru_l2(CpuConfig::paper_default().write_combining(true))
            .run(mk().into_iter(), 40_000);
        assert_eq!(base.wc_merged_stores, 0);
        assert!(
            wc.wc_merged_stores > 30_000,
            "merged {}",
            wc.wc_merged_stores
        );
        assert!(
            wc.cycles < base.cycles,
            "write combining must relieve the store buffer ({} vs {})",
            wc.cycles,
            base.cycles
        );
    }

    /// With combining disabled the two configurations are identical.
    #[test]
    fn combining_flag_defaults_off_and_is_pure() {
        let b = workloads::primary_suite().remove(1);
        let s1 = Pipeline::with_lru_l2(CpuConfig::paper_default()).run(b.spec.generator(), 30_000);
        let s2 = Pipeline::with_lru_l2(CpuConfig::paper_default().write_combining(false))
            .run(b.spec.generator(), 30_000);
        assert_eq!(s1, s2);
    }
}
