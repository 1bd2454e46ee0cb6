//! The two-level memory hierarchy: split 16 KB L1 I/D caches in front of
//! a unified L2 with a pluggable replacement organisation.

use crate::config::{CacheParams, CpuConfig};
use crate::prefetch::{PrefetchEngine, PrefetchStats, Prefetcher};
use cache_sim::{Address, BlockAddr, Cache, CacheModel, CacheStats, Geometry, PolicyKind};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A trivial identity [`Hasher`] for block-address sets.
///
/// Block addresses are already well-distributed cache-line indices;
/// running them through SipHash on the L2 miss path buys nothing. This
/// hasher forwards the integer unchanged (dependency-free equivalent of
/// the usual `nohash`/`fxhash` crates).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reachable for non-integer keys; fold bytes so the hasher
        // stays correct (if degraded) for them.
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = v as u64;
    }
}

/// A `HashSet<u64>` keyed through [`IdentityHasher`].
pub type BlockSet = HashSet<u64, BuildHasherDefault<IdentityHasher>>;

/// The level that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Level {
    /// Served by the first-level cache.
    L1,
    /// Served by the unified second-level cache.
    L2,
    /// Served by main memory.
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierAccess {
    /// Where the data came from.
    pub level: Level,
    /// Dirty L2 lines written back to memory by this access (bus traffic).
    pub memory_writebacks: u32,
}

/// The memory hierarchy. Every level is any [`CacheModel`] — plain
/// [`Cache`]s, `adaptive_cache::AdaptiveCache`s (the paper's Section 4.6
/// also evaluates adaptive L1s), SBAR caches, etc. The L1 parameters
/// default to conventional LRU caches built from the [`CpuConfig`].
#[derive(Debug)]
pub struct Hierarchy<
    L2: CacheModel,
    L1I: CacheModel = Cache<PolicyKind>,
    L1D: CacheModel = Cache<PolicyKind>,
> {
    l1i: L1I,
    l1d: L1D,
    l1i_geom: Geometry,
    l1d_geom: Geometry,
    l2x: L2Complex<L2>,
}

/// The L2 side of the hierarchy: the organisation under test plus the
/// demand-miss counter and optional prefetcher bookkeeping.
///
/// Split out of [`Hierarchy`] so the memoised-stream replay driver
/// ([`crate::replay`]) runs the *same* code the front-end-attached
/// hierarchy runs — demand accounting and prefetch scoring behave
/// identically by construction, not by duplication.
#[derive(Debug)]
pub struct L2Complex<L2: CacheModel> {
    l2: L2,
    geom: Geometry,
    /// Demand misses at the L2 (excludes prefetch traffic).
    demand_misses: u64,
    /// Optional L2 prefetcher + usefulness bookkeeping.
    prefetcher: Option<PrefetchEngine>,
    prefetched: BlockSet,
    pf_stats: PrefetchStats,
}

impl<L2: CacheModel> L2Complex<L2> {
    /// Wraps an L2 organisation with demand/prefetch bookkeeping.
    pub fn new(l2: L2) -> L2Complex<L2> {
        L2Complex {
            geom: *l2.geometry(),
            l2,
            demand_misses: 0,
            prefetcher: None,
            prefetched: BlockSet::default(),
            pf_stats: PrefetchStats::default(),
        }
    }

    /// Attaches (or detaches) an L2 prefetcher.
    pub fn set_prefetcher(&mut self, engine: Option<PrefetchEngine>) {
        if engine.is_some() {
            // Entries only exist for L2-resident lines (inserted after a
            // prefetch fill, retired on demand hit or any eviction), so
            // the line count bounds the set: reserving it up front keeps
            // the steady-state access loop free of table resizes.
            let lines = self.geom.num_sets() * self.geom.associativity();
            self.prefetched
                .reserve(lines.saturating_sub(self.prefetched.len()));
        }
        self.prefetcher = engine;
    }

    /// Demand L2 misses so far (prefetch fills excluded).
    pub fn demand_misses(&self) -> u64 {
        self.demand_misses
    }

    /// Prefetch usefulness statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.pf_stats
    }

    /// The wrapped organisation.
    pub fn l2(&self) -> &L2 {
        &self.l2
    }

    /// Mutable access to the wrapped organisation.
    pub fn l2_mut(&mut self) -> &mut L2 {
        &mut self.l2
    }

    /// Consumes the complex, returning the organisation.
    pub fn into_inner(self) -> L2 {
        self.l2
    }

    /// Hints that byte address `addr` will be referenced shortly:
    /// forwards a host-side read prefetch of the L2's own lookup state
    /// (directory records, replacement metadata — see
    /// [`CacheModel::prefetch_hint`]). Changes no simulated state; replay
    /// loops call it one event ahead to overlap the record fetches.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        self.l2
            .prefetch_hint(self.geom.block_of(Address::new(addr)));
    }

    /// A demand fill from byte address `addr` (allocating on miss);
    /// returns the serving level.
    pub fn fill(&mut self, addr: u64) -> HierAccess {
        let block = self.geom.block_of(Address::new(addr));
        let out = self.l2.access(block, false);
        if !out.hit {
            self.demand_misses += 1;
        }
        self.score_and_prefetch(block, out.hit, out.eviction);
        let memory_writebacks = u32::from(out.eviction.map(|e| e.dirty).unwrap_or(false));
        HierAccess {
            level: if out.hit { Level::L2 } else { Level::Memory },
            memory_writebacks,
        }
    }

    /// An L1 dirty-eviction writeback of byte address `addr`; returns
    /// the number of memory writebacks it caused in turn.
    pub fn write_back(&mut self, addr: u64) -> u32 {
        let block = self.geom.block_of(Address::new(addr));
        let out = self.l2.access(block, true);
        if !out.hit {
            self.demand_misses += 1;
        }
        // A writeback is not a demand fetch — it neither scores the
        // accessed block nor consults the prefetcher — but its eviction
        // can still displace a prefetched line, which must be retired
        // here or the bookkeeping set leaks an entry per occurrence.
        if self.prefetcher.is_some() {
            if let Some(ev) = out.eviction {
                if self.prefetched.remove(&ev.block.raw()) {
                    self.pf_stats.useless += 1;
                }
            }
        }
        u32::from(out.eviction.map(|e| e.dirty).unwrap_or(false))
    }

    /// Prefetch bookkeeping around a demand L2 access: score usefulness,
    /// retire evicted prefetches, and issue the next proposal.
    fn score_and_prefetch(
        &mut self,
        block: BlockAddr,
        hit: bool,
        eviction: Option<cache_sim::Eviction>,
    ) {
        if self.prefetcher.is_none() {
            return;
        }
        if let Some(ev) = eviction {
            if self.prefetched.remove(&ev.block.raw()) {
                self.pf_stats.useless += 1;
            }
        }
        if hit && self.prefetched.remove(&block.raw()) {
            self.pf_stats.useful += 1;
        }
        if !hit {
            let proposal = self
                .prefetcher
                .as_mut()
                .expect("checked above")
                .on_miss(block);
            if let Some(p) = proposal {
                let out = self.l2.access(p, false);
                if !out.hit {
                    self.pf_stats.issued += 1;
                    self.prefetched.insert(p.raw());
                    if let Some(ev) = out.eviction {
                        if self.prefetched.remove(&ev.block.raw()) {
                            self.pf_stats.useless += 1;
                        }
                    }
                }
            }
        }
    }
}

pub(crate) fn build_l1(p: CacheParams, seed: u64) -> (Cache<PolicyKind>, Geometry) {
    let geom =
        Geometry::new(p.size_bytes, p.line_bytes, p.associativity).expect("invalid L1 geometry");
    (Cache::new(geom, PolicyKind::Lru, seed), geom)
}

/// Geometry for an L1 level of `config` (used when supplying custom L1
/// organisations to [`Hierarchy::with_l1s`]).
pub fn l1_geometry(p: CacheParams) -> Geometry {
    Geometry::new(p.size_bytes, p.line_bytes, p.associativity).expect("invalid L1 geometry")
}

impl<L2: CacheModel> Hierarchy<L2> {
    /// Builds the hierarchy around an existing L2 organisation, with the
    /// conventional LRU L1s of the paper's Table 1.
    pub fn new(config: &CpuConfig, l2: L2) -> Self {
        let (l1i, l1i_geom) = build_l1(config.l1i, L1I_SEED);
        let (l1d, l1d_geom) = build_l1(config.l1d, L1D_SEED);
        Hierarchy {
            l1i,
            l1d,
            l1i_geom,
            l1d_geom,
            l2x: L2Complex::new(l2),
        }
    }
}

/// Seed of the default L1 instruction cache built by [`Hierarchy::new`].
pub(crate) const L1I_SEED: u64 = 0x11;
/// Seed of the default L1 data cache built by [`Hierarchy::new`].
pub(crate) const L1D_SEED: u64 = 0x1D;

impl<L2: CacheModel, L1I: CacheModel, L1D: CacheModel> Hierarchy<L2, L1I, L1D> {
    /// Builds the hierarchy with custom L1 organisations (paper Section
    /// 4.6 evaluates LRU/LFU-adaptive L1 instruction and data caches).
    pub fn with_l1s(l1i: L1I, l1d: L1D, l2: L2) -> Self {
        Hierarchy {
            l1i_geom: *l1i.geometry(),
            l1d_geom: *l1d.geometry(),
            l1i,
            l1d,
            l2x: L2Complex::new(l2),
        }
    }

    /// Attaches an L2 prefetcher (the future-work experiment of the
    /// paper's Section 6; see [`crate::prefetch`]). Prefetch fills go
    /// through the L2's normal replacement path but are excluded from
    /// [`Hierarchy::demand_l2_misses`].
    pub fn set_prefetcher(&mut self, engine: Option<PrefetchEngine>) {
        self.l2x.set_prefetcher(engine);
    }

    /// L2 misses caused by demand traffic only (instruction fetches, data
    /// accesses, L1 writebacks) — prefetch fills excluded.
    pub fn demand_l2_misses(&self) -> u64 {
        self.l2x.demand_misses()
    }

    /// Prefetch usefulness statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.l2x.prefetch_stats()
    }

    /// The L2 organisation.
    pub fn l2(&self) -> &L2 {
        self.l2x.l2()
    }

    /// Mutable access to the L2 (e.g. for Figure 7 phase sampling).
    pub fn l2_mut(&mut self) -> &mut L2 {
        self.l2x.l2_mut()
    }

    /// L1 instruction-cache statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L1 data-cache statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// The L1 instruction-cache organisation.
    pub fn l1i(&self) -> &L1I {
        &self.l1i
    }

    /// The L1 data-cache organisation.
    pub fn l1d(&self) -> &L1D {
        &self.l1d
    }

    /// Consumes the hierarchy, returning the L2.
    pub fn into_l2(self) -> L2 {
        self.l2x.into_inner()
    }

    /// One instruction fetch of the block containing `pc`.
    pub fn inst_fetch(&mut self, pc: u64) -> HierAccess {
        let block = self.l1i_geom.block_of(Address::new(pc));
        let out = self.l1i.access(block, false);
        if out.hit {
            return HierAccess {
                level: Level::L1,
                memory_writebacks: 0,
            };
        }
        // Instruction lines are never dirty; the L1I eviction needs no
        // writeback. Fill from the unified L2.
        self.l2x.fill(pc)
    }

    /// One data access to `addr`.
    pub fn data_access(&mut self, addr: u64, write: bool) -> HierAccess {
        let block = self.l1d_geom.block_of(Address::new(addr));
        let out = self.l1d.access(block, write);
        let mut wbs = 0;
        if let Some(ev) = out.eviction {
            if ev.dirty {
                // Write the evicted L1 line back into the L2.
                let byte = ev.block.raw() << self.l1d_geom.offset_bits();
                wbs += self.l2x.write_back(byte);
            }
        }
        if out.hit {
            return HierAccess {
                level: Level::L1,
                memory_writebacks: wbs,
            };
        }
        let mut fill = self.l2x.fill(addr);
        fill.memory_writebacks += wbs;
        fill
    }
}

/// Statistics from a functional (timing-free) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionalStats {
    /// Instructions consumed.
    pub instructions: u64,
    /// Data reads / writes issued to the hierarchy.
    pub data_accesses: u64,
    /// Instruction-block fetches issued.
    pub inst_fetches: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// L2 misses (demand, from both I and D sides).
    pub l2_misses: u64,
}

impl FunctionalStats {
    /// L2 misses per thousand instructions.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Drives a hierarchy with a trace **without timing** — exactly the same
/// reference stream the full pipeline would produce, at a fraction of the
/// cost. Used for miss-rate-only experiments (Figures 3, 5, 8) and the
/// 100-program extended set.
pub fn run_functional<L2, L1I, L1D, I>(
    hierarchy: &mut Hierarchy<L2, L1I, L1D>,
    trace: I,
    max_insts: u64,
) -> FunctionalStats
where
    L2: CacheModel,
    L1I: CacheModel,
    L1D: CacheModel,
    I: Iterator<Item = workloads::Inst>,
{
    let _span = ac_telemetry::span("cpu", || {
        format!("functional_run {}", hierarchy.l2().label())
    });
    let mut stats = FunctionalStats::default();
    let started = std::time::Instant::now();
    // Ticks in retired instructions, so a replay closes the same windows
    // from the instruction index of each captured event; `None` unless a
    // hub with timelines enabled is installed, so the disabled path
    // costs one branch per instruction.
    let mut timeline = ac_telemetry::Timeline::from_hub("instructions", || {
        format!("functional {}", hierarchy.l2().label())
    });
    let mut last_iblock = u64::MAX;
    // Explicit u64 budget: `Iterator::take` counts in usize, which would
    // silently truncate budgets above 4G-1 instructions on 32-bit hosts.
    let mut trace = trace;
    while stats.instructions < max_insts {
        let Some(inst) = trace.next() else { break };
        stats.instructions += 1;
        let iblock = inst.pc / hierarchy.l1i_geom.line_bytes() as u64;
        if iblock != last_iblock {
            last_iblock = iblock;
            stats.inst_fetches += 1;
            hierarchy.inst_fetch(inst.pc);
        }
        if let Some(addr) = inst.mem_addr() {
            stats.data_accesses += 1;
            let write = matches!(inst.kind, workloads::InstKind::Store { .. });
            hierarchy.data_access(addr, write);
        }
        if let Some(tl) = timeline.as_mut() {
            if tl.due(stats.instructions) {
                tl.record(
                    stats.instructions,
                    stats.instructions,
                    hierarchy.l2().timeline_probe(),
                    ac_telemetry::TimelineGauges::default(),
                );
            }
        }
    }
    if let Some(tl) = timeline {
        tl.finish(
            stats.instructions,
            stats.instructions,
            hierarchy.l2().timeline_probe(),
            ac_telemetry::TimelineGauges::default(),
        );
    }
    stats.l1d_misses = hierarchy.l1d_stats().misses;
    stats.l1i_misses = hierarchy.l1i_stats().misses;
    // Count only demand misses at the L2 (instruction fetches, data
    // accesses and L1 writebacks); prefetch fills are excluded.
    stats.l2_misses = hierarchy.demand_l2_misses();
    if ac_telemetry::enabled() {
        hierarchy.l2().flush_telemetry();
        ac_telemetry::counter_add("functional_instructions_total", stats.instructions);
        // Simulation throughput over the cache access stream (fetch-block
        // lookups + data references), for spotting engine regressions in
        // dashboards without a dedicated bench run.
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            ac_telemetry::gauge_set(
                "engine.accesses_per_sec",
                (stats.inst_fetches + stats.data_accesses) as f64 / secs,
            );
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{primary_suite, Inst, InstKind};

    fn hier() -> Hierarchy<Cache<PolicyKind>> {
        let cfg = CpuConfig::paper_default();
        let geom =
            Geometry::new(cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.l2.associativity).unwrap();
        Hierarchy::new(&cfg, Cache::new(geom, PolicyKind::Lru, 7))
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = hier();
        assert_eq!(h.data_access(0x4000, false).level, Level::Memory);
        assert_eq!(h.data_access(0x4000, false).level, Level::L1);
        assert_eq!(h.data_access(0x4008, false).level, Level::L1, "same line");
    }

    #[test]
    fn l2_serves_l1_conflicts() {
        let mut h = hier();
        // L1D is 16KB 4-way (64 sets): blocks 64 sets apart conflict.
        // Touch 5 conflicting lines: L1 evicts, L2 still holds them.
        let stride = 64 * 64; // one L1 set apart
        for i in 0..5u64 {
            h.data_access(i * stride, false);
        }
        assert_eq!(h.data_access(0, false).level, Level::L2);
    }

    #[test]
    fn dirty_l1_eviction_updates_l2() {
        let mut h = hier();
        let stride = 64 * 64;
        h.data_access(0, true); // dirty in L1
        for i in 1..5u64 {
            h.data_access(i * stride, false); // evicts line 0 from L1
        }
        // The writeback must have hit the L2 (it was allocated there on
        // the initial fill), keeping it present and dirty.
        assert_eq!(h.l2().stats().writebacks, 0, "nothing left L2 yet");
        assert!(h.l2().stats().hits >= 1, "L1 writeback hit the L2");
    }

    #[test]
    fn inst_fetches_fill_both_levels() {
        let mut h = hier();
        assert_eq!(h.inst_fetch(0x40_0000).level, Level::Memory);
        assert_eq!(h.inst_fetch(0x40_0000).level, Level::L1);
        assert_eq!(h.l1i_stats().misses, 1);
    }

    #[test]
    fn functional_run_counts() {
        let mut h = hier();
        let trace = (0..1000u64).map(|i| {
            Inst::free(
                0x40_0000 + (i % 16) * 4,
                InstKind::Load {
                    addr: (i % 50) * 64,
                },
            )
        });
        let s = run_functional(&mut h, trace, 1000);
        assert_eq!(s.instructions, 1000);
        assert_eq!(s.data_accesses, 1000);
        assert!(s.l2_misses >= 50, "cold misses for 50 blocks");
        assert!(s.l2_mpki() >= 50.0);
    }

    #[test]
    fn functional_run_on_real_benchmark() {
        let mut h = hier();
        let b = &primary_suite()[0];
        let s = run_functional(&mut h, b.spec.generator(), 20_000);
        assert_eq!(s.instructions, 20_000);
        assert!(s.data_accesses > 5_000);
        assert!(s.l2_misses > 0);
    }

    #[test]
    fn into_l2_returns_the_model() {
        let mut h = hier();
        h.data_access(0, false);
        let l2 = h.into_l2();
        assert_eq!(l2.stats().accesses, 1);
    }
}

#[cfg(test)]
mod prefetch_integration_tests {
    use super::*;
    use crate::prefetch::PrefetchKind;
    use workloads::{Inst, InstKind};

    fn hier_with(pf: PrefetchKind) -> Hierarchy<Cache<PolicyKind>> {
        let cfg = CpuConfig::paper_default();
        let geom =
            Geometry::new(cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.l2.associativity).unwrap();
        let mut h = Hierarchy::new(&cfg, Cache::new(geom, PolicyKind::Lru, 7));
        h.set_prefetcher(pf.build());
        h
    }

    fn streaming_trace(n: u64) -> impl Iterator<Item = Inst> {
        // A pure streaming read over a huge region: ideal for next-line.
        (0..n).map(|i| Inst::free(0x40_0000 + (i % 16) * 4, InstKind::Load { addr: i * 64 }))
    }

    #[test]
    fn next_line_prefetching_halves_streaming_misses() {
        let mut base = hier_with(PrefetchKind::None);
        let b = run_functional(&mut base, streaming_trace(100_000), 100_000);

        let mut pf = hier_with(PrefetchKind::NextLine);
        let p = run_functional(&mut pf, streaming_trace(100_000), 100_000);

        assert!(
            p.l2_misses * 3 < b.l2_misses * 2,
            "next-line should remove a big share of streaming misses ({} vs {})",
            p.l2_misses,
            b.l2_misses
        );
        let stats = pf.prefetch_stats();
        assert!(stats.issued > 10_000);
        assert!(stats.accuracy() > 0.8, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn adaptive_prefetcher_handles_strided_streams() {
        let strided = |n: u64| {
            (0..n).map(|i| {
                Inst::free(
                    0x40_0000 + (i % 16) * 4,
                    InstKind::Load { addr: i * 5 * 64 },
                )
            })
        };
        let mut base = hier_with(PrefetchKind::None);
        let b = run_functional(&mut base, strided(80_000), 80_000);
        let mut next = hier_with(PrefetchKind::NextLine);
        let nl = run_functional(&mut next, strided(80_000), 80_000);
        let mut adapt = hier_with(PrefetchKind::Adaptive);
        let a = run_functional(&mut adapt, strided(80_000), 80_000);

        // Next-line is useless on stride 5; adaptive must fall back to the
        // stride component and beat both the baseline and next-line.
        assert!(
            a.l2_misses < b.l2_misses,
            "{} vs base {}",
            a.l2_misses,
            b.l2_misses
        );
        assert!(
            a.l2_misses < nl.l2_misses,
            "{} vs next-line {}",
            a.l2_misses,
            nl.l2_misses
        );
    }

    #[test]
    fn prefetch_traffic_is_excluded_from_demand_misses() {
        let mut pf = hier_with(PrefetchKind::NextLine);
        let p = run_functional(&mut pf, streaming_trace(50_000), 50_000);
        // Raw L2 stats include prefetch fills; the demand counter must be
        // strictly smaller.
        assert!(pf.l2().stats().misses > p.l2_misses);
    }

    #[test]
    fn useless_prefetches_are_counted() {
        // Pointer-chase-like stream: next-line proposals never get used.
        let chase = (0..60_000u64).map(|i| {
            Inst::free(
                0x40_0000,
                InstKind::Load {
                    addr: (i.wrapping_mul(0x9E37_79B9) % (1 << 22)) / 64 * 64 * 64,
                },
            )
        });
        let mut pf = hier_with(PrefetchKind::NextLine);
        run_functional(&mut pf, chase, 60_000);
        let s = pf.prefetch_stats();
        assert!(s.issued > 1_000);
        assert!(
            s.accuracy() < 0.2,
            "random chase must waste prefetches, accuracy {}",
            s.accuracy()
        );
    }
}
