//! Offline adaptivity oracle: Belady/OPT and standalone component-policy
//! replays over a captured [`L2Trace`].
//!
//! The adaptivity audit needs three hindsight baselines the online run
//! cannot compute for itself:
//!
//! * [`belady`] — the clairvoyant OPT policy (evict the block whose next
//!   use is farthest in the future), the upper bound on what *any*
//!   replacement policy could achieve on this reference stream;
//! * [`replay_standalone`] — one component policy running alone as a
//!   [`TagArray`], **bit-exact** to the online shadow directories: the
//!   online path reduces the geometry tag through the shadow tag mode
//!   and probes with `access_with_mask`, which is definitionally equal
//!   to [`TagArray::access_tag`] on the same `(set, full_tag)` stream,
//!   and a `TagArray`'s RNG is self-contained (`seed_from_u64(seed)`),
//!   so seeding with the online shadow seeds reproduces their hit
//!   counts exactly;
//! * [`replay_model_windows`] — any [`CacheModel`] driven by the trace
//!   with the same event dispatch as `replay_l2` (writeback ⇒ write
//!   access, fill ⇒ read access), with per-window and per-set hit
//!   accounting attached and the model shown to a caller's observer
//!   after every access.
//!
//! All three bucket hits into **instruction windows** (`window_insts`
//! instructions per window, keyed by each event's 1-based instruction
//! index), which makes their series joinable with the online timeline
//! regardless of the timeline ring's tick-based coarsening history.
//!
//! Like the simulated caches, the OPT model here allocates on every
//! miss (no bypassing), so its miss count is the optimum over the same
//! design space — demand-fill, write-allocate — that the paper's caches
//! occupy, not the lower still no-allocate OPT.

use crate::replay::L2Trace;
use cache_sim::{Address, CacheModel, Geometry, PolicyKind, ReplacementPolicy, TagArray, TagMode};
use std::collections::HashMap;

/// One instruction window of an offline replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleWindow {
    /// Exclusive end of the window, in 1-based instruction indices.
    pub end_inst: u64,
    /// L2 events that fell in this window.
    pub accesses: u64,
    /// Hits among them.
    pub hits: u64,
}

/// The result of replaying a captured trace through one policy (a
/// component policy, OPT, or a whole [`CacheModel`]).
#[derive(Debug, Clone)]
pub struct PolicyReplay {
    /// Human-readable policy label.
    pub label: String,
    /// Total hits over the trace.
    pub hits: u64,
    /// Total misses over the trace.
    pub misses: u64,
    /// Hits per cache set.
    pub per_set_hits: Vec<u64>,
    /// Hit counts per instruction window, oldest first.
    pub windows: Vec<OracleWindow>,
}

impl PolicyReplay {
    /// Total events replayed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate over the whole trace (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Buckets (inst, hit) observations into fixed instruction windows.
/// `window_insts == 0` collapses everything into a single window.
#[derive(Debug)]
struct WindowAcc {
    window_insts: u64,
    last_inst: u64,
    windows: Vec<OracleWindow>,
}

impl WindowAcc {
    fn new(window_insts: u64) -> WindowAcc {
        WindowAcc {
            window_insts,
            last_inst: 0,
            windows: Vec::new(),
        }
    }

    /// Counts one observation at instruction `inst` and returns the
    /// index of the window it fell in.
    fn record(&mut self, inst: u64, hit: bool) -> usize {
        self.last_inst = self.last_inst.max(inst);
        let idx = inst
            .saturating_sub(1)
            .checked_div(self.window_insts)
            .unwrap_or(0) as usize;
        while self.windows.len() <= idx {
            let end = if self.window_insts == 0 {
                0 // patched in finish()
            } else {
                (self.windows.len() as u64 + 1) * self.window_insts
            };
            self.windows.push(OracleWindow {
                end_inst: end,
                accesses: 0,
                hits: 0,
            });
        }
        let w = &mut self.windows[idx];
        w.accesses += 1;
        w.hits += u64::from(hit);
        idx
    }

    fn finish(mut self) -> Vec<OracleWindow> {
        if self.window_insts == 0 {
            if let Some(w) = self.windows.last_mut() {
                w.end_inst = self.last_inst;
            }
        }
        self.windows
    }
}

/// Replays `trace` through a clairvoyant Belady/OPT simulator over
/// `geom`: on each conflict miss the block whose next use is farthest in
/// the future (never-reused blocks first) is evicted. Writebacks are
/// accesses like any other, in trace order — exactly how the simulated
/// caches treat them.
pub fn belady(trace: &L2Trace, geom: Geometry, window_insts: u64) -> PolicyReplay {
    let _span = ac_telemetry::span("oracle", || "belady".to_string());
    trace.assert_replayable_on(&geom);
    // Decode once: (block, set, inst) per event.
    let events: Vec<(u64, u32, u64)> = trace
        .events()
        .map(|ev| {
            let block = geom.block_of(Address::new(ev.addr));
            (block.raw(), geom.set_index(block) as u32, ev.inst)
        })
        .collect();

    // Backward pass: index of each event's block's next occurrence
    // (usize::MAX = never referenced again).
    let mut next_use = vec![usize::MAX; events.len()];
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(events.len() / 4 + 1);
    for i in (0..events.len()).rev() {
        if let Some(next) = seen.insert(events[i].0, i) {
            next_use[i] = next;
        }
    }

    // Forward pass: per-set OPT with allocate-on-miss.
    let assoc = geom.associativity();
    let mut sets: Vec<Vec<(u64, usize)>> = vec![Vec::with_capacity(assoc); geom.num_sets()];
    let mut per_set_hits = vec![0u64; geom.num_sets()];
    let mut acc = WindowAcc::new(window_insts);
    let (mut hits, mut misses) = (0u64, 0u64);
    for (i, &(block, set, inst)) in events.iter().enumerate() {
        let ways = &mut sets[set as usize];
        let hit = if let Some(slot) = ways.iter_mut().find(|(b, _)| *b == block) {
            slot.1 = next_use[i];
            true
        } else {
            if ways.len() < assoc {
                ways.push((block, next_use[i]));
            } else {
                // Farthest next use; `max_by_key` keeps the last of equal
                // candidates, which for usize::MAX ties is immaterial to
                // the hit count (none of them is referenced again).
                let victim = ways
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &(_, nu))| nu)
                    .map(|(w, _)| w)
                    .expect("assoc >= 1");
                ways[victim] = (block, next_use[i]);
            }
            false
        };
        if hit {
            hits += 1;
            per_set_hits[set as usize] += 1;
        } else {
            misses += 1;
        }
        acc.record(inst, hit);
    }
    PolicyReplay {
        label: "OPT".to_string(),
        hits,
        misses,
        per_set_hits,
        windows: acc.finish(),
    }
}

fn mode_label(mode: TagMode) -> String {
    match mode {
        TagMode::Full => "full tags".to_string(),
        TagMode::PartialLow { bits } | TagMode::PartialXor { bits } => format!("{bits}-bit tags"),
    }
}

/// Replays `trace` through a standalone [`TagArray`] of `policy` — the
/// offline twin of an online shadow directory. With the shadow's tag
/// mode and seed this reproduces its `(hits, misses)` bit-exactly (see
/// the module docs for why).
pub fn replay_standalone(
    trace: &L2Trace,
    geom: Geometry,
    mode: TagMode,
    policy: PolicyKind,
    seed: u64,
    window_insts: u64,
) -> PolicyReplay {
    let _span = ac_telemetry::span("oracle", || format!("replay_standalone {}", policy.name()));
    trace.assert_replayable_on(&geom);
    let mut arr = TagArray::new(geom, mode, policy, seed);
    let mut per_set_hits = vec![0u64; geom.num_sets()];
    let mut acc = WindowAcc::new(window_insts);
    let (mut hits, mut misses) = (0u64, 0u64);
    for ev in trace.events() {
        let block = geom.block_of(Address::new(ev.addr));
        let set = geom.set_index(block);
        let full_tag = geom.tag(block);
        let hit = arr.access_tag(set, full_tag).hit;
        if hit {
            hits += 1;
            per_set_hits[set] += 1;
        } else {
            misses += 1;
        }
        acc.record(ev.inst, hit);
    }
    PolicyReplay {
        label: format!("{} ({})", policy.name(), mode_label(mode)),
        hits,
        misses,
        per_set_hits,
        windows: acc.finish(),
    }
}

/// Replays `trace` against any [`CacheModel`] with per-window and
/// per-set hit accounting. Event dispatch matches `replay_l2`: a
/// writeback is a write access, a demand fill a read access, in trace
/// order — so the model finishes in the same state a replayed run would
/// leave it in. `observe` sees the model after every access, with the
/// set that access touched and the index of its window in
/// [`PolicyReplay::windows`].
pub fn replay_model_windows(
    trace: &L2Trace,
    l2: &mut dyn CacheModel,
    window_insts: u64,
    mut observe: impl FnMut(usize, usize, &dyn CacheModel),
) -> PolicyReplay {
    let _span = ac_telemetry::span("oracle", || format!("replay_model {}", l2.label()));
    let geom = *l2.geometry();
    trace.assert_replayable_on(&geom);
    let mut per_set_hits = vec![0u64; geom.num_sets()];
    let mut acc = WindowAcc::new(window_insts);
    let (mut hits, mut misses) = (0u64, 0u64);
    for ev in trace.events() {
        let block = geom.block_of(Address::new(ev.addr));
        let set = geom.set_index(block);
        let hit = l2.access(block, ev.writeback).hit;
        if hit {
            hits += 1;
            per_set_hits[set] += 1;
        } else {
            misses += 1;
        }
        let window = acc.record(ev.inst, hit);
        observe(set, window, l2);
    }
    PolicyReplay {
        label: l2.label(),
        hits,
        misses,
        per_set_hits,
        windows: acc.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::L2TraceBuilder;
    use cache_sim::Cache;

    /// A trace of demand fills at the given block indices (one
    /// instruction per event, line size 64).
    fn fill_trace(blocks: &[u64]) -> L2Trace {
        let mut b = L2TraceBuilder::new();
        for (i, &blk) in blocks.iter().enumerate() {
            b.push(blk * 64, false, i as u64 + 1);
        }
        b.finish(Default::default())
    }

    #[test]
    fn belady_is_clairvoyant_on_the_classic_example() {
        // 1 set, 2 ways; stream a b c a b c. OPT evicts the block used
        // farthest in the future: hits on the 2nd a and 2nd c — 2 hits.
        // (LRU gets 0 hits on this stream.)
        let geom = Geometry::new(2 * 64, 64, 2).unwrap();
        let sets = geom.num_sets() as u64; // 1
        assert_eq!(sets, 1);
        let opt = belady(&fill_trace(&[0, 1, 2, 0, 1, 2]), geom, 0);
        assert_eq!((opt.hits, opt.misses), (2, 4));
        let lru = replay_standalone(
            &fill_trace(&[0, 1, 2, 0, 1, 2]),
            geom,
            TagMode::Full,
            PolicyKind::Lru,
            7,
            0,
        );
        assert_eq!(lru.hits, 0, "LRU thrashes the cyclic scan");
    }

    #[test]
    fn opt_dominates_real_policies() {
        let geom = Geometry::new(4096, 64, 4).unwrap(); // 16 sets x 4 ways
        let mut x = 1234u64;
        let blocks: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 700
            })
            .collect();
        let trace = fill_trace(&blocks);
        let opt = belady(&trace, geom, 0);
        for policy in [PolicyKind::Lru, PolicyKind::LFU5, PolicyKind::Fifo] {
            let p = replay_standalone(&trace, geom, TagMode::Full, policy, 3, 0);
            assert!(
                opt.hits >= p.hits,
                "OPT ({}) must dominate {} ({})",
                opt.hits,
                p.label,
                p.hits
            );
            assert_eq!(p.accesses(), trace.len() as u64);
        }
    }

    #[test]
    fn windows_and_sets_conserve_totals() {
        let geom = Geometry::new(4096, 64, 4).unwrap();
        let blocks: Vec<u64> = (0..5000).map(|i| (i * 17) % 300).collect();
        let trace = fill_trace(&blocks);
        for r in [
            belady(&trace, geom, 512),
            replay_standalone(&trace, geom, TagMode::Full, PolicyKind::Lru, 9, 512),
        ] {
            assert_eq!(r.per_set_hits.iter().sum::<u64>(), r.hits, "{}", r.label);
            assert_eq!(
                r.windows.iter().map(|w| w.hits).sum::<u64>(),
                r.hits,
                "{}",
                r.label
            );
            assert_eq!(
                r.windows.iter().map(|w| w.accesses).sum::<u64>(),
                r.accesses(),
                "{}",
                r.label
            );
            // Window ends are the fixed instruction grid.
            for (i, w) in r.windows.iter().enumerate() {
                assert_eq!(w.end_inst, (i as u64 + 1) * 512);
            }
        }
    }

    #[test]
    fn model_replay_matches_direct_drive() {
        let geom = Geometry::new(4096, 64, 4).unwrap();
        let blocks: Vec<u64> = (0..8000).map(|i| (i * 31) % 900).collect();
        let trace = fill_trace(&blocks);
        let mut replayed = Cache::new(geom, PolicyKind::Lru, 5);
        let mut observed = 0;
        let r = replay_model_windows(&trace, &mut replayed, 0, |_, _, _| observed += 1);
        assert_eq!(observed, blocks.len(), "the observer sees every access");
        let mut direct = Cache::new(geom, PolicyKind::Lru, 5);
        for ev in trace.events() {
            direct.access(geom.block_of(Address::new(ev.addr)), ev.writeback);
        }
        assert_eq!(r.hits, direct.stats().hits);
        assert_eq!(r.misses, direct.stats().misses);
        assert_eq!(replayed.stats(), direct.stats());
        assert_eq!(r.windows.len(), 1, "window_insts = 0 is one window");
        assert_eq!(r.windows[0].end_inst, blocks.len() as u64);
    }
}
