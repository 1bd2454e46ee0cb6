//! Process-wide memoisation of captured L2 reference streams.
//!
//! Sweep cells that run the same workload against different L2
//! organisations share one captured [`L2Trace`] (see
//! `cpu_model::replay`): the first cell to ask for a `(workload spec,
//! L1-configuration, instruction-budget)` key pays the front-end once,
//! every other cell replays. Coordination is per-key — cells waiting on
//! an in-flight capture block on that key's latch only, so unrelated
//! cells (other workloads, other budgets) are never serialised.
//!
//! `AC_REPLAY_CACHE_MB` caps resident captured bytes (default 512MB),
//! evicting least-recently-used entries past the cap. It is re-read on
//! each publish, never latched in a `OnceLock`, so a single process, and
//! in particular a single test binary, can change the cap between
//! sweeps. Cache derived *state*, not environment *configuration*.
//!
//! Telemetry: `replay_cache_hits_total` / `replay_cache_captures_total`
//! / `replay_cache_evictions_total` counters and a `replay_cache_bytes`
//! gauge.

use cpu_model::{capture_functional, CpuConfig, L2Trace};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use workloads::Benchmark;

/// Resident-byte cap for captured traces (`AC_REPLAY_CACHE_MB`,
/// default 512). Read once per publish — see the module header.
fn cap_bytes() -> usize {
    let mb = match std::env::var("AC_REPLAY_CACHE_MB") {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            ac_telemetry::warn!("AC_REPLAY_CACHE_MB={v:?} is not a number; using 512");
            512
        }),
        Err(_) => 512usize,
    };
    mb.saturating_mul(1024 * 1024)
}

/// What a capture is a pure function of. The workload spec is held
/// serialised, because its floats make it neither `Eq` nor `Hash`. The
/// benchmark's name is not part of the key: two benchmarks that share a
/// name but not a spec (a re-seeded suite) never share a stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    spec: String,
    l1_sig: u64,
    insts: u64,
}

/// FNV-1a over the L1 parameters that shape the captured stream. The
/// L1 seeds are fixed constants inside `Hierarchy::new`, so the
/// geometry/latency fields pin the configuration completely.
fn l1_signature(config: &CpuConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for p in [config.l1i, config.l1d] {
        mix(p.size_bytes as u64);
        mix(p.line_bytes as u64);
        mix(p.associativity as u64);
        mix(u64::from(p.hit_latency));
    }
    h
}

#[derive(Debug, Default)]
enum LatchState {
    #[default]
    Pending,
    Ready(Arc<L2Trace>),
    Failed,
}

#[derive(Debug, Default)]
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Debug)]
enum Slot {
    Ready {
        trace: Arc<L2Trace>,
        bytes: usize,
        stamp: u64,
    },
    InFlight(Arc<Latch>),
}

#[derive(Debug, Default)]
struct Store {
    map: HashMap<Key, Slot>,
    clock: u64,
    bytes: usize,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

/// Empties the cache (tests, and the sweep benchmark's cold-start
/// timing).
pub fn clear() {
    let mut s = store().lock().expect("replay cache poisoned");
    // Pending captures stay registered: removing an InFlight slot here
    // would orphan its waiters' fallback path, so only drop Ready data.
    s.map.retain(|_, slot| matches!(slot, Slot::InFlight(_)));
    s.bytes = 0;
    gauge_bytes(0);
}

fn gauge_bytes(bytes: usize) {
    ac_telemetry::gauge_set("replay_cache_bytes", bytes as f64);
}

/// Marks the in-flight capture failed if the capturing cell unwinds, so
/// waiters fall back to capturing for themselves instead of hanging.
struct CaptureGuard {
    key: Option<Key>,
    latch: Arc<Latch>,
}

impl CaptureGuard {
    fn defuse(&mut self) {
        self.key = None;
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        let mut s = store().lock().expect("replay cache poisoned");
        if matches!(s.map.get(&key), Some(Slot::InFlight(l)) if Arc::ptr_eq(l, &self.latch)) {
            s.map.remove(&key);
        }
        drop(s);
        *self.latch.state.lock().expect("latch poisoned") = LatchState::Failed;
        self.latch.cv.notify_all();
    }
}

/// Returns the captured trace for `(bench.spec, config, insts)`,
/// capturing it (and publishing it to every waiting cell) if absent. The
/// boolean is `true` when *this* call ran the front-end.
pub fn get_or_capture(bench: &Benchmark, config: &CpuConfig, insts: u64) -> (Arc<L2Trace>, bool) {
    let key = Key {
        spec: serde_json::to_string(&bench.spec).expect("a workload spec serialises"),
        l1_sig: l1_signature(config),
        insts,
    };
    loop {
        let latch = {
            let mut s = store().lock().expect("replay cache poisoned");
            s.clock += 1;
            let now = s.clock;
            match s.map.get_mut(&key) {
                Some(Slot::Ready { trace, stamp, .. }) => {
                    *stamp = now;
                    let trace = trace.clone();
                    drop(s);
                    ac_telemetry::counter_add("replay_cache_hits_total", 1);
                    return (trace, false);
                }
                Some(Slot::InFlight(latch)) => latch.clone(),
                None => {
                    let latch = Arc::new(Latch::default());
                    s.map.insert(key.clone(), Slot::InFlight(latch.clone()));
                    drop(s);
                    return (capture_and_publish(bench, config, key, latch), true);
                }
            }
        };
        // Another cell is capturing this key: wait on its latch only.
        let mut state = latch.state.lock().expect("latch poisoned");
        while matches!(*state, LatchState::Pending) {
            state = latch.cv.wait(state).expect("latch poisoned");
        }
        match &*state {
            LatchState::Ready(trace) => {
                ac_telemetry::counter_add("replay_cache_hits_total", 1);
                return (trace.clone(), false);
            }
            // The capturing cell died (panic / fault injection): retry
            // the whole entry so one cell claims a fresh capture.
            LatchState::Failed => continue,
            LatchState::Pending => unreachable!("wait loop exits only on a terminal state"),
        }
    }
}

/// Fills a registered `InFlight` slot by running the front-end.
fn capture_and_publish(
    bench: &Benchmark,
    config: &CpuConfig,
    key: Key,
    latch: Arc<Latch>,
) -> Arc<L2Trace> {
    let mut guard = CaptureGuard {
        key: Some(key.clone()),
        latch: latch.clone(),
    };
    let trace = Arc::new(capture_functional(
        config,
        bench.spec.generator(),
        key.insts,
    ));
    guard.defuse();
    ac_telemetry::counter_add("replay_cache_captures_total", 1);
    publish(key, latch, trace.clone());
    trace
}

/// Publishes a ready trace, wakes the key's waiters, and runs the LRU
/// eviction loop.
fn publish(key: Key, latch: Arc<Latch>, trace: Arc<L2Trace>) {
    let bytes = trace.approx_bytes();
    let cap = cap_bytes();
    let mut s = store().lock().expect("replay cache poisoned");
    s.clock += 1;
    let stamp = s.clock;
    s.map.insert(
        key,
        Slot::Ready {
            trace: trace.clone(),
            bytes,
            stamp,
        },
    );
    s.bytes += bytes;
    let mut evictions = 0u64;
    while s.bytes > cap {
        // Evict the least-recently-stamped Ready entry (the entry just
        // inserted carries the freshest stamp, so it goes last, and only
        // when it alone exceeds the cap).
        let Some(victim) = s
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready { stamp, .. } => Some((*stamp, k)),
                Slot::InFlight(_) => None,
            })
            .min_by_key(|(stamp, _)| *stamp)
            .map(|(_, k)| k.clone())
        else {
            break;
        };
        if let Some(Slot::Ready { bytes, .. }) = s.map.remove(&victim) {
            s.bytes -= bytes;
            evictions += 1;
        }
    }
    let resident = s.bytes;
    drop(s);
    *latch.state.lock().expect("latch poisoned") = LatchState::Ready(trace);
    latch.cv.notify_all();
    if evictions > 0 {
        ac_telemetry::counter_add("replay_cache_evictions_total", evictions);
    }
    gauge_bytes(resident);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::primary_suite;

    #[test]
    fn capture_is_shared_across_concurrent_cells() {
        clear();
        let b = &primary_suite()[0];
        let cfg = CpuConfig::paper_default();
        let insts = 30_000;
        let results: Vec<(Arc<L2Trace>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| get_or_capture(b, &cfg, insts)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let captured: usize = results.iter().filter(|(_, c)| *c).count();
        assert_eq!(captured, 1, "exactly one cell pays the front-end");
        for (t, _) in &results {
            assert!(Arc::ptr_eq(t, &results[0].0), "all cells share one trace");
        }
        assert_eq!(results[0].0.front_stats().instructions, insts);
    }

    #[test]
    fn distinct_budgets_get_distinct_entries() {
        clear();
        let b = &primary_suite()[1];
        let cfg = CpuConfig::paper_default();
        let (a, ca) = get_or_capture(b, &cfg, 10_000);
        let (bb, cb) = get_or_capture(b, &cfg, 20_000);
        let (a2, ca2) = get_or_capture(b, &cfg, 10_000);
        assert!(ca && cb && !ca2);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(a.front_stats().instructions, 10_000);
        assert_eq!(bb.front_stats().instructions, 20_000);
    }

    #[test]
    fn l1_signature_separates_configs() {
        let a = CpuConfig::paper_default();
        let mut b = a;
        b.l1d.size_bytes *= 2;
        assert_ne!(l1_signature(&a), l1_signature(&b));
        assert_eq!(l1_signature(&a), l1_signature(&a.clone()));
    }
}
