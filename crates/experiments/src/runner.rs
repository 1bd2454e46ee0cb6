//! The shared experiment runner: (benchmark x L2 organisation) → metrics.

use crate::faultinject::{FaultSpec, FaultyCache};
use crate::resilience::ExperimentError;
use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, DipCache, DipConfig, MultiAdaptiveCache, MultiConfig, SbarCache,
    SbarConfig,
};
use cache_sim::{Cache, CacheModel, Geometry, PolicyKind};
use cpu_model::{
    run_functional, CpuConfig, FunctionalStats, Hierarchy, L2Complex, L2Trace, Pipeline, RunStats,
};
use serde::{Deserialize, Serialize};
use workloads::Benchmark;

/// The paper's L2 geometry: 512 KB, 64 B lines, 8-way.
pub const PAPER_L2: (usize, usize, usize) = (512 * 1024, 64, 8);

/// Seed used for every cache organisation, so that runs are reproducible
/// and policy comparisons share randomness. Public so the offline
/// adaptivity audit (`bench::audit`) can rebuild the exact caches —
/// including the adaptive shadow directories, seeded `CACHE_SEED ^ 0xA`
/// and `CACHE_SEED ^ 0xB` — that an online run used.
pub const CACHE_SEED: u64 = 0x0C0FFEE;

/// Default instruction budget per (benchmark, configuration) run.
///
/// Overridable via the `AC_INSTS` environment variable; the paper uses
/// 100M-instruction SimPoints, which the synthetic workloads do not need —
/// their behaviour is stationary (or deliberately phased) by construction.
///
/// Parsed once per process: sweeps call this per cell, and the value
/// must not drift mid-sweep anyway. An unparsable value falls back to
/// 2M with a leveled warning instead of silently.
pub fn default_insts() -> u64 {
    static INSTS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *INSTS.get_or_init(|| match std::env::var("AC_INSTS") {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            ac_telemetry::warn!("AC_INSTS={v:?} is not an instruction count; using 2000000");
            2_000_000
        }),
        Err(_) => 2_000_000,
    })
}

/// An operation on one cache organisation, for [`L2Kind::build_with`].
/// A closure cannot be generic over the organisation's type; a visitor
/// can, so its `visit` is compiled once per concrete organisation.
pub(crate) trait ModelVisitor {
    /// What the operation returns.
    type Output;
    /// Runs the operation on `model`.
    fn visit<M: CacheModel + 'static>(self, model: M) -> Self::Output;
}

/// An L2 organisation under test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum L2Kind {
    /// Conventional single-policy cache.
    Plain(PolicyKind),
    /// The paper's two-policy adaptive cache.
    Adaptive(AdaptiveConfig),
    /// The SBAR-like set-sampling variant.
    Sbar(SbarConfig),
    /// Generalised N-policy adaptivity.
    Multi(MultiConfig),
    /// DIP set dueling (related-work comparison).
    Dip(DipConfig),
    /// Any other organisation wrapped in a deterministic fault injector
    /// (see [`crate::faultinject`]) — lets a sweep cell be made hostile
    /// from pure configuration, for testing the supervisor's
    /// degradation paths.
    Faulty {
        /// The fault plan.
        fault: FaultSpec,
        /// The wrapped organisation.
        inner: Box<L2Kind>,
    },
    /// The sharded concurrent front end wrapping a plain, adaptive or
    /// SBAR organisation. The experiment pipeline drives it on one
    /// thread (through [`ac_concurrent::ConcurrentModel`]); with one
    /// shard the outcome is bit-identical to the wrapped organisation,
    /// so this variant exists to measure what the shard remap does to
    /// miss rates from pure JSON configuration.
    Concurrent {
        /// Power-of-two shard count.
        shards: usize,
        /// The wrapped organisation (Plain / Adaptive / Sbar).
        inner: Box<L2Kind>,
    },
}

impl L2Kind {
    /// The three organisations of the paper's headline figures:
    /// Adaptive(LRU/LFU, full tags), LFU, LRU.
    pub fn headline_trio() -> [L2Kind; 3] {
        [
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
            L2Kind::Plain(PolicyKind::LFU5),
            L2Kind::Plain(PolicyKind::Lru),
        ]
    }

    /// Builds the organisation for `geom` and hands it to `visitor` as
    /// its concrete type, so the visitor is compiled once per
    /// organisation and calls its engine without dynamic dispatch. This
    /// match is the one mapping from a kind to its organisation;
    /// [`L2Kind::build`] boxes what it builds. `Faulty` wraps its inner
    /// organisation boxed, and `Concurrent` shards it behind
    /// [`ac_concurrent::ConcurrentModel`].
    pub(crate) fn build_with<V: ModelVisitor>(&self, geom: Geometry, visitor: V) -> V::Output {
        match self {
            L2Kind::Plain(policy) => visitor.visit(Cache::new(geom, *policy, CACHE_SEED)),
            L2Kind::Adaptive(cfg) => visitor.visit(AdaptiveCache::new(geom, *cfg, CACHE_SEED)),
            L2Kind::Sbar(cfg) => visitor.visit(SbarCache::new(geom, *cfg, CACHE_SEED)),
            L2Kind::Multi(cfg) => {
                visitor.visit(MultiAdaptiveCache::new(geom, cfg.clone(), CACHE_SEED))
            }
            L2Kind::Dip(cfg) => visitor.visit(DipCache::new(geom, *cfg, CACHE_SEED)),
            L2Kind::Faulty { fault, inner } => {
                visitor.visit(FaultyCache::new(inner.build(geom), *fault))
            }
            L2Kind::Concurrent { shards, inner } => {
                use ac_concurrent::{ConcurrentAdaptiveCache, ConcurrentMode, ConcurrentModel};
                let mode = match inner.as_ref() {
                    L2Kind::Plain(policy) => Some(ConcurrentMode::Plain(*policy)),
                    L2Kind::Adaptive(cfg) => Some(ConcurrentMode::Adaptive(*cfg)),
                    L2Kind::Sbar(cfg) => Some(ConcurrentMode::Sbar(*cfg)),
                    other => {
                        ac_telemetry::warn!(
                            "L2Kind::Concurrent cannot shard {}; running it unsharded",
                            other.label()
                        );
                        None
                    }
                };
                match mode {
                    Some(mode) => visitor.visit(ConcurrentModel::new(
                        ConcurrentAdaptiveCache::new(geom, mode, *shards, CACHE_SEED),
                    )),
                    None => inner.build_with(geom, visitor),
                }
            }
        }
    }

    /// Builds the cache model for `geom`, boxed.
    pub fn build(&self, geom: Geometry) -> Box<dyn CacheModel> {
        struct Boxed;
        impl ModelVisitor for Boxed {
            type Output = Box<dyn CacheModel>;
            fn visit<M: CacheModel + 'static>(self, model: M) -> Box<dyn CacheModel> {
                Box::new(model)
            }
        }
        self.build_with(geom, Boxed)
    }

    /// Short label for report columns.
    pub fn label(&self) -> String {
        match self {
            L2Kind::Plain(p) => p.to_string(),
            L2Kind::Adaptive(cfg) => format!(
                "Adaptive({}/{}, {:?})",
                cache_sim::ReplacementPolicy::name(&cfg.policy_a),
                cache_sim::ReplacementPolicy::name(&cfg.policy_b),
                cfg.shadow_tags
            ),
            L2Kind::Sbar(_) => "SBAR".to_string(),
            L2Kind::Multi(cfg) => format!("Adaptive(x{})", cfg.policies.len()),
            L2Kind::Dip(_) => "DIP".to_string(),
            L2Kind::Faulty { inner, .. } => format!("Faulty({})", inner.label()),
            L2Kind::Concurrent { shards, inner } => {
                format!("Concurrent{}x({})", shards, inner.label())
            }
        }
    }
}

/// Result of one functional (miss-rate) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpkiResult {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 label.
    pub l2: String,
    /// Functional statistics.
    pub stats: FunctionalStats,
}

/// Runs `bench` functionally (no timing) against an L2 of geometry
/// `(size, line, assoc)` and the given organisation.
///
/// Fails with [`ExperimentError::Geometry`] when the requested geometry is
/// impossible (non-power-of-two sets, zero ways, ...).
pub fn run_functional_l2(
    bench: &Benchmark,
    kind: &L2Kind,
    l2_geom: (usize, usize, usize),
    insts: u64,
) -> Result<MpkiResult, ExperimentError> {
    run_functional_l2_cfg(bench, kind, l2_geom, insts, &CpuConfig::paper_default())
}

/// [`run_functional_l2`] with an explicit CPU configuration (the L1
/// parameters key the replay cache; the rest is unused functionally).
///
/// Unless `AC_REPLAY=0`, the front-end runs at most once per
/// `(workload spec, L1 config, insts)` key process-wide: the first cell
/// captures the L2-visible reference stream, every cell (including the
/// first) replays it against its own L2 — see [`crate::replay_cache`].
/// The replay runs on the organisation's concrete type
/// (`L2Kind::build_with`); the direct path drives a boxed one.
pub fn run_functional_l2_cfg(
    bench: &Benchmark,
    kind: &L2Kind,
    l2_geom: (usize, usize, usize),
    insts: u64,
    config: &CpuConfig,
) -> Result<MpkiResult, ExperimentError> {
    let mut span = ac_telemetry::span("run", || {
        format!("functional {} x {}", bench.name, kind.label())
    });
    let geom = Geometry::new(l2_geom.0, l2_geom.1, l2_geom.2)?;
    let stats = if crate::replay_cache::replay_enabled() {
        let (trace, captured_here) = crate::replay_cache::get_or_capture(bench, config, insts);
        span.set_attr("frontend_skipped", || (!captured_here).to_string());
        kind.build_with(geom, Replay(&trace))
    } else {
        span.set_attr("frontend_skipped", || "false".to_string());
        let l2 = kind.build(geom);
        let mut hierarchy = Hierarchy::new(config, l2);
        run_functional(&mut hierarchy, bench.spec.generator(), insts)
    };
    Ok(MpkiResult {
        benchmark: bench.name.to_string(),
        l2: kind.label(),
        stats,
    })
}

/// Replays a captured stream into the organisation it visits.
struct Replay<'a>(&'a L2Trace);

impl ModelVisitor for Replay<'_> {
    type Output = FunctionalStats;
    fn visit<M: CacheModel + 'static>(self, model: M) -> FunctionalStats {
        // The complex owns the organisation: replaying through a `&mut M`
        // measured about 1.3 ns per event slower on plain LRU.
        cpu_model::replay_into(self.0, &mut L2Complex::new(model))
    }
}

/// Runs `bench` through the full timing pipeline.
///
/// Fails with [`ExperimentError::Geometry`] when `config.l2` describes an
/// impossible geometry.
pub fn run_timed(
    bench: &Benchmark,
    kind: &L2Kind,
    config: CpuConfig,
    insts: u64,
) -> Result<RunStats, ExperimentError> {
    let geom = Geometry::new(
        config.l2.size_bytes,
        config.l2.line_bytes,
        config.l2.associativity,
    )?;
    Ok(run_timed_with_geom(bench, kind, config, geom, insts))
}

/// Runs `bench` through the timing pipeline with an explicit L2 geometry
/// (Figure 6's 9-way/10-way caches keep 1024 sets, so their geometry
/// cannot be derived from a total size).
pub fn run_timed_with_geom(
    bench: &Benchmark,
    kind: &L2Kind,
    config: CpuConfig,
    geom: Geometry,
    insts: u64,
) -> RunStats {
    let _span = ac_telemetry::span("run", || format!("timed {} x {}", bench.name, kind.label()));
    let l2 = kind.build(geom);
    let mut pipe = Pipeline::new(config, l2);
    pipe.run(bench.spec.generator(), insts)
}

/// Maps `f` over `items` on worker threads (order-preserving), catching
/// unwinds per item: one panicking item yields an
/// [`ExperimentError::Panic`] in its slot while every sibling still
/// completes.
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, ExperimentError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_parallel_map_progress(items, None, |i, _| format!("item {i}"), f)
}

/// [`try_parallel_map`] with live progress reporting: when `handle` is
/// `Some`, every item is announced to the progress registry
/// ([`ac_telemetry::progress`]) as it starts and finishes, labelled by
/// `key_of(index, item)`, so a `--serve` introspection server can show
/// per-cell state and an ETA while the map runs.
pub fn try_parallel_map_progress<T, R, F>(
    items: &[T],
    handle: Option<&ac_telemetry::progress::SweepHandle>,
    key_of: impl Fn(usize, &T) -> String + Sync,
    f: F,
) -> Vec<Result<R, ExperimentError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let f = &f;
    let key_of = &key_of;
    // Work-stealing claim counter: each worker claims the next unclaimed
    // index with one uncontended `fetch_add` instead of serialising on a
    // mutex-guarded queue. Results are accumulated per worker and merged
    // by index afterwards, so no slot needs shared mutable access.
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut results: Vec<Option<Result<R, ExperimentError>>> =
        (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let key = handle.map(|h| {
                            let key = key_of(i, &items[i]);
                            h.cell_start(&key);
                            key
                        });
                        let started = std::time::Instant::now();
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i])));
                        if let (Some(h), Some(key)) = (handle, key) {
                            use ac_telemetry::progress::CellStatus;
                            let status = if out.is_ok() {
                                CellStatus::Done
                            } else {
                                CellStatus::Failed
                            };
                            h.cell_finished(&key, status, started.elapsed());
                        }
                        local.push((
                            i,
                            out.map_err(|p| {
                                ExperimentError::Panic(crate::resilience::panic_message(&*p))
                            }),
                        ));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            // Worker closures catch item panics, so join only fails on
            // runtime-level faults; surface those rather than aborting.
            if let Ok(local) = w.join() {
                for (i, r) in local {
                    results[i] = Some(r);
                }
            }
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(ExperimentError::Panic(
                    "worker exited without producing a result".into(),
                ))
            })
        })
        .collect()
}

/// Maps `f` over `items` on worker threads (order-preserving).
///
/// # Panics
///
/// Propagates item failures as a single panic *after* every item has run
/// (sibling items are never cancelled). Sweeps that must survive
/// individual cell failures should use [`try_parallel_map`] or the
/// supervisor in [`crate::resilience`].
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for (i, r) in try_parallel_map(items, f).into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(e) => failures.push(format!("item {i}: {e}")),
        }
    }
    if !failures.is_empty() {
        panic!(
            "parallel_map: {} of {} items failed: {}",
            failures.len(),
            items.len(),
            failures.join("; ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::primary_suite;

    #[test]
    fn functional_run_produces_misses() {
        let b = &primary_suite()[1]; // applu: guaranteed L2-hostile scan
        let r = run_functional_l2(b, &L2Kind::Plain(PolicyKind::Lru), PAPER_L2, 100_000).unwrap();
        assert!(
            r.stats.l2_mpki() > 1.0,
            "applu must exceed 1 MPKI, got {}",
            r.stats.l2_mpki()
        );
    }

    #[test]
    fn timed_run_produces_cpi() {
        let b = &primary_suite()[1];
        let s = run_timed(
            b,
            &L2Kind::Plain(PolicyKind::Lru),
            CpuConfig::paper_default(),
            50_000,
        )
        .unwrap();
        assert!(s.cpi() > 0.2, "cpi = {}", s.cpi());
    }

    #[test]
    fn adaptive_l2_builds_and_runs() {
        let b = &primary_suite()[2]; // art-1
        let r = run_functional_l2(
            b,
            &L2Kind::Adaptive(AdaptiveConfig::paper_default()),
            PAPER_L2,
            100_000,
        )
        .unwrap();
        assert!(r.stats.l2_misses > 0);
        assert!(r.l2.contains("Adaptive"));
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        let b = &primary_suite()[0];
        let err = run_functional_l2(b, &L2Kind::Plain(PolicyKind::Lru), (1000, 64, 7), 1_000)
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Geometry(_)), "{err}");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_parallel_map_isolates_panics() {
        let items: Vec<u64> = (0..32).collect();
        let out = try_parallel_map(&items, |&x| {
            if x == 7 {
                panic!("injected: item 7");
            }
            x + 1
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                assert!(matches!(r, Err(ExperimentError::Panic(m)) if m.contains("item 7")));
            } else {
                assert_eq!(
                    r.as_ref().unwrap(),
                    &(i as u64 + 1),
                    "sibling {i} must complete"
                );
            }
        }
    }

    #[test]
    fn parallel_map_panic_reports_failed_items() {
        let items: Vec<u64> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                if x == 2 {
                    panic!("kaboom");
                }
                x
            })
        })
        .unwrap_err();
        let msg = crate::resilience::panic_message(&*err);
        assert!(msg.contains("1 of 8"), "{msg}");
        assert!(msg.contains("kaboom"), "{msg}");
    }

    #[test]
    fn faulty_l2_kind_builds_and_labels() {
        let kind = L2Kind::Faulty {
            fault: FaultSpec::flip_tags(0x1, 10),
            inner: Box::new(L2Kind::Plain(PolicyKind::Lru)),
        };
        assert_eq!(kind.label(), "Faulty(LRU)");
        let b = &primary_suite()[0];
        let r = run_functional_l2(b, &kind, PAPER_L2, 20_000).unwrap();
        assert!(r.l2.contains("Faulty"));
        // Serialisable like every other organisation.
        let json = serde_json::to_string(&kind).unwrap();
        let back: L2Kind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kind);
    }

    #[test]
    fn concurrent_l2_kind_builds_labels_and_matches_sequential_when_unsharded() {
        let kind = L2Kind::Concurrent {
            shards: 4,
            inner: Box::new(L2Kind::Sbar(SbarConfig::paper_default())),
        };
        assert_eq!(kind.label(), "Concurrent4x(SBAR)");
        let json = serde_json::to_string(&kind).unwrap();
        let back: L2Kind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kind);

        // One shard is the sequential engine in a front-end coat: the
        // whole functional pipeline must see identical statistics.
        let b = &primary_suite()[0];
        let one = L2Kind::Concurrent {
            shards: 1,
            inner: Box::new(L2Kind::Plain(PolicyKind::Lru)),
        };
        let seq = run_functional_l2(b, &L2Kind::Plain(PolicyKind::Lru), PAPER_L2, 50_000).unwrap();
        let conc = run_functional_l2(b, &one, PAPER_L2, 50_000).unwrap();
        assert_eq!(seq.stats.l2_misses, conc.stats.l2_misses);
        assert_eq!(seq.stats.data_accesses, conc.stats.data_accesses);
        assert_eq!(seq.stats.l1d_misses, conc.stats.l1d_misses);
    }

    #[test]
    fn headline_trio_labels() {
        let trio = L2Kind::headline_trio();
        assert!(trio[0].label().contains("Adaptive"));
        assert_eq!(trio[1].label(), "LFU");
        assert_eq!(trio[2].label(), "LRU");
    }
}
