//! The shared experiment runner: (benchmark x L2 organisation) → metrics.

use crate::faultinject::{FaultSpec, FaultyCache};
use crate::resilience::ExperimentError;
use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, DipCache, DipConfig, MultiAdaptiveCache, MultiConfig, SbarCache,
    SbarConfig,
};
use cache_sim::{Cache, CacheModel, Geometry, PolicyKind};
use cpu_model::{CpuConfig, FunctionalStats, L2Complex, L2Trace, Pipeline, RunStats};
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
/// The front-end runs at most once per `(workload spec, L1 config,
/// insts)` key process-wide: the first cell captures the L2-visible
/// reference stream, every cell (including the first) replays it
/// against its own L2 — see [`crate::replay_cache`]. The replay runs on
/// the organisation's concrete type (`L2Kind::build_with`).
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
    let (trace, captured_here) = crate::replay_cache::get_or_capture(bench, config, insts);
    span.set_attr("frontend_skipped", || (!captured_here).to_string());
    let stats = kind.build_with(geom, Replay(&trace));
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
    let _span = ac_telemetry::span("run", || format!("timed {} x {}", bench.name, kind.label()));
    let mut pipe = Pipeline::new(config, kind.build(geom));
    Ok(pipe.run(bench.spec.generator(), insts))
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
