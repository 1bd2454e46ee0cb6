//! Property test: the adaptivity-audit accounting is *conservative*.
//! However ragged the probe cadence and however often the bounded
//! timeline ring coarsens, (a) the windowed shadow-hit deltas must sum
//! to the shadow directories' end-of-run hit counters exactly, and (b)
//! the windowed best-fixed hit count must dominate the global
//! best-fixed one — the inequality that makes per-window regret an
//! upper-bound decomposition of end-of-run regret. An accounting layer
//! that dropped or double-counted a window would silently skew every
//! regret timeline and adaptivity-efficiency figure in `cachesim audit`.

use ac_telemetry::{Timeline, TimelineGauges, TimelineProbe};
use adaptive_cache::{AdaptiveCache, AdaptiveConfig, Component};
use cache_sim::{BlockAddr, CacheModel, Geometry, TagMode};
use proptest::prelude::*;

/// Small geometry keeps sets saturated so Algorithm 1 (not the
/// invalid-way fill path) decides most victims.
fn small_geom() -> Geometry {
    Geometry::new(16 * 1024, 64, 8).unwrap()
}

/// Field-wise sum of the per-window deltas.
fn sum_windows(tl: &Timeline) -> TimelineProbe {
    let mut total = TimelineProbe::default();
    for w in tl.windows() {
        total = total.merged_with(&w.d);
    }
    total
}

fn drive(
    config: AdaptiveConfig,
    seed: u64,
    addrs: &[(u64, bool)],
    probe_every: u64,
    window: u64,
    capacity: usize,
) {
    let mut cache = AdaptiveCache::new(small_geom(), config, seed);
    let mut tl = Timeline::new("regret".into(), "accesses", window, capacity);
    for (i, &(a, write)) in addrs.iter().enumerate() {
        cache.access(BlockAddr::new(a), write);
        let tick = (i + 1) as u64;
        if tick.is_multiple_of(probe_every) && tl.due(tick) {
            tl.record(
                tick,
                tick,
                cache.timeline_probe(),
                TimelineGauges::default(),
            );
        }
    }
    let final_probe = cache.timeline_probe();
    tl.close(
        addrs.len() as u64,
        addrs.len() as u64,
        final_probe,
        TimelineGauges::default(),
    );

    let (sa_hits, _) = cache.shadow_stats(Component::A);
    let (sb_hits, _) = cache.shadow_stats(Component::B);

    // (a) Windowed shadow-hit deltas are exact under forced coarsening.
    let total = sum_windows(&tl);
    assert_eq!(
        (total.shadow_a_hits, total.shadow_b_hits),
        (sa_hits, sb_hits),
        "windowed shadow-hit deltas do not sum to the shadow totals \
         (probe_every={probe_every}, window={window}, capacity={capacity})"
    );
    assert_eq!(total.hits, cache.stats().hits);
    assert_eq!(
        (total.excl_a_misses, total.excl_b_misses),
        cache.exclusive_miss_totals(),
        "exclusive-miss (Figure-7 training) totals"
    );
    assert_eq!(
        (total.imitations_a, total.imitations_b),
        cache.imitation_totals()
    );

    // (b) Sum of per-window best-fixed hits dominates the global
    // best-fixed hits (max of sums <= sum of maxes), so the per-window
    // regret-vs-best series is a sound decomposition: its sum is an
    // upper bound on end-of-run regret against the best fixed policy.
    let windowed_best: u64 = tl
        .windows()
        .iter()
        .map(|w| w.d.shadow_a_hits.max(w.d.shadow_b_hits))
        .sum();
    assert!(
        windowed_best >= sa_hits.max(sb_hits),
        "windowed best-fixed ({windowed_best}) must dominate global \
         best-fixed ({})",
        sa_hits.max(sb_hits)
    );
    let windowed_regret: i64 = tl
        .windows()
        .iter()
        .map(|w| w.d.shadow_a_hits.max(w.d.shadow_b_hits) as i64 - w.d.hits as i64)
        .sum();
    let global_regret = sa_hits.max(sb_hits) as i64 - cache.stats().hits as i64;
    assert!(
        windowed_regret >= global_regret,
        "summed windowed regret ({windowed_regret}) must bound \
         end-of-run regret ({global_regret})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full shadow tags; tiny windows and a small ring force repeated
    /// coarsening while the regret accounting must stay exact.
    #[test]
    fn regret_sums_match_run_totals_full_tags(
        addrs in proptest::collection::vec((0u64..2048, any::<bool>()), 1..600),
        seed in any::<u64>(),
        probe_every in 1u64..40,
        window in 1u64..64,
        capacity in 2usize..10,
    ) {
        drive(
            AdaptiveConfig::paper_full_tags(),
            seed,
            &addrs,
            probe_every,
            window,
            capacity,
        );
    }

    /// Partial 2-bit shadow tags alias aggressively: aliased shadow hits
    /// must still be counted conservatively, window by window.
    #[test]
    fn regret_sums_match_run_totals_heavy_aliasing(
        addrs in proptest::collection::vec((0u64..4096, any::<bool>()), 1..500),
        seed in any::<u64>(),
        probe_every in 1u64..25,
        window in 1u64..48,
        capacity in 2usize..8,
    ) {
        let config = AdaptiveConfig::paper_default()
            .shadow_tag_mode(TagMode::PartialLow { bits: 2 });
        drive(config, seed, &addrs, probe_every, window, capacity);
    }
}
