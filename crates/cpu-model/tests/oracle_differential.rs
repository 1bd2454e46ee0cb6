//! Differential test for the adaptivity audit's consistency model: the
//! offline standalone component-policy replays of `cpu_model::oracle`
//! must reproduce the *online* shadow directories **bit-exactly** on the
//! same captured `L2Trace`, for every shadow tag mode. The audit joins
//! online regret accounting with offline baselines; if the two ever
//! diverged by a single access, every regret figure would be noise.

use adaptive_cache::{AdaptiveCache, AdaptiveConfig, Component};
use cache_sim::{Address, CacheModel, Geometry, TagArray, TagMode};
use cpu_model::{capture_functional, replay_l2, replay_standalone, CpuConfig, L2Trace};
use workloads::{Inst, InstKind};

const SEED: u64 = 0x0C0FFEE; // the experiment runner's CACHE_SEED

/// Paper Table 1 L2 geometry.
fn l2_geom() -> Geometry {
    Geometry::new(512 * 1024, 64, 8).unwrap()
}

/// A store/load mix with a hot region and a scattered tail — enough L2
/// traffic to exercise hits, misses, writebacks and shadow aliasing.
fn mixed_trace(n: u64) -> impl Iterator<Item = Inst> {
    (0..n).map(|i| {
        Inst::free(
            0x40_0000 + (i % 512) * 4,
            if i % 3 == 0 {
                InstKind::Store {
                    addr: (i % 3000) * 64,
                }
            } else {
                InstKind::Load {
                    addr: (i.wrapping_mul(31) % 60_000) * 64,
                }
            },
        )
    })
}

fn captured() -> L2Trace {
    let cfg = CpuConfig::paper_default();
    let n = 150_000;
    let trace = capture_functional(&cfg, mixed_trace(n), n);
    assert!(
        trace.len() > 1000,
        "need real L2 traffic, got {}",
        trace.len()
    );
    trace
}

/// Every tag mode the adaptive cache is run with anywhere in the repo.
fn all_tag_modes() -> Vec<TagMode> {
    vec![
        TagMode::Full,
        TagMode::PartialLow { bits: 8 },
        TagMode::PartialLow { bits: 2 },
        TagMode::PartialXor { bits: 8 },
    ]
}

#[test]
fn offline_component_replays_match_online_shadows_all_tag_modes() {
    let trace = captured();
    let geom = l2_geom();
    for mode in all_tag_modes() {
        let config = AdaptiveConfig::paper_default().shadow_tag_mode(mode);
        let mut adaptive = AdaptiveCache::new(geom, config, SEED);
        replay_l2(&trace, &mut adaptive);

        // Offline standalone replays with the online shadow seeds.
        let off_a = replay_standalone(&trace, geom, mode, config.policy_a, SEED ^ 0xA, 0);
        let off_b = replay_standalone(&trace, geom, mode, config.policy_b, SEED ^ 0xB, 0);

        assert_eq!(
            (off_a.hits, off_a.misses),
            adaptive.shadow_stats(Component::A),
            "shadow A diverged offline ({mode:?})"
        );
        assert_eq!(
            (off_b.hits, off_b.misses),
            adaptive.shadow_stats(Component::B),
            "shadow B diverged offline ({mode:?})"
        );
    }
}

#[test]
fn each_shadow_hits_exactly_when_its_twin_does() {
    // Per access, which is stronger than any per-set sum: after every
    // event, each online shadow's hit counter has advanced by one
    // exactly when its standalone twin hit that event.
    let trace = captured();
    let geom = l2_geom();
    for mode in all_tag_modes() {
        let config = AdaptiveConfig::paper_default().shadow_tag_mode(mode);
        let mut adaptive = AdaptiveCache::new(geom, config, SEED);
        let mut twin_a = TagArray::new(geom, mode, config.policy_a, SEED ^ 0xA);
        let mut twin_b = TagArray::new(geom, mode, config.policy_b, SEED ^ 0xB);
        let shadow_hits = |c: &AdaptiveCache| {
            (
                c.shadow_stats(Component::A).0,
                c.shadow_stats(Component::B).0,
            )
        };
        for (i, ev) in trace.events().enumerate() {
            let block = geom.block_of(Address::new(ev.addr));
            let (set, tag) = (geom.set_index(block), geom.tag(block));
            let (a, b) = shadow_hits(&adaptive);
            adaptive.access(block, ev.writeback);
            let want = (
                a + u64::from(twin_a.access_tag(set, tag).hit),
                b + u64::from(twin_b.access_tag(set, tag).hit),
            );
            assert_eq!(
                shadow_hits(&adaptive),
                want,
                "event {i}: a shadow and its twin disagreed ({mode:?})"
            );
        }
    }
}

#[test]
fn lockstep_replay_reproduces_exclusive_miss_totals() {
    // Walk both offline twins event-by-event and re-derive the
    // exclusive-miss counts the online cache trained its histories
    // with; they must match the online Figure-7 totals exactly.
    let trace = captured();
    let geom = l2_geom();
    for mode in all_tag_modes() {
        let config = AdaptiveConfig::paper_default().shadow_tag_mode(mode);
        let mut adaptive = AdaptiveCache::new(geom, config, SEED);
        replay_l2(&trace, &mut adaptive);

        let mut arr_a = TagArray::new(geom, mode, config.policy_a, SEED ^ 0xA);
        let mut arr_b = TagArray::new(geom, mode, config.policy_b, SEED ^ 0xB);
        let (mut excl_a, mut excl_b) = (0u64, 0u64);
        for ev in trace.events() {
            let block = geom.block_of(Address::new(ev.addr));
            let set = geom.set_index(block);
            let tag = geom.tag(block);
            let a = arr_a.access_tag(set, tag).hit;
            let b = arr_b.access_tag(set, tag).hit;
            if a != b {
                if a {
                    excl_b += 1;
                } else {
                    excl_a += 1;
                }
            }
        }
        assert_eq!(
            (excl_a, excl_b),
            adaptive.exclusive_miss_totals(),
            "exclusive-miss totals diverged ({mode:?})"
        );
    }
}
