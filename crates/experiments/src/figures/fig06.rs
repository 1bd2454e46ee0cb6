//! Figure 6: CPI comparison of partially-tagged adaptive replacement
//! against simply building a bigger conventional cache.
//!
//! The adaptive cache costs +4.0% storage; the 9-way 576 KB and 10-way
//! 640 KB LRU caches cost +12.5% and +25%. The paper's punchline: the
//! adaptive cache still performs slightly better than the 10-way cache at
//! less than a sixth of the overhead.

use super::suite_table;
use crate::report::Table;
use crate::runner::{run_timed_with_geom, L2Kind};
use adaptive_cache::AdaptiveConfig;
use cache_sim::{Geometry, PolicyKind};
use cpu_model::CpuConfig;

/// The five organisations of Figure 6: `(label, (L2Kind, geometry))`.
pub fn organisations() -> Vec<(String, (L2Kind, Geometry))> {
    let base = Geometry::new(512 * 1024, 64, 8).unwrap();
    let nine = Geometry::with_sets(1024, 64, 9).unwrap();
    let ten = Geometry::with_sets(1024, 64, 10).unwrap();
    vec![
        (
            "Adaptive (512KB, full tags)".into(),
            (L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()), base),
        ),
        (
            "Adaptive (512KB, 8-bit tags)".into(),
            (L2Kind::Adaptive(AdaptiveConfig::paper_default()), base),
        ),
        (
            "LRU (512KB, 8-way)".into(),
            (L2Kind::Plain(PolicyKind::Lru), base),
        ),
        (
            "LRU (576KB, 9-way)".into(),
            (L2Kind::Plain(PolicyKind::Lru), nine),
        ),
        (
            "LRU (640KB, 10-way)".into(),
            (L2Kind::Plain(PolicyKind::Lru), ten),
        ),
    ]
}

/// Regenerates Figure 6 (CPI per benchmark; lower is better).
pub fn fig06_vs_bigger(insts: u64) -> Table {
    suite_table(
        "Figure 6: CPI of partially-tagged adaptive replacement vs bigger conventional caches",
        &organisations(),
        |b, (kind, geom)| {
            run_timed_with_geom(b, kind, CpuConfig::paper_default(), *geom, insts).cpi()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organisation_geometries() {
        let geoms: Vec<Geometry> = organisations().into_iter().map(|(_, (_, g))| g).collect();
        assert_eq!(geoms.len(), 5);
        assert_eq!(geoms[3].size_bytes(), 576 * 1024);
        assert_eq!(geoms[4].size_bytes(), 640 * 1024);
        assert_eq!(geoms[4].num_sets(), 1024);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn adaptive_beats_plain_lru_of_same_size() {
        let t = fig06_vs_bigger(250_000);
        let avg = t.row("Average").unwrap();
        // adaptive full (0) and 8-bit (1) vs same-size LRU (2)
        assert!(avg[0] <= avg[2] * 1.01, "{avg:?}");
        assert!(avg[1] <= avg[2] * 1.02, "{avg:?}");
        // bigger caches help LRU but stay in a sane range
        assert!(avg[4] <= avg[2] * 1.01, "10-way should not lose to 8-way");
    }
}
