//! Figure 6: CPI comparison of partially-tagged adaptive replacement
//! against simply building a bigger conventional cache.
//!
//! The adaptive cache costs +4.0% storage; the 9-way 576 KB and 10-way
//! 640 KB LRU caches cost +12.5% and +25%. The paper's punchline: the
//! adaptive cache still performs slightly better than the 10-way cache at
//! less than a sixth of the overhead.

use super::{suite_table, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::PolicyKind;
use cpu_model::CpuConfig;

/// The five organisations of Figure 6: `(label, (L2Kind, processor))`.
/// The bigger caches keep the paper's 1024 sets: 576 KB over 9 ways and
/// 640 KB over 10 ways.
pub fn organisations() -> Vec<(String, (L2Kind, CpuConfig))> {
    let base = CpuConfig::paper_default();
    let nine = base.l2_shape(576 * 1024, 9);
    let ten = base.l2_shape(640 * 1024, 10);
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
pub fn fig06_vs_bigger(cells: &Cells, insts: u64) -> Table {
    suite_table(
        "Figure 6: CPI of partially-tagged adaptive replacement vs bigger conventional caches",
        &organisations(),
        |b, (kind, cpu)| cells.cpi(b, kind, *cpu, insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;
    use cache_sim::Geometry;

    #[test]
    fn organisation_geometries() {
        let geoms: Vec<Geometry> = organisations()
            .into_iter()
            .map(|(_, (_, cpu))| {
                Geometry::new(cpu.l2.size_bytes, cpu.l2.line_bytes, cpu.l2.associativity).unwrap()
            })
            .collect();
        assert_eq!(geoms.len(), 5);
        assert_eq!(geoms[3].size_bytes(), 576 * 1024);
        assert_eq!(geoms[4].size_bytes(), 640 * 1024);
        assert_eq!(geoms[3], Geometry::with_sets(1024, 64, 9).unwrap());
        assert_eq!(geoms[4], Geometry::with_sets(1024, 64, 10).unwrap());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn adaptive_beats_plain_lru_of_same_size() {
        let t = Figure::Plan(fig06_vs_bigger).run(250_000);
        let avg = t.row("Average").unwrap();
        // adaptive full (0) and 8-bit (1) vs same-size LRU (2)
        assert!(avg[0] <= avg[2] * 1.01, "{avg:?}");
        assert!(avg[1] <= avg[2] * 1.02, "{avg:?}");
        // bigger caches help LRU but stay in a sane range
        assert!(avg[4] <= avg[2] * 1.01, "10-way should not lose to 8-way");
    }
}
