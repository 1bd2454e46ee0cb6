//! Section 4.7: eliminating the overheads with set sampling (SBAR).
//!
//! "For the programs in our primary set, the SBAR-like cache results in a
//! 12.5% improvement in average CPI while our regular adaptive cache is
//! only slightly better at 12.9%. ... the SBAR-like cache is a little
//! less robust." Overheads: 0.16% (full leader tags) and 0.09% (8-bit
//! leader tags) vs 4.0% for the partially-tagged adaptive cache.

use super::{cpi, suite_table};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::overhead::StorageModel;
use adaptive_cache::{AdaptiveConfig, SbarConfig};
use cache_sim::{Geometry, PolicyKind};

/// Regenerates the Section 4.7 comparison: per-benchmark CPI for LRU, the
/// regular adaptive cache, the SBAR-like cache and its partial-tag
/// variant.
pub fn sec47_sbar(insts: u64) -> Table {
    let kinds = [
        ("LRU", L2Kind::Plain(PolicyKind::Lru)),
        (
            "Adaptive",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        ("SBAR", L2Kind::Sbar(SbarConfig::paper_default())),
        (
            "SBAR (8-bit)",
            L2Kind::Sbar(SbarConfig::paper_partial_tags()),
        ),
    ];
    suite_table(
        "Section 4.7: SBAR-like set sampling vs full adaptivity (CPI)",
        &kinds,
        |b, k| cpi(b, k, insts),
    )
}

/// The Section 4.7 overhead comparison as a table.
pub fn sec47_overheads() -> Table {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    let m = StorageModel::new(geom);
    let mut t = Table::new(
        "Section 4.7: storage overheads of the organisations compared",
        "organisation",
        vec!["overhead %".into()],
    );
    t.push_row(
        "Adaptive (full tags)",
        vec![m.adaptive_overhead_pct(&AdaptiveConfig::paper_full_tags())],
    );
    t.push_row(
        "Adaptive (8-bit tags)",
        vec![m.adaptive_overhead_pct(&AdaptiveConfig::paper_default())],
    );
    t.push_row(
        "SBAR (full leader tags)",
        vec![m.sbar_overhead_pct(&SbarConfig::paper_default())],
    );
    t.push_row(
        "SBAR (8-bit leader tags)",
        vec![m.sbar_overhead_pct(&SbarConfig::paper_partial_tags())],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn sbar_recovers_most_of_the_benefit() {
        let t = sec47_sbar(300_000);
        let avg = t.row("Average").unwrap();
        let (lru, adaptive, sbar, sbar8) = (avg[0], avg[1], avg[2], avg[3]);
        let gain_adaptive = (lru - adaptive) / lru;
        let gain_sbar = (lru - sbar) / lru;
        assert!(gain_adaptive > 0.0, "adaptive shows no CPI gain");
        assert!(
            gain_sbar > gain_adaptive * 0.5,
            "SBAR ({gain_sbar:.3}) should recover most of the adaptive gain ({gain_adaptive:.3})"
        );
        assert!(
            (sbar8 - sbar).abs() / sbar < 0.05,
            "partial leader tags should be nearly identical"
        );
    }

    #[test]
    fn overhead_ordering() {
        let t = sec47_overheads();
        let vals: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        assert!(vals[0] > vals[1], "full tags cost more than partial");
        assert!(vals[1] > vals[2], "SBAR is far cheaper than adaptive");
        assert!(vals[2] > vals[3], "partial leader tags cheapest");
        assert!(vals[3] < 0.12, "SBAR partial must be ~0.09%");
    }
}
