//! Figure 9: overall benefit (average-CPI improvement and average-miss
//! reduction) versus L2 associativity, at a constant 512 KB capacity.
//!
//! Expected shape: the benefit persists across 4..32 ways and grows
//! slightly for highly-associative caches ("our technique would be
//! effective for future highly-associative last-level caches").

use super::plan::cpi;
use super::{suite_means, Cells};
use crate::cell::RunRequest;
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::PolicyKind;
use cpu_model::CpuConfig;

/// The associativities swept (512 KB each; the paper shows 4..32).
pub const ASSOCIATIVITIES: [usize; 4] = [4, 8, 16, 32];

/// Regenerates Figure 9: percentage improvement of average CPI and
/// percentage reduction of average misses, adaptive vs LRU.
pub fn fig09_associativity(cells: &Cells, insts: u64) -> Table {
    let mut table = Table::new(
        "Figure 9: benefit vs associativity (512KB L2)",
        "associativity",
        vec!["CPI improvement %".into(), "miss reduction %".into()],
    );
    for assoc in ASSOCIATIVITIES {
        let config = CpuConfig::paper_default().l2_shape(512 * 1024, assoc);
        let kinds = [
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
            L2Kind::Plain(PolicyKind::Lru),
        ];
        let avg = suite_means(|b| {
            let a = cells.reply(RunRequest::timed(b, &kinds[0], config, insts));
            let l = cells.reply(RunRequest::timed(b, &kinds[1], config, insts));
            vec![cpi(a), cpi(l), a.l2_misses as f64, l.l2_misses as f64]
        });
        let (a_cpi, l_cpi, a_miss, l_miss) = (avg[0], avg[1], avg[2], avg[3]);
        table.push_row(
            format!("{assoc}-way"),
            vec![
                100.0 * (l_cpi - a_cpi) / l_cpi,
                100.0 * (l_miss - a_miss) / l_miss,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn benefit_exists_across_associativities() {
        let t = Figure::Plan(fig09_associativity).run(500_000);
        assert_eq!(t.rows.len(), 4);
        for (label, v) in &t.rows {
            assert!(
                v[1] > -2.0,
                "{label}: adaptive should not increase misses materially ({v:?})"
            );
        }
        // The 8-way design point must show a real benefit.
        let eight = t.row("8-way").unwrap();
        assert!(eight[1] > 3.0, "8-way miss reduction too small: {eight:?}");
    }
}
