//! Section 4.4: generalised five-policy adaptivity (LRU, LFU, FIFO, MRU,
//! Random).
//!
//! "The combination of all five policies was not clearly superior to just
//! combining LRU and LFU ... the cumulative CPI over our primary
//! evaluation set was virtually identical to that of LRU/LFU adaptivity."

use super::{suite_table, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::{AdaptiveConfig, MultiConfig};
use cpu_model::CpuConfig;

/// Regenerates the Section 4.4 comparison: CPI of five-policy adaptivity
/// vs LRU/LFU adaptivity per benchmark.
pub fn sec44_five_policy(cells: &Cells, insts: u64) -> Table {
    let kinds = [
        (
            "Adaptive x5",
            L2Kind::Multi(MultiConfig::paper_five_policy()),
        ),
        (
            "Adaptive LRU/LFU",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
    ];
    suite_table(
        "Section 4.4: five-policy adaptivity vs LRU/LFU adaptivity (CPI)",
        &kinds,
        |b, k| cells.cpi(b, k, CpuConfig::paper_default(), insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn five_policy_is_not_clearly_superior() {
        let t = Figure::Plan(sec44_five_policy).run(250_000);
        let avg = t.row("Average").unwrap();
        let (five, two) = (avg[0], avg[1]);
        // "virtually identical": within ~8% either way at test scale.
        assert!(
            (five - two).abs() / two < 0.08,
            "five-policy {five:.3} vs two-policy {two:.3}"
        );
    }
}
