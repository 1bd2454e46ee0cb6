//! Section 4.4: generalised five-policy adaptivity (LRU, LFU, FIFO, MRU,
//! Random).
//!
//! "The combination of all five policies was not clearly superior to just
//! combining LRU and LFU ... the cumulative CPI over our primary
//! evaluation set was virtually identical to that of LRU/LFU adaptivity."

use super::{cpi, suite_table};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::{AdaptiveConfig, MultiConfig};

/// Regenerates the Section 4.4 comparison: CPI of five-policy adaptivity
/// vs LRU/LFU adaptivity per benchmark.
pub fn sec44_five_policy(insts: u64) -> Table {
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
        |b, k| cpi(b, k, insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn five_policy_is_not_clearly_superior() {
        let t = sec44_five_policy(250_000);
        let avg = t.row("Average").unwrap();
        let (five, two) = (avg[0], avg[1]);
        // "virtually identical": within ~8% either way at test scale.
        assert!(
            (five - two).abs() / two < 0.08,
            "five-policy {five:.3} vs two-policy {two:.3}"
        );
    }
}
