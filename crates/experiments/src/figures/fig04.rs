//! Figure 4: cycles-per-instruction for each benchmark in the primary set,
//! for the adaptive policy and its component policies.

use super::{suite_table, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use cpu_model::CpuConfig;

/// Regenerates Figure 4 (lower is better).
pub fn fig04_cpi(cells: &Cells, insts: u64) -> Table {
    suite_table(
        "Figure 4: cycles per instruction (512KB, 8-way L2)",
        &L2Kind::headline_trio().map(|k| (k.label(), k)),
        |b, k| cells.cpi(b, k, CpuConfig::paper_default(), insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn fig04_shape_holds() {
        let t = Figure::Plan(fig04_cpi).run(300_000);
        assert_eq!(t.rows.len(), 27);
        let avg = t.row("Average").unwrap();
        let (adaptive, _lfu, lru) = (avg[0], avg[1], avg[2]);
        assert!(adaptive > 0.2, "CPI must be physical, got {adaptive}");
        assert!(
            adaptive < lru * 1.02,
            "adaptive CPI ({adaptive:.2}) must not lose to LRU ({lru:.2})"
        );
    }
}
