//! Figure 3: L2 misses-per-thousand-instructions for each benchmark in the
//! primary set, for the adaptive policy and its component policies.

use super::{l2_mpki, suite_table};
use crate::report::Table;
use crate::runner::L2Kind;

/// Regenerates Figure 3 (lower is better).
pub fn fig03_mpki(insts: u64) -> Table {
    suite_table(
        "Figure 3: L2 misses per thousand instructions (512KB, 8-way)",
        &L2Kind::headline_trio().map(|k| (k.label(), k)),
        |b, k| l2_mpki(b, k, insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn fig03_shape_holds() {
        // Small instruction budget: we only check structural properties.
        let t = fig03_mpki(400_000);
        assert_eq!(t.rows.len(), 27, "26 benchmarks + average");
        let avg = t.row("Average").unwrap();
        let (adaptive, lfu, lru) = (avg[0], avg[1], avg[2]);
        assert!(
            adaptive < lru,
            "adaptive ({adaptive:.1}) must beat LRU ({lru:.1}) on average"
        );
        assert!(
            adaptive < lfu * 1.05,
            "adaptive ({adaptive:.1}) must be at worst marginally above LFU ({lfu:.1})"
        );
    }
}
