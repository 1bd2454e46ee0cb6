//! Figure 10: effect of store-buffer size on the adaptive benefit.
//!
//! "The benefit of adaptive caching is not only due to read misses but
//! also due to store buffer stalls. As the number of store buffer entries
//! increases ... the overall number of opportunities for adaptive caching
//! to provide a benefit \[decreases\]. However, more than half of the
//! benefit remains even for an unrealistically large 256-entry store
//! buffer." Expected shape: a graceful decay of the CPI improvement as
//! entries grow, with both absolute CPIs falling.

use super::{suite_means, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::PolicyKind;
use cpu_model::CpuConfig;

/// The store-buffer capacities swept (the paper's x axis is irregular).
pub const STORE_BUFFER_SIZES: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Regenerates Figure 10: average CPI of LRU and adaptive plus the
/// percentage improvement, per store-buffer capacity.
pub fn fig10_store_buffer(cells: &Cells, insts: u64) -> Table {
    let mut table = Table::new(
        "Figure 10: effect of store-buffer size on adaptive performance",
        "entries",
        vec![
            "LRU avg CPI".into(),
            "Adaptive avg CPI".into(),
            "improvement %".into(),
        ],
    );
    for entries in STORE_BUFFER_SIZES {
        let config = CpuConfig::paper_default().store_buffer(entries);
        let kinds = [
            L2Kind::Plain(PolicyKind::Lru),
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ];
        let avg = suite_means(|b| {
            kinds
                .iter()
                .map(|k| cells.cpi(b, k, config, insts))
                .collect()
        });
        let (lru, adaptive) = (avg[0], avg[1]);
        table.push_row(
            entries.to_string(),
            vec![lru, adaptive, 100.0 * (lru - adaptive) / lru],
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
    fn bigger_store_buffers_lower_cpi() {
        let t = Figure::Plan(fig10_store_buffer).run(250_000);
        let one = t.row("1").unwrap();
        let big = t.row("256").unwrap();
        assert!(
            one[0] > big[0],
            "1-entry LRU CPI ({}) must exceed 256-entry ({})",
            one[0],
            big[0]
        );
        // The benefit persists at 256 entries.
        assert!(big[2] > 0.0, "no adaptive benefit left at 256 entries");
    }
}
