//! Figure 5: effect of partial-tag size on average MPKI and CPI.
//!
//! The paper sweeps full, 12-, 10-, 8-, 6- and 4-bit low-order partial
//! tags for the shadow arrays and reports the percentage increase of the
//! primary-set averages relative to full tags. The expected shape: under
//! 1% degradation for 6 bits or more, visible degradation at 4 bits.

use super::{suite_means, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::TagMode;
use cpu_model::CpuConfig;

/// The tag configurations of Figure 5, in paper order.
pub fn tag_sweep() -> Vec<(String, TagMode)> {
    let mut v = vec![("Full".to_string(), TagMode::Full)];
    for bits in [12u32, 10, 8, 6, 4] {
        v.push((format!("{bits}-bit"), TagMode::PartialLow { bits }));
    }
    v
}

/// Regenerates Figure 5: average MPKI and CPI per tag size, plus the
/// percentage increase over full tags.
pub fn fig05_partial_tags(cells: &Cells, insts: u64) -> Table {
    let sweep = tag_sweep();
    let mut table = Table::new(
        "Figure 5: impact of partial tags on the adaptive cache (primary-set averages)",
        "tag size",
        vec![
            "avg MPKI".into(),
            "avg CPI".into(),
            "MPKI increase %".into(),
            "CPI increase %".into(),
        ],
    );

    // One (mpki, cpi) average pair per tag mode, summed in suite order.
    let per_mode: Vec<(f64, f64)> = sweep
        .iter()
        .map(|(_, mode)| {
            let kind = L2Kind::Adaptive(AdaptiveConfig::paper_full_tags().shadow_tag_mode(*mode));
            let paper = CpuConfig::paper_default();
            let avg = suite_means(|b| {
                vec![
                    cells.mpki(b, &kind, insts),
                    cells.cpi(b, &kind, paper, insts),
                ]
            });
            (avg[0], avg[1])
        })
        .collect();

    let (base_mpki, base_cpi) = per_mode[0];
    for ((label, _), (mpki, cpi)) in sweep.iter().zip(&per_mode) {
        table.push_row(
            label.clone(),
            vec![
                *mpki,
                *cpi,
                100.0 * (mpki - base_mpki) / base_mpki,
                100.0 * (cpi - base_cpi) / base_cpi,
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
    fn sweep_order_matches_paper() {
        let s = tag_sweep();
        assert_eq!(s.len(), 6);
        assert_eq!(s[0].0, "Full");
        assert_eq!(s[3].0, "8-bit");
        assert_eq!(s[5].0, "4-bit");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn eight_bit_tags_track_full_tags() {
        let t = Figure::Plan(fig05_partial_tags).run(250_000);
        let full = t.row("Full").unwrap()[0];
        let eight = t.row("8-bit").unwrap()[0];
        assert!(
            (eight - full).abs() / full < 0.05,
            "8-bit MPKI ({eight:.2}) must track full tags ({full:.2})"
        );
    }
}
