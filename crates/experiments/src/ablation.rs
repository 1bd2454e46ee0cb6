//! Ablation studies of the adaptive cache's design choices.
//!
//! The paper fixes several knobs (bit-vector history with `m` equal to
//! the associativity, 5-bit LFU counters, 16-ish leader sets for SBAR)
//! with brief justification; these sweeps quantify how much each choice
//! matters on the primary suite.

use crate::figures::{suite_means, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::overhead::StorageModel;
use adaptive_cache::{AdaptiveConfig, HistoryKind, SbarConfig};
use cache_sim::{Geometry, PolicyKind};

fn average_mpki(cells: &Cells, kind: &L2Kind, insts: u64) -> f64 {
    suite_means(|b| vec![cells.mpki(b, kind, insts)])[0]
}

/// Sweep of the miss-history variant (paper Section 2.2 discusses three
/// realisations but evaluates only the bit-vector with `m = 8`).
pub fn history_ablation(cells: &Cells, insts: u64) -> Table {
    let variants: Vec<(String, HistoryKind)> = [4u32, 8, 16, 32, 64]
        .iter()
        .map(|&m| (format!("bit-vector m={m}"), HistoryKind::BitVector { m }))
        .chain([
            ("counters (theory)".to_string(), HistoryKind::Counters),
            (
                "saturating 4-bit".to_string(),
                HistoryKind::Saturating { bits: 4 },
            ),
            (
                "saturating 10-bit".to_string(),
                HistoryKind::Saturating { bits: 10 },
            ),
        ])
        .collect();
    let mut t = Table::new(
        "Ablation: miss-history buffer variant (primary-set average MPKI)",
        "history",
        vec!["avg MPKI".into(), "bits/set".into()],
    );
    for (label, kind) in variants {
        let cfg = AdaptiveConfig::paper_full_tags().history_kind(kind);
        t.push_row(
            label,
            vec![
                average_mpki(cells, &L2Kind::Adaptive(cfg), insts),
                f64::from(kind.bits_per_set()),
            ],
        );
    }
    t
}

/// Sweep of the LFU counter width (the paper uses 5 bits; too few bits
/// saturate early and lose discrimination, too many embalm stale blocks).
pub fn lfu_counter_ablation(cells: &Cells, insts: u64) -> Table {
    let mut t = Table::new(
        "Ablation: LFU counter width (primary-set average MPKI)",
        "counter bits",
        vec!["plain LFU".into(), "adaptive LRU/LFU".into()],
    );
    for bits in [2u32, 3, 5, 8, 12] {
        let lfu = PolicyKind::Lfu { counter_bits: bits };
        let mut cfg = AdaptiveConfig::paper_full_tags();
        cfg.policy_b = lfu;
        t.push_row(
            bits.to_string(),
            vec![
                average_mpki(cells, &L2Kind::Plain(lfu), insts),
                average_mpki(cells, &L2Kind::Adaptive(cfg), insts),
            ],
        );
    }
    t
}

/// Sweep of the SBAR leader-set count: fewer leaders = less overhead but
/// noisier sampling.
pub fn sbar_leader_ablation(cells: &Cells, insts: u64) -> Table {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    let model = StorageModel::new(geom);
    let mut t = Table::new(
        "Ablation: SBAR leader-set count (primary-set average MPKI)",
        "leader sets",
        vec!["avg MPKI".into(), "overhead %".into()],
    );
    for leaders in [2usize, 4, 8, 16, 32, 64, 128] {
        let cfg = SbarConfig {
            leader_sets: leaders,
            ..SbarConfig::paper_default()
        };
        t.push_row(
            leaders.to_string(),
            vec![
                average_mpki(cells, &L2Kind::Sbar(cfg), insts),
                model.sbar_overhead_pct(&cfg),
            ],
        );
    }
    t
}

/// Sweep of the XOR-folded partial tags against low-order-bit tags of the
/// same width (Section 3.1 mentions both).
pub fn xor_tag_ablation(cells: &Cells, insts: u64) -> Table {
    use cache_sim::TagMode;
    let mut t = Table::new(
        "Ablation: low-order vs XOR-folded partial tags (primary-set average MPKI)",
        "tag bits",
        vec!["low-order".into(), "XOR-folded".into()],
    );
    for bits in [4u32, 6, 8] {
        let low = AdaptiveConfig::paper_full_tags().shadow_tag_mode(TagMode::PartialLow { bits });
        let xor = AdaptiveConfig::paper_full_tags().shadow_tag_mode(TagMode::PartialXor { bits });
        t.push_row(
            bits.to_string(),
            vec![
                average_mpki(cells, &L2Kind::Adaptive(low), insts),
                average_mpki(cells, &L2Kind::Adaptive(xor), insts),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn history_variants_are_all_sane() {
        let t = Figure::Plan(history_ablation).run(250_000);
        let values: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        // No history variant should be catastrophically worse than another.
        assert!(max / min < 1.2, "history sweep spread too wide: {values:?}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn sbar_more_leaders_cost_more() {
        let t = Figure::Plan(sbar_leader_ablation).run(150_000);
        let overheads: Vec<f64> = t.rows.iter().map(|(_, v)| v[1]).collect();
        for w in overheads.windows(2) {
            assert!(
                w[0] < w[1],
                "overhead must grow with leaders: {overheads:?}"
            );
        }
    }
}
