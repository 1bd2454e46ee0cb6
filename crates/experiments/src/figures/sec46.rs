//! Section 4.6: adaptivity at other levels of the hierarchy.
//!
//! "In a 16KB instruction cache, the adaptive approach reduces the
//! average MPKI rate by about 12%, whereas in the data cache the miss
//! rate reduction was less than 1%. This did not result in any meaningful
//! performance improvement (<0.1%)."

use super::suite_means;
use crate::report::Table;
use adaptive_cache::{AdaptiveCache, AdaptiveConfig};
use cache_sim::{Cache, Geometry, PolicyKind};
use cpu_model::{l1_geometry, CpuConfig, Hierarchy, Pipeline};

/// Regenerates the Section 4.6 numbers: average L1I MPKI, L1D MPKI and
/// CPI with conventional vs adaptive L1 caches (L2 stays conventional
/// LRU in both, isolating the L1 effect).
pub fn sec46_l1_adaptivity(insts: u64) -> Table {
    let config = CpuConfig::paper_default();
    let l2_geom = Geometry::new(
        config.l2.size_bytes,
        config.l2.line_bytes,
        config.l2.associativity,
    )
    .unwrap();

    let avg = suite_means(|b| {
        // Baseline: conventional LRU L1s.
        let base = Pipeline::new(config, Cache::new(l2_geom, PolicyKind::Lru, 1))
            .run(b.spec.generator(), insts);

        // Adaptive L1I and L1D (LRU/LFU, full tags, m = associativity).
        let l1i = AdaptiveCache::new(
            l1_geometry(config.l1i),
            AdaptiveConfig::paper_full_tags().history_kind(
                adaptive_cache::HistoryKind::BitVector {
                    m: config.l1i.associativity as u32,
                },
            ),
            0x11,
        );
        let l1d = AdaptiveCache::new(
            l1_geometry(config.l1d),
            AdaptiveConfig::paper_full_tags().history_kind(
                adaptive_cache::HistoryKind::BitVector {
                    m: config.l1d.associativity as u32,
                },
            ),
            0x1D,
        );
        let hierarchy = Hierarchy::with_l1s(l1i, l1d, Cache::new(l2_geom, PolicyKind::Lru, 1));
        let adaptive = Pipeline::with_hierarchy(config, hierarchy).run(b.spec.generator(), insts);
        vec![
            base.l1i_mpki(),
            base.l1d_mpki(),
            base.cpi(),
            adaptive.l1i_mpki(),
            adaptive.l1d_mpki(),
            adaptive.cpi(),
        ]
    });
    let mut table = Table::new(
        "Section 4.6: LRU/LFU-adaptive L1 instruction and data caches (primary-set averages)",
        "configuration",
        vec!["L1I MPKI".into(), "L1D MPKI".into(), "CPI".into()],
    );
    table.push_row("conventional L1s", avg[..3].to_vec());
    table.push_row("adaptive L1s", avg[3..].to_vec());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn l1_adaptivity_is_roughly_neutral_on_cpi() {
        let t = sec46_l1_adaptivity(250_000);
        let base = t.row("conventional L1s").unwrap().to_vec();
        let adap = t.row("adaptive L1s").unwrap().to_vec();
        // The paper: miss-rate changes at the L1 do not move CPI much.
        let delta = (adap[2] - base[2]).abs() / base[2];
        assert!(delta < 0.05, "adaptive L1s moved CPI by {delta:.3}");
        // And the data-cache miss rate does not get materially worse.
        assert!(
            adap[1] < base[1] * 1.10,
            "L1D MPKI regressed: {adap:?} vs {base:?}"
        );
    }
}
