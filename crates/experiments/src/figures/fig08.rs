//! Figure 8: L2 MPKI for a policy adapting between FIFO and MRU.
//!
//! "An interesting combination in that MRU on its own is typically a very
//! bad replacement algorithm. Yet for programs with large linear loops,
//! MRU will outperform more reasonable policies" — the adaptive policy
//! must tightly track the better of the two.

use super::{suite_table, Cells};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::PolicyKind;

/// Regenerates Figure 8 (lower is better).
pub fn fig08_fifo_mru(cells: &Cells, insts: u64) -> Table {
    let kinds = [
        L2Kind::Adaptive(AdaptiveConfig::with_policies(
            PolicyKind::Fifo,
            PolicyKind::Mru,
        )),
        L2Kind::Plain(PolicyKind::Fifo),
        L2Kind::Plain(PolicyKind::Mru),
    ]
    .map(|k| (k.label(), k));
    suite_table(
        "Figure 8: L2 MPKI adapting between FIFO and MRU (512KB, 8-way)",
        &kinds,
        |b, k| cells.mpki(b, k, insts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn adaptive_tracks_better_component() {
        let t = Figure::Plan(fig08_fifo_mru).run(1_000_000);
        let avg = t.row("Average").unwrap();
        let (adaptive, fifo, mru) = (avg[0], avg[1], avg[2]);
        assert!(
            adaptive <= fifo.min(mru) * 1.10,
            "adaptive {adaptive:.1} vs FIFO {fifo:.1} / MRU {mru:.1}"
        );
        // Each component must lose badly on at least one benchmark — the
        // premise that makes FIFO/MRU adaptivity interesting. (On this
        // scan-heavy suite MRU is strong on *average*; what matters is
        // that neither policy is safe everywhere.)
        let mru_disaster = t
            .rows
            .iter()
            .filter(|(n, _)| n != "Average")
            .any(|(_, v)| v[2] > v[1] * 1.2);
        let fifo_disaster = t
            .rows
            .iter()
            .filter(|(n, _)| n != "Average")
            .any(|(_, v)| v[1] > v[2] * 1.2);
        assert!(mru_disaster, "MRU never collapses — premise broken");
        assert!(fifo_disaster, "FIFO never collapses — premise broken");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn mru_wins_somewhere() {
        // The paper: "MRU is only beneficial for one of the gcc inputs, as
        // well as for the art benchmark" — at least one benchmark must
        // have MRU strictly better than FIFO.
        let t = Figure::Plan(fig08_fifo_mru).run(1_000_000);
        let better_somewhere = t
            .rows
            .iter()
            .filter(|(name, _)| name != "Average")
            .any(|(_, v)| v[2] < v[1] * 0.97);
        assert!(better_somewhere, "MRU never wins: premise of Fig 8 broken");
    }
}
