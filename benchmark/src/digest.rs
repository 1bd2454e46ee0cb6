//! Stable digests of simulated statistics, and the committed goldens
//! they are checked against.
//!
//! A digest hashes named counters, not a serialisation, so adding a
//! field to a stats struct does not invalidate the goldens; changing a
//! simulated count does.

use cpu_model::{FunctionalStats, RunStats};
use std::collections::BTreeMap;

/// FNV-1a over 64-bit words.
pub fn fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
    })
}

/// Digest of one functional cell.
pub fn functional(s: &FunctionalStats) -> u64 {
    fnv(&[
        s.instructions,
        s.data_accesses,
        s.inst_fetches,
        s.l1d_misses,
        s.l1i_misses,
        s.l2_misses,
    ])
}

/// Digest of one timed cell.
pub fn timed(s: &RunStats) -> u64 {
    let mut words = vec![
        s.instructions,
        s.cycles,
        s.sb_stall_cycles,
        s.wc_merged_stores,
    ];
    for c in [&s.l1i, &s.l1d, &s.l2] {
        words.extend([c.accesses, c.hits, c.misses, c.evictions, c.writebacks]);
    }
    words.extend([
        s.branches.predictions,
        s.branches.mispredictions,
        s.branches.btb_misses,
    ]);
    fnv(&words)
}

/// Per-cell digests of one pass, keyed `benchmark/organisation`.
pub type CellDigests = BTreeMap<String, u64>;

/// Committed per-cell digests: workload → seed → cell → hex digest.
const GOLDENS: &str = include_str!("../goldens.json");

/// The committed digests for `workload` at `seed`, if any were recorded.
pub fn goldens(workload: &str, seed: u64) -> Option<CellDigests> {
    let doc: serde_json::Value = serde_json::from_str(GOLDENS).expect("goldens.json parses");
    let cells = doc.get(workload)?.get(&seed.to_string())?.as_object()?;
    Some(
        cells
            .iter()
            .map(|(k, v)| {
                let hex = v.as_str().expect("golden digests are hex strings");
                let d = u64::from_str_radix(hex, 16).expect("golden digests are hex strings");
                (k.clone(), d)
            })
            .collect(),
    )
}

/// Renders digests as the goldens document's hex strings.
pub fn to_hex(cells: &CellDigests) -> BTreeMap<String, String> {
    cells
        .iter()
        .map(|(k, d)| (k.clone(), format!("{d:016x}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::runner::{run_functional_l2, L2Kind, PAPER_L2};

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(fnv(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv(&[1, 2]), fnv(&[2, 1]));
        assert_eq!(fnv(&[7, 9]), fnv(&[7, 9]));
    }

    #[test]
    fn functional_digest_is_stable_on_a_tiny_config() {
        let bench = &workloads::primary_suite()[1];
        let kind = L2Kind::Plain(cache_sim::PolicyKind::Lru);
        let run = || {
            functional(
                &run_functional_l2(bench, &kind, PAPER_L2, 20_000)
                    .unwrap()
                    .stats,
            )
        };
        assert_eq!(run(), run());
        let mut other = run_functional_l2(bench, &kind, PAPER_L2, 20_000)
            .unwrap()
            .stats;
        other.l2_misses += 1;
        assert_ne!(functional(&other), run());
    }

    #[test]
    fn timed_digest_is_stable_on_a_tiny_config() {
        let bench = &workloads::primary_suite()[1];
        let kind = L2Kind::Plain(cache_sim::PolicyKind::Lru);
        let cfg = cpu_model::CpuConfig::paper_default();
        let run = || timed(&experiments::run_timed(bench, &kind, cfg, 10_000).unwrap());
        assert_eq!(run(), run());
    }

    #[test]
    fn hex_round_trips() {
        let cells: CellDigests = [("x/lru".into(), 0x00ab_cdef_0123_4567)].into();
        let hex = to_hex(&cells);
        assert_eq!(hex["x/lru"], "00abcdef01234567");
        assert_eq!(
            u64::from_str_radix(&hex["x/lru"], 16).unwrap(),
            cells["x/lru"]
        );
    }
}
