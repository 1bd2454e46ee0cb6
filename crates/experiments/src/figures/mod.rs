//! One module per table/figure of the paper's evaluation (Section 4),
//! plus the experiments beyond it, all listed in [`registry`].
//!
//! | module | paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — simulated processor configuration |
//! | [`fig03`] | Figure 3 — L2 MPKI, Adaptive vs LFU vs LRU |
//! | [`fig04`] | Figure 4 — CPI, same three organisations |
//! | [`fig05`] | Figure 5 — partial-tag size sweep |
//! | [`fig06`] | Figure 6 — adaptive vs bigger conventional caches |
//! | [`fig07`] | Figure 7 — per-set policy-choice phase maps |
//! | [`fig08`] | Figure 8 — FIFO/MRU adaptivity |
//! | [`fig09`] | Figure 9 — benefit vs associativity |
//! | [`fig10`] | Figure 10 — store-buffer size sweep |
//! | [`sec44`] | Section 4.4 — five-policy adaptivity |
//! | [`sec46`] | Section 4.6 — adaptivity at the L1s |
//! | [`sec47`] | Section 4.7 — SBAR set sampling and its overheads |
//! | [`headline()`](headline()) | Section 4.2 — headline scalars over both suites |
//! | [`storage`] | Section 3.2 — SRAM storage overheads |
//! | [`extensions`] | beyond the paper — DIP, BIP synthesis, shared L2, prefetching |

pub mod extensions;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod headline;
pub mod sec44;
pub mod sec46;
pub mod sec47;
pub mod storage;
pub mod table1;

pub use extensions::{multicore_shared_l2, prefetch_adaptivity, related_dip, synthesis};
pub use fig03::fig03_mpki;
pub use fig04::fig04_cpi;
pub use fig05::fig05_partial_tags;
pub use fig06::fig06_vs_bigger;
pub use fig07::{fig07_phase_map, PhaseMap};
pub use fig08::fig08_fifo_mru;
pub use fig09::fig09_associativity;
pub use fig10::fig10_store_buffer;
pub use headline::headline;
pub use sec44::sec44_five_policy;
pub use sec46::sec46_l1_adaptivity;
pub use sec47::{sec47_overheads, sec47_sbar};
pub use storage::storage_table;
pub use table1::table1_config;

use crate::ablation;
use crate::report::Table;
use crate::runner::{parallel_map, run_functional_l2, run_timed, L2Kind, PAPER_L2};
use cpu_model::CpuConfig;
use fig07::fig07_table;
use workloads::{primary_suite, Benchmark};

/// A figure generator: instruction budget in, finished table out.
pub type FigureFn = fn(u64) -> Table;

/// Stem → generator for every table the evaluation writes, in the order
/// the figure driver (`cachesim figure all`) runs them. Each stem names
/// the artifacts `results/<stem>.{csv,json}`.
///
/// Table 1 is plain text rather than a [`Table`]; see
/// [`table1_config`].
pub fn registry() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("table_storage", |_| storage_table()),
        ("fig03_mpki", fig03_mpki),
        ("fig04_cpi", fig04_cpi),
        ("fig05_partial_tags", fig05_partial_tags),
        ("fig06_vs_bigger", fig06_vs_bigger),
        ("fig07_ammp", |insts| fig07_table("ammp", insts)),
        ("fig07_mgrid", |insts| fig07_table("mgrid", insts)),
        ("fig08_fifo_mru", fig08_fifo_mru),
        ("fig09_associativity", fig09_associativity),
        ("fig10_store_buffer", fig10_store_buffer),
        ("headline", headline),
        ("sec44_five_policy", sec44_five_policy),
        ("sec46_l1", sec46_l1_adaptivity),
        ("sec47_sbar", sec47_sbar),
        ("sec47_overheads", |_| sec47_overheads()),
        ("ablation_history", ablation::history_ablation),
        ("ablation_lfu", ablation::lfu_counter_ablation),
        ("ablation_sbar", ablation::sbar_leader_ablation),
        ("ablation_xor_tags", ablation::xor_tag_ablation),
        ("multicore_shared_l2", multicore_shared_l2),
        ("prefetch_adaptivity", prefetch_adaptivity),
        ("related_dip", related_dip),
        ("synthesis", synthesis),
    ]
}

/// A table with one row per primary-suite benchmark (computed in
/// parallel) followed by the average row: column `j` is headed
/// `columns[j].0` and holds `cell(benchmark, &columns[j].1)`.
pub(crate) fn suite_table<L: ToString + Sync, C: Sync>(
    title: &str,
    columns: &[(L, C)],
    cell: impl Fn(&Benchmark, &C) -> f64 + Sync,
) -> Table {
    let mut table = Table::new(
        title,
        "benchmark",
        columns.iter().map(|(label, _)| label.to_string()).collect(),
    );
    let rows = parallel_map(&primary_suite(), |b| {
        let values: Vec<f64> = columns.iter().map(|(_, c)| cell(b, c)).collect();
        (b.name.clone(), values)
    });
    for (name, values) in rows {
        table.push_row(name, values);
    }
    table.push_average();
    table
}

/// L2 MPKI of `b` on a functional run of the paper's L2 organised as
/// `kind`.
pub(crate) fn l2_mpki(b: &Benchmark, kind: &L2Kind, insts: u64) -> f64 {
    run_functional_l2(b, kind, PAPER_L2, insts)
        .expect("paper geometry is valid")
        .stats
        .l2_mpki()
}

/// CPI of `b` on the paper's processor with its L2 organised as `kind`.
fn cpi(b: &Benchmark, kind: &L2Kind, insts: u64) -> f64 {
    run_timed(b, kind, CpuConfig::paper_default(), insts)
        .expect("paper geometry is valid")
        .cpi()
}

#[cfg(test)]
mod registry_tests {
    #[test]
    fn registry_names_are_unique_artifact_stems() {
        let reg = super::registry();
        let mut names: Vec<_> = reg.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry stems");
    }
}
