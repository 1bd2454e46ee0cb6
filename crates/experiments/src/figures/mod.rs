//! One module per table/figure of the paper's evaluation (Section 4),
//! plus the experiments beyond it, all listed in [`figures`]. Most of
//! them state their cells as `RunRequest`s and build their tables from
//! the replies, so one [`plan`] runs each distinct cell once.
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
pub mod plan;
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
pub use plan::{Cells, Plan, PlanFn, Produced, Settled};
pub use sec44::sec44_five_policy;
pub use sec46::sec46_l1_adaptivity;
pub use sec47::{sec47_overheads, sec47_sbar};
pub use storage::storage_table;
pub use table1::table1_config;

use crate::ablation;
use crate::report::Table;
use crate::resilience::SupervisorConfig;
use fig07::fig07_table;
use workloads::{primary_suite, Benchmark};

/// One entry of the evaluation.
#[derive(Debug, Clone, Copy)]
pub enum Figure {
    /// A table built from standard cells ([`crate::cell::RunRequest`]s), each of
    /// which runs once however many figures read it.
    Plan(PlanFn),
    /// A table that builds its own hierarchies or runs nothing: one
    /// cell of its own, instruction budget in, table out.
    Whole(fn(u64) -> Table),
}

/// A registry entry's standalone callable: instruction budget in,
/// finished table out.
pub type FigureFn = Box<dyn Fn(u64) -> Table + Send + Sync>;

/// Every table the evaluation writes, in the order the figure driver
/// (`cachesim figure all`) prints them. Each stem names the artifacts
/// `results/<stem>.{csv,json}`.
///
/// Table 1 is plain text rather than a [`Table`]; see
/// [`table1_config`].
pub fn figures() -> Vec<(&'static str, Figure)> {
    use Figure::{Plan, Whole};
    vec![
        ("table_storage", Whole(|_| storage_table())),
        ("fig03_mpki", Plan(fig03_mpki)),
        ("fig04_cpi", Plan(fig04_cpi)),
        ("fig05_partial_tags", Plan(fig05_partial_tags)),
        ("fig06_vs_bigger", Plan(fig06_vs_bigger)),
        ("fig07_ammp", Whole(|insts| fig07_table("ammp", insts))),
        ("fig07_mgrid", Whole(|insts| fig07_table("mgrid", insts))),
        ("fig08_fifo_mru", Plan(fig08_fifo_mru)),
        ("fig09_associativity", Plan(fig09_associativity)),
        ("fig10_store_buffer", Plan(fig10_store_buffer)),
        ("headline", Plan(headline)),
        ("sec44_five_policy", Plan(sec44_five_policy)),
        ("sec46_l1", Whole(sec46_l1_adaptivity)),
        ("sec47_sbar", Plan(sec47_sbar)),
        ("sec47_overheads", Whole(|_| sec47_overheads())),
        ("ablation_history", Plan(ablation::history_ablation)),
        ("ablation_lfu", Plan(ablation::lfu_counter_ablation)),
        ("ablation_sbar", Plan(ablation::sbar_leader_ablation)),
        ("ablation_xor_tags", Plan(ablation::xor_tag_ablation)),
        ("multicore_shared_l2", Whole(multicore_shared_l2)),
        ("prefetch_adaptivity", Whole(prefetch_adaptivity)),
        ("related_dip", Plan(related_dip)),
        ("synthesis", Plan(synthesis)),
    ]
}

/// Stem → standalone callable for every entry of [`figures`].
pub fn registry() -> Vec<(&'static str, FigureFn)> {
    let standalone = |(stem, f): (_, Figure)| (stem, Box::new(move |i| f.run(i)) as FigureFn);
    figures().into_iter().map(standalone).collect()
}

impl Figure {
    /// Builds the table on its own, as a sweep of its distinct cells
    /// without a journal.
    ///
    /// # Panics
    ///
    /// Panics if one of the figure's cells fails.
    pub fn run(self, insts: u64) -> Table {
        let plan = Plan::new(vec![("figure", self)], insts).unwrap_or_else(|e| panic!("{e}"));
        let produced = plan
            .run(&SupervisorConfig::default(), |_, _| Ok(()))
            .expect("a sweep without a journal starts");
        let (_, table) = produced.tables.into_iter().next().expect("one figure");
        table.unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Column means over the primary suite: `row(b)` gives benchmark `b`'s
/// values, and each mean sums its column in suite order.
pub(crate) fn suite_means(row: impl Fn(&Benchmark) -> Vec<f64>) -> Vec<f64> {
    let rows: Vec<Vec<f64>> = primary_suite().iter().map(row).collect();
    let n = rows.len() as f64;
    (0..rows[0].len())
        .map(|c| rows.iter().map(|r| r[c]).sum::<f64>() / n)
        .collect()
}

/// A table with one row per primary-suite benchmark, in suite order,
/// followed by the average row: column `j` is headed `columns[j].0` and
/// holds `cell(benchmark, &columns[j].1)`.
pub(crate) fn suite_table<L: ToString, C>(
    title: &str,
    columns: &[(L, C)],
    cell: impl Fn(&Benchmark, &C) -> f64,
) -> Table {
    let mut table = Table::new(
        title,
        "benchmark",
        columns.iter().map(|(label, _)| label.to_string()).collect(),
    );
    for b in primary_suite() {
        let values: Vec<f64> = columns.iter().map(|(_, c)| cell(&b, c)).collect();
        table.push_row(b.name.clone(), values);
    }
    table.push_average();
    table
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
