//! Experiments beyond the paper's evaluation: the comparison with its
//! set-dueling successor (DIP), a synthesis of the two, and the paper's
//! two future-work directions (a shared L2 and adaptive prefetching).

use super::{l2_mpki, suite_table};
use crate::multicore::{paper_future_work_pairs, run_shared_l2};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::{AdaptiveConfig, DipConfig, SbarConfig};
use cache_sim::{Cache, Geometry, PolicyKind};
use cpu_model::prefetch::PrefetchKind;
use cpu_model::{run_functional, CpuConfig, Hierarchy};
use workloads::primary_suite;

/// The paper's adaptive cache vs DIP set dueling (Qureshi et al., ISCA
/// 2007), the successor its SBAR experiment anticipated. DIP needs no
/// shadow tags but can only move LRU's *insertion* position; the
/// adaptive cache combines arbitrary policies.
pub fn related_dip(insts: u64) -> Table {
    let kinds = [
        ("LRU", L2Kind::Plain(PolicyKind::Lru)),
        (
            "Adaptive",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        ("SBAR", L2Kind::Sbar(SbarConfig::paper_default())),
        ("DIP", L2Kind::Dip(DipConfig::paper_default())),
    ];
    suite_table(
        "Related work: adaptive replacement vs DIP set dueling (L2 MPKI)",
        &kinds,
        |b, k| l2_mpki(b, k, insts),
    )
}

/// An adaptive cache whose components are **BIP** (DIP's
/// thrash-protecting insertion) and LFU or LRU: a pairing neither the
/// 2006 paper nor the 2007 DIP paper evaluated, which the adaptive
/// framework turns into a configuration change.
pub fn synthesis(insts: u64) -> Table {
    let kinds = [
        ("LRU", L2Kind::Plain(PolicyKind::Lru)),
        (
            "Adaptive LRU/LFU",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        ("DIP", L2Kind::Dip(DipConfig::paper_default())),
        (
            "Adaptive BIP/LFU",
            L2Kind::Adaptive(AdaptiveConfig::with_policies(
                PolicyKind::Bip,
                PolicyKind::LFU5,
            )),
        ),
        (
            "Adaptive BIP/LRU",
            L2Kind::Adaptive(AdaptiveConfig::with_policies(
                PolicyKind::Bip,
                PolicyKind::Lru,
            )),
        ),
    ];
    suite_table(
        "Synthesis: adaptivity over DIP's insertion policy (L2 MPKI)",
        &kinds,
        |b, k| l2_mpki(b, k, insts),
    )
}

/// The paper's first future-work experiment: a shared L2 fed by two
/// dissimilar threads, `insts / 2` instructions each (combined L2 MPKI).
pub fn multicore_shared_l2(insts: u64) -> Table {
    let suite = primary_suite();
    let kinds = [
        L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        L2Kind::Plain(PolicyKind::LFU5),
        L2Kind::Plain(PolicyKind::Lru),
    ];
    let mut table = Table::new(
        "Future work: shared L2 with two dissimilar threads (combined L2 MPKI)",
        "pair",
        kinds.iter().map(L2Kind::label).collect(),
    );
    for (a, b) in paper_future_work_pairs() {
        let pair: Vec<_> = [a, b]
            .iter()
            .map(|n| {
                suite
                    .iter()
                    .find(|x| x.name == *n)
                    .expect("future-work pairs are primary-suite benchmarks")
            })
            .collect();
        let row = kinds
            .iter()
            .map(|k| run_shared_l2(&pair, k, insts / 2).l2_mpki())
            .collect();
        table.push_row(format!("{a}+{b}"), row);
    }
    table.push_average();
    table
}

/// The paper's second future-work experiment, adaptive hybrid hardware
/// prefetching ("hit/miss is replaced with useful/not-useful
/// prefetch"): demand L2 MPKI with no prefetching, next-line, stride and
/// the adaptive hybrid in front of an LRU L2.
pub fn prefetch_adaptivity(insts: u64) -> Table {
    let kinds = [
        ("none", PrefetchKind::None),
        ("next-line", PrefetchKind::NextLine),
        ("stride", PrefetchKind::Stride),
        ("adaptive", PrefetchKind::Adaptive),
    ];
    let cfg = CpuConfig::paper_default();
    let geom = Geometry::new(cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.l2.associativity)
        .expect("paper geometry is valid");
    suite_table(
        "Future work: L2 prefetching (demand L2 MPKI)",
        &kinds,
        |b, k| {
            let mut h = Hierarchy::new(&cfg, Cache::new(geom, PolicyKind::Lru, 7));
            h.set_prefetcher(k.build());
            run_functional(&mut h, b.spec.generator(), insts).l2_mpki()
        },
    )
}
