//! Section 4.2 headline scalars.
//!
//! Paper values: LRU/LFU adaptivity reduces average L2 misses by ~19%
//! (primary set) / 18.6% (all 100 programs) and average CPI by 12.9%
//! (primary) / 8.4% (all); adaptivity never increases a program's misses
//! by more than 2.7% (tigr) or its CPI by more than 1.2% (unepic).

use super::Cells;
use crate::cell::RunRequest;
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::AdaptiveConfig;
use cache_sim::PolicyKind;
use cpu_model::CpuConfig;
use workloads::{extended_suite, primary_suite};

/// Regenerates the headline scalars over the primary and extended suites.
///
/// Rows: average miss reduction %, average CPI improvement %, worst-case
/// per-benchmark miss increase % and CPI increase % (all adaptive vs LRU).
pub fn headline(cells: &Cells, insts: u64) -> Table {
    let mut table = Table::new(
        "Section 4.2: headline adaptive vs LRU scalars",
        "metric",
        vec!["primary (26)".into(), "extended (100)".into()],
    );

    let adaptive = L2Kind::Adaptive(AdaptiveConfig::paper_full_tags());
    let lru = L2Kind::Plain(PolicyKind::Lru);
    let paper = CpuConfig::paper_default();

    let mut miss_red = Vec::new();
    let mut cpi_imp = Vec::new();
    let mut worst_miss = Vec::new();
    let mut worst_cpi = Vec::new();

    for suite in [primary_suite(), extended_suite()] {
        let rows: Vec<(f64, f64, f64, f64)> = suite
            .iter()
            .map(|b| {
                let am = cells.reply(RunRequest::functional(b, &adaptive, insts));
                let lm = cells.reply(RunRequest::functional(b, &lru, insts));
                (
                    am.l2_misses as f64,
                    lm.l2_misses as f64,
                    cells.cpi(b, &adaptive, paper, insts),
                    cells.cpi(b, &lru, paper, insts),
                )
            })
            .collect();
        let n = rows.len() as f64;
        let avg_am = rows.iter().map(|r| r.0).sum::<f64>() / n;
        let avg_lm = rows.iter().map(|r| r.1).sum::<f64>() / n;
        let avg_ac = rows.iter().map(|r| r.2).sum::<f64>() / n;
        let avg_lc = rows.iter().map(|r| r.3).sum::<f64>() / n;
        miss_red.push(100.0 * (avg_lm - avg_am) / avg_lm);
        cpi_imp.push(100.0 * (avg_lc - avg_ac) / avg_lc);
        worst_miss.push(
            rows.iter()
                .filter(|r| r.1 > 0.0)
                .map(|r| 100.0 * (r.0 - r.1) / r.1)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        worst_cpi.push(
            rows.iter()
                .map(|r| 100.0 * (r.2 - r.3) / r.3)
                .fold(f64::NEG_INFINITY, f64::max),
        );
    }

    table.push_row("avg miss reduction %", miss_red);
    table.push_row("avg CPI improvement %", cpi_imp);
    table.push_row("worst-case miss increase %", worst_miss);
    table.push_row("worst-case CPI increase %", worst_cpi);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn headline_directions() {
        let t = Figure::Plan(headline).run(400_000);
        let miss = t.row("avg miss reduction %").unwrap().to_vec();
        let cpi = t.row("avg CPI improvement %").unwrap().to_vec();
        assert!(miss[0] > 3.0, "primary miss reduction too small: {miss:?}");
        assert!(cpi[0] > 0.0, "primary CPI improvement absent: {cpi:?}");
        // Dilution: the extended-set averages improve less than primary.
        assert!(
            miss[1] <= miss[0] + 1.0,
            "extended set should dilute the benefit: {miss:?}"
        );
    }
}
