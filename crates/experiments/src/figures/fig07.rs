//! Figure 7: time- and space-varying replacement behaviour.
//!
//! The paper samples, every million cycles, which component policy each of
//! the 1024 sets' replacement decisions mostly imitated: "a dark point ...
//! indicates that the majority of replacement decisions during that time
//! quantum were LRU, while a white point corresponds to LFU". The ammp
//! map shows an early spatially-mixed phase, an LFU-dominant band and a
//! final LRU takeover; mgrid shows a per-set gradient.

use crate::report::Table;
use adaptive_cache::{AdaptiveCache, AdaptiveConfig, Component};
use cache_sim::Geometry;
use cpu_model::{CpuConfig, Pipeline};
use serde::{Deserialize, Serialize};
use workloads::{extended_suite, Benchmark};

/// A sampled (time x set) map of imitation decisions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseMap {
    /// Benchmark name.
    pub benchmark: String,
    /// Sampling quantum in cycles.
    pub quantum_cycles: u64,
    /// Sets aggregated per displayed group (the paper plots all 1024
    /// individually; grouping keeps terminal output readable).
    pub sets_per_group: usize,
    /// `fraction_b[t][g]`: share of replacement decisions in quantum `t`,
    /// set group `g`, that imitated component B (LFU). `NaN` where no
    /// replacements happened.
    pub fraction_b: Vec<Vec<f64>>,
}

impl PhaseMap {
    /// Renders the map as ASCII art: one row per set group, time running
    /// left to right; `#` = LRU-majority (dark in the paper), `.` =
    /// LFU-majority (white), space = no replacements.
    pub fn ascii(&self) -> String {
        let groups = self.fraction_b.first().map(|r| r.len()).unwrap_or(0);
        let mut out = String::new();
        for g in (0..groups).rev() {
            for row in &self.fraction_b {
                let f = row[g];
                out.push(if f.is_nan() {
                    ' '
                } else if f >= 0.5 {
                    '.'
                } else {
                    '#'
                });
            }
            out.push('\n');
        }
        out
    }

    /// Converts to a [`Table`] (rows = time quanta, columns = set groups).
    pub fn to_table(&self) -> Table {
        let groups = self.fraction_b.first().map(|r| r.len()).unwrap_or(0);
        let mut t = Table::new(
            format!(
                "Figure 7: {} fraction of LFU-imitating decisions per set group (quantum {} cycles)",
                self.benchmark, self.quantum_cycles
            ),
            "quantum",
            (0..groups).map(|g| format!("sets{}", g * self.sets_per_group)).collect(),
        );
        for (i, row) in self.fraction_b.iter().enumerate() {
            t.push_row(
                format!("t{i}"),
                row.iter()
                    .map(|&f| if f.is_nan() { -1.0 } else { f })
                    .collect(),
            );
        }
        t
    }
}

/// Runs `benchmark` (by name) on the paper's adaptive L2 and samples the
/// per-set imitation decisions every `quantum_cycles`.
///
/// # Panics
///
/// Panics if the benchmark name is unknown.
pub fn fig07_phase_map(
    benchmark: &str,
    insts: u64,
    quantum_cycles: u64,
    set_groups: usize,
) -> PhaseMap {
    let bench: Benchmark = extended_suite()
        .into_iter()
        .find(|b| b.name == benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
    let config = CpuConfig::paper_default();
    let geom = Geometry::new(
        config.l2.size_bytes,
        config.l2.line_bytes,
        config.l2.associativity,
    )
    .unwrap();
    let sets = geom.num_sets();
    let sets_per_group = (sets / set_groups).max(1);

    let l2 = AdaptiveCache::new(geom, AdaptiveConfig::paper_full_tags(), 0x0C0FFEE);
    let mut pipe = Pipeline::new(config, l2);

    let mut map = PhaseMap {
        benchmark: benchmark.to_string(),
        quantum_cycles,
        sets_per_group,
        fraction_b: Vec::new(),
    };
    let mut next_boundary = quantum_cycles;
    let mut trace = bench.spec.generator();
    for _ in 0..insts {
        let inst = trace.next().expect("trace is infinite");
        pipe.step(&inst);
        if pipe.cycles() >= next_boundary {
            next_boundary += quantum_cycles;
            map.fraction_b
                .push(sample(pipe.l2_mut(), set_groups, sets_per_group));
        }
    }
    map.fraction_b
        .push(sample(pipe.l2_mut(), set_groups, sets_per_group));
    map
}

/// The registry's Figure 7 table for `benchmark`: its phase map over at
/// least 2M instructions, sampled every 100 000 cycles into 32 set
/// groups.
pub(crate) fn fig07_table(benchmark: &str, insts: u64) -> Table {
    fig07_phase_map(benchmark, insts.max(2_000_000), 100_000, 32).to_table()
}

fn sample(l2: &mut AdaptiveCache, groups: usize, per_group: usize) -> Vec<f64> {
    let samples = l2.take_imitation_samples();
    (0..groups)
        .map(|g| {
            let (mut a, mut b) = (0u64, 0u64);
            for s in samples.iter().skip(g * per_group).take(per_group) {
                a += s.imitated_a;
                b += s.imitated_b;
            }
            if a + b == 0 {
                f64::NAN
            } else {
                b as f64 / (a + b) as f64
            }
        })
        .collect()
}

/// The component the map colours encode, for documentation purposes.
pub const DARK: Component = Component::A; // LRU
/// See [`DARK`].
pub const WHITE: Component = Component::B; // LFU

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn ammp_map_shows_both_behaviours() {
        let map = fig07_phase_map("ammp", 400_000, 100_000, 16);
        assert!(map.fraction_b.len() >= 3, "need several quanta");
        let all: Vec<f64> = map
            .fraction_b
            .iter()
            .flatten()
            .copied()
            .filter(|f| !f.is_nan())
            .collect();
        assert!(!all.is_empty());
        // Both LFU-majority and LRU-majority regions must appear.
        assert!(all.iter().any(|&f| f >= 0.5), "no LFU-dominant region");
        assert!(all.iter().any(|&f| f < 0.5), "no LRU-dominant region");
    }

    #[test]
    fn ascii_dimensions() {
        let map = PhaseMap {
            benchmark: "x".into(),
            quantum_cycles: 1,
            sets_per_group: 64,
            fraction_b: vec![vec![0.9, 0.1], vec![f64::NAN, 0.4]],
        };
        let art = map.ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2, "one line per set group");
        assert_eq!(lines[0], "##", "group 1: LRU in both quanta");
        assert_eq!(lines[1], ". ", "group 0: LFU then no-data");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = fig07_phase_map("not-a-benchmark", 1000, 1000, 4);
    }
}
