//! The paper's claims, asserted over the committed tables that CI keeps
//! current: `results/fig03_mpki.csv` (Figure 3, adaptive against its
//! two components) and `results/fig05_partial_tags.csv` (Figure 5,
//! partial shadow tags), both read as RFC 4180 CSV.

use std::path::Path;

/// The fields of one RFC 4180 record: a field may be quoted, a quoted
/// field may hold commas, and `""` inside quotes is one quote.
fn fields(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                out.last_mut().unwrap().push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => out.push(String::new()),
            _ => out.last_mut().unwrap().push(c),
        }
    }
    assert!(!quoted, "unterminated quote in {line:?}");
    out
}

/// A committed table: rows keyed by their first field, each mapping a
/// column name to its number.
struct Table {
    header: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    fn read(stem: &str) -> Table {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{stem}.csv"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut lines = text.lines();
        let header = fields(lines.next().expect("a header"));
        let rows = lines
            .map(|line| {
                let f = fields(line);
                assert_eq!(f.len(), header.len(), "{stem}: {line:?}");
                let values = f[1..]
                    .iter()
                    .map(|v| v.parse().unwrap_or_else(|_| panic!("{stem}: {v:?}")))
                    .collect();
                (f[0].clone(), values)
            })
            .collect();
        Table { header, rows }
    }

    /// The value of column `name` in row `row`.
    fn get(&self, row: &str, name: &str) -> f64 {
        let col = self.header[1..]
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.header));
        let (_, values) = self
            .rows
            .iter()
            .find(|(r, _)| r == row)
            .unwrap_or_else(|| panic!("no row {row:?}"));
        values[col]
    }
}

const ADAPTIVE: &str = "Adaptive(LRU/LFU, full tags)";

#[test]
fn figure3_art_leans_lfu_and_lucas_leans_lru() {
    let t = Table::read("fig03_mpki");
    assert!(t.get("art-1", "LFU") < t.get("art-1", "LRU"));
    assert!(t.get("lucas", "LRU") < t.get("lucas", "LFU"));
}

#[test]
fn figure3_adaptive_is_within_5_percent_of_the_better_component() {
    let t = Table::read("fig03_mpki");
    let benchmarks: Vec<&str> = t
        .rows
        .iter()
        .map(|(r, _)| r.as_str())
        .filter(|&r| r != "Average")
        .collect();
    assert_eq!(benchmarks.len(), 26, "the primary suite");
    for b in benchmarks {
        let better = t.get(b, "LRU").min(t.get(b, "LFU"));
        let adaptive = t.get(b, ADAPTIVE);
        assert!(
            adaptive <= better * 1.05,
            "{b}: adaptive {adaptive} MPKI against {better}"
        );
    }
}

#[test]
fn figure5_partial_tags_of_6_bits_or_more_track_full_tags_within_1_percent() {
    let t = Table::read("fig05_partial_tags");
    let full = t.get("Full", "avg MPKI");
    for bits in ["12-bit", "10-bit", "8-bit", "6-bit"] {
        let partial = t.get(bits, "avg MPKI");
        assert!(
            (partial - full).abs() <= 0.01 * full,
            "{bits}: {partial} MPKI against {full} with full tags"
        );
    }
}
