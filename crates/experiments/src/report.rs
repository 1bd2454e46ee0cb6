//! Tabular reporting: aligned text for the terminal, CSV and JSON
//! artefacts for `results/`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// A simple numeric table: one label per row, one series per column —
/// the shape of every figure in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. `"Figure 3: L2 MPKI"`).
    pub title: String,
    /// Label of the row-key column (e.g. `"benchmark"`).
    pub row_key: String,
    /// Column (series) names.
    pub columns: Vec<String>,
    /// Rows: `(label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, row_key: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            row_key: row_key.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// Appends a row of per-column arithmetic means over the existing rows
    /// (the paper reports arithmetic means of MPKI/CPI so that the average
    /// is proportional to total cost — see its footnote 7).
    pub fn push_average(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.rows.len() as f64;
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("Average".to_string(), means));
    }

    /// The values of the row labelled `label`, if present.
    pub fn row(&self, label: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }

    /// The column index of `name`, if present.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Renders the table as CSV (RFC 4180: a name or label holding a
    /// comma, a quote or a line break is quoted, its quotes doubled).
    pub fn to_csv(&self) -> String {
        let field = |s: &str| {
            if s.contains([',', '"', '\r', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = field(&self.row_key);
        for c in &self.columns {
            out.push(',');
            out.push_str(&field(c));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&field(label));
            for v in values {
                out.push(',');
                out.push_str(&format!("{v:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the table as both `<stem>.csv` and `<stem>.json` under
    /// `dir`, creating the directory if needed.
    ///
    /// Both files are written atomically (to `<name>.tmp`, then renamed),
    /// so an interrupted run can never leave a truncated artifact that a
    /// resumed run would trust.
    pub fn write_artifacts(&self, dir: &Path, stem: &str) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        write_atomic(&dir.join(format!("{stem}.csv")), self.to_csv().as_bytes())?;
        write_atomic(&dir.join(format!("{stem}.json")), json.as_bytes())?;
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically, creating a missing parent
/// directory: the contents land in `<path>.tmp` first and are renamed
/// into place, so readers (and resumed runs) only ever observe either
/// the old file or the complete new one — never a truncated
/// intermediate.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([self.row_key.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(10)
            .max(10);
        write!(f, "{:label_w$}", self.row_key)?;
        for c in &self.columns {
            write!(f, "  {c:>col_w$}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{}",
            "-".repeat(label_w + (col_w + 2) * self.columns.len())
        )?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for v in values {
                write!(f, "  {v:>col_w$.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", "bench", vec!["LRU".into(), "LFU".into()]);
        t.push_row("art", vec![10.0, 4.0]);
        t.push_row("lucas", vec![2.0, 8.0]);
        t
    }

    #[test]
    fn average_row() {
        let mut t = sample();
        t.push_average();
        assert_eq!(t.row("Average").unwrap(), &[6.0, 6.0]);
    }

    #[test]
    fn lookup_by_name() {
        let t = sample();
        assert_eq!(t.row("art").unwrap(), &[10.0, 4.0]);
        assert_eq!(t.column("LFU"), Some(1));
        assert_eq!(t.column("nope"), None);
        assert!(t.row("nope").is_none());
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "bench,LRU,LFU");
        assert!(lines[1].starts_with("art,10.0"));

        let mut t = Table::new("Fig Y", "a,b", vec![r#"say "hi", twice"#.into()]);
        t.push_row("x", vec![1.0]);
        assert_eq!(
            t.to_csv().lines().next(),
            Some(r#""a,b","say ""hi"", twice""#)
        );
    }

    #[test]
    fn display_contains_everything() {
        let text = sample().to_string();
        for needle in ["Fig X", "LRU", "LFU", "art", "lucas"] {
            assert!(text.contains(needle), "missing {needle} in\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = sample();
        t.push_row("bad", vec![1.0]);
    }

    #[test]
    fn artifacts_round_trip() {
        let dir = std::env::temp_dir().join("ac_report_test");
        let t = sample();
        t.write_artifacts(&dir, "fig_x").unwrap();
        let json = std::fs::read_to_string(dir.join("fig_x.json")).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_leave_no_temp_files() {
        let dir = std::env::temp_dir().join("ac_report_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        sample().write_artifacts(&dir, "fig_y").unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "temp files must be renamed away: {names:?}"
        );
        assert_eq!(names.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_existing_content() {
        let dir = std::env::temp_dir().join("ac_write_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An existing directory, and one the first write must create.
        for path in [dir.join("x.json"), dir.join("missing/y.json")] {
            write_atomic(&path, b"old").unwrap();
            write_atomic(&path, b"new content").unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "new content");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
