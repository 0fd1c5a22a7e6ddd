//! Table formatting and CSV output for the experiment harness.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple aligned text table with a CSV twin.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, "{cell:<width$}  ", width = w);
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.headers);
        let rule: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Write a table's CSV under `dir/name.csv` (creates `dir`).
pub fn write_csv(table: &Table, dir: &Path, name: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut f = fs::File::create(dir.join(format!("{name}.csv")))?;
    f.write_all(table.to_csv().as_bytes())
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format joules as kilojoules.
pub fn fmt_kj(j: f64) -> String {
    format!("{:.1}", j / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "hello, world".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("hello, world"));
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"hello, world\""));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(0.1234), "0.123");
        assert_eq!(fmt_kj(1500.0), "1.5");
    }
}
