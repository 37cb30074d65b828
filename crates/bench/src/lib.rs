//! Experiment harness shared by the `exp-*` binaries.
//!
//! Each binary regenerates one experiment from `EXPERIMENTS.md` (which maps
//! them to the paper's claims) and prints a markdown table to stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// A simple aligned markdown table printer.
///
/// # Example
///
/// ```
/// use qsel_bench::Table;
/// let mut t = Table::new(vec!["f", "measured", "bound"]);
/// t.row(vec!["1".into(), "2".into(), "2".into()]);
/// let s = t.render();
/// assert!(s.contains("| f | measured | bound |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Convenience: appends a row of displayable values.
    pub fn drow<D: Display>(&mut self, cells: Vec<D>) {
        self.row(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str("| ");
            out.push_str(&r.join(" | "));
            out.push_str(" |\n");
        }
        out
    }

    /// Prints the table with a title line.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        println!("{}", self.render());
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(part: f64, whole: f64) -> String {
    if whole == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * part / whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(vec!["a", "b"]);
        t.drow(vec![1, 2]);
        t.drow(vec![3, 4]);
        let s = t.render();
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("| 3 | 4 |"));
        assert!(s.starts_with("| a | b |"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_validates_columns() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.0, 2.0), "50.0%");
        assert_eq!(pct(1.0, 0.0), "n/a");
    }
}
