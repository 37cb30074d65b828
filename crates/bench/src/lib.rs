//! Experiment harness shared by the `exp-*` binaries.
//!
//! Each binary regenerates one experiment from `EXPERIMENTS.md` (which maps
//! them to the paper's claims) and prints a markdown table to stdout.

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

/// The experiments' only contact with the host: input files, result
/// files and the wall clock. `clippy.toml` bans all three workspace-wide
/// so the simulated crates stay sans-io and reproducible; `bench` reads,
/// writes and times on purpose, and does it only here.
#[expect(
    clippy::disallowed_methods,
    reason = "P3: bench reads its inputs and writes result files on purpose"
)]
#[expect(
    clippy::disallowed_types,
    reason = "D2: bench measures wall-clock time on purpose"
)]
pub mod host {
    use std::io;
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    /// Reads a UTF-8 input file.
    pub fn read_text(path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    /// The entries of `dir`, sorted so callers see an order that does
    /// not depend on the filesystem.
    pub fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        paths.sort();
        Ok(paths)
    }

    /// Writes a result file, creating its directory first.
    ///
    /// # Panics
    ///
    /// If the directory or the file cannot be written: an experiment
    /// whose result is lost has failed.
    pub fn write_result(path: &Path, contents: impl AsRef<[u8]>) {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
        std::fs::write(path, contents)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }

    /// Runs `f` and returns its result with the wall-clock time it took.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
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
