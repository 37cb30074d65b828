//! Findings, suppression records, and the human/JSON reports.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Lint id, e.g. `"S1"`.
    pub lint: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What fired and why it matters.
    pub message: String,
    /// `Some(reason)` if a `// lint: allow(ID, reason)` annotation
    /// covers this finding.
    pub suppressed: Option<String>,
}

/// The result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by an allow annotation.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Number of unsuppressed findings (the CI gate).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Sorts findings deterministically.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    }

    /// The human-readable report.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            match &f.suppressed {
                None => {
                    let _ = writeln!(s, "{}: {}:{}: {}", f.lint, f.file, f.line, f.message);
                }
                Some(reason) => {
                    let _ = writeln!(
                        s,
                        "{} (allowed: {}): {}:{}: {}",
                        f.lint, reason, f.file, f.line, f.message
                    );
                }
            }
        }
        let suppressed = self.findings.len() - self.unsuppressed_count();
        let _ = writeln!(
            s,
            "qsel-lint: {} file(s), {} finding(s), {} suppressed, {} unsuppressed",
            self.files_scanned,
            self.findings.len(),
            suppressed,
            self.unsuppressed_count()
        );
        s
    }

    /// The machine-readable report (`lint_report.json`). Hand-rolled —
    /// the linter is dependency-free by design.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"suppressed\": {}}}",
                esc(f.lint),
                esc(&f.file),
                f.line,
                esc(&f.message),
                match &f.suppressed {
                    None => "null".to_string(),
                    Some(r) => format!("\"{}\"", esc(r)),
                }
            );
            s.push_str(if i + 1 < self.findings.len() { ",\n" } else { "\n" });
        }
        let suppressed = self.findings.len() - self.unsuppressed_count();
        let _ = write!(
            s,
            "  ],\n  \"summary\": {{\"files_scanned\": {}, \"total\": {}, \"suppressed\": {}, \"unsuppressed\": {}}}\n}}\n",
            self.files_scanned,
            self.findings.len(),
            suppressed,
            self.unsuppressed_count()
        );
        s
    }
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            findings: vec![Finding {
                lint: "S1",
                file: "a/b.rs".into(),
                line: 3,
                message: "payload \"boom\"".into(),
                suppressed: None,
            }],
            files_scanned: 1,
        };
        r.sort();
        let j = r.to_json();
        assert!(j.contains("\\\"boom\\\""));
        assert!(j.contains("\"unsuppressed\": 1"));
        assert_eq!(r.unsuppressed_count(), 1);
    }
}
