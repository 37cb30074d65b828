//! Fixture-driven self-tests of the driver: suppression, the test-code
//! exemption, and the machine-readable report's exact (lint, file,
//! line) triples.

use std::path::PathBuf;

use qsel_lint::{lint_paths, FileMeta, LintConfig};

/// (disk path, meta) for a fixture, linted as if it lived in `krate`.
fn fixture(name: &str, krate: &str) -> (PathBuf, FileMeta) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let meta = FileMeta {
        path: format!("fixtures/{name}"),
        krate: krate.to_string(),
    };
    (path, meta)
}

#[test]
fn suppression_records_reason_and_does_not_gate() {
    let files = vec![fixture("suppressed.rs", "xpaxos")];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!((f.lint, f.line), ("S1", 3));
    assert_eq!(
        f.suppressed.as_deref(),
        Some("fixture demonstrates the escape hatch")
    );
    assert_eq!(report.unsuppressed_count(), 0);
}

#[test]
fn cfg_test_code_is_exempt() {
    let files = vec![fixture("cfg_test.rs", "xpaxos")];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    assert!(
        report.findings.is_empty(),
        "test code must be exempt, got: {:?}",
        report.findings
    );
}

#[test]
fn json_report_carries_exact_files_and_lines() {
    let files = vec![
        fixture("s1_bad.rs", "xpaxos"),
        fixture("suppressed.rs", "xpaxos"),
    ];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    let json = report.to_json();
    assert!(json.contains(r#""lint": "S1", "file": "fixtures/s1_bad.rs", "line": 2,"#));
    assert!(json.contains(r#""lint": "S1", "file": "fixtures/suppressed.rs", "line": 3,"#));
    assert!(json.contains(r#""suppressed": "fixture demonstrates the escape hatch""#));
    assert!(json.contains(r#""summary": {"files_scanned": 2, "total": 2, "suppressed": 1, "unsuppressed": 1}"#));
}
