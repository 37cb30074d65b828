//! Fixture-driven self-test for S1: the pass is proven by a bad/good
//! fixture pair.

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
fn s1_bad_and_good_fixture_twins_still_hold_under_dataflow() {
    // The dataflow upgrade must keep the original per-file pair honest:
    // the bad twin has no callers at all (nobody vouches), the good
    // twin verifies in-body.
    let cfg = LintConfig::default();
    let report = lint_paths(&[fixture("s1_bad.rs", "xpaxos")], &cfg).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].lint, "S1");
    let report = lint_paths(&[fixture("s1_good.rs", "xpaxos")], &cfg).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
