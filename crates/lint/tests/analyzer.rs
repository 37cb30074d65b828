//! Fixture-driven self-tests for the passes (S1, P2, P4): each pass is
//! proven by a bad/good fixture pair.

use std::path::PathBuf;

use qsel_lint::{lint_paths, FileMeta, LintConfig};

/// (disk path, meta) for a fixture, linted as if it lived in `krate`.
fn fixture(name: &str, krate: &str, is_crate_root: bool) -> (PathBuf, FileMeta) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let meta = FileMeta {
        path: format!("fixtures/{name}"),
        krate: krate.to_string(),
        is_crate_root,
    };
    (path, meta)
}

#[test]
fn p2_flags_handwritten_thresholds() {
    let files = vec![fixture("p2_bad.rs", "xpaxos", false)];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    let lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.lint == "P2")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![3, 7], "{:?}", report.findings);
}

#[test]
fn p2_accepts_threshold_module_calls() {
    let files = vec![fixture("p2_good.rs", "xpaxos", false)];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    assert!(
        report.findings.is_empty(),
        "expected clean, got: {:?}",
        report.findings
    );
}

fn p4_cfg() -> LintConfig {
    LintConfig {
        p4_event_crate: "tracefix".into(),
        p4_event_enum: "Ev".into(),
        ..LintConfig::default()
    }
}

#[test]
fn p4_flags_unemitted_variants() {
    let files = vec![
        fixture("p4_enum.rs", "tracefix", true),
        fixture("p4_emit_bad.rs", "emit", false),
    ];
    let report = lint_paths(&files, &p4_cfg()).unwrap();
    let p4: Vec<_> = report.findings.iter().filter(|f| f.lint == "P4").collect();
    assert_eq!(p4.len(), 1, "{:?}", report.findings);
    // `Dropped` (line 7) is the one variant the emitter never names.
    assert_eq!(p4[0].line, 7);
    assert!(p4[0].message.contains("`Ev::Dropped`"));
    assert!(p4[0].message.contains("never emitted"));
}

#[test]
fn p4_accepts_full_coverage() {
    let files = vec![
        fixture("p4_enum.rs", "tracefix", true),
        fixture("p4_emit_good.rs", "emit", false),
    ];
    let report = lint_paths(&files, &p4_cfg()).unwrap();
    assert!(
        report.findings.is_empty(),
        "expected clean, got: {:?}",
        report.findings
    );
}

#[test]
fn s1_bad_and_good_fixture_twins_still_hold_under_dataflow() {
    // The dataflow upgrade must keep the original per-file pair honest:
    // the bad twin has no callers at all (nobody vouches), the good
    // twin verifies in-body.
    let cfg = LintConfig::default();
    let report = lint_paths(&[fixture("s1_bad.rs", "xpaxos", false)], &cfg).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].lint, "S1");
    let report = lint_paths(&[fixture("s1_good.rs", "xpaxos", false)], &cfg).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
