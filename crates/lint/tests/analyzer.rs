//! Fixture-driven self-tests for the workspace passes (P1–P4): each
//! pass is proven by a bad/good fixture pair, and the call-graph
//! machinery is proven by a three-file purity fixture whose io hides
//! two calls deep.

use std::path::PathBuf;

use qsel_lint::config::HandlerSpec;
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

fn p1_cfg() -> LintConfig {
    let mut cfg = LintConfig::default();
    cfg.p1_handlers = vec![HandlerSpec {
        enum_crate: "wire".into(),
        enum_name: "WireMsg".into(),
        handler_crate: "wire".into(),
        handler_fn: "handle_message".into(),
    }];
    cfg
}

#[test]
fn p1_flags_wildcard_swallowed_variant() {
    let files = vec![fixture("p1_bad.rs", "wire", true)];
    let report = lint_paths(&files, &p1_cfg()).unwrap();
    let p1: Vec<_> = report.findings.iter().filter(|f| f.lint == "P1").collect();
    assert_eq!(p1.len(), 1, "{:?}", report.findings);
    assert_eq!(p1[0].line, 9); // the handler's line
    assert!(p1[0].message.contains("`Sync`"));
    assert!(!p1[0].message.contains("`Ping`"));
}

#[test]
fn p1_follows_the_call_graph_out_of_the_handler() {
    // `Sync` is only named inside a helper the handler calls — the pass
    // must accept it (reachability, not just the handler body).
    let files = vec![fixture("p1_good.rs", "wire", true)];
    let report = lint_paths(&files, &p1_cfg()).unwrap();
    assert!(
        report.findings.is_empty(),
        "expected clean, got: {:?}",
        report.findings
    );
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

#[test]
fn p3_flags_io_reached_through_a_helper() {
    let files = vec![fixture("p3_bad.rs", "core", false)];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    let p3: Vec<_> = report.findings.iter().filter(|f| f.lint == "P3").collect();
    // Both the helper touching the socket and the entry point reaching
    // it are impure.
    let fns: Vec<&str> = p3
        .iter()
        .map(|f| {
            if f.message.contains("`broadcast`") && f.line == 2 {
                "broadcast"
            } else {
                "push_wire"
            }
        })
        .collect();
    assert_eq!(p3.len(), 2, "{:?}", report.findings);
    assert!(fns.contains(&"broadcast") && fns.contains(&"push_wire"));
}

#[test]
fn p3_accepts_the_sans_io_twin() {
    let files = vec![fixture("p3_good.rs", "core", false)];
    let report = lint_paths(&files, &LintConfig::default()).unwrap();
    assert!(
        report.findings.is_empty(),
        "expected clean, got: {:?}",
        report.findings
    );
}

#[test]
fn p3_chains_through_three_files() {
    // The known 3-deep violation: entry -> middle -> sink, one file
    // each, io only in the last. The call graph must stitch the chain
    // across files and the finding on `entry` must spell it out.
    let mut cfg = LintConfig::default();
    cfg.p3_pure_crates.push("purebad".into());
    let files = vec![
        fixture("purebad_entry.rs", "purebad", false),
        fixture("purebad_middle.rs", "purebad", false),
        fixture("purebad_sink.rs", "purebad", false),
    ];
    let report = lint_paths(&files, &cfg).unwrap();
    let p3: Vec<_> = report.findings.iter().filter(|f| f.lint == "P3").collect();
    assert_eq!(p3.len(), 3, "{:?}", report.findings);
    let entry = p3
        .iter()
        .find(|f| f.file.ends_with("purebad_entry.rs"))
        .expect("entry finding");
    assert!(
        entry.message.contains("`entry` -> `middle` -> `sink`"),
        "chain missing: {}",
        entry.message
    );
    assert!(entry.message.contains("std::fs"));
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
