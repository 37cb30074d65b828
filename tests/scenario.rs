//! Integration tests for the scenario DSL and its deterministic runner.
//!
//! Two guarantees are pinned here rather than in the crate's unit tests
//! because they span the whole stack (files on disk → parser → simnet →
//! analyzer → verdict):
//!
//! 1. every seed scenario under `scenarios/` parses, validates, and
//!    round-trips through the canonical serializer;
//! 2. running the same scenario file at the same seed twice yields
//!    byte-identical traces and verdicts — the league's cache-and-compare
//!    reasoning depends on runs being pure functions of (file, seed).

#![expect(
    clippy::disallowed_methods,
    reason = "P3 binds sans-io code, and tests read the committed goldens and scenario files"
)]

use std::path::PathBuf;

use qsel_repro::qsel_scenario::{parse, run_scenario};

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn read_scenario(name: &str) -> String {
    let path = scenario_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn all_seed_scenarios_parse_validate_and_roundtrip() {
    let mut names: Vec<String> = std::fs::read_dir(scenario_dir())
        .expect("scenarios/ directory")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 8,
        "expected at least the 8 seed scenarios, found {names:?}"
    );
    for name in &names {
        let text = read_scenario(name);
        let sc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            name.trim_end_matches(".toml"),
            sc.name,
            "{name}: file name and scenario name must agree"
        );
        let back = parse(&sc.to_toml()).unwrap_or_else(|e| panic!("{name} reserialized: {e}"));
        assert_eq!(back, sc, "{name}: canonical round-trip changed the spec");
    }
}

#[test]
fn same_file_same_seed_is_byte_identical() {
    // One quiet scenario and one fault-heavy scenario; both must be pure
    // functions of (file, seed).
    for name in ["calm-baseline.toml", "crash-quorum-edge.toml"] {
        let sc = parse(&read_scenario(name)).expect("seed scenario parses");
        let a = run_scenario(&sc, 7).expect("first run");
        let b = run_scenario(&sc, 7).expect("second run");
        assert_eq!(
            a.trace_jsonl, b.trace_jsonl,
            "{name}: trace diverged between identical runs"
        );
        assert_eq!(
            a.verdict.to_json(),
            b.verdict.to_json(),
            "{name}: verdict diverged between identical runs"
        );
        assert_eq!(a.metrics_json, b.metrics_json);
        assert_eq!(
            a.latency_report, b.latency_report,
            "{name}: latency report diverged between identical runs"
        );
    }
}

#[test]
fn different_seeds_change_the_trace_not_the_verdict() {
    let sc = parse(&read_scenario("calm-baseline.toml")).expect("seed scenario parses");
    let a = run_scenario(&sc, 1).expect("seed 1");
    let b = run_scenario(&sc, 2).expect("seed 2");
    assert_ne!(
        a.trace_jsonl, b.trace_jsonl,
        "distinct seeds should schedule differently"
    );
    assert!(a.verdict.pass(), "calm baseline must pass at seed 1");
    assert!(b.verdict.pass(), "calm baseline must pass at seed 2");
}
