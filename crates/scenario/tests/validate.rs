//! `Scenario::validate` rejects what `run_scenario` cannot build, so a
//! validated scenario never panics inside the runner.

use qsel_scenario::{parse, run_scenario, Algorithm, Scenario};

/// The calm baseline at `f = 0` under `algorithm`.
fn calm_baseline_without_faults(algorithm: Algorithm) -> Scenario {
    let mut sc = parse(include_str!("../../../scenarios/calm-baseline.toml")).unwrap();
    sc.cluster.f = 0;
    sc.cluster.algorithm = algorithm;
    sc
}

#[test]
fn quorum_selection_without_a_fault_threshold_is_rejected() {
    let sc = calm_baseline_without_faults(Algorithm::Qs);
    let err = sc.validate().unwrap_err();
    assert!(
        err.contains("\"qs\""),
        "error must name the algorithm: {err}"
    );
    assert_eq!(run_scenario(&sc, 1).err(), Some(err));
}

#[test]
fn enumeration_without_a_fault_threshold_validates_and_runs_green() {
    let sc = calm_baseline_without_faults(Algorithm::Enumeration);
    sc.validate().unwrap();
    let artifacts = run_scenario(&sc, 1).unwrap();
    assert!(artifacts.verdict.pass(), "{}", artifacts.verdict.to_json());
}
