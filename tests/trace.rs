//! Integration tests for the `qsel-obs` tracing subsystem.
//!
//! Three contracts are pinned here, end to end:
//!
//! * **Determinism**: two traced chaos runs of the same seed export
//!   byte-identical JSONL, and tracing never perturbs the execution it
//!   observes (a traced and an untraced run of a seed commit the same
//!   operations).
//! * **Analyzer soundness**: a hand-built trace with one quorum too many
//!   in a single epoch is flagged as a Theorem 3 violation; the same
//!   trace without the excess quorum passes.
//! * **Paper bounds hold under chaos**: across the full 24-seed chaos
//!   sweep, replaying each exported trace confirms the Theorem 3
//!   `f(f+1)` bound on quorums per epoch once the system is stable
//!   (after the last heal), with zero invariant violations.

use qsel_obs::replay::{analyze, parse_jsonl};
use qsel_obs::{ReplayConfig, TraceEvent, TraceRecord, TraceSink};
use qsel_repro::chaos::{plan_for, run_chaos, run_chaos_with_sink, F, N};
use qsel_types::thresholds::thm3_bound;
use qsel_types::ClusterConfig;

#[test]
fn identical_seeds_export_byte_identical_traces() {
    for seed in [2u64, 19] {
        let sink_a = TraceSink::unbounded();
        let sink_b = TraceSink::unbounded();
        let a = run_chaos_with_sink(seed, sink_a.clone());
        let b = run_chaos_with_sink(seed, sink_b.clone());
        assert!(sink_a.len() > 0, "seed {seed}: trace is empty");
        assert_eq!(
            sink_a.export_jsonl(),
            sink_b.export_jsonl(),
            "seed {seed}: traces of identical (seed, plan) diverged"
        );
        assert_eq!(a.committed, b.committed, "seed {seed}");
    }
}

#[test]
fn tracing_does_not_perturb_the_execution() {
    // The sink draws nothing from the simulation's RNG, so enabling it
    // must not change what the run does — only what it records.
    for seed in [5u64, 11] {
        let untraced = run_chaos(seed);
        let traced = run_chaos_with_sink(seed, TraceSink::unbounded());
        assert_eq!(untraced.committed, traced.committed, "seed {seed}");
        let (su, st) = (untraced.sim.stats(), traced.sim.stats());
        assert_eq!(su.messages_sent, st.messages_sent, "seed {seed}");
        assert_eq!(su.messages_delivered, st.messages_delivered, "seed {seed}");
        assert_eq!(su.timers_fired, st.timers_fired, "seed {seed}");
    }
}

#[test]
fn exported_traces_reparse_losslessly() {
    let sink = TraceSink::unbounded();
    run_chaos_with_sink(7, sink.clone());
    let text = sink.export_jsonl();
    let parsed = parse_jsonl(&text).expect("exported trace must reparse");
    assert_eq!(parsed.len(), sink.len());
    // Re-serializing the parsed records reproduces the export byte for
    // byte: the JSONL writer is the inverse of the parser.
    let mut round = String::new();
    for r in &parsed {
        round.push_str(&r.to_jsonl());
        round.push('\n');
    }
    assert_eq!(round, text);
}

/// Builds a minimal trace in which process 1 issues `quorums` distinct
/// quorums inside epoch 5 of Algorithm 1, all after `t = 1000`.
fn qs_trace(quorums: u64) -> Vec<TraceRecord> {
    let mut records = vec![TraceRecord {
        seq: 0,
        t: 1_000,
        event: TraceEvent::EpochEntered {
            p: 1,
            epoch: 5,
            algo: "qs".to_string(),
        },
    }];
    for i in 0..quorums {
        records.push(TraceRecord {
            seq: 1 + i,
            t: 1_100 + i,
            event: TraceEvent::QuorumIssued {
                p: 1,
                epoch: 5,
                algo: "qs".to_string(),
                members: vec![1, 2 + (i as u32 % 3)],
            },
        });
    }
    records
}

#[test]
fn analyzer_flags_a_theorem_3_violation() {
    // f = 1 ⇒ Algorithm 1 may issue at most f(f+1) = 2 quorums per epoch.
    let cfg = ReplayConfig {
        f: ClusterConfig::new(4, 1).unwrap().f(),
        stable_from_micros: 0,
    };
    assert_eq!(thm3_bound(cfg.f), 2);

    let ok = analyze(&qs_trace(2), &cfg);
    assert!(ok.ok(), "2 quorums in one epoch must be within the bound");
    assert_eq!(ok.max_qs_quorums_per_epoch, 2);

    let bad = analyze(&qs_trace(3), &cfg);
    assert!(!bad.ok(), "3 quorums in one epoch must be flagged");
    assert_eq!(bad.violations.len(), 1, "one violation per offending epoch");
    assert!(
        bad.violations[0].desc.contains("Theorem 3"),
        "violation must cite the theorem: {}",
        bad.violations[0].desc
    );
    assert_eq!(bad.max_qs_quorums_per_epoch, 3);
}

#[test]
fn chaos_sweep_respects_the_theorem_3_bound_when_stable() {
    // The headline acceptance check: replay every seeded chaos run and
    // confirm the paper's per-epoch quorum bounds hold after the last
    // heal, alongside the analyzer's agreement and crash-delivery checks.
    let cfg_template = |stable_from_micros: u64| ReplayConfig {
        f: ClusterConfig::new(N, F).unwrap().f(),
        stable_from_micros,
    };
    let mut total_checked = 0u64;
    let mut max_stable = 0u64;
    for seed in 1..=24u64 {
        let sink = TraceSink::unbounded();
        let run = run_chaos_with_sink(seed, sink.clone());
        assert!(run.live(), "seed {seed}: chaos run failed to recover");
        let heal = plan_for(seed, N).last_fault_time().unwrap().as_micros();
        let records = parse_jsonl(&sink.export_jsonl()).expect("trace must reparse");
        let report = analyze(&records, &cfg_template(heal));
        assert!(
            report.ok(),
            "seed {seed}: analyzer found violations\n{report}"
        );
        assert!(
            report.max_qs_quorums_per_epoch <= thm3_bound(cfg_template(heal).f),
            "seed {seed}: stable-window quorums/epoch {} exceeds f(f+1) = {}",
            report.max_qs_quorums_per_epoch,
            thm3_bound(cfg_template(heal).f),
        );
        total_checked += report.records_checked;
        max_stable = max_stable.max(report.max_qs_quorums_per_epoch);
    }
    assert!(total_checked > 0, "sweep checked no records");
}
