//! Every trace event kind is emitted by a real run.
//!
//! `trace_events!` declares the trace vocabulary. A kind that no run ever
//! writes is dead: its emit site may be gone, unreachable, or guarded by
//! a condition that never holds. [`every_trace_event_kind_is_emitted`]
//! collects the `ev` names of real traces and compares them with
//! [`TraceEvent::NAMES`]:
//!
//! * the two committed goldens (`tests/golden/*.jsonl`);
//! * every league scenario (`scenarios/*.toml`) at seed 1;
//! * four rare paths that neither of those reaches, one small traced run
//!   each: a duplicating link, a reordering link, a restart while a timer
//!   from before the crash is pending, and a state transfer past a donor
//!   serving tampered chunks. Each also has a test of its own.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;

use qsel_obs::replay::parse_jsonl;
use qsel_obs::{TraceEvent, TraceSink};
use qsel_repro::qsel_scenario::{parse, run_scenario};
use qsel_simnet::{LinkState, SimTime};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::ClusterBuilder;

/// The `ev` names of a JSONL trace, each once.
fn kinds(jsonl: &str) -> BTreeSet<&'static str> {
    let records = parse_jsonl(jsonl).expect("trace reparses");
    records.iter().map(|r| r.event.name()).collect()
}

/// A traced n = 4, f = 1 cluster with 2 clients × 5 ops whose p1 → p2
/// link is in `link`, run for 300 ms.
fn link_trace(link: LinkState) -> String {
    let sink = TraceSink::unbounded();
    let mut sim = ClusterBuilder::new(ClusterConfig::new(4, 1).unwrap(), 1)
        .clients(2, 5)
        .trace_sink(sink.clone())
        .build();
    sim.set_link(ProcessId(1), ProcessId(2), link);
    sim.run_until(SimTime::from_micros(300_000));
    sink.export_jsonl()
}

/// `msg_dup`: every message on the link is delivered twice.
fn duplicating_link_trace() -> String {
    link_trace(LinkState {
        dup_prob: 1.0,
        ..Default::default()
    })
}

/// `msg_reorder`: every message on the link is held past later traffic.
fn reordering_link_trace() -> String {
    link_trace(LinkState {
        reorder_prob: 1.0,
        ..Default::default()
    })
}

/// `timer_stale`: p2 crashes at 100 ms and restarts in the same instant,
/// so the heartbeat and poll timers it armed before the crash fire into
/// its next incarnation.
fn restart_with_pending_timers_trace() -> String {
    let sink = TraceSink::unbounded();
    let mut sim = ClusterBuilder::new(ClusterConfig::new(4, 1).unwrap(), 1)
        .clients(2, 5)
        .trace_sink(sink.clone())
        .build();
    sim.run_until(SimTime::from_micros(100_000));
    sim.crash(ProcessId(2));
    sim.restart(ProcessId(2));
    sim.run_until(SimTime::from_micros(300_000));
    sink.export_jsonl()
}

/// `sync_chunk_rejected`: the recovering p4 rejects p1's tampered chunks.
fn tampered_transfer_trace() -> String {
    let sink = TraceSink::unbounded();
    common::tampered_recovery(sink.clone());
    sink.export_jsonl()
}

#[test]
fn duplicating_link_emits_msg_dup() {
    assert!(kinds(&duplicating_link_trace()).contains("msg_dup"));
}

#[test]
fn reordering_link_emits_msg_reorder() {
    assert!(kinds(&reordering_link_trace()).contains("msg_reorder"));
}

#[test]
fn restart_with_pending_timers_emits_timer_stale() {
    assert!(kinds(&restart_with_pending_timers_trace()).contains("timer_stale"));
}

#[test]
fn tampered_transfer_emits_sync_chunk_rejected() {
    assert!(kinds(&tampered_transfer_trace()).contains("sync_chunk_rejected"));
}

#[test]
fn every_trace_event_kind_is_emitted() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut traces: Vec<(String, String)> = Vec::new();
    for seed in [7, 21] {
        let name = format!("tests/golden/trace_default_seed{seed}.jsonl");
        let text = std::fs::read_to_string(root.join(&name)).expect("golden trace readable");
        traces.push((name, text));
    }
    let mut scenarios: Vec<String> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ directory")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".toml"))
        .collect();
    scenarios.sort();
    assert_eq!(
        scenarios.len(),
        9,
        "the league has nine scenarios: {scenarios:?}"
    );
    for name in scenarios {
        let path = root.join("scenarios").join(&name);
        let text = std::fs::read_to_string(path).expect("scenario readable");
        let sc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = run_scenario(&sc, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
        traces.push((format!("scenarios/{name} seed 1"), run.trace_jsonl));
    }
    traces.push(("duplicating link".into(), duplicating_link_trace()));
    traces.push(("reordering link".into(), reordering_link_trace()));
    traces.push((
        "restart with pending timers".into(),
        restart_with_pending_timers_trace(),
    ));
    traces.push(("tampered transfer".into(), tampered_transfer_trace()));

    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for (_, jsonl) in &traces {
        seen.extend(kinds(jsonl));
    }
    // The converse needs no check: `parse_jsonl` rejects an undeclared `ev`.
    let never: Vec<_> = TraceEvent::NAMES
        .iter()
        .filter(|name| !seen.contains(*name))
        .collect();
    assert!(
        never.is_empty(),
        "declared trace events that no run emits: {never:?} (over {} traces: {:?})",
        traces.len(),
        traces
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>()
    );
}
