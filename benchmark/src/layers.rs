//! The traced run's orchestration: probes, an untraced baseline of the
//! traced cells, the traced pass(es), and the per-layer metrics derived
//! from them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::cells::{run_cell, Cell, Counts, Pipeline, Workload};
use crate::probes;
use crate::stats::{median, PER_LAYER};
use crate::trace::{trace_cell, CellTrace, Observed, Recorder};

/// Spans written to the span file at most; the header line says how many
/// were recorded.
const SPAN_FILE_CAP: usize = 250_000;
/// Untraced passes over the traced cells, for the overhead baseline.
const BASELINE_PASSES: usize = 3;

pub struct PerLayer {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The span file's content (`benchmark/out/<workload>.spans.jsonl`).
    pub spans_jsonl: String,
}

/// Message kinds folded into `xpaxos.handle_ns.sync`.
const SYNC_KINDS: [&str; 6] = [
    "state-fetch",
    "state-batch",
    "sync-query",
    "sync-info",
    "sync-fetch",
    "sync-chunk",
];

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b > 0 {
        a as f64 / b as f64
    } else {
        0.0
    }
}

/// Traces the first-seed cell of every scenario file of `w` and derives
/// every per-layer metric.
///
/// # Errors
///
/// Returns the first failed check: a cell's own, a traced run whose counts
/// differ from the untraced run of the same cell, replay violations, or a
/// false suspicion in a run without faults.
pub fn measure(w: &Workload, seed: u64) -> Result<PerLayer, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    probes::run(&w.cells[0].scenario, &w.sources, seed, &mut |name, v| {
        values.insert(name.to_string(), v);
    });
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };

    let per_file = w.cells.len() / w.sources.len();
    let cells: Vec<&Cell> = w.cells.iter().step_by(per_file).collect();

    // Untraced baseline: the same cells, the end-to-end way.
    let mut baseline: Vec<Counts> = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..BASELINE_PASSES {
        let mut wall = 0.0;
        baseline.clear();
        for cell in &cells {
            let (counts, cost) = run_cell(cell, w.pipeline)?;
            wall += cost.wall_s;
            baseline.push(counts);
        }
        walls.push(wall);
    }
    let untraced_wall_s = median(&mut walls);

    // The traced pass. Simulation workloads keep the sink disabled, as
    // end to end; the stages behind the simulation then run in a second,
    // observed pass whose callback spans are not kept.
    let observed_in_place = w.pipeline == Pipeline::Scenario;
    let replicas = cells
        .iter()
        .map(|c| c.scenario.cluster.n)
        .max()
        .unwrap_or(0);
    let rec = Rc::new(RefCell::new(Recorder::new(replicas)));
    let mut traces: Vec<CellTrace> = Vec::new();
    for (cell, want) in cells.iter().zip(&baseline) {
        let t = trace_cell(cell, w.pipeline, observed_in_place, &rec)?;
        // The traced build must be the untraced run in everything the
        // simulation decides (the league's view and quorum counts come
        // from its trace instead and are compared there).
        let sorted = |c: &Counts| {
            let mut l = c.latencies_us.clone();
            l.sort_unstable();
            l
        };
        let same = sorted(&t.counts) == sorted(want)
            && t.counts.messages_sent == want.messages_sent
            && t.counts.issued == want.issued;
        if !same {
            return Err(format!(
                "{} seed {}: traced run diverged from the untraced run ({} vs {} commits, {} vs {} messages)",
                cell.scenario.name,
                cell.seed,
                t.counts.committed,
                want.committed,
                t.counts.messages_sent,
                want.messages_sent
            ));
        }
        traces.push(t);
    }
    let second_pass;
    let observed: &[CellTrace] = if observed_in_place {
        &traces
    } else {
        let scratch = Rc::new(RefCell::new(Recorder::new(replicas)));
        second_pass = cells
            .iter()
            .map(|cell| trace_cell(cell, w.pipeline, true, &scratch))
            .collect::<Result<Vec<_>, _>>()?;
        &second_pass
    };

    let rec = rec.borrow();
    let commits: u64 = traces.iter().map(|t| t.counts.committed).sum();
    let attempted: u64 = traces.iter().map(|t| t.counts.issued).sum();
    let per_commit = |x: u64| ratio(x, commits);

    // Span arithmetic: run spans, their callback children, and what is
    // left for the simulator itself once the adapters' own accounting is
    // taken out.
    let mut run_ns = 0u64;
    let mut callbacks = 0u64;
    let mut callback_ns = 0u64;
    let mut replica_ns = 0u64;
    let mut by_kind: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &rec.spans {
        let d = s.end_ns - s.start_ns;
        if s.kind == "simnet.run" {
            run_ns += d;
        } else if s.process > 0 {
            callbacks += 1;
            callback_ns += d;
            // Handler costs are the replicas'; a reply's handler is the
            // client's.
            if rec.is_replica(s) {
                replica_ns += d;
            }
            if rec.is_replica(s) || s.kind == "reply" {
                let kind = if SYNC_KINDS.contains(&s.kind) {
                    "sync"
                } else {
                    s.kind
                };
                let e = by_kind.entry(kind).or_default();
                e.0 += 1;
                e.1 += d;
            }
        }
    }
    let self_ns = run_ns.saturating_sub(callback_ns + rec.accounting_ns);
    set("simnet.step_self_ns", ratio(self_ns, callbacks));
    set("simnet.self_share_pct", pct(self_ns as f64, run_ns as f64));
    set(
        "xpaxos.handler_share_pct",
        pct(replica_ns as f64, run_ns as f64),
    );
    for (name, _) in PER_LAYER {
        if let Some(kind) = name.strip_prefix("xpaxos.handle_ns.") {
            let (n, ns) = by_kind.get(kind).copied().unwrap_or((0, 0));
            set(name, ratio(ns, n));
        }
    }
    let (n, ns) = by_kind.get("timer").copied().unwrap_or((0, 0));
    set("xpaxos.timer_ns", ratio(ns, n));

    // Counts of the traced run.
    let sums = |f: &dyn Fn(&CellTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let timers = sums(&|t| t.net.timers_fired);
    set(
        "simnet.events_per_commit",
        per_commit(timers + sums(&|t| t.net.messages_delivered)),
    );
    set("simnet.timers_per_commit", per_commit(timers));
    for kind in ["request", "prepare", "commit", "reply"] {
        let sent = sums(&|t| t.net.by_kind.get(kind).copied().unwrap_or(0));
        set(&format!("xpaxos.msgs_per_commit.{kind}"), per_commit(sent));
    }
    set(
        "types.encoded_bytes_per_commit",
        per_commit(rec.wire.values().map(|w| w.bytes).sum()),
    );
    set("types.signs_per_commit", per_commit(rec.signatures()));
    set("types.verifies_per_commit", per_commit(rec.envelopes));
    set(
        "xpaxos.reqs_per_batch",
        ratio(
            sums(&|t| t.sums.executed_max),
            sums(&|t| t.sums.decided_max),
        ),
    );
    set(
        "xpaxos.state_transfers",
        sums(&|t| t.sums.state_transfers) as f64,
    );
    let max_of = |f: &dyn Fn(&CellTrace) -> u64| traces.iter().map(f).max().unwrap_or(0) as f64;
    set("xpaxos.catchup_sim_us", max_of(&|t| t.catchup_us_max));
    set("xpaxos.passive_lag_slots_max", max_of(&|t| t.lag_slots_max));
    let view_changes: u64 = sums(&|t| t.counts.view_changes);
    set("xpaxos.view_changes", max_of(&|t| t.counts.view_changes));
    set(
        "detector.expectations_per_commit",
        per_commit(sums(&|t| t.sums.expectations_issued)),
    );
    set(
        "detector.suspicions_raised",
        sums(&|t| t.sums.suspicions_raised) as f64,
    );
    let false_suspicions = sums(&|t| t.sums.false_suspicions);
    set("detector.false_suspicions", false_suspicions as f64);
    set(
        "core.quorums_issued",
        sums(&|t| t.sums.quorums_issued) as f64,
    );
    set(
        "core.epochs_entered",
        sums(&|t| t.sums.epochs_entered) as f64,
    );
    set(
        "core.updates_per_view_change",
        ratio(sums(&|t| t.sums.updates), view_changes),
    );
    set(
        "core.max_quorums_per_epoch",
        max_of(&|t| t.counts.max_quorums_per_epoch),
    );
    set(
        "bench.failed_ops_permille",
        1000.0 * ratio(attempted - commits, attempted),
    );

    // The stages behind the simulation.
    let stages: Vec<&Observed> = observed
        .iter()
        .filter_map(|t| t.observed.as_ref())
        .collect();
    let records: u64 = stages.iter().map(|o| o.records).sum();
    let rate = |secs: &dyn Fn(&Observed) -> f64| {
        let secs: f64 = stages.iter().map(|o| secs(o)).sum();
        if secs > 0.0 {
            records as f64 / secs
        } else {
            0.0
        }
    };
    set("obs.records_per_commit", per_commit(records));
    set("obs.export_records_per_s", rate(&|o| o.export_s));
    set("obs.parse_records_per_s", rate(&|o| o.parse_s));
    set("obs.replay_records_per_s", rate(&|o| o.replay_s));
    set("obs.span_records_per_s", rate(&|o| o.span_s));
    for (i, phase) in qsel_obs::PHASES.iter().enumerate() {
        let name = format!("obs.phase_p99_sim_us.{phase}");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            let worst = stages.iter().map(|o| o.phase_p99_us[i]).max().unwrap_or(0);
            set(&name, worst as f64);
        }
    }
    let observed_wall: f64 = observed.iter().map(|t| t.wall_s).sum();
    let observed_sim: f64 = observed.iter().map(|t| t.sim_s).sum();
    set(
        "scenario.pipeline_share_pct",
        pct(observed_wall - observed_sim, observed_wall),
    );
    let traced_wall: f64 = traces.iter().map(|t| t.wall_s).sum();
    set(
        "bench.trace_overhead_pct",
        pct(traced_wall - untraced_wall_s, untraced_wall_s),
    );

    let violations: u64 = stages.iter().map(|o| o.violations).sum();
    if violations > 0 {
        return Err(format!(
            "replay analyzer found {violations} violation(s) in the observed pass"
        ));
    }
    let faultless = cells.iter().all(|c| {
        c.scenario.faults.is_empty() && !c.scenario.adversary.strategy.controls_a_process()
    });
    if faultless && false_suspicions > 0 {
        return Err(format!(
            "{false_suspicions} false suspicion(s) in a run without faults"
        ));
    }

    let mut metrics = Vec::new();
    for (name, _) in PER_LAYER {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push((name, v));
    }
    Ok(PerLayer {
        metrics,
        attempted,
        failed: attempted - commits,
        spans_jsonl: rec.to_jsonl(w.name, SPAN_FILE_CAP),
    })
}
