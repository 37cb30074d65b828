//! Deterministic scenario execution.
//!
//! [`run_scenario`] turns a validated [`Scenario`] plus a seed into a
//! finished run: it compiles the declarative fault script and geo matrix
//! into a [`FaultPlan`], builds the XPaxos cluster (placing the adversary
//! actor the scenario names), executes on `qsel-simnet`, exports the
//! trace, replays it through the `qsel-obs` analyzer, and folds everything
//! into a [`Verdict`]. The whole artifact set is a pure function of
//! `(scenario, seed)` — running twice yields byte-identical traces, which
//! the determinism test pins down.
//!
//! ## Geo matrix vs. whole-network faults
//!
//! `Partition` and `HealAll` in the simulator *replace* per-link state, so
//! a naive compilation would silently erase the scenario's geo delay
//! overrides at the first heal. The compiler therefore re-emits the geo
//! `SetLink`s immediately after every `partition` / `heal_all` script
//! entry (same timestamp; the plan keeps insertion order on ties), marking
//! links that cross a partition cut as both geo-delayed and dropping.

use qsel_adversary::registry::Strategy;
use qsel_obs::metrics::{percentile_sorted, standard_metrics};
use qsel_obs::replay::{analyze, parse_jsonl};
use qsel_obs::span::{SpanReport, PHASES};
use qsel_obs::{ReplayConfig, ReplayReport, TraceSink, Verdict, ViolationKind};
use qsel_simnet::{DelayModel, FaultEvent, FaultPlan, LinkState, SimDuration, SimTime};
use qsel_types::thresholds::{thm3_bound, thm9_bound};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{
    total_committed, ClusterBuilder, CorruptTransferPeer, Equivocator, GrayReplica, XpActor,
};
use qsel_xpaxos::{BatchPolicy, CheckpointPolicy, QuorumPolicy, Replica, ReplicaConfig};

use crate::spec::{Algorithm, Fault, FaultKind, Scenario, WorkloadMode};

/// Everything a scenario run produces.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Pass/fail per invariant plus the metrics summary.
    pub verdict: Verdict,
    /// The full JSONL trace (what the analyzer actually read).
    pub trace_jsonl: String,
    /// The standard metrics registry, rendered as JSON.
    pub metrics_json: String,
    /// The standard metrics registry, rendered as text.
    pub metrics_text: String,
    /// Per-request critical-path latency attribution
    /// ([`qsel_obs::span::SpanReport::to_json`]), canonical
    /// `latency_report.json` bytes.
    pub latency_report: String,
}

/// Runs one scenario at one seed. See the module docs for the pipeline.
///
/// # Errors
///
/// Returns an error only for *configuration* problems ([`Scenario::validate`]
/// failures or an unconstructible cluster). Invariant violations and missed
/// commit thresholds are not errors: they come back as failed checks inside
/// a verdict, so a league run records them instead of aborting.
pub fn run_scenario(sc: &Scenario, seed: u64) -> Result<RunArtifacts, String> {
    sc.validate()?;
    let cfg = ClusterConfig::new(sc.cluster.n, sc.cluster.f)
        .map_err(|e| format!("invalid cluster shape: {e:?}"))?;

    let plan = compile_plan(sc);
    let last_fault_us = plan.last_fault_time().map_or(0, SimTime::as_micros);

    let rcfg = ReplicaConfig {
        policy: match sc.cluster.algorithm {
            Algorithm::Qs => QuorumPolicy::Selection,
            Algorithm::Enumeration => QuorumPolicy::Enumeration,
        },
        batch: BatchPolicy::new(
            usize::try_from(sc.batch.max_size).unwrap_or(usize::MAX),
            SimDuration::micros(sc.batch.max_delay_us),
            usize::try_from(sc.batch.pipeline_depth).unwrap_or(usize::MAX),
        ),
        checkpoint: CheckpointPolicy::new(sc.checkpoint.interval, sc.checkpoint.archive_retain),
        ..ReplicaConfig::default()
    };

    let sink = TraceSink::unbounded();
    let mut builder = ClusterBuilder::new(cfg, seed)
        .replica_config(rcfg.clone())
        .clients(sc.workload.clients, sc.workload.ops_per_client)
        .retry(SimDuration::micros(sc.workload.retry_us))
        .tx_cost(SimDuration::micros(sc.workload.tx_cost_us))
        .trace_sink(sink.clone());
    if sc.workload.mode == WorkloadMode::Open {
        builder = builder.open_loop(SimDuration::micros(sc.workload.interarrival_us));
    }

    let adversary = sc.adversary;
    let mut sim = builder.build_with(|p, chain| {
        if p.0 != adversary.process {
            return None;
        }
        match adversary.strategy {
            Strategy::None => None,
            Strategy::Mute => Some(XpActor::Mute),
            Strategy::Equivocate => Some(XpActor::Equivocator(Equivocator::new(cfg, chain, p))),
            Strategy::Gray { delay_us } => Some(XpActor::Gray(GrayReplica::new(
                Replica::new(cfg, p, chain, rcfg.clone()),
                SimDuration::micros(delay_us),
            ))),
            Strategy::CorruptTransfer => Some(XpActor::CorruptTransfer(CorruptTransferPeer::new(
                Replica::new(cfg, p, chain, rcfg.clone()),
            ))),
        }
    });
    sim.schedule_plan(plan);

    // The horizon: run through the scripted faults and the nominal
    // workload, then allow `settle_us` for retries/stragglers. Progress is
    // probed in fixed 250ms slices so a finished run stops early at a
    // deterministic boundary.
    let expected = u64::from(sc.workload.clients) * sc.workload.ops_per_client;
    let nominal_work_us = match sc.workload.mode {
        WorkloadMode::Open => sc.workload.interarrival_us * sc.workload.ops_per_client,
        WorkloadMode::Closed => 0,
    };
    let base_us = last_fault_us.max(nominal_work_us);
    let deadline_us = base_us + sc.run.settle_us;
    sim.run_until(SimTime::from_micros(base_us));
    while total_committed(&sim) < expected && sim.now().as_micros() < deadline_us {
        let next = (sim.now().as_micros() + 250_000).min(deadline_us);
        sim.run_until(SimTime::from_micros(next));
    }
    // Commit completion is not quiescence: a fault scheduled at (or near)
    // the moment the workload finishes — e.g. lazarus-replica's restart —
    // still deserves to be observed, and laggards must be given time to
    // converge through lazy replication or checkpointed state transfer.
    // Keep running in slices until every live honest replica (crashed
    // actors and Byzantine strategy actors excluded; gray/corrupt
    // wrappers expose their honest inner log) reports the same watermark,
    // or the settle deadline hits.
    let converged = |sim: &qsel_simnet::Simulation<qsel_xpaxos::messages::XpMsg, XpActor>| {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for p in cfg.processes() {
            if sim.is_crashed(p) {
                continue;
            }
            if let Some(r) = sim.actor(p).replica() {
                let w = r.log().watermark();
                lo = lo.min(w);
                hi = hi.max(w);
            }
        }
        lo >= hi
    };
    while !converged(&sim) && sim.now().as_micros() < deadline_us {
        let next = (sim.now().as_micros() + 100_000).min(deadline_us);
        sim.run_until(SimTime::from_micros(next));
    }

    let committed = total_committed(&sim);
    let stats = sim.stats().clone();

    let mut verdict = Verdict::new(&sc.name, seed);
    let required = (expected * u64::from(sc.run.min_commit_permille)).div_ceil(1000);
    verdict.check(
        "commit_fraction",
        committed >= required,
        format!(
            "committed {committed}/{expected} ops (threshold {required}, \
             {}‰ of expected)",
            sc.run.min_commit_permille
        ),
    );

    // The analyzer deliberately reads the exported bytes, not the
    // in-memory records: what CI archives is what gets checked.
    let trace_jsonl = sink.export_jsonl();
    let records = match parse_jsonl(&trace_jsonl) {
        Ok(r) => {
            verdict.check(
                "trace_roundtrip",
                true,
                format!("{} records reparsed from export", r.len()),
            );
            r
        }
        Err(e) => {
            verdict.check(
                "trace_roundtrip",
                false,
                format!("export does not reparse: {e}"),
            );
            Vec::new()
        }
    };

    let stable_from = sc.run.stable_from_us.unwrap_or(last_fault_us);
    let replay_cfg = ReplayConfig {
        f: cfg.f(),
        stable_from_micros: stable_from,
    };
    let report = analyze(&records, &replay_cfg);

    invariant_checks(&mut verdict, &report, &replay_cfg);

    verdict.metric("expected_ops", expected);
    verdict.metric("committed_ops", committed);
    verdict.metric("trace_records", records.len() as u64);
    verdict.metric("records_checked", report.records_checked);
    verdict.metric("slots_checked", report.slots_checked);
    verdict.metric("max_qs_quorums_per_epoch", report.max_qs_quorums_per_epoch);
    verdict.metric("max_fs_quorums_per_epoch", report.max_fs_quorums_per_epoch);
    verdict.metric("end_time_us", sim.now().as_micros());
    verdict.metric("messages_sent", stats.messages_sent);
    verdict.metric("messages_dropped", stats.messages_dropped);
    verdict.metric("faults_injected", stats.faults_injected);

    // Causal span analysis: reconstruct every committed request's critical
    // path, fold the latency quantiles into the verdict's metric block, and
    // turn each `[expect]` ceiling into a first-class pass/fail check.
    let spans = SpanReport::build(&records);
    let lat = spans.latencies_sorted();
    let attributed = spans.spans.len() as u64;
    verdict.metric("spans_attributed", attributed);
    verdict.metric("spans_unattributed", spans.unattributed.len() as u64);
    verdict.metric("commit_latency_p50_us", percentile_sorted(&lat, 50));
    verdict.metric("commit_latency_p90_us", percentile_sorted(&lat, 90));
    verdict.metric("commit_latency_p99_us", percentile_sorted(&lat, 99));
    for (i, name) in PHASES.iter().enumerate() {
        verdict.metric(
            &format!("{name}_p99_us"),
            percentile_sorted(&spans.phase_sorted(i), 99),
        );
    }
    verdict.metric(
        "straggler_gap_p99_us",
        percentile_sorted(&spans.straggler_sorted(), 99),
    );
    let observed = |key: &str| -> u64 {
        match key {
            "commit_p50_us" => percentile_sorted(&lat, 50),
            "commit_p99_us" => percentile_sorted(&lat, 99),
            "straggler_gap_p99_us" => percentile_sorted(&spans.straggler_sorted(), 99),
            other => {
                // The remaining ExpectSpec keys are `<phase>_p99_us`; the
                // parser only admits the nine declared names, so a miss
                // here is a programming error, not bad input.
                let phase = other
                    .strip_suffix("_p99_us")
                    .expect("expect key ends in _p99_us");
                let i = PHASES
                    .iter()
                    .position(|p| *p == phase)
                    .expect("expect key names a span phase");
                percentile_sorted(&spans.phase_sorted(i), 99)
            }
        }
    };
    for (key, ceiling) in sc.expect.entries() {
        let Some(ceiling) = ceiling else { continue };
        let name = format!("expect_{key}");
        if lat.is_empty() {
            // A declared ceiling with no attributed spans fails: absence
            // of evidence must not read green in CI.
            verdict.check(
                &name,
                false,
                format!("ceiling {ceiling}us declared but zero spans attributed"),
            );
        } else {
            let got = observed(key);
            verdict.check(
                &name,
                got <= ceiling,
                format!("observed {got}us vs ceiling {ceiling}us over {attributed} span(s)"),
            );
        }
    }
    let latency_report = spans.to_json(&sc.name, seed);

    let metrics = standard_metrics(&records);
    Ok(RunArtifacts {
        verdict,
        trace_jsonl,
        metrics_json: metrics.render_json(),
        metrics_text: metrics.render_text(),
        latency_report,
    })
}

/// Folds the replay report into one verdict check per analyzer invariant,
/// in the analyzer's own order: pass iff no violation of that kind, with
/// the count and the first violation's text as evidence.
fn invariant_checks(verdict: &mut Verdict, report: &ReplayReport, cfg: &ReplayConfig) {
    use ViolationKind::*;
    let kinds = [
        QuorumBound,
        SlotAgreement,
        CrashedDelivery,
        CheckpointDivergence,
        TransferDivergence,
        GcFloor,
    ];
    for kind in kinds {
        let of_kind: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.kind == kind)
            .collect();
        let count = of_kind.len();
        let first = of_kind
            .first()
            .map(|v| format!("; first: {}", v.desc))
            .unwrap_or_default();
        let (name, detail) = match kind {
            QuorumBound => (
                "quorum_bounds",
                format!(
                    "max qs {}/{} fs {}/{} quorums per epoch from t={}us, \
                     {count} violation(s){first}",
                    report.max_qs_quorums_per_epoch,
                    thm3_bound(cfg.f),
                    report.max_fs_quorums_per_epoch,
                    thm9_bound(cfg.f),
                    cfg.stable_from_micros
                ),
            ),
            SlotAgreement => (
                "per_slot_agreement",
                format!(
                    "{} slot(s) cross-checked, {count} violation(s){first}",
                    report.slots_checked
                ),
            ),
            CrashedDelivery => (
                "no_crashed_delivery",
                format!(
                    "{} record(s) scanned, {count} violation(s){first}",
                    report.records_checked
                ),
            ),
            CheckpointDivergence => (
                "checkpoint_agreement",
                format!("{count} divergent checkpoint certificate(s){first}"),
            ),
            TransferDivergence => (
                "state_transfer_integrity",
                format!("{count} recovered-state mismatch(es){first}"),
            ),
            GcFloor => (
                "gc_floor",
                format!("{count} access(es) below a garbage-collected floor{first}"),
            ),
        };
        verdict.check(name, count == 0, detail);
    }
}

/// Compiles the declarative fault list plus geo matrix into a concrete
/// [`FaultPlan`], restoring geo overrides after every state-replacing
/// whole-network fault (see the module docs).
pub fn compile_plan(sc: &Scenario) -> FaultPlan {
    let mut plan = FaultPlan::new();
    // Install the geo matrix before anything runs.
    if !sc.links.is_empty() {
        for (from, to, state) in geo_states(sc, None) {
            plan.push(SimTime::ZERO, FaultEvent::SetLink { from, to, state });
        }
    }
    // Stable-sort the script by time (insertion order preserved on ties by
    // FaultPlan::push), appending geo restoration after replacing faults.
    let mut faults: Vec<&Fault> = sc.faults.iter().collect();
    faults.sort_by_key(|ft| ft.at_us);
    for ft in faults {
        let t = SimTime::from_micros(ft.at_us);
        let partition_group: Option<Vec<ProcessId>> = match &ft.kind {
            FaultKind::Partition(group) => Some(group.iter().map(|p| ProcessId(*p)).collect()),
            _ => None,
        };
        let ev = match &ft.kind {
            FaultKind::Partition(_) => FaultEvent::Partition(partition_group.clone().unwrap()),
            FaultKind::HealAll => FaultEvent::HealAll,
            FaultKind::Crash(p) => FaultEvent::Crash(ProcessId(*p)),
            FaultKind::Restart(p) => FaultEvent::Restart(ProcessId(*p)),
            FaultKind::Pause(p) => FaultEvent::Pause(ProcessId(*p)),
            FaultKind::Resume(p) => FaultEvent::Resume(ProcessId(*p)),
            FaultKind::DegradeLink {
                from,
                to,
                extra_us,
                jitter_us,
            } => FaultEvent::DegradeLink {
                from: ProcessId(*from),
                to: ProcessId(*to),
                extra_delay: SimDuration::micros(*extra_us),
                jitter: SimDuration::micros(*jitter_us),
            },
            FaultKind::HealLink { from, to } => FaultEvent::HealLink {
                from: ProcessId(*from),
                to: ProcessId(*to),
            },
            FaultKind::DropLink { from, to } => FaultEvent::SetLink {
                from: ProcessId(*from),
                to: ProcessId(*to),
                state: LinkState {
                    drop_all: true,
                    ..LinkState::default()
                },
            },
        };
        let replaces_links = matches!(ft.kind, FaultKind::Partition(_) | FaultKind::HealAll);
        plan.push(t, ev);
        if replaces_links && !sc.links.is_empty() {
            for (from, to, state) in geo_states(sc, partition_group.as_deref()) {
                plan.push(t, FaultEvent::SetLink { from, to, state });
            }
        }
    }
    plan
}

/// The geo matrix as concrete directed link states. With `partition`
/// given, links crossing the cut additionally drop everything, matching
/// what [`qsel_simnet::Simulation::partition`] just installed on them.
fn geo_states(
    sc: &Scenario,
    partition: Option<&[ProcessId]>,
) -> Vec<(ProcessId, ProcessId, LinkState)> {
    let mut out = Vec::new();
    for l in &sc.links {
        let mut pairs = vec![(ProcessId(l.from), ProcessId(l.to))];
        if l.symmetric {
            pairs.push((ProcessId(l.to), ProcessId(l.from)));
        }
        for (from, to) in pairs {
            let crossing = partition
                .map(|group| group.contains(&from) != group.contains(&to))
                .unwrap_or(false);
            out.push((
                from,
                to,
                LinkState {
                    drop_all: crossing,
                    delay_override: Some(DelayModel::uniform(
                        SimDuration::micros(l.min_us),
                        SimDuration::micros(l.max_us),
                    )),
                    ..LinkState::default()
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_obs::{TraceEvent, TraceRecord};

    fn rec(seq: u64, t: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, t, event }
    }

    /// A trace with exactly one violation of each kind.
    fn one_of_each() -> Vec<TraceRecord> {
        let quorum = |seq, t| {
            let (algo, members) = ("qs".into(), vec![1, 2, 3]);
            rec(
                seq,
                t,
                TraceEvent::QuorumIssued {
                    p: 1,
                    epoch: 5,
                    algo,
                    members,
                },
            )
        };
        vec![
            quorum(0, 100),
            quorum(1, 200),
            quorum(2, 300),
            rec(
                3,
                310,
                TraceEvent::Executed {
                    p: 1,
                    slot: 3,
                    digest: 0xAA,
                },
            ),
            rec(
                4,
                320,
                TraceEvent::Executed {
                    p: 3,
                    slot: 3,
                    digest: 0xBB,
                },
            ),
            rec(5, 330, TraceEvent::Crash { p: 2 }),
            rec(
                6,
                340,
                TraceEvent::MsgDeliver {
                    from: 1,
                    to: 2,
                    kind: "prepare".into(),
                },
            ),
            rec(
                7,
                350,
                TraceEvent::CheckpointStable {
                    p: 1,
                    slot: 8,
                    digest: 1,
                },
            ),
            rec(
                8,
                360,
                TraceEvent::CheckpointStable {
                    p: 3,
                    slot: 8,
                    digest: 2,
                },
            ),
            rec(
                9,
                370,
                TraceEvent::StateTransferDone {
                    p: 4,
                    slot: 8,
                    digest: 9,
                },
            ),
            rec(
                10,
                380,
                TraceEvent::LogGc {
                    p: 1,
                    below: 10,
                    len: 2,
                },
            ),
            rec(11, 390, TraceEvent::Decided { p: 1, slot: 4 }),
        ]
    }

    fn checks_for(records: &[TraceRecord]) -> Vec<(String, bool, String)> {
        let cfg = ReplayConfig {
            f: ClusterConfig::new(4, 1).unwrap().f(),
            stable_from_micros: 50,
        };
        let mut verdict = Verdict::new("unit", 1);
        invariant_checks(&mut verdict, &analyze(records, &cfg), &cfg);
        verdict
            .checks
            .into_iter()
            .map(|c| (c.name, c.pass, c.detail))
            .collect()
    }

    /// More replicas than a `ProcessSet` holds is a configuration error,
    /// not a panic inside the simulation.
    #[test]
    fn oversized_cluster_is_an_error() {
        let sc = crate::parse("name = \"x\"\n\n[cluster]\nn = 129\nf = 1\n").expect("parse");
        let err = run_scenario(&sc, 1).err();
        assert!(err.is_some_and(|e| e.contains("129 processes")));
    }

    /// The six invariant checks — names, order, pass flags and details —
    /// exactly as the substring-classifying runner before `ViolationKind`
    /// produced them for these two traces (recorded from that code).
    #[test]
    fn invariant_checks_keep_their_names_order_and_details() {
        let want = |rows: [(&str, bool, &str); 6]| -> Vec<(String, bool, String)> {
            rows.iter()
                .map(|(n, p, d)| (n.to_string(), *p, d.to_string()))
                .collect()
        };
        assert_eq!(
            checks_for(&one_of_each()),
            want([
                ("quorum_bounds", false, "max qs 3/2 fs 0/4 quorums per epoch from t=50us, 1 violation(s); first: process 1 exceeded Theorem 3 bound f(f+1)=2: quorum #3 issued in epoch 5 (algo qs) within the stable window"),
                ("per_slot_agreement", false, "1 slot(s) cross-checked, 1 violation(s); first: slot 3 agreement broken: at position 0 process 3 executed digest 0x00000000000000bb but process 1 executed 0x00000000000000aa"),
                ("no_crashed_delivery", false, "12 record(s) scanned, 1 violation(s); first: message from 1 delivered to 2, which crashed at seq 5 and has not restarted"),
                ("checkpoint_agreement", false, "1 divergent checkpoint certificate(s); first: checkpoint divergence at slot 8: process 3 certified digest 0x0000000000000002 but process 1 certified 0x0000000000000001 (seq 7)"),
                ("state_transfer_integrity", false, "1 recovered-state mismatch(es); first: state transfer divergence at slot 8: process 4 recovered digest 0x0000000000000009 but process 1 certified 0x0000000000000001"),
                ("gc_floor", false, "1 access(es) below a garbage-collected floor; first: process 1 decided references garbage-collected slot 4 below its GC floor 10"),
            ])
        );
        assert_eq!(
            checks_for(&[]),
            want([
                (
                    "quorum_bounds",
                    true,
                    "max qs 0/2 fs 0/4 quorums per epoch from t=50us, 0 violation(s)"
                ),
                (
                    "per_slot_agreement",
                    true,
                    "0 slot(s) cross-checked, 0 violation(s)"
                ),
                (
                    "no_crashed_delivery",
                    true,
                    "0 record(s) scanned, 0 violation(s)"
                ),
                (
                    "checkpoint_agreement",
                    true,
                    "0 divergent checkpoint certificate(s)"
                ),
                (
                    "state_transfer_integrity",
                    true,
                    "0 recovered-state mismatch(es)"
                ),
                (
                    "gc_floor",
                    true,
                    "0 access(es) below a garbage-collected floor"
                ),
            ])
        );
    }
}
