//! Workloads as lists of cells, and the untimed/timed execution of one
//! cell end to end.
//!
//! A *cell* is one frozen scenario file at one simulation seed. Every
//! workload runs several cells per repetition — wall time summed and
//! latencies pooled over all of them, counts taken per seed and reported
//! as the median over seeds (`e2e::seed_groups`) — because the host cost
//! of one simulation depends heavily on its seed (the `TIMER_FD_POLL`
//! re-arm chains of `Replica::flush` die at seed-dependent moments), and a
//! run must be comparable with a run at another `--seed`.

use std::path::Path;
use std::time::Instant;

use qsel_adversary::registry::Strategy;
use qsel_obs::replay::parse_jsonl;
use qsel_obs::{TraceEvent, TraceSink};
use qsel_scenario::{compile_plan, parse, run_scenario, Algorithm, Scenario, WorkloadMode};
use qsel_simnet::{Actor, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::client::Client;
use qsel_xpaxos::harness::{
    assert_safety, ClusterBuilder, CorruptTransferPeer, Equivocator, GrayReplica, OpenLoopClient,
    XpActor,
};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::{BatchPolicy, CheckpointPolicy, QuorumPolicy, Replica, ReplicaConfig};

use crate::alloc;

/// The four workload names, fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = [
    "steady_batched_n5",
    "steady_unbatched_n7",
    "failover_n7",
    "league_traced",
];

/// How a workload's cells run end to end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pipeline {
    /// Untraced: `ClusterBuilder` with the disabled sink, driven to
    /// completion.
    Sim,
    /// The full `run_scenario` pipeline (unbounded sink → JSONL → replay
    /// → spans → verdict).
    Scenario,
}

/// How many cells a workload pools and how large each is.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Simulation seeds per scenario file.
    pub seeds_per_file: u64,
    /// `ops_per_client` is divided by this (1 = the frozen size).
    pub ops_divisor: u64,
}

/// One scenario at one simulation seed.
#[derive(Clone, Debug)]
pub struct Cell {
    pub scenario: Scenario,
    pub seed: u64,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub pipeline: Pipeline,
    /// The frozen input files' text, for the parse probes.
    pub sources: Vec<String>,
    pub cells: Vec<Cell>,
}

/// Cells of one run never share a simulation seed with the cells of a run
/// at another `--seed`.
const SEED_STRIDE: u64 = 64;

impl Workload {
    /// The full-size sizing of `name`: as many seeds as keep one
    /// repetition at 4–7 s on the reference machine. `failover_n7` takes
    /// five, so that the median over seeds holds when one or two of them
    /// recover the costly way; the league takes three, so that its median
    /// is one seed's figure and not the mean of two (`lazarus-replica`,
    /// most of the league's cost, allocates 13–20 M times by seed).
    pub fn frozen_sizing(name: &str) -> Sizing {
        let seeds_per_file = match name {
            "steady_batched_n5" => 10,
            "steady_unbatched_n7" => 3,
            "failover_n7" => 5,
            _ => 3,
        };
        Sizing {
            seeds_per_file,
            ops_divisor: 1,
        }
    }

    /// Loads `name` from the frozen files under `dir` (`benchmark/workloads`).
    pub fn load(name: &str, seed: u64, dir: &Path, sizing: Sizing) -> Result<Workload, String> {
        let name = *WORKLOADS
            .iter()
            .find(|w| **w == name)
            .ok_or_else(|| format!("unknown workload {name:?} (known: {WORKLOADS:?})"))?;
        let (pipeline, files) = if name == "league_traced" {
            let league = dir.join("league");
            let mut files: Vec<_> = std::fs::read_dir(&league)
                .map_err(|e| format!("{}: {e}", league.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            files.sort();
            (Pipeline::Scenario, files)
        } else {
            (Pipeline::Sim, vec![dir.join(format!("{name}.toml"))])
        };
        if files.is_empty() {
            return Err(format!(
                "no scenario files for {name} under {}",
                dir.display()
            ));
        }
        assert!(sizing.seeds_per_file <= SEED_STRIDE);
        let mut sources = Vec::new();
        let mut cells = Vec::new();
        for path in files {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut scenario = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            scenario.validate()?;
            scenario.workload.ops_per_client =
                (scenario.workload.ops_per_client / sizing.ops_divisor).max(1);
            for i in 0..sizing.seeds_per_file {
                cells.push(Cell {
                    scenario: scenario.clone(),
                    seed: seed.wrapping_mul(SEED_STRIDE).wrapping_add(i),
                });
            }
            sources.push(text);
        }
        Ok(Workload {
            name,
            pipeline,
            sources,
            cells,
        })
    }
}

/// The replica configuration a scenario asks for — the same mapping
/// `run_scenario` applies.
pub fn replica_config(sc: &Scenario) -> ReplicaConfig {
    ReplicaConfig {
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
    }
}

pub fn cluster_config(sc: &Scenario) -> ClusterConfig {
    ClusterConfig::new(sc.cluster.n, sc.cluster.f).expect("scenario validated")
}

/// Builds the untraced simulation of an all-correct cell, fault plan
/// scheduled.
pub fn build_sim(cell: &Cell) -> Simulation<XpMsg, XpActor> {
    let sc = &cell.scenario;
    let mut builder = ClusterBuilder::new(cluster_config(sc), cell.seed)
        .replica_config(replica_config(sc))
        .clients(sc.workload.clients, sc.workload.ops_per_client)
        .retry(SimDuration::micros(sc.workload.retry_us))
        .tx_cost(SimDuration::micros(sc.workload.tx_cost_us));
    if sc.workload.mode == WorkloadMode::Open {
        builder = builder.open_loop(SimDuration::micros(sc.workload.interarrival_us));
    }
    let mut sim = builder.build();
    sim.schedule_plan(compile_plan(sc));
    sim
}

/// The actors of a cell, built the way `ClusterBuilder::build_with` and
/// `run_scenario`'s adversary placement build them, but handed out before
/// the simulation owns them so they can be wrapped.
pub fn build_actors(cell: &Cell, sink: &TraceSink) -> (SimConfig, Vec<XpActor>) {
    let sc = &cell.scenario;
    let cfg = cluster_config(sc);
    let rcfg = replica_config(sc);
    let chain = Keychain::new(&cfg, cell.seed);
    let mut actors = Vec::new();
    for p in cfg.processes() {
        let replica = || {
            let mut r = Replica::new(cfg, p, &chain, rcfg.clone());
            r.set_trace_sink(sink.clone());
            r
        };
        let adversarial = p.0 == sc.adversary.process;
        actors.push(match sc.adversary.strategy {
            Strategy::Mute if adversarial => XpActor::Mute,
            Strategy::Equivocate if adversarial => {
                XpActor::Equivocator(Equivocator::new(cfg, &chain, p))
            }
            Strategy::Gray { delay_us } if adversarial => {
                XpActor::Gray(GrayReplica::new(replica(), SimDuration::micros(delay_us)))
            }
            Strategy::CorruptTransfer if adversarial => {
                XpActor::CorruptTransfer(CorruptTransferPeer::new(replica()))
            }
            _ => XpActor::Replica(replica()),
        });
    }
    for c in 0..sc.workload.clients {
        let id = ProcessId(cfg.n() + c + 1);
        let ops = sc.workload.ops_per_client;
        actors.push(match sc.workload.mode {
            WorkloadMode::Open => {
                let interarrival = SimDuration::micros(sc.workload.interarrival_us);
                let mut client = OpenLoopClient::new(id, cfg, interarrival, ops);
                client.set_trace_sink(sink.clone());
                XpActor::OpenClient(client)
            }
            WorkloadMode::Closed => {
                let retry = SimDuration::micros(sc.workload.retry_us);
                let mut client = Client::new(id, cfg, retry, ops);
                client.set_trace_sink(sink.clone());
                XpActor::Client(client)
            }
        });
    }
    let scfg = SimConfig::new(cfg.n() + sc.workload.clients, cell.seed)
        .with_tx_cost(SimDuration::micros(sc.workload.tx_cost_us));
    (scfg, actors)
}

/// Access to the harness actor behind a (possibly wrapped) simulation
/// actor, so one driver and one set of read-outs serves the untraced and
/// the traced run.
pub trait AsXp {
    fn xp(&self) -> &XpActor;
}

impl AsXp for XpActor {
    fn xp(&self) -> &XpActor {
        self
    }
}

pub fn committed<A: Actor<XpMsg> + AsXp>(sim: &Simulation<XpMsg, A>) -> u64 {
    sim.ids()
        .filter_map(|id| sim.actor(id).xp().committed_ops())
        .sum()
}

/// Drives `sim` through the scripted faults and the nominal open-loop
/// work, then until every operation committed or `settle_us` ran out.
/// `Pipeline::Scenario` reproduces `run_scenario`'s horizon exactly — the
/// commit check every 250 ms, then 100 ms steps until every live replica
/// reports the same watermark — so that a traced league cell ends where
/// the untraced one does. `Pipeline::Sim` stops at the millisecond the
/// last operation commits: after a restart, passive replicas of an idle
/// cluster may never reach the frontier, and waiting out `settle_us` for
/// them would time an idle simulation.
///
/// The clock advances a millisecond at a time whatever the horizon;
/// `observe` sees the simulation after each.
pub fn drive<A: Actor<XpMsg> + AsXp>(
    sim: &mut Simulation<XpMsg, A>,
    sc: &Scenario,
    pipeline: Pipeline,
    mut observe: impl FnMut(&Simulation<XpMsg, A>),
) {
    let cfg = cluster_config(sc);
    let expected = u64::from(sc.workload.clients) * sc.workload.ops_per_client;
    let last_fault_us = sc.faults.iter().map(|f| f.at_us).max().unwrap_or(0);
    let nominal_work_us = match sc.workload.mode {
        WorkloadMode::Open => sc.workload.interarrival_us * sc.workload.ops_per_client,
        WorkloadMode::Closed => 0,
    };
    let base_us = last_fault_us.max(nominal_work_us);
    let deadline_us = base_us + sc.run.settle_us;
    let converged = |sim: &Simulation<XpMsg, A>| {
        let marks = cfg
            .processes()
            .filter(|p| !sim.is_crashed(*p))
            .filter_map(|p| sim.actor(p).xp().replica().map(|r| r.log().watermark()));
        marks.clone().min() == marks.max()
    };
    let mut advance = |sim: &mut Simulation<XpMsg, A>, by_us: u64| {
        let until = (sim.now().as_micros() + by_us).min(deadline_us);
        while sim.now().as_micros() < until {
            let next = (sim.now().as_micros() + 1_000).min(until);
            sim.run_until(SimTime::from_micros(next));
            observe(sim);
        }
    };
    advance(sim, base_us);
    let (commit_step_us, settle_step_us) = match pipeline {
        Pipeline::Sim => (1_000, 0),
        Pipeline::Scenario => (250_000, 100_000),
    };
    while committed(sim) < expected && sim.now().as_micros() < deadline_us {
        advance(sim, commit_step_us);
    }
    while settle_step_us > 0 && !converged(sim) && sim.now().as_micros() < deadline_us {
        advance(sim, settle_step_us);
    }
}

/// What one cell's run produced: exact, deterministic per (scenario, seed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub issued: u64,
    pub committed: u64,
    pub messages_sent: u64,
    /// Commit instants (simulated µs), unsorted.
    pub commit_times_us: Vec<u64>,
    /// Client-observed commit latencies (simulated µs), unsorted.
    pub latencies_us: Vec<u64>,
    /// Most views any one replica installed.
    pub view_changes: u64,
    /// Most quorums any one replica's Quorum Selection issued in one epoch.
    pub max_quorums_per_epoch: u64,
}

/// Reads the counts of a finished simulation from public accessors.
pub fn sim_counts<A: Actor<XpMsg> + AsXp>(sim: &Simulation<XpMsg, A>, sc: &Scenario) -> Counts {
    let mut c = Counts {
        messages_sent: sim.stats().messages_sent,
        ..Counts::default()
    };
    for id in sim.ids() {
        let actor = sim.actor(id).xp();
        if let Some(client) = actor.client() {
            // A closed-loop client issues its next operation the instant
            // the previous one commits, the first at t = 0.
            let mut t = 0;
            for (_, _, latency) in &client.completed {
                t += latency.as_micros();
                c.commit_times_us.push(t);
                c.latencies_us.push(latency.as_micros());
            }
            c.issued += sc.workload.ops_per_client;
        } else if let Some(client) = actor.open_client() {
            // An open-loop request is due — and, in a discrete-event
            // simulation, sent — at op × interarrival: lateness is 0.
            for (op, _, latency) in &client.completed {
                c.commit_times_us
                    .push(op * sc.workload.interarrival_us + latency.as_micros());
                c.latencies_us.push(latency.as_micros());
            }
            c.issued += client.issued_ops();
        } else if let Some(r) = actor.replica() {
            c.view_changes = c.view_changes.max(r.stats().views_installed);
            if let Some(qs) = r.quorum_selection() {
                c.max_quorums_per_epoch = c
                    .max_quorums_per_epoch
                    .max(qs.stats().max_quorums_in_one_epoch());
            }
        }
    }
    c.committed = c.latencies_us.len() as u64;
    c
}

/// Host cost of one cell's run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_live_bytes: u64,
}

/// Runs `work` under the clock and the allocation counters.
fn metered<T>(work: impl FnOnce() -> T) -> (T, Cost) {
    let baseline = alloc::reset_peak();
    let before = alloc::snapshot();
    let start = Instant::now();
    let out = work();
    let wall_s = start.elapsed().as_secs_f64();
    let used = alloc::snapshot().since(before);
    let cost = Cost {
        wall_s,
        allocs: used.allocs,
        alloc_bytes: used.bytes,
        peak_live_bytes: alloc::peak_above(baseline),
    };
    (out, cost)
}

/// Runs one cell end to end, untraced by the benchmark, and checks it.
///
/// # Errors
///
/// Returns a description of the first failed correctness check.
pub fn run_cell(cell: &Cell, pipeline: Pipeline) -> Result<(Counts, Cost), String> {
    let sc = &cell.scenario;
    let what = format!("{} seed {}", sc.name, cell.seed);
    match pipeline {
        Pipeline::Sim => {
            let (sim, cost) = metered(|| {
                let mut sim = build_sim(cell);
                drive(&mut sim, sc, pipeline, |_| {});
                sim
            });
            assert_safety(&sim);
            let counts = sim_counts(&sim, sc);
            if sc.workload.mode == WorkloadMode::Closed && counts.committed != counts.issued {
                return Err(format!(
                    "{what}: closed-loop run committed {}/{} operations",
                    counts.committed, counts.issued
                ));
            }
            Ok((counts, cost))
        }
        Pipeline::Scenario => {
            let (artifacts, cost) = metered(|| run_scenario(sc, cell.seed));
            let artifacts = artifacts?;
            if !artifacts.verdict.pass() {
                return Err(format!(
                    "{what}: verdict failed\n{}",
                    artifacts.verdict.to_json()
                ));
            }
            let metric = |k: &str| artifacts.verdict.metrics.get(k).copied().unwrap_or(0);
            let mut counts = trace_counts(&artifacts.trace_jsonl)?;
            counts.issued = metric("expected_ops");
            counts.messages_sent = metric("messages_sent");
            counts.max_quorums_per_epoch =
                metric("max_qs_quorums_per_epoch").max(metric("max_fs_quorums_per_epoch"));
            if counts.committed != metric("committed_ops") {
                return Err(format!(
                    "{what}: trace holds {} client commits, verdict says {}",
                    counts.committed,
                    metric("committed_ops")
                ));
            }
            Ok((counts, cost))
        }
    }
}

/// Pools what `RunArtifacts` does not summarise — per-request latencies,
/// commit instants, views installed per replica — out of the exported
/// trace, with the crate's own parser on the lines that matter.
fn trace_counts(trace_jsonl: &str) -> Result<Counts, String> {
    let mut wanted = String::new();
    for line in trace_jsonl.lines() {
        if line.contains("\"ev\":\"client_commit\"") || line.contains("\"ev\":\"view_installed\"") {
            wanted.push_str(line);
            wanted.push('\n');
        }
    }
    let mut c = Counts::default();
    let mut views = std::collections::BTreeMap::new();
    for r in parse_jsonl(&wanted)? {
        match r.event {
            TraceEvent::ClientCommit { latency_us, .. } => {
                c.commit_times_us.push(r.t);
                c.latencies_us.push(latency_us);
            }
            TraceEvent::ViewInstalled { p, .. } => *views.entry(p).or_insert(0u64) += 1,
            _ => {}
        }
    }
    c.committed = c.latencies_us.len() as u64;
    c.view_changes = views.values().copied().max().unwrap_or(0);
    Ok(c)
}
