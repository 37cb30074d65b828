//! Reusable chaos-run machinery.
//!
//! A chaos run derives a scripted [`FaultPlan`] deterministically from a
//! seed, executes it against a full XPaxos cluster, checks the per-slot
//! safety invariant at several instants (it must hold *during* the chaos,
//! not just at the end), and reports whether the system returned to
//! liveness after the last fault healed. The whole execution is a pure
//! function of the seed: the plan generator uses its own RNG and the
//! simulator derives every delay, drop, duplication and reordering draw
//! from its seeded stream, so `(seed, plan)` reproduces a failure exactly.
//!
//! Shared by the `tests/chaos.rs` soak suite and the
//! `examples/chaos_run.rs` smoke binary (which CI runs on a fixed seed).

use qsel_obs::TraceSink;
use qsel_simnet::{FaultEvent, FaultPlan, LinkState, SimDuration, SimTime, Simulation};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::policy::BatchPolicy;
use qsel_xpaxos::replica::ReplicaConfig;
use qsel_xpaxos::CheckpointPolicy;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Cluster size used by chaos runs.
pub const N: u32 = 4;
/// Fault threshold used by chaos runs.
pub const F: u32 = 1;
/// Closed-loop clients per run.
pub const CLIENTS: u32 = 2;
/// Operations each client must commit.
pub const OPS_PER_CLIENT: u64 = 6;
/// Checkpoint interval used by chaos runs — deliberately tiny, so signed
/// checkpoints, quorum stabilization and log compaction fire constantly
/// *during* the fault schedule instead of only in long quiet runs.
pub const CKPT_INTERVAL: u64 = 4;
/// Compacted batches retained below the stable checkpoint for serving
/// incremental state transfer.
pub const ARCHIVE_RETAIN: u64 = 64;

/// Post-heal grace period before declaring a liveness failure. Generous on
/// purpose: chaos can legitimately back client retries off to their cap
/// (64 × 20 ms) and inflate detector timeouts before stabilization.
pub const SETTLE_MICROS: u64 = 15_000_000;

fn micros(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

/// Derives the fault script for `seed`. Uses its own RNG (not the
/// simulation's), so the pair `(seed, plan)` fully determines a run.
///
/// Shape: 3–5 sequential fault rounds, each picking one victim and one
/// fault class, active for 30–150 ms, with a healthy gap before the next
/// round. At most one process is dead or frozen at any instant (the
/// cluster tolerates `f = 1`), partitions are arbitrary but always heal,
/// and the script ends with a global heal plus blanket resume/restart.
pub fn plan_for(seed: u64, n: u32) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0A5);
    let mut plan = FaultPlan::new();
    let mut t: u64 = 80_000 + rng.random_range(0..40_000u64);
    let rounds = 3 + rng.random_range(0..3u32);
    for _ in 0..rounds {
        let victim = ProcessId(rng.random_range(1..=n));
        let dur: u64 = 30_000 + rng.random_range(0..120_000u64);
        match rng.random_range(0..5u32) {
            0 => {
                plan.push(micros(t), FaultEvent::Crash(victim));
                plan.push(micros(t + dur), FaultEvent::Restart(victim));
            }
            1 => {
                plan.push(micros(t), FaultEvent::Pause(victim));
                plan.push(micros(t + dur), FaultEvent::Resume(victim));
            }
            2 => {
                let mut group = vec![victim];
                let other = ProcessId(rng.random_range(1..=n));
                if other != victim && rng.random::<bool>() {
                    group.push(other);
                }
                plan.push(micros(t), FaultEvent::Partition(group));
                plan.push(micros(t + dur), FaultEvent::HealAll);
            }
            3 => {
                for other in (1..=n).map(ProcessId) {
                    if other == victim {
                        continue;
                    }
                    plan.push(
                        micros(t),
                        FaultEvent::DegradeLink {
                            from: victim,
                            to: other,
                            extra_delay: SimDuration::micros(1_000 + rng.random_range(0..8_000u64)),
                            jitter: SimDuration::micros(rng.random_range(0..2_000u64)),
                        },
                    );
                }
                plan.push(micros(t + dur), FaultEvent::HealAll);
            }
            _ => {
                // A lossy gremlin link: duplication, reordering and light
                // probabilistic drops, both directions.
                let other = ProcessId(1 + victim.0 % n); // distinct from victim
                let state = LinkState {
                    dup_prob: 0.2 + rng.random::<f64>() * 0.3,
                    reorder_prob: 0.2 + rng.random::<f64>() * 0.3,
                    drop_prob: rng.random::<f64>() * 0.1,
                    ..Default::default()
                };
                for (a, b) in [(victim, other), (other, victim)] {
                    plan.push(
                        micros(t),
                        FaultEvent::SetLink {
                            from: a,
                            to: b,
                            state: state.clone(),
                        },
                    );
                }
                for (a, b) in [(victim, other), (other, victim)] {
                    plan.push(micros(t + dur), FaultEvent::HealLink { from: a, to: b });
                }
            }
        }
        t += dur + 20_000 + rng.random_range(0..60_000u64);
    }
    // Terminal heal: restore every link and revive every process
    // (Resume/Restart of a healthy process is a no-op).
    plan.push(micros(t), FaultEvent::HealAll);
    for p in (1..=n).map(ProcessId) {
        plan.push(micros(t), FaultEvent::Resume(p));
        plan.push(micros(t), FaultEvent::Restart(p));
    }
    plan
}

/// Derives the batch policy for `seed` (independent RNG stream from
/// [`plan_for`]'s, so fault scripts are unchanged for existing seeds).
/// Chaos runs sweep the batching configuration space — sizes 1..=8,
/// pipeline depths 1..=4, accumulation windows 0..=800 µs — so the soak
/// exercises batched slots, partial-batch timer closes and pipelined
/// commits under faults, not just the passthrough path. A seed that draws
/// size 1 / zero delay / depth 1 lands on the passthrough identity, which
/// keeps the legacy code path in the sweep too.
pub fn batch_policy_for(seed: u64) -> BatchPolicy {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xBA7C);
    let size = rng.random_range(1..=8u64) as usize;
    let depth = rng.random_range(1..=4u64) as usize;
    // A coarse 100 µs grid so the zero-delay (close-immediately) branch
    // is actually drawn by some seeds, not vanishingly unlikely.
    let delay = SimDuration::micros(rng.random_range(0..=8u64) * 100);
    BatchPolicy::new(size, delay, depth)
}

/// Builds the standard chaos cluster for `seed`.
pub fn build(seed: u64) -> Simulation<XpMsg, XpActor> {
    build_traced(seed, TraceSink::disabled())
}

/// Builds the standard chaos cluster for `seed` with a trace sink wired
/// through every layer (simulator, replicas, detectors, selection modules,
/// clients), running under the seed-derived [`batch_policy_for`].
pub fn build_traced(seed: u64, sink: TraceSink) -> Simulation<XpMsg, XpActor> {
    build_sized(seed, CLIENTS, OPS_PER_CLIENT, sink)
}

/// [`build_traced`] with an explicit workload size, for soaks that need
/// enough slots that an unbounded log would visibly exceed the
/// checkpoint-derived residency bound. Checkpointing runs at
/// [`CKPT_INTERVAL`] in every chaos cluster.
pub fn build_sized(
    seed: u64,
    clients: u32,
    ops_per_client: u64,
    sink: TraceSink,
) -> Simulation<XpMsg, XpActor> {
    let cfg = ClusterConfig::new(N, F).unwrap();
    let rcfg = ReplicaConfig {
        batch: batch_policy_for(seed),
        checkpoint: CheckpointPolicy::new(CKPT_INTERVAL, ARCHIVE_RETAIN),
        ..Default::default()
    };
    ClusterBuilder::new(cfg, seed)
        .replica_config(rcfg)
        .clients(clients, ops_per_client)
        .trace_sink(sink)
        .build()
}

/// One finished chaos run plus its script.
pub struct ChaosRun {
    /// The simulation after the run (for inspection and assertions).
    pub sim: Simulation<XpMsg, XpActor>,
    /// The executed fault script.
    pub plan: FaultPlan,
    /// Operations committed across all clients.
    pub committed: u64,
    /// Operations the clients were asked to commit.
    pub expected: u64,
}

impl ChaosRun {
    /// Whether the run returned to liveness after the last heal.
    pub fn live(&self) -> bool {
        self.committed == self.expected
    }
}

/// Runs one seeded chaos scenario: schedules the plan, checks safety
/// mid-chaos, at the final heal and at the end, and drives the run until
/// every client op committed or the settle window expired.
///
/// # Panics
///
/// Panics (with the offending replica and slot) if the per-slot safety
/// invariant is ever violated. Liveness is *reported*, not asserted —
/// callers decide how to fail.
pub fn run_chaos(seed: u64) -> ChaosRun {
    run_chaos_with_sink(seed, TraceSink::disabled())
}

/// [`run_chaos`] with a trace sink wired through the whole stack. Passing
/// [`TraceSink::disabled`] reproduces `run_chaos` exactly: tracing draws
/// nothing from the simulation's RNG, so the traced and untraced runs of a
/// seed are the same execution.
pub fn run_chaos_with_sink(seed: u64, sink: TraceSink) -> ChaosRun {
    run_chaos_sized(seed, CLIENTS, OPS_PER_CLIENT, sink)
}

/// [`run_chaos_with_sink`] with an explicit workload size — the
/// log-compaction soak drives enough slots past the checkpoint interval
/// that the bounded-residency assertion is non-vacuous.
pub fn run_chaos_sized(seed: u64, clients: u32, ops_per_client: u64, sink: TraceSink) -> ChaosRun {
    let plan = plan_for(seed, N);
    let heal_time = plan.last_fault_time().expect("plan is never empty");
    let expected = clients as u64 * ops_per_client;
    let mut sim = build_sized(seed, clients, ops_per_client, sink);
    sim.schedule_plan(plan.clone());

    // Safety must hold while faults are still active, not just at the end.
    sim.run_until(micros(heal_time.as_micros() / 2));
    assert_safety(&sim);
    sim.run_until(heal_time);
    assert_safety(&sim);

    // Liveness: advance in slices so a finished run exits early.
    let deadline = heal_time + SimDuration::micros(SETTLE_MICROS);
    let mut next = heal_time;
    while total_committed(&sim) < expected && next < deadline {
        next = (next + SimDuration::micros(250_000)).min(deadline);
        sim.run_until(next);
    }
    assert_safety(&sim);
    let committed = total_committed(&sim);
    ChaosRun {
        sim,
        plan,
        committed,
        expected,
    }
}
