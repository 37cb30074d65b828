//! Chaos soak suite for the XPaxos SMR stack.
//!
//! Each run derives a scripted `FaultPlan` deterministically from a seed
//! and executes it against a full cluster (replicas + closed-loop clients)
//! via [`qsel_repro::chaos`]. The plan mixes every fault class the
//! simulator models — crash/restart, gray-failure pause/resume,
//! partitions, timing degradation with jitter, and lossy links with
//! duplication and reordering — always healing everything before a final
//! deadline. Each run also adopts a seed-derived `BatchPolicy`
//! (`batch_policy_for`), so the soak covers batched slots and pipelined
//! commits under faults as well as the passthrough path. Two properties
//! are asserted per run:
//!
//! * **Safety, always**: no two correct replicas execute different
//!   requests at the same slot (checked inside `run_chaos`, including
//!   mid-chaos).
//! * **Liveness, after the last heal**: every client operation commits.
//!
//! A failing seed reproduces exactly from `(seed, plan)` alone — the panic
//! message carries both, and `reruns_of_a_chaos_seed_are_identical` pins
//! the reproducibility contract itself.

use qsel_obs::TraceSink;
use qsel_repro::chaos::{
    batch_policy_for, plan_for, run_chaos, run_chaos_sized, ChaosRun, ARCHIVE_RETAIN,
    CKPT_INTERVAL, N,
};
use qsel_simnet::{FaultEvent, NetStats, SimDuration};
use qsel_types::ProcessId;

/// Runs one seed and asserts post-heal liveness with a reproducible
/// failure message.
fn run_live(seed: u64) -> ChaosRun {
    let run = run_chaos(seed);
    assert!(
        run.live(),
        "liveness violation: seed {seed} committed {} of {} ops\nreproduce with plan: {:?}",
        run.committed,
        run.expected,
        run.plan,
    );
    run
}

#[test]
fn chaos_soak_over_twenty_seeds() {
    // ≥ 20 distinct seeded fault schedules. Aggregate counters prove the
    // suite actually exercised every fault class rather than passing
    // vacuously.
    let mut total = NetStats::default();
    for seed in 1..=24u64 {
        let run = run_live(seed);
        total.merge(run.sim.stats());
    }
    let report = format!("{total}");
    assert!(
        total.faults_injected >= 24 * 6,
        "suspiciously few faults applied\n{report}"
    );
    assert!(
        total.restarts > 0,
        "no run exercised crash-recovery\n{report}"
    );
    assert!(
        total.messages_duplicated > 0,
        "no run exercised duplication\n{report}"
    );
    assert!(
        total.messages_reordered > 0,
        "no run exercised reordering\n{report}"
    );
    assert!(
        total.events_buffered_paused > 0,
        "no run exercised gray-failure pauses\n{report}"
    );
    // The merged per-kind map must cover the protocol's message families —
    // including signed checkpoints, which run at `CKPT_INTERVAL` in every
    // chaos cluster, so compaction is exercised *under* faults.
    for kind in ["request", "prepare", "commit", "reply", "checkpoint"] {
        assert!(
            total.by_kind.get(kind).copied().unwrap_or(0) > 0,
            "no run sent any {kind:?} messages\n{report}"
        );
    }
}

#[test]
fn chaos_log_memory_stays_bounded_by_compaction() {
    // The GC contract under chaos: with checkpoints every `CKPT_INTERVAL`
    // slots, a replica's resident agreement log must stay bounded by the
    // checkpoint lag, not grow with history. Seeds 4 and 13 draw batch
    // size 1, so the 2 × 60 closed-loop workload drives ~120 slots —
    // far past the asserted residency bound, which an unbounded log
    // would therefore visibly exceed.
    for seed in [4u64, 13] {
        let run = run_chaos_sized(seed, 2, 60, TraceSink::disabled());
        assert!(
            run.live(),
            "liveness violation: seed {seed} committed {} of {} ops\nplan: {:?}",
            run.committed,
            run.expected,
            run.plan,
        );
        // Stability lag: a checkpoint stabilizes at most ~2 intervals
        // after capture; undecided pipeline slots add a little slack.
        let bound = (4 * CKPT_INTERVAL) as usize + 16;
        for p in (1..=N).map(ProcessId) {
            let r = run.sim.actor(p).replica().unwrap();
            assert!(
                r.stats().checkpoints_stable > 0,
                "seed {seed} at {p}: no checkpoint ever stabilized"
            );
            let len = r.log().log_len();
            assert!(
                len <= bound,
                "seed {seed} at {p}: {len} resident slots exceed the \
                 compaction bound {bound} (watermark {})",
                r.log().watermark(),
            );
            assert!(
                r.log().archive_len() <= ARCHIVE_RETAIN as usize,
                "seed {seed} at {p}: transfer archive exceeds its retention"
            );
        }
    }
}

#[test]
fn reruns_of_a_chaos_seed_are_identical() {
    // The reproducibility contract: a chaos execution is a pure function
    // of (seed, plan). Identical seeds must yield identical traffic
    // counters and identical per-replica outcomes.
    for seed in [3u64, 17] {
        let a = run_live(seed);
        let b = run_live(seed);
        let (sa, sb) = (a.sim.stats(), b.sim.stats());
        assert_eq!(sa.messages_sent, sb.messages_sent, "seed {seed}");
        assert_eq!(sa.messages_delivered, sb.messages_delivered, "seed {seed}");
        assert_eq!(
            sa.messages_duplicated, sb.messages_duplicated,
            "seed {seed}"
        );
        assert_eq!(sa.messages_reordered, sb.messages_reordered, "seed {seed}");
        assert_eq!(sa.timers_fired, sb.timers_fired, "seed {seed}");
        assert_eq!(sa.faults_injected, sb.faults_injected, "seed {seed}");
        for p in (1..=N).map(ProcessId) {
            let ra = a.sim.actor(p).replica().unwrap();
            let rb = b.sim.actor(p).replica().unwrap();
            assert_eq!(ra.view(), rb.view(), "seed {seed} at {p}");
            assert_eq!(
                ra.log().watermark(),
                rb.log().watermark(),
                "seed {seed} at {p}"
            );
            assert_eq!(ra.log().log_len(), rb.log().log_len(), "seed {seed} at {p}");
            assert_eq!(
                ra.log().gc_floor(),
                rb.log().gc_floor(),
                "seed {seed} at {p}"
            );
            assert_eq!(
                ra.stats().recoveries,
                rb.stats().recoveries,
                "seed {seed} at {p}"
            );
            assert_eq!(
                ra.stats().checkpoints_stable,
                rb.stats().checkpoints_stable,
                "seed {seed} at {p}"
            );
        }
    }
}

#[test]
fn seed_derived_batch_policies_cover_the_space() {
    // The soak's per-seed batch policies are deterministic and actually
    // spread over the configuration space: the 24 seeds must include real
    // batching (size > 1), real pipelining (depth > 1) and both immediate
    // and delayed batch closes — otherwise the chaos sweep only ever
    // exercises the unbatched path.
    let policies: Vec<_> = (1..=24u64).map(batch_policy_for).collect();
    for (i, p) in policies.iter().enumerate() {
        let seed = i as u64 + 1;
        assert_eq!(*p, batch_policy_for(seed), "seed {seed} not deterministic");
        assert!((1..=8).contains(&p.max_batch_size), "seed {seed}: {p:?}");
        assert!((1..=4).contains(&p.pipeline_depth), "seed {seed}: {p:?}");
        assert!(
            p.max_batch_delay <= SimDuration::micros(800),
            "seed {seed}: {p:?}"
        );
    }
    assert!(policies.iter().any(|p| p.max_batch_size > 1));
    assert!(policies.iter().any(|p| p.pipeline_depth > 1));
    assert!(policies
        .iter()
        .any(|p| p.max_batch_delay == SimDuration::ZERO));
    assert!(policies
        .iter()
        .any(|p| p.max_batch_delay > SimDuration::ZERO));
}

#[test]
fn plan_generation_is_deterministic_and_well_formed() {
    for seed in 1..=24u64 {
        let p1 = plan_for(seed, N);
        let p2 = plan_for(seed, N);
        assert_eq!(p1.len(), p2.len(), "seed {seed}");
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"), "seed {seed}");
        // Time-ordered and ending in the terminal heal block.
        let times: Vec<u64> = p1.iter().map(|(t, _)| t.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "seed {seed}");
        let heal_time = p1.last_fault_time().unwrap();
        let terminal: Vec<&FaultEvent> = p1
            .iter()
            .filter(|(t, _)| *t == heal_time)
            .map(|(_, e)| e)
            .collect();
        assert!(
            terminal.iter().any(|e| matches!(e, FaultEvent::HealAll)),
            "seed {seed}: plan does not end with a global heal"
        );
        assert_eq!(
            terminal
                .iter()
                .filter(|e| matches!(e, FaultEvent::Restart(_)))
                .count(),
            N as usize,
            "seed {seed}: terminal block must revive every replica"
        );
    }
}
