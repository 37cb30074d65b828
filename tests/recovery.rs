//! Signed checkpoints, log compaction, and MMR-authenticated incremental
//! state transfer (ISSUE 7, robustness tier).
//!
//! The acceptance bar: a replica that crashed and missed thousands of
//! slots recovers in **O(gap) messages** — asserted on simulator message
//! counts ([`qsel_simnet::NetStats::by_kind`]), never wall clock — with
//! its resident log bounded by the checkpoint interval afterwards, and a
//! Byzantine donor serving tampered chunks is detected by MMR
//! verification, rejected, and routed around.

mod common;

use qsel_obs::TraceSink;
use qsel_simnet::SimTime;
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder};
use qsel_xpaxos::{CheckpointPolicy, ReplicaConfig};

fn cfg(n: u32, f: u32) -> ClusterConfig {
    ClusterConfig::new(n, f).unwrap()
}

fn ckpt(interval: u64, retain: u64) -> ReplicaConfig {
    ReplicaConfig {
        checkpoint: CheckpointPolicy::new(interval, retain),
        ..Default::default()
    }
}

/// Steady state: every replica stabilizes checkpoints and compacts the
/// decided prefix, keeping the resident log bounded by the interval.
#[test]
fn checkpoints_stabilize_and_bound_the_log() {
    let interval = 8u64;
    let ops = 80u64;
    let mut sim = ClusterBuilder::new(cfg(4, 1), 7)
        .replica_config(ckpt(interval, 16))
        .clients(2, ops / 2)
        .build();
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), ops);
    assert_safety(&sim);
    for p in [1, 2, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert!(
            r.stats().checkpoints_stable >= ops / interval - 1,
            "replica {p} stabilized only {} checkpoints",
            r.stats().checkpoints_stable
        );
        assert!(
            r.stable_checkpoint_slot() >= ops - interval,
            "replica {p} stable checkpoint lags at {}",
            r.stable_checkpoint_slot()
        );
        let resident = r.log().log_len() as u64;
        assert!(
            resident <= 3 * interval,
            "replica {p} keeps {resident} slots resident (interval {interval})"
        );
    }
    // Checkpoint votes flowed: the new kind shows up in the classifier.
    assert!(sim.stats().by_kind["checkpoint"] > 0);
}

/// The tentpole acceptance test: a replica that crashed and missed ~10k
/// slots recovers through a compact, MMR-proved transfer whose message
/// cost is O(gap) — proportional to gap / chunk-size, not to the retries
/// nor the log as a whole — and ends with its resident log bounded again.
#[test]
fn lazarus_replica_recovers_in_o_gap_messages() {
    let interval = 500u64;
    let ops = 10_000u64;
    let mut sim = ClusterBuilder::new(cfg(4, 1), 42)
        .replica_config(ckpt(interval, 50_000))
        .clients(4, ops / 4)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(20_000));
    let wm_at_crash = sim.actor(ProcessId(4)).replica().unwrap().log().watermark();
    sim.crash(ProcessId(4)); // passive replica: agreement is undisturbed
    sim.run_until(SimTime::from_micros(30_000_000));
    assert_eq!(
        total_committed(&sim),
        ops,
        "cluster finished while p4 slept"
    );
    let frontier = sim.actor(ProcessId(1)).replica().unwrap().log().watermark();
    let gap = frontier - wm_at_crash;
    assert!(gap >= 9_000, "p4 must have missed ~10k slots, gap = {gap}");

    let before = sim.stats().clone();
    sim.restart(ProcessId(4));
    sim.run_until(SimTime::from_micros(40_000_000));

    let r4 = sim.actor(ProcessId(4)).replica().unwrap();
    assert!(
        r4.log().watermark() >= frontier,
        "p4 stuck at {} < {frontier}",
        r4.log().watermark()
    );
    assert!(!r4.is_syncing(), "transfer still marked in flight");
    assert!(r4.stats().state_transfers >= 1);
    assert_eq!(r4.stats().chunks_rejected, 0, "honest donors only");
    assert_safety(&sim);

    // O(gap) message accounting: the whole recovery — probe, chunked
    // compact transfer, certified tail — must cost on the order of
    // gap / chunk-size messages, not O(gap) *per retry* or O(n · gap).
    let after = sim.stats().clone();
    let delta = |kind: &str| {
        after.by_kind.get(kind).copied().unwrap_or(0)
            - before.by_kind.get(kind).copied().unwrap_or(0)
    };
    let chunk = 512u64; // SYNC_CHUNK in the replica
    let rounds = gap / chunk + 2;
    assert!(
        delta("sync-chunk") <= rounds,
        "sync-chunk: {} > {rounds}",
        delta("sync-chunk")
    );
    assert!(
        delta("sync-fetch") <= rounds,
        "sync-fetch: {} > {rounds}",
        delta("sync-fetch")
    );
    // One probe round (n−1 queries, n−1 answers) plus a small retry
    // allowance; certified-tail traffic covers at most the suffix past
    // the last stable checkpoint.
    assert!(
        delta("sync-query") <= 12,
        "sync-query: {}",
        delta("sync-query")
    );
    assert!(
        delta("sync-info") <= 12,
        "sync-info: {}",
        delta("sync-info")
    );
    assert!(
        delta("state-fetch") + delta("state-batch") <= 2 * interval + 16,
        "certified tail traffic blew up: {} fetches / {} batches",
        delta("state-fetch"),
        delta("state-batch")
    );

    // Post-recovery memory: the resident log is bounded by the interval
    // again, not by the gap it just crossed.
    let resident = r4.log().log_len() as u64;
    assert!(
        resident <= 3 * interval,
        "recovered replica keeps {resident} slots resident"
    );
    assert!(
        r4.stable_checkpoint_slot() >= frontier - 2 * interval,
        "recovered replica's stable checkpoint lags at {}",
        r4.stable_checkpoint_slot()
    );
}

/// Byzantine donor: the first-choice donor serves chunks whose proofs are
/// genuine but whose batches are flipped. The recoverer must reject them
/// by MMR verification (verify-before-use), fail over to an honest donor,
/// and still converge.
#[test]
fn tampered_chunks_are_rejected_and_recovery_fails_over() {
    let (sim, frontier) = common::tampered_recovery(TraceSink::disabled());

    let r4 = sim.actor(ProcessId(4)).replica().unwrap();
    assert!(
        r4.stats().chunks_rejected >= 1,
        "the tampered chunk was never detected"
    );
    assert!(
        r4.log().watermark() >= frontier,
        "recovery did not converge past the Byzantine donor: {} < {frontier}",
        r4.log().watermark()
    );
    assert!(!r4.is_syncing());
    assert_safety(&sim);
}

/// Graceful degradation: checkpointing is enabled but no quorum
/// checkpoint exists yet (the crash happens before the first interval
/// crossing stabilizes). Recovery must still converge, via certified
/// replay from the watermark.
#[test]
fn recovery_degrades_to_certified_replay_without_a_checkpoint() {
    let ops = 60u64;
    // Interval far beyond the run: no checkpoint can ever stabilize.
    let mut sim = ClusterBuilder::new(cfg(4, 1), 11)
        .replica_config(ckpt(100_000, 0))
        .clients(2, ops / 2)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(20_000));
    sim.crash(ProcessId(4));
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), ops);
    let frontier = sim.actor(ProcessId(1)).replica().unwrap().log().watermark();
    sim.restart(ProcessId(4));
    sim.run_until(SimTime::from_micros(6_000_000));

    let r4 = sim.actor(ProcessId(4)).replica().unwrap();
    assert_eq!(r4.stats().checkpoints_stable, 0);
    assert!(r4.stats().state_transfers >= 1);
    assert!(
        r4.log().watermark() >= frontier,
        "replay-mode recovery stuck at {} < {frontier}",
        r4.log().watermark()
    );
    assert_safety(&sim);
}
