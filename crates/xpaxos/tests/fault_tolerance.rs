//! Fault-injection tests for the XPaxos substrate: the system must stay
//! safe under every fault class of the paper's Section II and stay live
//! (commit client operations) whenever a correct quorum can be selected.

use qsel_simnet::{LinkState, SimDuration, SimTime};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder, Equivocator, XpActor};
use qsel_xpaxos::replica::{QuorumPolicy, ReplicaConfig};

fn cfg(n: u32, f: u32) -> ClusterConfig {
    ClusterConfig::new(n, f).unwrap()
}

fn selection() -> ReplicaConfig {
    ReplicaConfig {
        policy: QuorumPolicy::Selection,
        ..Default::default()
    }
}

fn enumeration() -> ReplicaConfig {
    ReplicaConfig {
        policy: QuorumPolicy::Enumeration,
        ..Default::default()
    }
}

#[test]
fn happy_path_commits_everything() {
    for seed in [1u64, 2, 3] {
        let mut sim = ClusterBuilder::new(cfg(4, 1), seed).clients(2, 8).build();
        sim.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(total_committed(&sim), 16, "seed {seed}");
        assert_safety(&sim);
        // No failures: the initial quorum survives.
        for p in [1, 2, 3].map(ProcessId) {
            let r = sim.actor(p).replica().unwrap();
            assert_eq!(r.view(), 0, "seed {seed} at {p}");
            assert_eq!(r.stats().view_changes, 0);
        }
    }
}

#[test]
fn happy_path_larger_cluster() {
    let mut sim = ClusterBuilder::new(cfg(7, 2), 5).clients(3, 5).build();
    sim.run_until(SimTime::from_micros(1_000_000));
    assert_eq!(total_committed(&sim), 15);
    assert_safety(&sim);
}

#[test]
fn passive_replicas_receive_no_agreement_traffic() {
    // n = 4, f = 1: the active quorum is {1,2,3}; p4 participates in no
    // PREPARE/COMMIT exchange at all — the whole point of active quorums.
    // It still tracks the frontier through the leader's background lazy
    // replication (certified decided entries).
    let ops = 10u64;
    let mut sim = ClusterBuilder::new(cfg(4, 1), 11).clients(1, ops).build();
    sim.run_until(SimTime::from_micros(1_000_000));
    assert_eq!(total_committed(&sim), ops);
    // Agreement traffic involves exactly the quorum: q−1 prepares and
    // (q−1)² commits per op — nothing to or from p4.
    let stats = sim.stats();
    let q = 3u64;
    assert_eq!(stats.by_kind["prepare"], ops * (q - 1));
    let commits = stats.by_kind["commit"];
    let formula = ops * (q - 1) * (q - 1);
    assert!((formula..=formula + ops * (q - 1)).contains(&commits));
    // The passive replica converged through lazy replication alone.
    let passive = sim.actor(ProcessId(4)).replica().unwrap();
    assert_eq!(passive.log().decided_count(), ops as usize);
    assert_eq!(passive.log().watermark(), ops);
}

#[test]
fn crashed_follower_triggers_quorum_change_and_recovers() {
    let mut sim = ClusterBuilder::new(cfg(4, 1), 21)
        .replica_config(selection())
        .clients(1, 12)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(50_000));
    sim.crash(ProcessId(2)); // follower in the active quorum
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(
        total_committed(&sim),
        12,
        "client finished despite the crash"
    );
    assert_safety(&sim);
    for p in [1, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert!(!r.active_quorum().contains(ProcessId(2)), "at {p}");
        assert!(r.is_normal(), "at {p}");
    }
}

#[test]
fn crashed_leader_triggers_quorum_change_and_recovers() {
    let mut sim = ClusterBuilder::new(cfg(4, 1), 33)
        .replica_config(selection())
        .clients(1, 12)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(50_000));
    sim.crash(ProcessId(1)); // the leader
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), 12);
    assert_safety(&sim);
    for p in [2, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert!(!r.active_quorum().contains(ProcessId(1)), "at {p}");
        assert_ne!(r.leader(), ProcessId(1), "at {p}");
    }
}

#[test]
fn restarted_replica_rejoins_and_catches_up() {
    // Crash a quorum member mid-run, let the survivors change quorum and
    // keep committing, then restart it: the recovery hook re-fetches the
    // decided suffix, so the rejoined replica converges to the frontier
    // without waiting for lazy replication.
    let mut sim = ClusterBuilder::new(cfg(4, 1), 211)
        .replica_config(selection())
        .clients(1, 16)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(50_000));
    sim.crash(ProcessId(2));
    sim.run_until(SimTime::from_micros(800_000));
    let frontier_before = sim.actor(ProcessId(1)).replica().unwrap().log().watermark();
    assert!(
        frontier_before > 0,
        "survivors made progress while p2 was down"
    );
    sim.restart(ProcessId(2));
    sim.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(total_committed(&sim), 16);
    assert_safety(&sim);
    let r2 = sim.actor(ProcessId(2)).replica().unwrap();
    assert_eq!(r2.stats().recoveries, 1);
    assert!(
        r2.log().watermark() >= frontier_before,
        "rejoined replica stuck at watermark {} < {}",
        r2.log().watermark(),
        frontier_before
    );
    assert_eq!(sim.stats().restarts, 1);
}

#[test]
fn partition_blocks_commits_and_heal_restores_liveness() {
    // Split the cluster {1,2} vs {3,4} mid-epoch: neither side holds a
    // full quorum (size n−f = 3), so commits must stall — but nothing may
    // diverge. Healing with an empty partition restores liveness.
    let mut sim = ClusterBuilder::new(cfg(4, 1), 222)
        .replica_config(selection())
        .clients(1, 20)
        .retry(SimDuration::millis(40))
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(100_000));
    let before = total_committed(&sim);
    assert!(before > 0, "no commits before the partition");
    sim.partition(&[ProcessId(1), ProcessId(2)]);
    sim.run_until(SimTime::from_micros(1_100_000));
    let during = total_committed(&sim);
    // At most one op already decided by the full quorum may complete from
    // in-flight replies; nothing new can commit without a full quorum.
    assert!(
        during <= before + 1,
        "a minority partition committed operations: {before} -> {during}"
    );
    assert_safety(&sim);
    sim.partition(&[]); // heal
    sim.run_until(SimTime::from_micros(6_000_000));
    assert_eq!(
        total_committed(&sim),
        20,
        "commits did not resume after heal"
    );
    assert_safety(&sim);
}

#[test]
fn enumeration_policy_also_recovers() {
    let mut sim = ClusterBuilder::new(cfg(4, 1), 44)
        .replica_config(enumeration())
        .clients(1, 10)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(50_000));
    sim.crash(ProcessId(2));
    sim.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(total_committed(&sim), 10);
    assert_safety(&sim);
    let r = sim.actor(ProcessId(1)).replica().unwrap();
    assert!(!r.active_quorum().contains(ProcessId(2)));
}

#[test]
fn omission_link_inside_quorum_heals_via_quorum_change() {
    // p2 stops delivering to p3 (both in the active quorum): p3's commit
    // expectations on p2 expire, the suspicion propagates, and quorum
    // selection picks a quorum avoiding the suspicion edge.
    let mut sim = ClusterBuilder::new(cfg(4, 1), 55)
        .replica_config(selection())
        .clients(1, 12)
        .build();
    sim.start();
    sim.run_until(SimTime::from_micros(30_000));
    sim.set_link(
        ProcessId(2),
        ProcessId(3),
        LinkState {
            drop_all: true,
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(total_committed(&sim), 12);
    assert_safety(&sim);
    for p in [1, 2, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        let q = r.active_quorum();
        assert!(
            !(q.contains(ProcessId(2)) && q.contains(ProcessId(3))),
            "suspicion edge inside active quorum at {p}: {q}"
        );
    }
}

#[test]
fn timing_fault_inside_quorum_eventually_tolerated_or_excluded() {
    // p2's messages to everyone are delayed by 50ms (≫ the initial 1ms
    // detector timeout). Either the adaptive timeouts grow to tolerate it
    // or the quorum moves away from it; both ways, the client must finish.
    let mut sim = ClusterBuilder::new(cfg(4, 1), 66)
        .replica_config(selection())
        .clients(1, 8)
        .retry(SimDuration::millis(100))
        .build();
    sim.start();
    for victim in [1u32, 3, 4].map(ProcessId) {
        sim.set_link(
            ProcessId(2),
            victim,
            LinkState {
                extra_delay: SimDuration::millis(50),
                ..Default::default()
            },
        );
    }
    sim.run_until(SimTime::from_micros(8_000_000));
    assert_eq!(total_committed(&sim), 8);
    assert_safety(&sim);
}

#[test]
fn equivocating_leader_detected_and_replaced() {
    let builder = ClusterBuilder::new(cfg(4, 1), 77)
        .replica_config(selection())
        .clients(1, 10);
    let mut sim = builder.build_with(|p, chain| {
        (p == ProcessId(1)).then(|| XpActor::Equivocator(Equivocator::new(cfg(4, 1), chain, p)))
    });
    sim.run_until(SimTime::from_micros(3_000_000));
    // The equivocator sent conflicting PREPAREs; followers exchanged
    // COMMITs embedding them, proving equivocation → DETECTED(p1) →
    // permanent suspicion → quorum without p1.
    assert_eq!(total_committed(&sim), 10);
    assert_safety(&sim);
    for p in [2, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert!(!r.active_quorum().contains(ProcessId(1)), "at {p}");
    }
    // At least one replica raised a detection.
    let detections: u64 = [2, 3, 4]
        .map(ProcessId)
        .iter()
        .map(|p| sim.actor(*p).replica().unwrap().stats().detections)
        .sum();
    assert!(detections >= 1);
}

#[test]
fn mute_leader_detected_and_replaced() {
    let builder = ClusterBuilder::new(cfg(4, 1), 88)
        .replica_config(selection())
        .clients(1, 10);
    let mut sim = builder.build_with(|p, _| (p == ProcessId(1)).then_some(XpActor::Mute));
    sim.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(total_committed(&sim), 10);
    assert_safety(&sim);
    for p in [2, 3, 4].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert!(!r.active_quorum().contains(ProcessId(1)), "at {p}");
    }
}

#[test]
fn selection_beats_enumeration_on_view_changes() {
    // Same fault (crash of p2 early); compare how many view changes the
    // survivors performed under each policy. Selection should need no more
    // than enumeration — typically strictly fewer on larger clusters where
    // enumeration wades through every quorum containing the culprit.
    let run = |rcfg: ReplicaConfig| {
        let mut sim = ClusterBuilder::new(cfg(5, 2), 99)
            .replica_config(rcfg)
            .clients(1, 10)
            .build();
        sim.start();
        sim.run_until(SimTime::from_micros(20_000));
        sim.crash(ProcessId(1));
        sim.crash(ProcessId(2));
        sim.run_until(SimTime::from_micros(5_000_000));
        assert_eq!(total_committed(&sim), 10);
        assert_safety(&sim);
        let changes: u64 = [3, 4, 5]
            .map(ProcessId)
            .iter()
            .map(|p| sim.actor(*p).replica().unwrap().stats().views_installed)
            .max()
            .unwrap();
        changes
    };
    let sel = run(selection());
    let en = run(enumeration());
    assert!(
        sel <= en,
        "selection installed {sel} views, enumeration {en}"
    );
}
