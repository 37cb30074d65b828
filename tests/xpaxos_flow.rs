//! Experiment E1: the XPaxos normal-case message flow of Fig. 2 and the
//! delayed-PREPARE scenario of Fig. 3, verified by message accounting.

use qsel_simnet::{LinkState, SimDuration, SimTime};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder};

/// Fig. 2 shape: per committed request the leader sends q−1 PREPAREs and
/// each of the q−1 followers broadcasts a COMMIT to the q−1 other members.
#[test]
fn fig2_message_pattern_counts() {
    let cfg = ClusterConfig::new(7, 2).unwrap(); // q = 5 as in Fig. 2 (f=2)
    let ops = 20;
    let mut sim = ClusterBuilder::new(cfg, 5).clients(1, ops).build();
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), ops);
    assert_safety(&sim);
    let stats = sim.stats();
    let q = 5u64;
    assert_eq!(
        stats.by_kind["prepare"],
        ops * (q - 1),
        "one PREPARE per member"
    );
    let commits = stats.by_kind["commit"];
    let formula = ops * (q - 1) * (q - 1);
    assert!(
        (formula..=formula + ops * (q - 1)).contains(&commits),
        "each follower broadcasts its COMMIT to the other members          (plus Fig. 3 resends): {commits} outside [{formula}, {}]",
        formula + ops * (q - 1)
    );
    // No view changes, no selection traffic in a fault-free run.
    assert!(!stats.by_kind.contains_key("view-change"));
    assert!(!stats.by_kind.contains_key("new-view"));
    assert!(!stats.by_kind.contains_key("update"));
}

/// Passive replicas take part in no agreement exchange — the message
/// saving the paper's introduction is about — while still converging via
/// the leader's background lazy replication.
#[test]
fn passive_replicas_outside_agreement() {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let ops = 10u64;
    let mut sim = ClusterBuilder::new(cfg, 6).clients(1, ops).build();
    sim.run_until(SimTime::from_micros(1_000_000));
    assert_eq!(total_committed(&sim), ops);
    let q = 3u64;
    assert_eq!(sim.stats().by_kind["prepare"], ops * (q - 1));
    // Commits: the formula, plus protocol-legal resends when a COMMIT
    // overtakes its PREPARE and the slot decides early (Fig. 3).
    let commits = sim.stats().by_kind["commit"];
    let formula = ops * (q - 1) * (q - 1);
    assert!(
        (formula..=formula + ops * (q - 1)).contains(&commits),
        "commits {commits} outside [{formula}, {}]",
        formula + ops * (q - 1)
    );
    let passive = sim.actor(ProcessId(4)).replica().unwrap();
    assert_eq!(passive.log().decided_count(), ops as usize, "lazy catch-up");
}

/// Fig. 3: the leader's PREPARE to one follower is delayed so COMMITs
/// overtake it. The follower must commit from the embedded PREPARE and the
/// system must make progress without any view change (the delay stays
/// within the detector timeout).
#[test]
fn fig3_commit_overtakes_prepare() {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let ops = 10;
    let mut sim = ClusterBuilder::new(cfg, 8).clients(1, ops).build();
    sim.start();
    // Delay leader→p3 prepares by 600µs: commits via p2 (~100µs + 100µs)
    // arrive first, but the prepare still lands within the 2ms timeout.
    sim.set_link(
        ProcessId(1),
        ProcessId(3),
        LinkState {
            extra_delay: SimDuration::micros(600),
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), ops);
    assert_safety(&sim);
    for p in [1, 2, 3].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert_eq!(r.view(), 0, "no view change at {p}");
        assert_eq!(r.stats().detections, 0, "no detections at {p}");
    }
    // p3 decided everything despite the overtaking.
    assert_eq!(
        sim.actor(ProcessId(3))
            .replica()
            .unwrap()
            .log()
            .decided_count(),
        ops as usize
    );
}

/// The §V-A accuracy argument: with delays under the timeout, a fault-free
/// run raises no suspicions at all, even under the Fig. 3 reordering.
#[test]
fn accuracy_requirements_hold_fault_free() {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let mut sim = ClusterBuilder::new(cfg, 9).clients(2, 10).build();
    sim.start();
    sim.set_link(
        ProcessId(1),
        ProcessId(2),
        LinkState {
            extra_delay: SimDuration::micros(500),
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(total_committed(&sim), 20);
    for p in [1, 2, 3].map(ProcessId) {
        let r = sim.actor(p).replica().unwrap();
        assert_eq!(
            r.fd_stats().suspicions_raised,
            0,
            "false suspicion at {p}: {:?}",
            r.fd_stats().expired_by_label
        );
    }
}
