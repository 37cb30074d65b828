//! A replicated state machine surviving faults via Quorum Selection.
//!
//! Run with: `cargo run --example smr_cluster`
//!
//! Starts an XPaxos cluster (n = 4, f = 1) with two closed-loop clients,
//! crashes the active-quorum follower p2 mid-run, and prints the
//! throughput timeline and the quorum change that restored service —
//! the workload the paper's introduction motivates.

use qsel_simnet::{SimDuration, SimTime};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, ClusterBuilder};
use qsel_xpaxos::replica::{QuorumPolicy, ReplicaConfig};

fn main() {
    let cfg = ClusterConfig::new(4, 1).expect("valid configuration");
    let rcfg = ReplicaConfig {
        policy: QuorumPolicy::Selection,
        ..Default::default()
    };
    let mut sim = ClusterBuilder::new(cfg, 2024)
        .replica_config(rcfg)
        .clients(2, 100_000) // effectively unbounded, time-limited run
        .retry(SimDuration::millis(30))
        .build();
    sim.start();

    println!("XPaxos + Quorum Selection, n=4 f=1, clients=2");
    println!("crashing follower p2 at t=300ms\n");
    println!(
        "{:>12} {:>12} {:>10} {:>22}",
        "t (ms)", "ops/100ms", "view", "active quorum (at p1)"
    );

    let mut committed_before = 0u64;
    let mut crashed = false;
    for step in 1..=10u64 {
        let t = SimTime::from_micros(step * 100_000);
        if !crashed && step * 100 >= 300 {
            sim.crash(ProcessId(2));
            crashed = true;
        }
        sim.run_until(t);
        let committed: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .filter_map(|&id| sim.actor(id).client().map(|c| c.committed_ops()))
            .sum();
        let viewer = sim.actor(ProcessId(1)).replica().expect("replica");
        println!(
            "{:>12} {:>12} {:>10} {:>22}",
            format!("{}–{}", (step - 1) * 100, step * 100),
            committed - committed_before,
            viewer.view(),
            viewer.active_quorum().to_string(),
        );
        committed_before = committed;
    }

    assert_safety(&sim);
    let r1 = sim.actor(ProcessId(1)).replica().expect("replica");
    println!(
        "\nfinal active quorum: {} (p2 excluded)",
        r1.active_quorum()
    );
    println!(
        "view changes: {}, detections: {}, decided slots: {}",
        r1.stats().views_installed,
        r1.stats().detections,
        r1.log().decided_count()
    );
    println!("safety check passed: no two replicas executed different requests at a slot");
}
