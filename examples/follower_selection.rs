//! Follower Selection under a leader-attack campaign (Section VIII).
//!
//! Run with: `cargo run --example follower_selection`
//!
//! A cluster of n = 7 processes (f = 2) runs Algorithm 2 with instant
//! propagation. An adversary repeatedly makes a quorum member suspect the
//! current leader. Watch the leader walk rightward through the maximal
//! line subgraph — and verify Theorem 9's bound of at most 3f + 1 quorums
//! per epoch.

use qsel_adversary::cluster::FsCluster;
use qsel_types::{ClusterConfig, ProcessId};

fn main() {
    let f = 2u32;
    let n = 3 * f + 1;
    let cfg = ClusterConfig::new(n, f).expect("valid configuration");
    let mut cluster = FsCluster::new(cfg, 7);

    println!(
        "Follower Selection on n={n}, f={f} (Theorem 9 bound: {} per epoch)\n",
        3 * f + 1
    );
    let lq = cluster.agreed_quorum().expect("initial agreement");
    println!("initial: {lq}");

    for round in 1..=12u32 {
        let Some(lq) = cluster.agreed_quorum() else {
            println!("round {round}: cluster disagrees (transient) — stopping");
            break;
        };
        let leader = lq.leader();
        let Some(suspecter) = lq.followers().iter().next() else {
            break;
        };
        cluster.cause_suspicion(suspecter, leader);
        match cluster.agreed_quorum() {
            Some(new_lq) => println!(
                "round {round:2}: {suspecter} suspects leader {leader} → {new_lq}  (epoch {})",
                cluster
                    .agreed_epoch()
                    .map(|e| e.to_string())
                    .unwrap_or_default()
            ),
            None => println!("round {round:2}: no agreement yet"),
        }
    }

    let observer = ProcessId(n);
    let stats = cluster.module(observer).stats();
    println!(
        "\nquorums per epoch at {observer}: {:?}",
        stats.quorums_per_epoch
    );
    println!(
        "max in one epoch = {} (bound 3f+1 = {}), total = {} (Corollary 10 budget 6f+2 = {})",
        stats.max_quorums_in_one_epoch(),
        3 * f + 1,
        stats.quorums_issued,
        6 * f + 2
    );
    assert!(stats.max_quorums_in_one_epoch() <= (3 * f + 1) as u64);
    println!("Theorem 9 bound holds.");
}
