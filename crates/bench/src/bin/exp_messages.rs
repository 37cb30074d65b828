//! Experiment E8 — inter-replica message reduction from running on an
//! active quorum (paper §I, after Distler et al.).
//!
//! "Systems like PBFT … use n = 3f+1 replicas, broadcast messages to all
//! replicas but require replies from only n − f correct replicas. … If a
//! quorum or subset of processes, containing n − f correct processes can
//! be selected, these systems can drop approximately 1/3 … of the
//! inter-replica messages. Similarly, BFT systems that … reduce the total
//! number of replicas to n = 2f+1 … [drop] 1/2."
//!
//! We measure per-request inter-replica messages in the simulator for
//! PBFT with all `n = 3f+1` replicas participating, PBFT restricted to
//! an active quorum of `n − f` (Distler-style), and the XPaxos normal
//! case on its active quorum (this paper's Fig. 2), and report
//! per-broadcast recipient reductions for both the `3f+1` and the
//! `2f+1` replica models.

use qsel_bench::{pct, Table};
use qsel_pbft::{run_workload, Participation};
use qsel_simnet::SimTime;
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};

/// Measured XPaxos inter-replica messages per committed op (prepare +
/// commit traffic only; heartbeats and selection traffic excluded to match
/// the paper's per-request accounting).
fn xpaxos_per_op(cfg: ClusterConfig, ops: u64, seed: u64) -> f64 {
    let mut sim = ClusterBuilder::new(cfg, seed).clients(1, ops).build();
    sim.run_until(SimTime::from_micros(1_000_000 + ops * 10_000));
    assert_eq!(total_committed(&sim), ops, "workload must complete");
    let stats = sim.stats();
    let agreement: u64 = ["prepare", "commit"]
        .iter()
        .map(|k| stats.by_kind.get(*k).copied().unwrap_or(0))
        .sum();
    agreement as f64 / ops as f64
}

fn main() {
    let ops = 50;
    let mut table = Table::new(vec![
        "f",
        "n=3f+1",
        "PBFT all (msgs/op)",
        "PBFT active quorum",
        "XPaxos active quorum",
        "per-broadcast recipients saved",
    ]);
    for f in 1..=4u32 {
        let n = 3 * f + 1;
        let cfg = ClusterConfig::new(n, f).expect("valid config");
        let full = run_workload(cfg, Participation::All, ops, 10 + u64::from(f));
        let active = run_workload(cfg, Participation::ActiveQuorum, ops, 20 + u64::from(f));
        assert_eq!(full.committed, ops);
        assert_eq!(active.committed, ops);
        let xp = xpaxos_per_op(cfg, ops, 30 + u64::from(f));
        // The paper's "~1/3" claim is about broadcast fan-out: each
        // broadcast reaches n−f−1 instead of n−1 other replicas.
        let saved = pct((n - (n - f)) as f64, (n - 1) as f64);
        table.row(vec![
            f.to_string(),
            n.to_string(),
            format!("{:.0}", full.per_op),
            format!("{:.0}", active.per_op),
            format!("{xp:.1}"),
            saved,
        ]);
    }
    table.print("E8a: inter-replica messages per request, n = 3f+1 (PBFT-style systems)");

    let mut table2 = Table::new(vec![
        "f",
        "n=2f+1",
        "full participation (msgs/op)",
        "active quorum f+1 (msgs/op)",
        "per-broadcast recipients saved",
    ]);
    for f in 1..=4u32 {
        let n = 2 * f + 1;
        let cfg = ClusterConfig::new(n, f).expect("valid config");
        let full = run_workload(cfg, Participation::All, ops, 40 + u64::from(f));
        let active = run_workload(cfg, Participation::ActiveQuorum, ops, 50 + u64::from(f));
        assert_eq!(full.committed, ops);
        assert_eq!(active.committed, ops);
        let saved = pct(f as f64, (n - 1) as f64);
        table2.row(vec![
            f.to_string(),
            n.to_string(),
            format!("{:.0}", full.per_op),
            format!("{:.0}", active.per_op),
            saved,
        ]);
    }
    table2.print("E8b: trusted-component-style systems, n = 2f+1");
    println!(
        "Reading: per-broadcast the active quorum drops f of the n−1 \
         recipients — ≈1/3 for n=3f+1 and ≈1/2 for n=2f+1, exactly the \
         intro's claim; total message counts fall superlinearly because the \
         quadratic agreement phases shrink with the participant count."
    );
}
