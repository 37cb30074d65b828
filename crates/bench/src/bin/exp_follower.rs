//! Experiment E6 — Theorem 9 and Corollary 10 (Follower Selection).
//!
//! An adversary keeps attacking whoever leads: every time the cluster
//! agrees on a leader quorum, a quorum member raises a suspicion against
//! the leader (one faulty process can always cause this while it sits in
//! the quorum, and a faulty leader can be suspected by anyone). Theorem 9
//! bounds the quorums issued per epoch by `3f + 1`; Corollary 10 bounds
//! the total after stabilization by `6f + 2`.

use qsel_adversary::cluster::FsCluster;
use qsel_bench::Table;
use qsel_types::{ClusterConfig, ProcessId};

fn main() {
    let mut table = Table::new(vec![
        "f",
        "n",
        "attack rounds",
        "max quorums in one epoch",
        "Thm9 bound 3f+1",
        "max over 2 consecutive epochs",
        "Cor10 bound 6f+2",
        "final epoch",
    ]);
    for f in 1..=5u32 {
        let n = 3 * f + 1;
        let cfg = ClusterConfig::new(n, f).expect("valid config");
        let mut cluster = FsCluster::new(cfg, 1234 + u64::from(f));
        let mut rounds = 0u32;
        // Attack until the adversary runs out of productive suspicions or
        // a generous cap is reached.
        for _ in 0..(12 * f + 12) {
            let Some(lq) = cluster.agreed_quorum() else {
                break;
            };
            let leader = lq.leader();
            let Some(suspecter) = lq.followers().iter().next() else {
                break;
            };
            cluster.cause_suspicion(suspecter, leader);
            rounds += 1;
        }
        let observer = ProcessId(n);
        let stats = cluster.module(observer).stats();
        let max_epoch = stats.max_quorums_in_one_epoch();
        // Corollary 10 budgets the two epochs spanning the stabilization
        // point: measure the worst sum over consecutive epochs.
        let per: Vec<u64> = stats.quorums_per_epoch.values().copied().collect();
        let max_pair = per
            .windows(2)
            .map(|w| w[0] + w[1])
            .max()
            .unwrap_or_else(|| per.first().copied().unwrap_or(0));
        table.row(vec![
            f.to_string(),
            n.to_string(),
            rounds.to_string(),
            max_epoch.to_string(),
            (3 * f + 1).to_string(),
            max_pair.to_string(),
            (6 * f + 2).to_string(),
            cluster
                .agreed_epoch()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
        assert!(
            max_epoch <= (3 * f + 1) as u64,
            "Theorem 9 violated at f={f}: {max_epoch}"
        );
        assert!(
            max_pair <= (6 * f + 2) as u64,
            "Corollary 10 violated at f={f}: {max_pair}"
        );
    }
    table.print("E6: Follower Selection interruption bounds (Theorems 9, Corollary 10)");
    println!(
        "Reading: per-epoch quorum counts stay within 3f+1; the leader-attack \
         game exhausts after O(f) productive suspicions per epoch."
    );
}
