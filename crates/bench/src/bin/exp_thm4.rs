//! Experiment E5 — Theorem 4's lower bound, and what it does to a
//! learning vs a non-learning algorithm.
//!
//! Theorem 4: any deterministic quorum-selection algorithm may have to
//! propose C(f+2, 2) quorums. We run the exact optimal adversary against
//! (a) Algorithm 1's lexicographically-first-independent-set rule and
//! (b) the XPaxos round-robin enumeration. Both are forced to about the
//! same number of changes by the *optimal confined* adversary — but the
//! enumeration can additionally be forced around its whole C(n, f) cycle
//! by a single culprit (see exp-baseline), which Algorithm 1 cannot.

#![forbid(unsafe_code)]

use qsel_adversary::game::{max_interruptions, LexFirstIs, RoundRobinEnumeration};
use qsel_bench::Table;
use qsel_types::thresholds::binomial;

fn main() {
    let mut table = Table::new(vec![
        "f",
        "n",
        "Alg.1 proposed quorums",
        "enumeration proposed quorums",
        "Thm4 lower bound C(f+2,2)",
    ]);
    for f in 1..=4u32 {
        let n = 3 * f + 1;
        let q = n - f;
        // "+1": the initial quorum counts as proposed (the Theorem 4
        // sequence is Q_1, s_1, …, s_{k-1}, Q_k with k-1 suspicions).
        let alg1 = max_interruptions(&LexFirstIs::new(n, q), n, f).changes + 1;
        let enumeration =
            max_interruptions(&RoundRobinEnumeration::new(n, q), n, f).changes + 1;
        let bound = binomial((f + 2) as u64, 2);
        table.row(vec![
            f.to_string(),
            n.to_string(),
            alg1.to_string(),
            enumeration.to_string(),
            bound.to_string(),
        ]);
    }
    table.print("E5: proposed quorums under the optimal confined adversary (Theorem 4)");
    println!(
        "Reading: the adversary achieves the C(f+2,2) bound against Algorithm 1 \
         (the bound is tight), and at least as much against the XPaxos enumeration."
    );
}
