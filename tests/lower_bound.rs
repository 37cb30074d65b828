//! Theorem 4 (§VII-B) and the Figure 5 worked example: the adversary can
//! force `C(f+2, 2)` proposed quorums out of any deterministic algorithm,
//! and Algorithm 1 allows no more (the conjecture below Theorem 3).

use qsel_adversary::cluster::ClusterUnderAttack;
use qsel_adversary::game::{
    greedy_adversary, max_interruptions, GameResult, LexFirstIs, QuorumAlgorithm,
    RoundRobinEnumeration,
};
use qsel_types::thresholds::binomial;
use qsel_types::{ClusterConfig, ProcessId};

/// The exact optimal adversary achieves the Theorem 4 bound against
/// Algorithm 1 — and no more (so the paper's conjectured `C(f+2,2)` is
/// exactly the per-epoch optimum).
#[test]
fn optimal_adversary_matches_theorem4_bound() {
    for f in 1..=3u32 {
        for n in [3 * f + 1, 3 * f + 3] {
            let q = n - f;
            let result = max_interruptions(&LexFirstIs::new(n, q), n, f);
            let bound = binomial((f + 2) as u64, 2) as u64 - 1; // changes
            assert_eq!(
                result.changes, bound,
                "f={f} n={n}: optimal changes {} != C(f+2,2)-1 = {bound}",
                result.changes
            );
        }
    }
}

/// Every optimal schedule found obeys the Theorem 4 rules when replayed:
/// each suspicion is inside the then-current quorum (rule 1) and the pair
/// never shares a quorum afterwards (rule 2 / no-suspicion).
#[test]
fn optimal_schedule_obeys_game_rules() {
    for f in 1..=3u32 {
        let n = 3 * f + 1;
        let q = n - f;
        let GameResult { schedule, .. } = max_interruptions(&LexFirstIs::new(n, q), n, f);
        let mut algo = LexFirstIs::new(n, q);
        let mut suspected: Vec<(ProcessId, ProcessId)> = Vec::new();
        for &(a, b) in &schedule {
            let quorum = algo.quorum();
            assert!(quorum.contains(a) && quorum.contains(b), "rule 1 violated");
            algo.on_suspicion(a, b);
            suspected.push((a, b));
            // Rule 2: no previously-suspected pair shares the new quorum.
            let now = algo.quorum();
            for &(x, y) in &suspected {
                assert!(
                    !(now.contains(x) && now.contains(y)),
                    "rule 2 violated for ({x},{y})"
                );
            }
        }
    }
}

/// The same optimal adversary forces at least as many changes out of the
/// XPaxos enumeration (it cannot do better than a learning algorithm).
#[test]
fn enumeration_is_no_better_than_algorithm1() {
    for f in 1..=2u32 {
        let n = 3 * f + 1;
        let q = n - f;
        let alg1 = max_interruptions(&LexFirstIs::new(n, q), n, f).changes;
        let enumeration = max_interruptions(&RoundRobinEnumeration::new(n, q), n, f).changes;
        assert!(
            enumeration >= alg1,
            "f={f}: enumeration {enumeration} < algorithm 1 {alg1}"
        );
    }
}

/// Figure 5's setting: f = 3, suspicions confined to `F+2` = 5 nodes.
/// The optimal adversary realizes C(5,2) = 10 proposed quorums.
#[test]
fn fig5_f3_scenario() {
    let f = 3u32;
    let n = 3 * f + 1;
    let q = n - f;
    let result = max_interruptions(&LexFirstIs::new(n, q), n, f);
    assert_eq!(result.changes + 1, binomial(5, 2) as u64); // 10 proposed
    // The schedule uses at most f+2 distinct nodes (the F+2 window).
    let mut nodes: Vec<ProcessId> = result
        .schedule
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect();
    nodes.sort();
    nodes.dedup();
    assert!(nodes.len() <= (f + 2) as usize);
}

/// The greedy adversary against the *full protocol* (real modules with
/// propagation) stays within Theorem 3's f(f+1) per-epoch bound.
#[test]
fn full_protocol_within_theorem3_bound() {
    for f in 1..=2u32 {
        let n = 3 * f + 1;
        let cfg = ClusterConfig::new(n, f).unwrap();
        let mut target = ClusterUnderAttack::new(cfg, 99);
        let _ = greedy_adversary(&mut target, n, f);
        assert!(
            target.observer_max_per_epoch() <= u64::from(f * (f + 1)),
            "f={f}: {} > f(f+1)",
            target.observer_max_per_epoch()
        );
    }
}
