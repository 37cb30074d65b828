//! The abstract interruption game of Theorem 4.
//!
//! A run is a sequence `Q_1, s_1, Q_2, s_2, …, s_{k-1}, Q_k` where each
//! `s_l` is a suspicion between two members of the then-current quorum
//! `Q_l` (rule 1) and the algorithm must never again put a suspicion's two
//! endpoints in a quorum together (rule 2 — the *no suspicion* property).
//! The adversary's power is bounded by accuracy: every suspicion involves a
//! faulty process, so the set of suspicion pairs must admit a vertex cover
//! of at most `f` nodes.
//!
//! [`max_interruptions`] computes, by exact dynamic programming over pair
//! subsets, the maximum number of quorum *changes* an optimal adversary
//! extracts from a given algorithm in one epoch; Theorem 4 predicts
//! `C(f+2, 2) − 1` changes (i.e. `C(f+2, 2)` proposed quorums counting the
//! initial one) and Theorem 3 bounds Algorithm 1 by `f(f+1)`.

use std::collections::HashMap;

use qsel_graph::SuspectGraph;
use qsel_types::{ProcessId, ProcessSet};

/// A quorum-maintenance algorithm under attack: it exposes its current
/// quorum and reacts to a suspicion between two processes.
pub trait QuorumAlgorithm {
    /// The active quorum before any suspicion (the algorithm's initial
    /// output `Q_1`).
    fn quorum(&self) -> ProcessSet;

    /// Applies a suspicion between `a` and `b`. Returns `true` if the
    /// algorithm issued a new quorum in response.
    fn on_suspicion(&mut self, a: ProcessId, b: ProcessId) -> bool;

    /// Forks the algorithm state (the DP search explores branches).
    fn fork(&self) -> Box<dyn QuorumAlgorithm>;
}

/// Algorithm 1's quorum rule in a single epoch: the quorum is the
/// lexicographically first independent set of size `q` in the accumulated
/// suspect graph.
#[derive(Clone, Debug)]
pub struct LexFirstIs {
    graph: SuspectGraph,
    q: u32,
    current: ProcessSet,
}

impl LexFirstIs {
    /// Creates the single-epoch view of Algorithm 1 on `n` processes with
    /// quorum size `q`.
    ///
    /// # Panics
    ///
    /// Panics if an empty graph on `n` nodes has no independent set of
    /// size `q` (i.e. `q > n`).
    pub fn new(n: u32, q: u32) -> Self {
        let graph = SuspectGraph::new(n);
        let current = graph
            .first_independent_set(q)
            .expect("empty graph must admit the initial quorum");
        LexFirstIs { graph, q, current }
    }

    /// The accumulated suspect graph.
    pub fn graph(&self) -> &SuspectGraph {
        &self.graph
    }
}

impl QuorumAlgorithm for LexFirstIs {
    fn quorum(&self) -> ProcessSet {
        self.current
    }

    fn on_suspicion(&mut self, a: ProcessId, b: ProcessId) -> bool {
        self.graph.add_edge(a, b);
        match self.graph.first_independent_set(self.q) {
            Some(q) => {
                let changed = q != self.current;
                self.current = q;
                changed
            }
            // No independent set: in the full protocol this triggers an
            // epoch change; within the single-epoch game it ends the run.
            // (Under the vertex-cover ≤ f constraint this cannot happen.)
            None => false,
        }
    }

    fn fork(&self) -> Box<dyn QuorumAlgorithm> {
        Box::new(self.clone())
    }
}

/// The XPaxos baseline (paper §V-B): quorums are enumerated in
/// lexicographic order; any suspicion inside the active quorum moves to the
/// next enumerated quorum, round-robin.
#[derive(Clone, Debug)]
pub struct RoundRobinEnumeration {
    n: u32,
    q: u32,
    /// Current combination as sorted zero-based indices.
    indices: Vec<usize>,
}

impl RoundRobinEnumeration {
    /// Creates the enumeration starting at the first combination
    /// `{p_1, …, p_q}`.
    pub fn new(n: u32, q: u32) -> Self {
        assert!(q >= 1 && q <= n);
        RoundRobinEnumeration {
            n,
            q,
            indices: (0..q as usize).collect(),
        }
    }

    fn advance(&mut self) {
        let n = self.n as usize;
        let k = self.q as usize;
        // Next k-combination in lexicographic order, wrapping around.
        let mut i = k;
        loop {
            if i == 0 {
                self.indices = (0..k).collect(); // wrapped (round robin)
                return;
            }
            i -= 1;
            if self.indices[i] != i + n - k {
                break;
            }
            if i == 0 {
                self.indices = (0..k).collect();
                return;
            }
        }
        self.indices[i] += 1;
        for j in i + 1..k {
            self.indices[j] = self.indices[j - 1] + 1;
        }
    }

    /// How many quorum changes a single always-misbehaving faulty process
    /// `culprit` causes before the enumeration reaches a quorum excluding
    /// it (the paper's complaint: "an attacker may cause the quorum to
    /// change repeatedly over a long period").
    pub fn changes_until_excluding(n: u32, q: u32, culprit: ProcessId) -> u64 {
        let mut algo = RoundRobinEnumeration::new(n, q);
        let mut changes = 0;
        while algo.quorum().contains(culprit) {
            // The culprit misbehaves toward some other quorum member.
            let other = algo
                .quorum()
                .iter()
                .find(|p| *p != culprit)
                .expect("quorum has at least two members");
            algo.on_suspicion(culprit, other);
            changes += 1;
            assert!(changes < 1 << 40, "enumeration failed to exclude culprit");
        }
        changes
    }
}

impl QuorumAlgorithm for RoundRobinEnumeration {
    fn quorum(&self) -> ProcessSet {
        self.indices
            .iter()
            .map(|&i| ProcessId::from_index(i))
            .collect()
    }

    fn on_suspicion(&mut self, a: ProcessId, b: ProcessId) -> bool {
        let q = self.quorum();
        if q.contains(a) && q.contains(b) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn fork(&self) -> Box<dyn QuorumAlgorithm> {
        Box::new(self.clone())
    }
}

/// All unordered pairs within the adversary's `f + 2`-node attack window
/// `{p_1, …, p_{f+2}}` (the Theorem 4 proof confines suspicions to such a
/// set: `f` eventual faulty nodes plus 2 sacrificial correct ones).
fn window_pairs(f: u32) -> Vec<(ProcessId, ProcessId)> {
    let w = f + 2;
    let mut pairs = Vec::new();
    for a in 1..=w {
        for b in a + 1..=w {
            pairs.push((ProcessId(a), ProcessId(b)));
        }
    }
    pairs
}

/// Whether the pairs selected by `mask` (indices into `pairs`) admit a
/// vertex cover of at most `f` nodes — i.e. whether an adversary
/// controlling `f` faulty processes can have caused exactly those
/// suspicions under an accurate failure detector.
fn explainable(pairs: &[(ProcessId, ProcessId)], mask: u64, n: u32, f: u32) -> bool {
    let mut g = SuspectGraph::new(n);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        if mask & (1 << i) != 0 {
            g.add_edge(a, b);
        }
    }
    g.has_vertex_cover(f)
}

/// Result of an interruption-game search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GameResult {
    /// Maximum quorum *changes* the adversary achieved.
    pub changes: u64,
    /// One optimal suspicion sequence.
    pub schedule: Vec<(ProcessId, ProcessId)>,
}

/// Exact optimal adversary against `algo` on `n` processes tolerating `f`
/// faults, with suspicions confined to the window `{p_1, …, p_{f+2}}`.
///
/// Dynamic programming over subsets of the `C(f+2, 2)` window pairs —
/// feasible for `f ≤ 5` (≤ 2²¹ states). The paper's conjecture (text below
/// Theorem 3) is that the result for Algorithm 1 ([`LexFirstIs`]) is
/// `C(f+2, 2) − 1` changes, i.e. `C(f+2, 2)` proposed quorums.
///
/// # Panics
///
/// Panics if `f > 5` (use [`greedy_adversary`] instead).
pub fn max_interruptions(algo: &dyn QuorumAlgorithm, n: u32, f: u32) -> GameResult {
    assert!(f <= 5, "exact search is exponential; use greedy_adversary for f > 5");
    let pairs = window_pairs(f);
    assert!(pairs.len() <= 60);
    let mut memo: HashMap<u64, (u64, Option<usize>)> = HashMap::new();
    let best = search(algo, n, f, &pairs, 0, &mut memo);
    // Reconstruct one optimal schedule from the memo.
    let mut schedule = Vec::new();
    let mut mask = 0u64;
    let mut state = algo.fork();
    while let Some(&(_, Some(next))) = memo.get(&mask) {
        let (a, b) = pairs[next];
        schedule.push((a, b));
        state.on_suspicion(a, b);
        mask |= 1 << next;
    }
    GameResult { changes: best, schedule }
}

fn search(
    algo: &dyn QuorumAlgorithm,
    n: u32,
    f: u32,
    pairs: &[(ProcessId, ProcessId)],
    mask: u64,
    memo: &mut HashMap<u64, (u64, Option<usize>)>,
) -> u64 {
    if let Some(&(v, _)) = memo.get(&mask) {
        return v;
    }
    let quorum = algo.quorum();
    let mut best = 0u64;
    let mut best_move = None;
    for (i, &(a, b)) in pairs.iter().enumerate() {
        if mask & (1 << i) != 0 {
            continue;
        }
        if !(quorum.contains(a) && quorum.contains(b)) {
            continue; // rule 1: suspicion must be inside the current quorum
        }
        let next_mask = mask | (1 << i);
        if !explainable(pairs, next_mask, n, f) {
            continue; // accuracy: must stay attributable to f faulty nodes
        }
        let mut forked = algo.fork();
        let changed = forked.on_suspicion(a, b);
        let sub = search(forked.as_ref(), n, f, pairs, next_mask, memo);
        let total = sub + u64::from(changed);
        if total > best {
            best = total;
            best_move = Some(i);
        }
    }
    memo.insert(mask, (best, best_move));
    best
}

/// Greedy adversary for larger `f`: at each step pick the first window pair
/// inside the current quorum that keeps the suspicion set explainable.
/// Returns the achieved changes (a lower bound on the optimum).
pub fn greedy_adversary(algo: &mut dyn QuorumAlgorithm, n: u32, f: u32) -> GameResult {
    let pairs = window_pairs(f);
    let mut mask = 0u64;
    let mut changes = 0;
    let mut schedule = Vec::new();
    loop {
        let quorum = algo.quorum();
        let candidate = pairs.iter().enumerate().find(|(i, (a, b))| {
            mask & (1 << i) == 0
                && quorum.contains(*a)
                && quorum.contains(*b)
                && explainable(&pairs, mask | (1 << i), n, f)
        });
        let Some((i, &(a, b))) = candidate else {
            return GameResult { changes, schedule };
        };
        mask |= 1 << i;
        if algo.on_suspicion(a, b) {
            changes += 1;
        }
        schedule.push((a, b));
        assert!(schedule.len() <= pairs.len(), "game cannot outlast the pair supply");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_types::thresholds::binomial;

    #[test]
    fn lex_first_initial_quorum() {
        let algo = LexFirstIs::new(4, 3);
        assert_eq!(
            algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn lex_first_reacts_to_in_quorum_suspicion() {
        let mut algo = LexFirstIs::new(4, 3);
        assert!(algo.on_suspicion(ProcessId(1), ProcessId(2)));
        assert_eq!(
            algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        // Suspicion outside the quorum (p2 no longer a member):
        assert!(!algo.on_suspicion(ProcessId(2), ProcessId(4)));
    }

    #[test]
    fn enumeration_advances_on_any_in_quorum_suspicion() {
        let mut algo = RoundRobinEnumeration::new(4, 3);
        assert_eq!(
            algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(algo.on_suspicion(ProcessId(1), ProcessId(2)));
        assert_eq!(
            algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        // p1 and p2 still together! The enumeration does not learn.
        assert!(algo.on_suspicion(ProcessId(1), ProcessId(2)));
        assert_eq!(
            algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
    }

    #[test]
    fn enumeration_wraps_round_robin() {
        let mut algo = RoundRobinEnumeration::new(3, 2);
        // Combinations of size 2 from 3: {1,2}, {1,3}, {2,3}, wrap to {1,2}.
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(algo.quorum().iter().map(|p| p.0).collect::<Vec<_>>());
            algo.advance();
        }
        assert_eq!(seen, vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![1, 2]]);
    }

    #[test]
    fn enumeration_exclusion_cost_is_binomial() {
        // With the culprit being p1 and lexicographic enumeration, every
        // combination containing p1 comes first: C(n-1, q-1) changes.
        for (n, f) in [(4u32, 1u32), (5, 1), (7, 2)] {
            let q = n - f;
            let changes =
                RoundRobinEnumeration::changes_until_excluding(n, q, ProcessId(1));
            assert_eq!(
                changes as u128,
                binomial((n - 1) as u64, (q - 1) as u64),
                "n={n} q={q}"
            );
        }
    }

    #[test]
    fn explainability_is_vertex_cover() {
        let pairs = window_pairs(1); // pairs on {1,2,3}
        // A star at p1: edges (1,2), (1,3) → cover {p1}, f = 1 OK.
        let star = 0b011; // (1,2), (1,3) — window_pairs order: (1,2),(1,3),(2,3)
        assert!(explainable(&pairs, star, 4, 1));
        // The triangle needs cover 2 > 1.
        assert!(!explainable(&pairs, 0b111, 4, 1));
    }

    #[test]
    fn optimal_adversary_f1_matches_paper() {
        // f = 1: Theorem 4 predicts C(3,2) = 3 proposed quorums, i.e. 2
        // changes; Theorem 3 bounds Algorithm 1 by f(f+1) = 2 changes.
        let algo = LexFirstIs::new(4, 3);
        let result = max_interruptions(&algo, 4, 1);
        assert_eq!(result.changes, 2);
        assert_eq!(result.schedule.len(), 2);
    }

    #[test]
    fn optimal_adversary_f2_matches_conjecture() {
        // f = 2: conjectured max = C(4,2) − 1 = 5 changes (< f(f+1) = 6).
        let algo = LexFirstIs::new(7, 5);
        let result = max_interruptions(&algo, 7, 2);
        assert_eq!(result.changes, 5);
    }

    #[test]
    fn optimal_schedule_replays_to_same_count() {
        let algo = LexFirstIs::new(7, 5);
        let result = max_interruptions(&algo, 7, 2);
        let mut replay = LexFirstIs::new(7, 5);
        let mut changes = 0;
        for (a, b) in &result.schedule {
            // Rule 1 must hold at replay time.
            assert!(replay.quorum().contains(*a) && replay.quorum().contains(*b));
            if replay.on_suspicion(*a, *b) {
                changes += 1;
            }
        }
        assert_eq!(changes, result.changes);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        for f in 1..=3u32 {
            let n = 3 * f + 1;
            let q = n - f;
            let optimal = max_interruptions(&LexFirstIs::new(n, q), n, f);
            let mut algo = LexFirstIs::new(n, q);
            let greedy = greedy_adversary(&mut algo, n, f);
            assert!(greedy.changes <= optimal.changes, "f={f}");
        }
    }

    #[test]
    fn theorem3_upper_bound_never_exceeded() {
        for f in 1..=3u32 {
            for n in [2 * f + 1, 3 * f + 1, 3 * f + 3] {
                let q = n - f;
                let result = max_interruptions(&LexFirstIs::new(n, q), n, f);
                assert!(
                    result.changes <= (f * (f + 1)) as u64,
                    "f={f} n={n}: {} > f(f+1)",
                    result.changes
                );
            }
        }
    }
}
