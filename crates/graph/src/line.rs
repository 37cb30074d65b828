//! Line subgraphs for Follower Selection (Section VIII of the paper).
//!
//! **Definition 1.** A *line subgraph* of a simple graph `G` is an acyclic
//! subgraph with maximum degree 2 (a disjoint union of paths, also called a
//! linear forest). A line subgraph `L` designates a leader
//! `l_L = min{ i ∈ Π : δ_L(i) = 0 }` — the smallest node *not covered* by
//! `L`. A *maximal* line subgraph maximizes the leader: for any other line
//! subgraph `F ⊆ G`, `l_F ≤ l_L`.
//!
//! **Definition 2.** A node in a line subgraph is a *possible follower*
//! unless it is connected to two nodes of degree 1 in `L` (in a linear
//! forest these are exactly the middle nodes of 3-node paths).
//!
//! Computing the maximal line subgraph reduces to finding the longest
//! prefix `{p_1, …, p_k}` of the node ordering that can be *covered* (every
//! node given degree ≥ 1) by a linear forest of `G`; the leader is then
//! `p_{k+1}`. Both directions of that equivalence are argued in the module
//! tests and checked against brute force by property tests.

use std::fmt;

use qsel_types::encode::Encode;
use qsel_types::{ProcessId, ProcessSet};

use crate::graph::SuspectGraph;

/// A linear forest over nodes `p_1, …, p_n`: an acyclic subgraph of maximum
/// degree 2 (Definition 1's "line subgraph").
///
/// # Example
///
/// ```
/// use qsel_graph::LinearForest;
/// use qsel_types::ProcessId;
///
/// let mut l = LinearForest::new(5);
/// l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
/// l.add_edge(ProcessId(2), ProcessId(3)).unwrap();
/// assert_eq!(l.leader(), Some(ProcessId(4)));
/// // p2 is the middle of a 3-node path, hence not a possible follower:
/// assert!(!l.possible_followers().contains(ProcessId(2)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LinearForest {
    n: u32,
    adj: Vec<u128>,
}

/// Error adding an edge that would violate the line-subgraph shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForestError {
    /// One endpoint already has degree 2.
    DegreeExceeded(ProcessId),
    /// The edge would close a cycle.
    CreatesCycle,
    /// The edge is a self-loop or out of range.
    InvalidEdge,
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::DegreeExceeded(p) => write!(f, "node {p} already has degree 2"),
            ForestError::CreatesCycle => write!(f, "edge would create a cycle"),
            ForestError::InvalidEdge => write!(f, "self-loop or out-of-range edge"),
        }
    }
}

impl std::error::Error for ForestError {}

impl LinearForest {
    /// Creates an empty forest on `n` nodes.
    pub fn new(n: u32) -> Self {
        assert!((1..=128).contains(&n), "forest size out of range");
        LinearForest {
            n,
            adj: vec![0; n as usize],
        }
    }

    /// Number of nodes in the universe.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Adds an edge, enforcing the linear-forest shape.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError`] if the edge is invalid, would give an
    /// endpoint degree 3, or would close a cycle. Adding an existing edge
    /// is a no-op `Ok(())`.
    pub fn add_edge(&mut self, a: ProcessId, b: ProcessId) -> Result<(), ForestError> {
        if a == b || a.0 < 1 || b.0 < 1 || a.0 > self.n || b.0 > self.n {
            return Err(ForestError::InvalidEdge);
        }
        if self.has_edge(a, b) {
            return Ok(());
        }
        if self.degree(a) >= 2 {
            return Err(ForestError::DegreeExceeded(a));
        }
        if self.degree(b) >= 2 {
            return Err(ForestError::DegreeExceeded(b));
        }
        if self.connected(a, b) {
            return Err(ForestError::CreatesCycle);
        }
        self.adj[a.index()] |= 1u128 << b.index();
        self.adj[b.index()] |= 1u128 << a.index();
        Ok(())
    }

    /// Removes an edge if present.
    pub fn remove_edge(&mut self, a: ProcessId, b: ProcessId) {
        self.adj[a.index()] &= !(1u128 << b.index());
        self.adj[b.index()] &= !(1u128 << a.index());
    }

    /// Whether the edge `{a, b}` is in the forest.
    pub fn has_edge(&self, a: ProcessId, b: ProcessId) -> bool {
        a.0 >= 1
            && b.0 >= 1
            && a.0 <= self.n
            && b.0 <= self.n
            && self.adj[a.index()] & (1u128 << b.index()) != 0
    }

    /// The degree `δ_L(v)` of a node (0, 1 or 2).
    pub fn degree(&self, v: ProcessId) -> u32 {
        self.adj[v.index()].count_ones()
    }

    /// The edges of the forest, each reported once with `a < b`, sorted.
    pub fn edges(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut out = Vec::new();
        for i in 0..self.n as usize {
            let mut bits = self.adj[i] >> (i + 1) << (i + 1);
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                out.push((ProcessId(i as u32 + 1), ProcessId(tz + 1)));
            }
        }
        out
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// The nodes the forest *contains* (non-zero degree). The paper says a
    /// line subgraph "contains" a node if the node has non-zero degree
    /// (Section IX).
    pub fn covered_nodes(&self) -> ProcessSet {
        (1..=self.n)
            .map(ProcessId)
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }

    /// The designated leader `l_L = min{ i : δ_L(i) = 0 }` (Definition 1),
    /// or `None` if every node is covered.
    pub fn leader(&self) -> Option<ProcessId> {
        (1..=self.n).map(ProcessId).find(|&v| self.degree(v) == 0)
    }

    /// The possible followers (Definition 2): every node except those
    /// connected to two nodes of degree 1 in `L` — i.e. except the middle
    /// nodes of 3-node paths.
    pub fn possible_followers(&self) -> ProcessSet {
        (1..=self.n)
            .map(ProcessId)
            .filter(|&v| !self.is_excluded_middle(v))
            .collect()
    }

    fn is_excluded_middle(&self, v: ProcessId) -> bool {
        if self.degree(v) != 2 {
            return false;
        }
        self.neighbor_ids(v)
            .into_iter()
            .all(|u| self.degree(u) == 1)
    }

    /// Whether this forest is a subgraph of `g` (`L ⊆ G`, used by the
    /// well-formedness check, Definition 3 b).
    pub fn is_subgraph_of(&self, g: &SuspectGraph) -> bool {
        if g.n() < self.n {
            return false;
        }
        self.edges().iter().all(|&(a, b)| g.has_edge(a, b))
    }

    /// Rebuilds a forest from an edge list, validating the shape.
    ///
    /// # Errors
    ///
    /// Returns the first [`ForestError`] encountered. Use this when
    /// receiving a line subgraph from the network (Definition 3 b requires
    /// "L' is a line subgraph").
    pub fn from_edge_list(n: u32, edges: &[(ProcessId, ProcessId)]) -> Result<Self, ForestError> {
        let mut l = LinearForest::new(n);
        for &(a, b) in edges {
            l.add_edge(a, b)?;
        }
        Ok(l)
    }

    fn neighbor_ids(&self, v: ProcessId) -> Vec<ProcessId> {
        let mut out = Vec::with_capacity(2);
        let mut bits = self.adj[v.index()];
        while bits != 0 {
            let tz = bits.trailing_zeros();
            bits &= bits - 1;
            out.push(ProcessId(tz + 1));
        }
        out
    }

    /// DFS connectivity inside the forest (used for cycle prevention).
    fn connected(&self, a: ProcessId, b: ProcessId) -> bool {
        let mut seen = 0u128;
        let mut stack = vec![a];
        seen |= 1u128 << a.index();
        while let Some(v) = stack.pop() {
            if v == b {
                return true;
            }
            let mut bits = self.adj[v.index()] & !seen;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                seen |= 1u128 << tz;
                stack.push(ProcessId(tz + 1));
            }
        }
        false
    }
}

impl fmt::Debug for LinearForest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LinearForest(n={}, edges=[", self.n)?;
        for (k, (a, b)) in self.edges().into_iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}-{b}")?;
        }
        write!(f, "])")
    }
}

impl Encode for LinearForest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.n.encode(buf);
        self.edges().encode(buf);
    }
}

/// A maximal line subgraph together with its designated leader
/// (Definition 1).
#[derive(Clone, Debug)]
pub struct MaximalLineSubgraph {
    /// The linear forest `L`.
    pub forest: LinearForest,
    /// The leader `l_L`, or `None` when every node of `Π` is covered (in
    /// Algorithm 2 this cannot happen while an independent set of size `q`
    /// exists, by Lemma 8 b; callers treat it like an epoch change).
    pub leader: Option<ProcessId>,
}

impl SuspectGraph {
    /// Computes a maximal line subgraph of this graph (Definition 1): a
    /// linear forest `L ⊆ G` whose leader `l_L` is maximum over all line
    /// subgraphs.
    ///
    /// The implementation finds the longest coverable prefix: the largest
    /// `k` such that some linear forest of `G` gives every node in
    /// `{p_1, …, p_k}` non-zero degree. The returned forest covers that
    /// prefix and the leader is `p_{k+1}`.
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_graph::SuspectGraph;
    /// use qsel_types::ProcessId;
    /// // One suspicion 1-2: the forest {1-2} covers p1 and p2, leader p3.
    /// let g = SuspectGraph::from_edges(4, &[(1, 2)]);
    /// let m = g.maximal_line_subgraph();
    /// assert_eq!(m.leader, Some(ProcessId(3)));
    /// ```
    pub fn maximal_line_subgraph(&self) -> MaximalLineSubgraph {
        let n = self.n();
        // Longest coverable prefix: grow k while {p_1..p_k} is coverable.
        let mut best: Option<LinearForest> = None;
        let mut k = 0;
        while k < n {
            let next = ProcessId(k + 1);
            if self.degree(next) == 0 {
                break; // an isolated node can never be covered
            }
            match self.cover_prefix(k + 1) {
                Some(forest) => {
                    best = Some(forest);
                    k += 1;
                }
                None => break,
            }
        }
        let forest = best.unwrap_or_else(|| LinearForest::new(n));
        let leader = if k < n { Some(ProcessId(k + 1)) } else { None };
        debug_assert_eq!(
            forest.leader(),
            leader,
            "prefix cover left leader uncovered"
        );
        MaximalLineSubgraph { forest, leader }
    }

    /// Backtracking search for a linear forest of `self` covering all of
    /// `{p_1, …, p_k}`.
    fn cover_prefix(&self, k: u32) -> Option<LinearForest> {
        let mut forest = LinearForest::new(self.n());
        if self.cover_rec(k, 1, &mut forest) {
            Some(forest)
        } else {
            None
        }
    }

    fn cover_rec(&self, k: u32, next: u32, forest: &mut LinearForest) -> bool {
        // Find the smallest uncovered target ≥ next.
        let mut t = next;
        while t <= k && forest.degree(ProcessId(t)) > 0 {
            t += 1;
        }
        if t > k {
            return true;
        }
        let target = ProcessId(t);
        for u in self.neighbors(target).iter() {
            if forest.add_edge(target, u).is_ok() {
                if self.cover_rec(k, t + 1, forest) {
                    return true;
                }
                forest.remove_edge(target, u);
            }
        }
        false
    }
}

/// Reference implementation for tests: enumerates all subsets of `g`'s
/// edges, keeps the line subgraphs, and returns the maximum achievable
/// leader (`None` when some subgraph covers everything). Exponential.
pub fn brute_force_max_leader(g: &SuspectGraph) -> Option<ProcessId> {
    let edges: Vec<(ProcessId, ProcessId)> = g.edges().collect();
    assert!(edges.len() <= 20, "brute force limited to 20 edges");
    let mut best: Option<ProcessId> = Some(ProcessId(1));
    for mask in 0u32..(1 << edges.len()) {
        let mut forest = LinearForest::new(g.n());
        let mut ok = true;
        for (i, &(a, b)) in edges.iter().enumerate() {
            if mask & (1 << i) != 0 && forest.add_edge(a, b).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        match forest.leader() {
            None => return None, // covered everything: unbounded leader
            Some(l) => {
                if best.is_none_or(|b| l > b) {
                    best = Some(l);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph_leader_is_p1() {
        let g = SuspectGraph::new(5);
        let m = g.maximal_line_subgraph();
        assert_eq!(m.leader, Some(ProcessId(1)));
        assert_eq!(m.forest.edge_count(), 0);
    }

    #[test]
    fn forest_shape_enforced() {
        let mut l = LinearForest::new(4);
        l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
        l.add_edge(ProcessId(2), ProcessId(3)).unwrap();
        // Degree 3 at p2:
        assert_eq!(
            l.add_edge(ProcessId(2), ProcessId(4)),
            Err(ForestError::DegreeExceeded(ProcessId(2)))
        );
        // Cycle 1-2-3-1:
        assert_eq!(
            l.add_edge(ProcessId(3), ProcessId(1)),
            Err(ForestError::CreatesCycle)
        );
        // Self loop:
        assert_eq!(
            l.add_edge(ProcessId(1), ProcessId(1)),
            Err(ForestError::InvalidEdge)
        );
        // Re-adding an existing edge is fine:
        assert!(l.add_edge(ProcessId(1), ProcessId(2)).is_ok());
    }

    #[test]
    fn leader_skips_covered_prefix() {
        let mut l = LinearForest::new(5);
        l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
        assert_eq!(l.leader(), Some(ProcessId(3)));
        l.add_edge(ProcessId(3), ProcessId(4)).unwrap();
        assert_eq!(l.leader(), Some(ProcessId(5)));
        l.add_edge(ProcessId(4), ProcessId(5)).unwrap();
        assert_eq!(l.leader(), None);
    }

    #[test]
    fn possible_followers_exclude_three_path_middles() {
        // Path 1-2-3 plus path 4-5-6-7: only p2 (middle of the 3-path) is
        // excluded; interior nodes of the 4-path have a degree-2 neighbour.
        let mut l = LinearForest::new(7);
        l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
        l.add_edge(ProcessId(2), ProcessId(3)).unwrap();
        l.add_edge(ProcessId(4), ProcessId(5)).unwrap();
        l.add_edge(ProcessId(5), ProcessId(6)).unwrap();
        l.add_edge(ProcessId(6), ProcessId(7)).unwrap();
        let pf = l.possible_followers();
        assert!(!pf.contains(ProcessId(2)));
        for p in [1, 3, 4, 5, 6, 7] {
            assert!(pf.contains(ProcessId(p)), "p{p}");
        }
    }

    #[test]
    fn single_edge_followers() {
        // A single edge: both endpoints possible followers.
        let mut l = LinearForest::new(3);
        l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
        assert_eq!(l.possible_followers().len(), 3);
    }

    /// Example 1 of the paper (reconstruction): a graph on 7 nodes whose
    /// maximal line subgraph is the path 1-2-3 plus an edge covering 4, so
    /// that p2 is not a possible follower, and a new edge (p2, p5) would
    /// not change the maximal line subgraph.
    #[test]
    fn example1_reconstruction() {
        // Edges: 1-2, 2-3, 4-5. Maximal L = {1-2, 2-3, 4-5}: covers 1..5,
        // leader p6.
        let g = SuspectGraph::from_edges(7, &[(1, 2), (2, 3), (4, 5)]);
        let m = g.maximal_line_subgraph();
        assert_eq!(m.leader, Some(ProcessId(6)));
        assert!(!m.forest.possible_followers().contains(ProcessId(2)));
        // Adding (2,5) cannot improve the leader: p2 already has degree 2.
        let g2 = SuspectGraph::from_edges(7, &[(1, 2), (2, 3), (4, 5), (2, 5)]);
        let m2 = g2.maximal_line_subgraph();
        assert_eq!(m2.leader, Some(ProcessId(6)));
    }

    /// Example 2 of the paper: adding an edge changes the leader and the
    /// maximal line subgraph, and a line subgraph can be maximal even
    /// though it could be extended by additional edges (maximality is about
    /// the leader, not edge count).
    #[test]
    fn example2_leader_changes_with_new_edge() {
        // Before: edges 1-2, 3-4. L = {1-2, 3-4} covers 1..4, leader p5.
        let g = SuspectGraph::from_edges(6, &[(1, 2), (3, 4)]);
        assert_eq!(g.maximal_line_subgraph().leader, Some(ProcessId(5)));
        // After adding (3,5): L = {1-2, 4-3, 3-5} covers 1..5, leader p6.
        let g2 = SuspectGraph::from_edges(6, &[(1, 2), (3, 4), (3, 5)]);
        assert_eq!(g2.maximal_line_subgraph().leader, Some(ProcessId(6)));
    }

    #[test]
    fn leader_monotone_under_edge_addition() {
        let mut g = SuspectGraph::from_edges(8, &[(1, 2)]);
        let mut last = g.maximal_line_subgraph().leader.unwrap();
        for (a, b) in [(2, 3), (3, 4), (1, 5), (5, 6), (4, 7)] {
            g.add_edge(ProcessId(a), ProcessId(b));
            let now = g.maximal_line_subgraph().leader;
            match now {
                Some(now) => {
                    assert!(now >= last, "leader regressed from {last} to {now}");
                    last = now;
                }
                None => break,
            }
        }
    }

    #[test]
    fn isolated_node_caps_leader() {
        // p1 isolated: leader stays p1 regardless of other edges.
        let g = SuspectGraph::from_edges(5, &[(2, 3), (4, 5)]);
        assert_eq!(g.maximal_line_subgraph().leader, Some(ProcessId(1)));
    }

    #[test]
    fn solver_matches_brute_force_fixed() {
        let cases: Vec<(u32, Vec<(u32, u32)>)> = vec![
            (5, vec![(1, 2), (2, 3), (3, 4), (4, 5)]),
            (5, vec![(1, 2), (1, 3), (1, 4), (1, 5)]), // star: cover 1,2 only
            (6, vec![(1, 2), (2, 3), (3, 1)]),         // triangle
            (6, vec![(1, 4), (2, 4), (3, 4)]),
            (7, vec![(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (3, 4)]),
        ];
        for (n, edges) in cases {
            let g = SuspectGraph::from_edges(n, &edges);
            let got = g.maximal_line_subgraph().leader;
            let want = brute_force_max_leader(&g);
            assert_eq!(got, want, "n={n} edges={edges:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_solver_matches_brute_force(n in 2u32..8, seed in any::<u64>()) {
            let mut g = SuspectGraph::new(n);
            let mut state = seed | 1;
            for a in 1..=n {
                for b in a + 1..=n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state >> 62 == 1 {
                        g.add_edge(ProcessId(a), ProcessId(b));
                    }
                }
            }
            if g.edge_count() <= 20 {
                prop_assert_eq!(g.maximal_line_subgraph().leader, brute_force_max_leader(&g));
            }
        }

        /// The returned forest is a valid line subgraph of G whose own
        /// leader equals the reported leader.
        #[test]
        fn prop_result_is_consistent(n in 2u32..10, seed in any::<u64>()) {
            let mut g = SuspectGraph::new(n);
            let mut state = seed | 1;
            for a in 1..=n {
                for b in a + 1..=n {
                    state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    if state >> 62 == 0 {
                        g.add_edge(ProcessId(a), ProcessId(b));
                    }
                }
            }
            let m = g.maximal_line_subgraph();
            prop_assert!(m.forest.is_subgraph_of(&g));
            prop_assert_eq!(m.forest.leader(), m.leader);
        }
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = SuspectGraph::from_edges(6, &[(1, 2), (2, 3), (4, 5)]);
        let m = g.maximal_line_subgraph();
        let rebuilt = LinearForest::from_edge_list(6, &m.forest.edges()).unwrap();
        assert_eq!(rebuilt, m.forest);
    }

    #[test]
    fn from_edge_list_rejects_bad_shapes() {
        let bad = [
            (ProcessId(1), ProcessId(2)),
            (ProcessId(2), ProcessId(3)),
            (ProcessId(3), ProcessId(1)),
        ];
        assert_eq!(
            LinearForest::from_edge_list(4, &bad),
            Err(ForestError::CreatesCycle)
        );
    }
}
