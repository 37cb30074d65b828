//! The suspect graph: an undirected simple graph over process ids.

use std::fmt;

use qsel_types::{ProcessId, ProcessSet};

/// An undirected simple graph whose nodes are the processes `p_1, …, p_n`.
///
/// This is the paper's suspect graph (Section VI-B): nodes `l, k` are
/// connected iff one of them suspected the other in the current epoch or
/// later. Adjacency is stored as one bitset row per node, supporting up to
/// 128 processes.
///
/// # Example
///
/// ```
/// use qsel_graph::SuspectGraph;
/// use qsel_types::ProcessId;
///
/// let mut g = SuspectGraph::new(4);
/// g.add_edge(ProcessId(1), ProcessId(2));
/// assert!(g.has_edge(ProcessId(2), ProcessId(1)));
/// assert_eq!(g.degree(ProcessId(1)), 1);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SuspectGraph {
    n: u32,
    adj: Vec<u128>,
}

impl SuspectGraph {
    /// Creates an edgeless graph on `n` nodes (`p_1, …, p_n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`ProcessSet::MAX_PROCESSES`].
    pub fn new(n: u32) -> Self {
        assert!(
            (1..=ProcessSet::MAX_PROCESSES).contains(&n),
            "graph size {n} out of range 1..={}",
            ProcessSet::MAX_PROCESSES
        );
        SuspectGraph {
            n,
            adj: vec![0; n as usize],
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Adds the undirected edge `{a, b}`. Self-loops are rejected because
    /// the suspect graph is simple (a process suspecting itself is
    /// meaningless in the protocol). Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is out of range.
    pub fn add_edge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        assert_ne!(a, b, "suspect graphs have no self-loops");
        self.check(a);
        self.check(b);
        let fresh = !self.has_edge(a, b);
        self.adj[a.index()] |= 1u128 << b.index();
        self.adj[b.index()] |= 1u128 << a.index();
        fresh
    }

    /// Removes the undirected edge `{a, b}` if present. Returns `true` if
    /// it was present.
    pub fn remove_edge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        self.check(a);
        self.check(b);
        let present = self.has_edge(a, b);
        self.adj[a.index()] &= !(1u128 << b.index());
        self.adj[b.index()] &= !(1u128 << a.index());
        present
    }

    /// Whether the edge `{a, b}` is present.
    #[inline]
    pub fn has_edge(&self, a: ProcessId, b: ProcessId) -> bool {
        self.adj[a.index()] & (1u128 << b.index()) != 0
    }

    /// The degree of node `v`.
    #[inline]
    pub fn degree(&self, v: ProcessId) -> u32 {
        self.adj[v.index()].count_ones()
    }

    /// The neighbours of `v` as a set.
    pub fn neighbors(&self, v: ProcessId) -> ProcessSet {
        let mut s = ProcessSet::new();
        let mut bits = self.adj[v.index()];
        while bits != 0 {
            let tz = bits.trailing_zeros();
            bits &= bits - 1;
            s.insert(ProcessId(tz + 1));
        }
        s
    }

    /// Raw adjacency bitset of `v` (bit `i` set ⇔ edge to `p_{i+1}`).
    #[inline]
    pub(crate) fn adj_bits(&self, v: ProcessId) -> u128 {
        self.adj[v.index()]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj
            .iter()
            .map(|row| row.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// Iterates over all edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        (0..self.n as usize).flat_map(move |i| {
            let mut out = Vec::new();
            let mut bits = self.adj[i] >> (i + 1) << (i + 1); // only higher-indexed neighbours
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                out.push((ProcessId(i as u32 + 1), ProcessId(tz + 1)));
            }
            out
        })
    }

    /// All nodes of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = ProcessId> + Clone + use<> {
        (1..=self.n).map(ProcessId)
    }

    /// The set of nodes with degree ≥ 1.
    pub fn touched_nodes(&self) -> ProcessSet {
        self.nodes().filter(|&v| self.degree(v) > 0).collect()
    }

    /// Whether `set` is an independent set: no two members are adjacent.
    pub fn is_independent(&self, set: &ProcessSet) -> bool {
        let member_bits: u128 = set.iter().map(|p| 1u128 << p.index()).sum();
        set.iter().all(|v| self.adj[v.index()] & member_bits == 0)
    }

    /// Builds a graph from an edge list (convenience for tests/examples).
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_graph::SuspectGraph;
    /// let g = SuspectGraph::from_edges(4, &[(1, 2), (3, 4)]);
    /// assert_eq!(g.edge_count(), 2);
    /// ```
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut g = SuspectGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(ProcessId(a), ProcessId(b));
        }
        g
    }

    fn check(&self, v: ProcessId) {
        assert!(
            v.0 >= 1 && v.0 <= self.n,
            "node {v} out of range for graph on {} nodes",
            self.n
        );
    }
}

impl fmt::Debug for SuspectGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SuspectGraph(n={}, edges=[", self.n)?;
        for (k, (a, b)) in self.edges().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}-{b}")?;
        }
        write!(f, "])")
    }
}

impl fmt::Display for SuspectGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_edges() {
        let mut g = SuspectGraph::new(5);
        assert!(g.add_edge(ProcessId(1), ProcessId(3)));
        assert!(!g.add_edge(ProcessId(3), ProcessId(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(ProcessId(1), ProcessId(3)));
        assert!(!g.remove_edge(ProcessId(1), ProcessId(3)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "no self-loops")]
    fn self_loop_rejected() {
        let mut g = SuspectGraph::new(3);
        g.add_edge(ProcessId(2), ProcessId(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = SuspectGraph::new(3);
        g.add_edge(ProcessId(1), ProcessId(4));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = SuspectGraph::from_edges(5, &[(1, 2), (2, 3), (2, 5)]);
        assert_eq!(g.degree(ProcessId(2)), 3);
        assert_eq!(g.degree(ProcessId(4)), 0);
        assert_eq!(
            g.neighbors(ProcessId(2))
                .iter()
                .map(|p| p.0)
                .collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(
            g.touched_nodes().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 5]
        );
    }

    #[test]
    fn edges_iterator_sorted_pairs() {
        let g = SuspectGraph::from_edges(4, &[(3, 1), (4, 2)]);
        let edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        assert_eq!(edges, vec![(1, 3), (2, 4)]);
    }

    #[test]
    fn independence_check() {
        let g = SuspectGraph::from_edges(4, &[(1, 2), (3, 4)]);
        let ind: ProcessSet = [ProcessId(1), ProcessId(3)].into_iter().collect();
        let dep: ProcessSet = [ProcessId(1), ProcessId(2)].into_iter().collect();
        assert!(g.is_independent(&ind));
        assert!(!g.is_independent(&dep));
        assert!(g.is_independent(&ProcessSet::new()));
    }

    #[test]
    fn debug_format() {
        let g = SuspectGraph::from_edges(3, &[(1, 2)]);
        assert_eq!(format!("{g:?}"), "SuspectGraph(n=3, edges=[p1-p2])");
    }

    #[test]
    fn max_size_graph() {
        let mut g = SuspectGraph::new(128);
        g.add_edge(ProcessId(1), ProcessId(128));
        assert!(g.has_edge(ProcessId(128), ProcessId(1)));
        assert_eq!(g.degree(ProcessId(128)), 1);
    }
}
