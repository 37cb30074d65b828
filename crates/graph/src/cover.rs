//! Vertex-cover utilities.
//!
//! The paper uses the classical duality "finding an independent set of size
//! `q` is equivalent to finding a vertex cover of size `n - q`" in the
//! proofs of Theorem 4 and Lemma 8. These helpers make that duality
//! executable so the proofs' premises can be checked in tests and by the
//! adversary's strategy search.

#[cfg(test)]
use qsel_types::ProcessId;
use qsel_types::ProcessSet;

use crate::graph::SuspectGraph;

impl SuspectGraph {
    /// Whether `set` is a vertex cover: every edge has at least one
    /// endpoint in `set`.
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_graph::SuspectGraph;
    /// use qsel_types::{ProcessId, ProcessSet};
    /// let g = SuspectGraph::from_edges(3, &[(1, 2), (2, 3)]);
    /// let c: ProcessSet = [ProcessId(2)].into_iter().collect();
    /// assert!(g.is_vertex_cover(&c));
    /// ```
    pub fn is_vertex_cover(&self, set: &ProcessSet) -> bool {
        self.edges()
            .all(|(a, b)| set.contains(a) || set.contains(b))
    }

    /// A minimum vertex cover, computed as the complement of a maximum
    /// independent set (König-free exact search; exponential worst case).
    pub fn min_vertex_cover(&self) -> ProcessSet {
        let max_is_size = self.max_independent_set_size();
        let is = self
            .first_independent_set(max_is_size)
            .expect("a maximum independent set exists by definition");
        let mut cover = ProcessSet::new();
        for v in self.nodes() {
            if !is.contains(v) {
                cover.insert(v);
            }
        }
        cover
    }

    /// Whether the graph has a vertex cover of at most `size` nodes.
    ///
    /// By duality this holds iff an independent set of `n - size` nodes
    /// exists. This is exactly the paper's framing of quorum selection:
    /// "Choosing a quorum of q = n − f processes is equivalent to choosing
    /// f processes that should be excluded" (proof of Theorem 4).
    pub fn has_vertex_cover(&self, size: u32) -> bool {
        size >= self.n() || self.has_independent_set(self.n() - size)
    }

    /// The complement of `set` within this graph's node universe.
    pub fn complement_set(&self, set: &ProcessSet) -> ProcessSet {
        self.nodes().filter(|v| !set.contains(*v)).collect()
    }
}

/// Checks the duality used throughout the paper on a concrete pair:
/// `set` is an independent set iff its complement is a vertex cover.
pub fn duality_holds(g: &SuspectGraph, set: &ProcessSet) -> bool {
    g.is_independent(set) == g.is_vertex_cover(&g.complement_set(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cover_check() {
        let g = SuspectGraph::from_edges(4, &[(1, 2), (2, 3), (3, 4)]);
        let c: ProcessSet = [2, 3].into_iter().map(ProcessId).collect();
        assert!(g.is_vertex_cover(&c));
        let not: ProcessSet = [2].into_iter().map(ProcessId).collect();
        assert!(!g.is_vertex_cover(&not));
        assert!(g.is_vertex_cover(&full_for(4)));
    }

    #[test]
    fn min_cover_of_star() {
        let g = SuspectGraph::from_edges(5, &[(1, 2), (1, 3), (1, 4), (1, 5)]);
        let c = g.min_vertex_cover();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![ProcessId(1)]);
    }

    #[test]
    fn min_cover_of_cycle() {
        // 5-cycle: max IS = 2, min cover = 3.
        let g = SuspectGraph::from_edges(5, &[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        let c = g.min_vertex_cover();
        assert_eq!(c.len(), 3);
        assert!(g.is_vertex_cover(&c));
    }

    #[test]
    fn has_cover_matches_duality() {
        let g = SuspectGraph::from_edges(5, &[(1, 2), (2, 3), (2, 5), (3, 4)]);
        for size in 0..=5u32 {
            assert_eq!(
                g.has_vertex_cover(size),
                size >= 5 || g.has_independent_set(5 - size),
                "size {size}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_duality(n in 2u32..9, seed in any::<u64>(), subset in any::<u16>()) {
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
            let set: ProcessSet = (1..=n)
                .filter(|i| subset & (1 << (i - 1)) != 0)
                .map(ProcessId)
                .collect();
            prop_assert!(duality_holds(&g, &set));
        }

        #[test]
        fn prop_min_cover_is_cover_and_minimum(n in 2u32..8, seed in any::<u64>()) {
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
            let c = g.min_vertex_cover();
            prop_assert!(g.is_vertex_cover(&c));
            if c.len() > 0 {
                prop_assert!(!g.has_vertex_cover(c.len() as u32 - 1));
            }
        }
    }
}

/// Test helper: full set over `n` processes without a `ClusterConfig`.
#[cfg(test)]
fn full_for(n: u32) -> ProcessSet {
    (1..=n).map(ProcessId).collect()
}
