//! Suspect-graph algorithms for Quorum Selection.
//!
//! Section VI-B of the paper reduces quorum finding to graph problems on the
//! **suspect graph**: an undirected simple graph whose nodes are the
//! processes of `Π` and whose edges are the suspicions visible in the
//! current epoch.
//!
//! * A quorum is an *independent set* of size `q` ([`independent`]).
//! * Choosing the `f` processes to exclude is equivalent to finding a
//!   *vertex cover* of size `n - q` ([`cover`], used by the Theorem 4
//!   lower-bound machinery and by tests of Lemma 8).
//! * Follower Selection (Section VIII) computes *maximal line subgraphs*
//!   and *possible followers* ([`line`], Definitions 1 and 2).
//!
//! The solvers are exact. The independent-set decision problem is NP-hard
//! in general (the paper notes this in Section VI-C) but, as the paper
//! argues, "for small graphs, e.g. including only tenth of nodes, it is easy
//! to compute" — these implementations comfortably handle the
//! consortium-scale clusters (and the sparse accurate-epoch graphs) the
//! paper targets.
//!
//! # Example
//!
//! Figure 4 of the paper, epoch 3: the edge between `p3` and `p4` has
//! expired, and `{p1, p3, p4}` is the lexicographically first independent
//! set of size 3:
//!
//! ```
//! use qsel_graph::SuspectGraph;
//! use qsel_types::ProcessId;
//!
//! let mut g = SuspectGraph::new(5);
//! g.add_edge(ProcessId(1), ProcessId(2));
//! g.add_edge(ProcessId(2), ProcessId(3));
//! g.add_edge(ProcessId(2), ProcessId(5));
//! g.add_edge(ProcessId(1), ProcessId(5));
//! let q = g.first_independent_set(3).unwrap();
//! let members: Vec<u32> = q.iter().map(|p| p.0).collect();
//! assert_eq!(members, vec![1, 3, 4]);
//! ```

#![warn(missing_docs)]

pub mod cover;
mod graph;
pub mod independent;
pub mod line;

pub use graph::SuspectGraph;
pub use line::{LinearForest, MaximalLineSubgraph};
