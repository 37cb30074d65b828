//! Property tests for the Follower Selection graph machinery: the
//! `selectFollowers` feasibility invariant and Lemma 8.

use proptest::prelude::*;
use qsel_graph::SuspectGraph;
use qsel_types::ProcessId;

fn random_graph(n: u32, seed: u64, density_shift: u32) -> SuspectGraph {
    let mut g = SuspectGraph::new(n);
    let mut state = seed | 1;
    for a in 1..=n {
        for b in a + 1..=n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> (64 - density_shift) == 0 {
                g.add_edge(ProcessId(a), ProcessId(b));
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whenever the suspect graph admits an independent set of size
    /// `q = n − f` and `n > 3f`, the maximal line subgraph offers at least
    /// `q − 1` possible followers besides the leader — so Algorithm 2's
    /// `selectFollowers` never gets stuck. (Used as an `assert!` inside
    /// `qsel::FollowerSelection`; proven in its doc comment.)
    #[test]
    fn enough_possible_followers(f in 1u32..4, seed in any::<u64>(), density in 1u32..4) {
        let n = 3 * f + 1;
        let q = n - f;
        let g = random_graph(n, seed, density);
        prop_assume!(g.has_independent_set(q));
        let m = g.maximal_line_subgraph();
        let Some(leader) = m.leader else {
            // Lemma 8 b: a line subgraph covering all nodes excludes an
            // independent set of size q — contradiction with the assume.
            return Err(TestCaseError::fail("leaderless despite IS"));
        };
        let possible = m.forest.possible_followers();
        let available = possible.iter().filter(|p| *p != leader).count();
        prop_assert!(
            available >= (q - 1) as usize,
            "only {available} possible followers (need {}), graph {g:?}",
            q - 1
        );
    }

    /// Lemma 8 b: if some line subgraph of G contains 3f + 1 nodes, G has
    /// no independent set of size q. We check the contrapositive on the
    /// *maximal* line subgraph: when an IS of size q exists, every line
    /// subgraph covers at most 3f nodes.
    #[test]
    fn lemma8b_contrapositive(f in 1u32..4, seed in any::<u64>(), density in 1u32..5) {
        let n = 3 * f + 1;
        let q = n - f;
        let g = random_graph(n, seed, density);
        prop_assume!(g.has_independent_set(q));
        let m = g.maximal_line_subgraph();
        prop_assert!(
            m.forest.covered_nodes().len() <= (3 * f) as usize,
            "line subgraph covers {} > 3f nodes while an IS of size q exists",
            m.forest.covered_nodes().len()
        );
    }

}

proptest! {
    // The 3f-node precondition is rare in random graphs: allow many
    // rejects and settle for fewer (but still meaningful) cases.
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_global_rejects: 65_536,
    })]

    /// Lemma 8 a (uniqueness direction): when the maximal line subgraph
    /// contains exactly 3f nodes and an IS of size q exists, that IS is
    /// unique and equals {leader} ∪ possible followers.
    #[test]
    fn lemma8a_unique_is(f in 1u32..3, seed in any::<u64>()) {
        let n = 3 * f + 1;
        let q = n - f;
        let g = random_graph(n, seed, 2);
        prop_assume!(g.has_independent_set(q));
        let m = g.maximal_line_subgraph();
        prop_assume!(m.forest.covered_nodes().len() == (3 * f) as usize);
        prop_assert_eq!(g.count_independent_sets(q), 1, "IS not unique");
        let is = g.first_independent_set(q).expect("assumed");
        let leader = m.leader.expect("3f < n nodes covered leaves a leader");
        prop_assert!(is.contains(leader), "leader not in the unique IS");
        for p in is.iter() {
            if p != leader {
                prop_assert!(
                    m.forest.possible_followers().contains(p),
                    "IS member {p} is not a possible follower"
                );
            }
        }
    }
}
