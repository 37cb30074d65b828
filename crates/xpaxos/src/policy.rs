//! View → quorum mapping.
//!
//! XPaxos enumerates all `C(n, f)` possible quorums ("synchronous groups")
//! and assigns view `v` the `v`-th combination in lexicographic order,
//! wrapping round-robin (paper §V-B). The leader of a view is the member
//! with the lowest id (§V-A step 1).
//!
//! Quorum-Selection-driven replicas use the same numbering: when the
//! selection module outputs `⟨QUORUM, Q⟩`, the replica "suspects all
//! quorums ordered before Q" — i.e. jumps directly to the next view whose
//! combination is `Q` ([`ViewPolicy::view_for_quorum`]).

use std::cell::Cell;

use qsel_simnet::SimDuration;
use qsel_types::thresholds::binomial;
use qsel_types::{ClusterConfig, ProcessId, ProcessSet, Quorum};

/// Leader-side request batching and commit pipelining knobs.
///
/// The leader accumulates pending client requests and proposes one signed
/// batch per slot. A batch closes as soon as it holds
/// [`max_batch_size`](Self::max_batch_size) requests, or when
/// [`max_batch_delay`](Self::max_batch_delay) has elapsed since its first
/// request arrived (a delay of zero closes every batch immediately). Up to
/// [`pipeline_depth`](Self::pipeline_depth) slots may be in flight —
/// proposed but not yet decided — at once.
///
/// The default policy (size 1, zero delay, depth 1) is the *compatibility
/// identity*: the replica takes the exact pre-batching code path, so traced
/// executions are byte-identical to the unbatched protocol for the same
/// seed. Batching changes how many requests share a slot, never which
/// quorum is active or how views change, so the paper's quorum-selection
/// guarantees (Theorems 3 and 9) are untouched by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests a single batch (slot) may carry.
    pub max_batch_size: usize,
    /// Longest a non-full batch may wait for more requests before the
    /// leader proposes it anyway.
    pub max_batch_delay: SimDuration,
    /// Most undecided slots the leader keeps in flight at once.
    pub pipeline_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch_size: 1,
            max_batch_delay: SimDuration::ZERO,
            pipeline_depth: 1,
        }
    }
}

impl BatchPolicy {
    /// Builds a policy, clamping degenerate zero knobs up to 1.
    pub fn new(max_batch_size: usize, max_batch_delay: SimDuration, pipeline_depth: usize) -> Self {
        BatchPolicy {
            max_batch_size: max_batch_size.max(1),
            max_batch_delay,
            pipeline_depth: pipeline_depth.max(1),
        }
    }

    /// True for the default policy, which must behave — down to the traced
    /// byte level — exactly like the pre-batching protocol: one request per
    /// slot, proposed the moment it arrives, with no in-flight cap beyond
    /// what the closed-loop clients impose.
    pub fn is_passthrough(&self) -> bool {
        *self == BatchPolicy::default()
    }
}

/// Checkpointing and log-compaction knobs.
///
/// With a non-zero [`interval`](Self::interval) every replica signs and
/// broadcasts a checkpoint each time its execution cursor crosses an
/// interval multiple. Once `f + 1` matching signatures are collected the
/// checkpoint is *stable*: the replica garbage-collects every log slot
/// below it (certificates and all), keeping only the last
/// [`archive_retain`](Self::archive_retain) batches of compacted content
/// for serving MMR-authenticated incremental state transfer.
///
/// The default interval of zero disables the whole subsystem — the
/// replica behaves (and traces) byte-identically to the pre-checkpoint
/// protocol, which keeps golden traces stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint period in slots (0 disables checkpointing, compaction,
    /// and incremental state transfer).
    pub interval: u64,
    /// How many compacted batches below the stable checkpoint stay
    /// resident in the transfer archive. Larger values let lagging peers
    /// catch up via compact entries (preserving their dedup history);
    /// smaller values bound memory harder and force far-behind peers to
    /// jump to the checkpoint instead.
    pub archive_retain: u64,
}

impl CheckpointPolicy {
    /// Builds a policy.
    pub fn new(interval: u64, archive_retain: u64) -> Self {
        CheckpointPolicy {
            interval,
            archive_retain,
        }
    }

    /// Whether checkpointing is on at all.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }
}

/// Lexicographic combination numbering of quorums.
///
/// `C(n, q)` is computed once, and the last view's quorum is memoized: a
/// replica asks for the same view's group and leader several times per
/// message, and its view only moves on a view install. A miss computes
/// exactly as an uncached call would.
#[derive(Clone, Debug)]
pub struct ViewPolicy {
    n: u32,
    q: u32,
    count: u128,
    last: Cell<(u64, Quorum)>,
}

impl ViewPolicy {
    /// Policy for quorums of size `q = n − f`.
    pub fn new(cfg: &ClusterConfig) -> Self {
        ViewPolicy {
            n: cfg.n(),
            q: cfg.quorum_size(),
            count: binomial(cfg.n() as u64, cfg.quorum_size() as u64),
            // View 0's quorum is the first combination: `p_1 … p_q`.
            last: Cell::new((0, Quorum::initial(cfg))),
        }
    }

    /// Total number of distinct quorums `C(n, q)`.
    pub fn quorum_count(&self) -> u128 {
        self.count
    }

    /// The quorum of view `v` (the `v mod C(n,q)`-th combination in
    /// lexicographic order).
    pub fn group(&self, view: u64) -> Quorum {
        let (last_view, last) = self.last.get();
        if last_view == view {
            return last;
        }
        let group = self.compute_group(view);
        self.last.set((view, group));
        group
    }

    fn compute_group(&self, view: u64) -> Quorum {
        let index = (view as u128 % self.count) as u64;
        Quorum::from_set_unchecked(self.unrank(index))
    }

    /// The leader of view `v`: the quorum member with the lowest id.
    pub fn leader(&self, view: u64) -> ProcessId {
        self.group(view).lowest()
    }

    /// The smallest view strictly greater than `after` whose quorum is
    /// `target` (the §V-B jump), or `None` if it would lie past
    /// `u64::MAX`.
    pub fn view_for_quorum(&self, after: u64, target: &Quorum) -> Option<u64> {
        let count = self.quorum_count() as u64;
        let rank = self.rank(target.members());
        let candidate = (after - after % count).checked_add(rank)?;
        if candidate > after {
            Some(candidate)
        } else {
            candidate.checked_add(count)
        }
    }

    /// Lexicographic rank of a combination (combinatorial number system).
    fn rank(&self, set: &ProcessSet) -> u64 {
        let members: Vec<u32> = set.iter().map(|p| p.0 - 1).collect(); // zero-based
        debug_assert_eq!(members.len(), self.q as usize);
        let mut rank: u128 = 0;
        let mut prev: i64 = -1;
        let mut remaining = self.q as u64;
        for &m in &members {
            for skipped in (prev + 1) as u32..m {
                // Combinations starting with `skipped` in this position.
                rank += binomial((self.n - skipped - 1) as u64, remaining - 1);
            }
            prev = m as i64;
            remaining -= 1;
        }
        rank as u64
    }

    /// Inverse of [`Self::rank`].
    fn unrank(&self, index: u64) -> ProcessSet {
        let mut set = ProcessSet::new();
        let mut next = 0u32; // zero-based candidate
        let mut remaining = self.q;
        let mut idx = index as u128;
        while remaining > 0 {
            let count = binomial((self.n - next - 1) as u64, (remaining - 1) as u64);
            if idx < count {
                set.insert(ProcessId(next + 1));
                remaining -= 1;
            } else {
                idx -= count;
            }
            next += 1;
            assert!(next <= self.n, "unrank index out of range");
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, f: u32) -> ClusterConfig {
        ClusterConfig::new(n, f).unwrap()
    }

    #[test]
    fn view0_is_initial_quorum() {
        let p = ViewPolicy::new(&cfg(5, 2));
        assert_eq!(p.group(0), Quorum::initial(&cfg(5, 2)));
        assert_eq!(p.leader(0), ProcessId(1));
    }

    #[test]
    fn enumeration_is_lexicographic() {
        let p = ViewPolicy::new(&cfg(4, 1)); // q = 3, C(4,3) = 4 quorums
        let seq: Vec<Vec<u32>> = (0..5)
            .map(|v| p.group(v).iter().map(|x| x.0).collect())
            .collect();
        assert_eq!(
            seq,
            vec![
                vec![1, 2, 3],
                vec![1, 2, 4],
                vec![1, 3, 4],
                vec![2, 3, 4],
                vec![1, 2, 3], // round robin wrap
            ]
        );
    }

    #[test]
    fn rank_unrank_roundtrip() {
        let p = ViewPolicy::new(&cfg(7, 2)); // q = 5, C(7,5) = 21
        for v in 0..21u64 {
            let g = p.group(v);
            assert_eq!(p.rank(g.members()), v, "view {v}");
        }
    }

    #[test]
    fn view_for_quorum_jumps_forward() {
        let p = ViewPolicy::new(&cfg(4, 1));
        let target = p.group(2);
        assert_eq!(p.view_for_quorum(0, &target), Some(2));
        // Already at or past the target's rank: wrap to the next cycle.
        assert_eq!(p.view_for_quorum(2, &target), Some(6));
        assert_eq!(p.view_for_quorum(3, &target), Some(6));
        // Target rank 0 from view 0 → full wrap.
        let first = p.group(0);
        assert_eq!(p.view_for_quorum(0, &first), Some(4));
        // No view of `target` lies above the last cycle's.
        assert_eq!(p.view_for_quorum(u64::MAX, &target), None);
    }

    #[test]
    fn leaders_follow_lowest_member() {
        let p = ViewPolicy::new(&cfg(4, 1));
        assert_eq!(p.leader(3), ProcessId(2)); // quorum {2,3,4}
    }

    #[test]
    fn quorum_count() {
        assert_eq!(ViewPolicy::new(&cfg(7, 2)).quorum_count(), 21);
        assert_eq!(ViewPolicy::new(&cfg(10, 3)).quorum_count(), 120);
    }

    /// The memo's oracle: group and leader of `view` computed afresh.
    fn assert_memo_matches(p: &ViewPolicy, view: u64) {
        let fresh = p.compute_group(view);
        assert_eq!(p.group(view), fresh, "view {view}");
        assert_eq!(p.leader(view), fresh.lowest(), "view {view}");
        assert_eq!(p.group(view), fresh, "view {view} (memo hit)");
    }

    #[test]
    fn memoized_views_match_a_fresh_computation_for_small_clusters() {
        for n in 1..=10u32 {
            for f in 1..n {
                let Ok(c) = ClusterConfig::new(n, f) else {
                    continue;
                };
                let p = ViewPolicy::new(&c);
                assert_eq!(p.quorum_count(), binomial(n as u64, c.quorum_size() as u64));
                for v in 0..3 * p.quorum_count() as u64 {
                    assert_memo_matches(&p, v);
                }
            }
        }
    }

    #[test]
    fn memoized_views_match_a_fresh_computation_for_large_clusters() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        for (n, f) in [(64, 21), (64, 1), (128, 42), (128, 3)] {
            let p = ViewPolicy::new(&cfg(n, f));
            for _ in 0..200 {
                let v = rng.random::<u64>();
                assert_memo_matches(&p, v);
                assert_memo_matches(&p, v.wrapping_add(1));
            }
        }
    }

    #[test]
    fn alternating_views_miss_the_memo_and_stay_correct() {
        let p = ViewPolicy::new(&cfg(7, 2));
        for round in 0..50u64 {
            let (a, b) = (round % 21, 1000 + round * 7);
            assert_memo_matches(&p, a);
            assert_memo_matches(&p, b);
            assert_memo_matches(&p, a);
        }
    }

    #[test]
    fn default_batch_policy_is_the_passthrough_identity() {
        assert!(BatchPolicy::default().is_passthrough());
        assert!(!BatchPolicy::new(2, SimDuration::ZERO, 1).is_passthrough());
        assert!(!BatchPolicy::new(1, SimDuration::ZERO, 2).is_passthrough());
        assert!(!BatchPolicy::new(1, SimDuration::micros(100), 1).is_passthrough());
    }

    #[test]
    fn batch_policy_clamps_zero_knobs() {
        let p = BatchPolicy::new(0, SimDuration::ZERO, 0);
        assert_eq!(p.max_batch_size, 1);
        assert_eq!(p.pipeline_depth, 1);
    }
}
