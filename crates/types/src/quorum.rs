//! Quorum types: the outputs of the quorum-selection and follower-selection
//! modules.

use std::fmt;

use crate::error::QuorumError;
use crate::id::{ClusterConfig, ProcessId, ProcessSet};

/// A quorum `Q ⊂ Π` with `|Q| = n - f`, as output by the quorum-selection
/// module in `⟨QUORUM, Q⟩` events (Section IV-A).
///
/// # Example
///
/// ```
/// use qsel_types::{ClusterConfig, ProcessId, Quorum};
/// let cfg = ClusterConfig::new(5, 2).unwrap();
/// let q = Quorum::of(&cfg, [ProcessId(1), ProcessId(3), ProcessId(4)]).unwrap();
/// assert_eq!(q.members().len(), 3);
/// assert_eq!(q.lowest(), ProcessId(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Quorum {
    members: ProcessSet,
}

impl Quorum {
    /// Builds a quorum from `members`, validating cardinality and membership
    /// against `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::WrongSize`] if `members` does not contain
    /// exactly `q = n - f` distinct processes, or
    /// [`QuorumError::UnknownProcess`] if a member is not in the cluster.
    pub fn of<I>(cfg: &ClusterConfig, members: I) -> Result<Self, QuorumError>
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let mut set = ProcessSet::new();
        let mut count = 0usize;
        for p in members {
            if !cfg.contains(p) {
                return Err(QuorumError::UnknownProcess(p));
            }
            set.insert(p);
            count += 1;
        }
        if set.len() != cfg.quorum_size() as usize || count != set.len() {
            return Err(QuorumError::WrongSize {
                expected: cfg.quorum_size(),
                got: count,
            });
        }
        Ok(Quorum { members: set })
    }

    /// The paper's initial quorum `{p_1, …, p_q}` (Algorithm 1 line 7).
    pub fn initial(cfg: &ClusterConfig) -> Self {
        Quorum {
            members: cfg.default_quorum_members().into_iter().collect(),
        }
    }

    /// Builds a quorum from an already-validated set.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `members` is empty; cardinality against a
    /// particular cluster is the caller's responsibility. Prefer
    /// [`Quorum::of`] at trust boundaries.
    pub fn from_set_unchecked(members: ProcessSet) -> Self {
        debug_assert!(!members.is_empty(), "quorum cannot be empty");
        Quorum { members }
    }

    /// The member set.
    #[inline]
    pub fn members(&self) -> &ProcessSet {
        &self.members
    }

    /// Whether `p` is a quorum member.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.contains(p)
    }

    /// The member with the lowest identifier. In XPaxos integration this is
    /// the leader of the quorum ("the process in the active quorum with
    /// lowest id, i.e. the leader", Section V-A).
    ///
    /// # Panics
    ///
    /// Never panics for quorums built through the public constructors, which
    /// guarantee non-emptiness.
    pub fn lowest(&self) -> ProcessId {
        self.members.min().expect("quorum is non-empty")
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> crate::id::Iter {
        self.members.iter()
    }
}

impl fmt::Display for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.members)
    }
}

/// A quorum with a designated leader, as output by Follower Selection in
/// `⟨QUORUM, l, Q⟩` events (Section VIII).
///
/// # Example
///
/// ```
/// use qsel_types::{ClusterConfig, LeaderQuorum, ProcessId};
/// let cfg = ClusterConfig::new(4, 1).unwrap();
/// let lq = LeaderQuorum::of(
///     &cfg,
///     ProcessId(2),
///     [ProcessId(2), ProcessId(3), ProcessId(4)],
/// ).unwrap();
/// assert_eq!(lq.leader(), ProcessId(2));
/// assert_eq!(lq.followers().len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LeaderQuorum {
    leader: ProcessId,
    quorum: Quorum,
}

impl LeaderQuorum {
    /// Builds a leader quorum, validating that `leader ∈ Q`.
    ///
    /// # Errors
    ///
    /// Returns the [`Quorum::of`] errors, plus
    /// [`QuorumError::LeaderNotMember`] if `leader` is not among `members`.
    pub fn of<I>(cfg: &ClusterConfig, leader: ProcessId, members: I) -> Result<Self, QuorumError>
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let quorum = Quorum::of(cfg, members)?;
        if !quorum.contains(leader) {
            return Err(QuorumError::LeaderNotMember(leader));
        }
        Ok(LeaderQuorum { leader, quorum })
    }

    /// The initial leader quorum: leader `p_1` with the default members
    /// `{p_1, …, p_q}` (Algorithm 2 lines 3 and 12–13).
    pub fn initial(cfg: &ClusterConfig) -> Self {
        LeaderQuorum {
            leader: ProcessId(1),
            quorum: Quorum::initial(cfg),
        }
    }

    /// The designated leader `l ∈ Q`.
    #[inline]
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The full quorum including the leader.
    #[inline]
    pub fn quorum(&self) -> &Quorum {
        &self.quorum
    }

    /// The followers `Q \ {l}`.
    pub fn followers(&self) -> ProcessSet {
        let mut s = *self.quorum.members();
        s.remove(self.leader);
        s
    }
}

impl fmt::Display for LeaderQuorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨leader {}, {}⟩", self.leader, self.quorum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg53() -> ClusterConfig {
        ClusterConfig::new(5, 2).unwrap()
    }

    #[test]
    fn of_validates_size() {
        let cfg = cfg53();
        let err = Quorum::of(&cfg, [ProcessId(1), ProcessId(2)]).unwrap_err();
        assert_eq!(
            err,
            QuorumError::WrongSize {
                expected: 3,
                got: 2
            }
        );
        // Duplicates are counted as provided, not deduplicated silently.
        let err = Quorum::of(&cfg, [ProcessId(1), ProcessId(1), ProcessId(2)]).unwrap_err();
        assert!(matches!(err, QuorumError::WrongSize { .. }));
    }

    #[test]
    fn of_validates_membership() {
        let cfg = cfg53();
        let err = Quorum::of(&cfg, [ProcessId(1), ProcessId(2), ProcessId(9)]).unwrap_err();
        assert_eq!(err, QuorumError::UnknownProcess(ProcessId(9)));
    }

    #[test]
    fn initial_quorum() {
        let cfg = cfg53();
        let q = Quorum::initial(&cfg);
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            vec![ProcessId(1), ProcessId(2), ProcessId(3)]
        );
        assert_eq!(q.lowest(), ProcessId(1));
    }

    #[test]
    fn leader_quorum_validation() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let err = LeaderQuorum::of(
            &cfg,
            ProcessId(1),
            [ProcessId(2), ProcessId(3), ProcessId(4)],
        )
        .unwrap_err();
        assert_eq!(err, QuorumError::LeaderNotMember(ProcessId(1)));
        let lq = LeaderQuorum::of(
            &cfg,
            ProcessId(3),
            [ProcessId(2), ProcessId(3), ProcessId(4)],
        )
        .unwrap();
        assert_eq!(
            lq.followers().iter().collect::<Vec<_>>(),
            vec![ProcessId(2), ProcessId(4)]
        );
        assert_eq!(lq.quorum().lowest(), ProcessId(2));
    }

    #[test]
    fn display() {
        let cfg = cfg53();
        let q = Quorum::initial(&cfg);
        assert_eq!(q.to_string(), "{p1, p2, p3}");
        let cfg4 = ClusterConfig::new(4, 1).unwrap();
        let lq = LeaderQuorum::initial(&cfg4);
        assert_eq!(lq.to_string(), "⟨leader p1, {p1, p2, p3}⟩");
    }
}
