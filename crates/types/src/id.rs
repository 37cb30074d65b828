//! Process identifiers and cluster configuration.

use std::fmt;

use crate::error::ConfigError;
use crate::thresholds;

/// Identifier of a process `p_i` in the paper's `Π = {p_1, p_2, …, p_n}`.
///
/// Identifiers are 1-based to match the paper's notation: the first process
/// is `ProcessId(1)`. The paper assumes "processes can be ordered by unique
/// identifiers"; this ordering is the derived [`Ord`].
///
/// # Example
///
/// ```
/// use qsel_types::ProcessId;
/// let p1 = ProcessId(1);
/// let p2 = ProcessId(2);
/// assert!(p1 < p2);
/// assert_eq!(p1.to_string(), "p1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the zero-based index of this process, for array indexing.
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_types::ProcessId;
    /// assert_eq!(ProcessId(1).index(), 0);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(self.0 >= 1, "process ids are 1-based");
        (self.0 - 1) as usize
    }

    /// Builds a process id from a zero-based index.
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_types::ProcessId;
    /// assert_eq!(ProcessId::from_index(0), ProcessId(1));
    /// ```
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ProcessId(index as u32 + 1)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<ProcessId> for u32 {
    fn from(id: ProcessId) -> u32 {
        id.0
    }
}

/// The `(n, f)` configuration of a cluster, with `q = n - f` as in the paper
/// (Algorithm 1 assumes `f + q = |Π|`).
///
/// The paper requires a correct majority (`n - f > f`), which this type
/// validates at construction.
///
/// # Example
///
/// ```
/// use qsel_types::ClusterConfig;
/// let cfg = ClusterConfig::new(7, 2).unwrap();
/// assert_eq!(cfg.quorum_size(), 5);
/// assert!(cfg.supports_follower_selection()); // 7 > 3·2
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClusterConfig {
    n: u32,
    f: u32,
}

impl ClusterConfig {
    /// Creates a configuration of `n` processes tolerating `f` faults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n == 0`, `n` exceeds
    /// [`ProcessSet::MAX_PROCESSES`], `f >= n`, or the correct-majority
    /// assumption `n - f > f` of the paper's system model is violated.
    pub fn new(n: u32, f: u32) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::EmptyCluster);
        }
        if n > ProcessSet::MAX_PROCESSES {
            return Err(ConfigError::TooManyProcesses { n });
        }
        if !thresholds::fault_bound_fits(n, f) {
            return Err(ConfigError::TooManyFaults { n, f });
        }
        if !thresholds::has_correct_majority(n, f) {
            return Err(ConfigError::NoCorrectMajority { n, f });
        }
        Ok(ClusterConfig { n, f })
    }

    /// Number of processes `n = |Π|`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Maximum number of faulty processes `f`, opaque so that every
    /// threshold built from it goes through [`thresholds`].
    #[inline]
    pub fn f(&self) -> thresholds::Faults {
        thresholds::Faults::new(self.f)
    }

    /// Quorum size `q = n - f`.
    #[inline]
    pub fn quorum_size(&self) -> u32 {
        thresholds::quorum_size(self.n, self.f)
    }

    /// Whether the cluster satisfies the Follower Selection assumption
    /// `|Π| > 3f` of Section VIII.
    #[inline]
    pub fn supports_follower_selection(&self) -> bool {
        thresholds::supports_follower_selection(self.n, self.f)
    }

    /// Iterates over all process ids `p_1, …, p_n`.
    ///
    /// # Example
    ///
    /// ```
    /// use qsel_types::{ClusterConfig, ProcessId};
    /// let cfg = ClusterConfig::new(3, 1).unwrap();
    /// let all: Vec<ProcessId> = cfg.processes().collect();
    /// assert_eq!(all, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
    /// ```
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + Clone + use<> {
        (1..=self.n).map(ProcessId)
    }

    /// Returns `true` if `id` names a process of this cluster.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        (1..=self.n).contains(&id.0)
    }

    /// The paper's initial/default quorum `{p_1, …, p_q}` (Algorithm 1 line 7).
    pub fn default_quorum_members(&self) -> Vec<ProcessId> {
        (1..=self.quorum_size()).map(ProcessId).collect()
    }
}

/// A set of processes represented as a bitset, supporting up to 128 processes.
///
/// This is the small, copyable set used throughout the graph algorithms and
/// quorum bookkeeping. The paper targets consortium-scale clusters ("tenths
/// of nodes"), so 128 is plenty.
///
/// # Example
///
/// ```
/// use qsel_types::{ProcessId, ProcessSet};
/// let mut s = ProcessSet::new();
/// s.insert(ProcessId(3));
/// s.insert(ProcessId(7));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId(3)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![ProcessId(3), ProcessId(7)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessSet {
    bits: u128,
}

impl ProcessSet {
    /// Maximum number of processes representable.
    pub const MAX_PROCESSES: u32 = 128;

    /// Creates an empty set.
    pub fn new() -> Self {
        ProcessSet { bits: 0 }
    }

    /// Creates a set containing every process of `cfg`.
    pub fn full(cfg: &ClusterConfig) -> Self {
        let mut s = ProcessSet::new();
        for p in cfg.processes() {
            s.insert(p);
        }
        s
    }

    /// Inserts a process. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id.0` is 0 or exceeds [`Self::MAX_PROCESSES`].
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let mask = Self::mask(id);
        let fresh = self.bits & mask == 0;
        self.bits |= mask;
        fresh
    }

    /// Removes a process. Returns `true` if it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let mask = Self::mask(id);
        let present = self.bits & mask != 0;
        self.bits &= !mask;
        present
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        self.bits & Self::mask(id) != 0
    }

    /// Number of processes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> Iter {
        Iter { bits: self.bits }
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits | other.bits,
        }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits & other.bits,
        }
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits & !other.bits,
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.bits & !other.bits == 0
    }

    /// The smallest member, if any.
    ///
    /// Takes `self` by value (the set is `Copy`) so this inherent method
    /// outranks `Ord::min` during method resolution.
    pub fn min(self) -> Option<ProcessId> {
        if self.bits == 0 {
            None
        } else {
            Some(ProcessId(self.bits.trailing_zeros() + 1))
        }
    }

    #[inline]
    fn mask(id: ProcessId) -> u128 {
        assert!(
            id.0 >= 1 && id.0 <= Self::MAX_PROCESSES,
            "process id {} out of ProcessSet range 1..={}",
            id.0,
            Self::MAX_PROCESSES
        );
        1u128 << (id.0 - 1)
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over the members of a [`ProcessSet`] in increasing id order.
#[derive(Clone, Debug)]
pub struct Iter {
    bits: u128,
}

impl Iterator for Iter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.bits == 0 {
            return None;
        }
        let tz = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(ProcessId(tz + 1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_majority() {
        assert!(ClusterConfig::new(3, 1).is_ok());
        assert!(ClusterConfig::new(2, 1).is_err()); // n - f = f
        assert!(ClusterConfig::new(0, 0).is_err());
        assert!(ClusterConfig::new(4, 4).is_err());
        assert!(ClusterConfig::new(5, 2).is_ok());
        assert!(ClusterConfig::new(4, 2).is_err());
        // As many processes as a `ProcessSet` holds, and one more.
        let cfg = ClusterConfig::new(128, 42).unwrap();
        assert_eq!(ProcessSet::full(&cfg).len(), 128);
        assert_eq!(
            ClusterConfig::new(129, 1),
            Err(ConfigError::TooManyProcesses { n: 129 })
        );
    }

    #[test]
    fn config_accessors() {
        let cfg = ClusterConfig::new(7, 2).unwrap();
        assert_eq!(cfg.n(), 7);
        assert_eq!(cfg.f(), thresholds::Faults::new(2));
        assert_eq!(cfg.quorum_size(), 5);
        assert!(cfg.supports_follower_selection());
        let cfg = ClusterConfig::new(6, 2).unwrap();
        assert!(!cfg.supports_follower_selection());
    }

    #[test]
    fn default_quorum_is_prefix() {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        assert_eq!(
            cfg.default_quorum_members(),
            vec![ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn id_roundtrip() {
        for i in 0..10 {
            assert_eq!(ProcessId::from_index(i).index(), i);
        }
    }

    #[test]
    fn set_basic_ops() {
        let mut s = ProcessSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(5)));
        assert!(!s.insert(ProcessId(5)));
        assert!(s.insert(ProcessId(1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.min(), Some(ProcessId(1)));
        assert!(s.remove(ProcessId(1)));
        assert!(!s.remove(ProcessId(1)));
        assert_eq!(s.min(), Some(ProcessId(5)));
    }

    #[test]
    fn set_algebra() {
        let a: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        let b: ProcessSet = [3, 4].into_iter().map(ProcessId).collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            vec![ProcessId(3)]
        );
        assert_eq!(
            a.difference(&b).iter().collect::<Vec<_>>(),
            vec![ProcessId(1), ProcessId(2)]
        );
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn set_iteration_sorted() {
        let s: ProcessSet = [9, 2, 128, 40].into_iter().map(ProcessId).collect();
        let v: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![2, 9, 40, 128]);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of ProcessSet range")]
    fn set_rejects_zero_id() {
        let mut s = ProcessSet::new();
        s.insert(ProcessId(0));
    }

    #[test]
    fn full_set_matches_config() {
        let cfg = ClusterConfig::new(9, 4).unwrap();
        let s = ProcessSet::full(&cfg);
        assert_eq!(s.len(), 9);
        assert!(cfg.processes().all(|p| s.contains(p)));
    }
}
