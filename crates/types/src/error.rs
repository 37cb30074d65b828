//! Error types for cluster and quorum construction.

use std::error::Error;
use std::fmt;

/// Error constructing a [`ClusterConfig`](crate::ClusterConfig).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `n` was zero.
    EmptyCluster,
    /// `n` exceeds [`ProcessSet::MAX_PROCESSES`](crate::ProcessSet::MAX_PROCESSES),
    /// the most processes a [`ProcessSet`](crate::ProcessSet) can hold.
    TooManyProcesses {
        /// Number of processes.
        n: u32,
    },
    /// `f >= n`.
    TooManyFaults {
        /// Number of processes.
        n: u32,
        /// Requested fault tolerance.
        f: u32,
    },
    /// The paper's correct-majority assumption `n - f > f` does not hold.
    NoCorrectMajority {
        /// Number of processes.
        n: u32,
        /// Requested fault tolerance.
        f: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyCluster => write!(f, "cluster must contain at least one process"),
            ConfigError::TooManyProcesses { n } => write!(
                f,
                "cluster of {n} processes exceeds the limit of {}",
                crate::ProcessSet::MAX_PROCESSES
            ),
            ConfigError::TooManyFaults { n, f: faults } => {
                write!(f, "cannot tolerate {faults} faults with only {n} processes")
            }
            ConfigError::NoCorrectMajority { n, f: faults } => write!(
                f,
                "correct majority violated: n - f = {} is not greater than f = {faults}",
                crate::thresholds::quorum_size(*n, *faults)
            ),
        }
    }
}

impl Error for ConfigError {}

/// Error constructing a [`Quorum`](crate::Quorum) or
/// [`LeaderQuorum`](crate::LeaderQuorum).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QuorumError {
    /// The member set has the wrong cardinality (must be `q = n - f`).
    WrongSize {
        /// Expected quorum size.
        expected: u32,
        /// Provided member count.
        got: usize,
    },
    /// A member id is outside the cluster.
    UnknownProcess(crate::ProcessId),
    /// The designated leader is not a quorum member.
    LeaderNotMember(crate::ProcessId),
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::WrongSize { expected, got } => {
                write!(f, "quorum must have exactly {expected} members, got {got}")
            }
            QuorumError::UnknownProcess(p) => write!(f, "process {p} is not in the cluster"),
            QuorumError::LeaderNotMember(p) => write!(f, "leader {p} is not a quorum member"),
        }
    }
}

impl Error for QuorumError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    #[test]
    fn display_messages() {
        assert_eq!(
            ConfigError::NoCorrectMajority { n: 2, f: 1 }.to_string(),
            "correct majority violated: n - f = 1 is not greater than f = 1"
        );
        assert_eq!(
            QuorumError::WrongSize { expected: 3, got: 2 }.to_string(),
            "quorum must have exactly 3 members, got 2"
        );
        assert_eq!(
            QuorumError::LeaderNotMember(ProcessId(4)).to_string(),
            "leader p4 is not a quorum member"
        );
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<QuorumError>();
    }
}
