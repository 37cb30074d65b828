//! Central quorum-threshold arithmetic.
//!
//! Every `f + 1` / `2f + 1` / `n − f` style threshold in the protocol
//! crates comes from these helpers. Hand-written threshold math is the
//! classic off-by-one quorum bug class (a quorum of `f` instead of
//! `f + 1` silently loses the intersection argument behind the paper's
//! Theorems 3 and 9), so the compiler rules it out: a cluster's fault
//! bound is a [`Faults`], which has no arithmetic operators and no
//! getter. Outside this module `f + 1`, `2 * f` or `n - f` on
//! [`ClusterConfig::f`](crate::ClusterConfig::f) does not compile
//! (E0369 / E0277); the only way to a number is a helper named after the
//! protocol obligation it encodes, so call sites read as the invariant
//! they enforce:
//!
//! ```
//! use qsel_types::{thresholds, ClusterConfig};
//! // n = 5, f = 2: a quorum is 3 processes and intersects every other
//! // quorum in at least one correct process.
//! let cfg = ClusterConfig::new(5, 2).unwrap();
//! assert_eq!(cfg.quorum_size(), 3);
//! // A client needs f + 1 matching replies before trusting a result.
//! assert!(!thresholds::reply_quorum_reached(cfg.f(), 2));
//! assert!(thresholds::reply_quorum_reached(cfg.f(), 3));
//! // Theorem 3 allows f(f + 1) quorums per epoch; Theorem 9 allows 3f + 1.
//! assert_eq!(thresholds::thm3_bound(cfg.f()), 6);
//! assert_eq!(thresholds::thm9_bound(cfg.f()), 7);
//! // The fault bound prints as its number, but is not one.
//! assert_eq!(cfg.f().to_string(), "2");
//! ```
//!
//! ```compile_fail,E0369
//! let f = qsel_types::ClusterConfig::new(4, 1).unwrap().f();
//! let _ = f + 1;
//! ```

use std::fmt;

/// A cluster's fault bound `f`, as
/// [`ClusterConfig::f`](crate::ClusterConfig::f) returns it.
///
/// Opaque on purpose: it implements no arithmetic and exposes no `u32`,
/// so every threshold derived from `f` is one of this module's functions.
/// [`Display`](fmt::Display) prints the bare number, for messages and
/// reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Faults(u32);

impl Faults {
    /// Wraps a fault bound that [`ClusterConfig::new`](crate::ClusterConfig::new)
    /// validated.
    pub(crate) const fn new(f: u32) -> Self {
        Faults(f)
    }
}

impl fmt::Display for Faults {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{}", self.0)
    }
}

/// Quorum size `q = n − f` (the paper's Algorithm 1 assumes `f + q = |Π|`).
#[inline]
pub(crate) fn quorum_size(n: u32, f: u32) -> u32 {
    debug_assert!(f < n, "quorum_size requires f < n");
    n - f
}

/// The paper's correct-majority assumption: `n − f > f`, i.e. any quorum
/// of `n − f` processes contains a majority of correct ones.
#[inline]
pub(crate) fn has_correct_majority(n: u32, f: u32) -> bool {
    f < n && n - f > f
}

/// Whether the fault bound even fits the cluster (`f < n`). Violations get
/// a dedicated configuration error before majority checking.
#[inline]
pub(crate) fn fault_bound_fits(n: u32, f: u32) -> bool {
    f < n
}

/// Whether the cluster satisfies the Follower Selection assumption
/// `|Π| > 3f` of the paper's Section VIII.
#[inline]
pub(crate) fn supports_follower_selection(n: u32, f: u32) -> bool {
    n > 3 * f
}

/// Whether a configuration tolerates at least one fault. Selection
/// algorithms that rotate suspects out of the quorum are vacuous (and
/// divide by zero conceptually) when `f = 0`.
#[inline]
pub fn tolerates_faults(f: Faults) -> bool {
    f.0 >= 1
}

/// Minimum number of matching client replies that guarantee at least one
/// *correct* replica executed the operation: `f + 1`.
#[inline]
pub fn reply_quorum(f: Faults) -> usize {
    f.0 as usize + 1
}

/// Whether `matching` distinct replicas reported the same result, enough
/// to commit on the client (`matching ≥ f + 1`).
#[inline]
pub fn reply_quorum_reached(f: Faults, matching: usize) -> bool {
    matching >= reply_quorum(f)
}

/// Number of distinct signers that make a checkpoint certificate
/// self-certifying: `f + 1` signatures over the same digest pin at least
/// one correct replica behind the checkpoint.
#[inline]
pub fn checkpoint_quorum(f: Faults) -> usize {
    f.0 as usize + 1
}

/// Whether a checkpoint certificate with `signers` distinct signatures is
/// complete (`signers ≥ f + 1`).
#[inline]
pub fn checkpoint_cert_complete(f: Faults, signers: usize) -> bool {
    signers >= checkpoint_quorum(f)
}

/// PBFT prepared threshold generalized to `m` participants: the replica
/// needs `m − f − 1` matching prepares from *others* (the pre-prepare
/// stands in for the primary's prepare). For the textbook `m = n = 3f+1`
/// this is the familiar `2f`.
#[inline]
pub fn pbft_prepare_quorum(participants: usize, f: Faults) -> usize {
    debug_assert!(participants > f.0 as usize, "prepare quorum requires m > f");
    participants - f.0 as usize - 1
}

/// PBFT committed threshold generalized to `m` participants: `m − f`
/// matching commits (own commit included). For `m = n = 3f+1` this is the
/// familiar `2f + 1`.
#[inline]
pub fn pbft_commit_quorum(participants: usize, f: Faults) -> usize {
    debug_assert!(participants > f.0 as usize, "commit quorum requires m > f");
    participants - f.0 as usize
}

/// Theorem 3's bound for Algorithm 1: at most `f(f + 1)` quorums per
/// epoch once the failure detector is accurate.
#[inline]
pub fn thm3_bound(f: Faults) -> u64 {
    u64::from(f.0) * (u64::from(f.0) + 1)
}

/// Theorem 9's bound for Algorithm 2 (Follower Selection): at most
/// `3f + 1` quorums per epoch.
#[inline]
pub fn thm9_bound(f: Faults) -> u64 {
    3 * u64::from(f.0) + 1
}

/// Whether `answers` covers every peer of an `n`-process cluster, i.e.
/// all `n − 1` other processes responded. Used by the synchronization
/// read phase, which (unlike quorum collection) must hear from everyone
/// it asked before concluding a round.
#[inline]
pub fn all_peers_answered(n: u32, answers: u32) -> bool {
    answers == n - 1
}

/// The binomial coefficient `C(n, k)`: the number of quorums `C(n, n − f)`,
/// and the `C(f + 2, 2)` quorums-per-epoch bound of Theorems 3 and 4
/// (`u128` survives `C(60, 30)`-scale counts).
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic() {
        assert_eq!(quorum_size(5, 2), 3);
        assert_eq!(quorum_size(3, 1), 2);
        assert!(has_correct_majority(3, 1));
        assert!(!has_correct_majority(2, 1));
        assert!(!has_correct_majority(4, 2));
        assert!(!has_correct_majority(2, 3)); // f >= n is never a majority
        assert!(supports_follower_selection(7, 2));
        assert!(!supports_follower_selection(6, 2));
        assert!(tolerates_faults(Faults(1)));
        assert!(!tolerates_faults(Faults(0)));
        assert!(fault_bound_fits(3, 1));
        assert!(!fault_bound_fits(3, 3));
    }

    #[test]
    fn reply_and_checkpoint_quorums() {
        assert_eq!(reply_quorum(Faults(0)), 1);
        assert_eq!(reply_quorum(Faults(2)), 3);
        assert!(reply_quorum_reached(Faults(1), 2));
        assert!(!reply_quorum_reached(Faults(1), 1));
        assert_eq!(checkpoint_quorum(Faults(2)), 3);
        assert!(checkpoint_cert_complete(Faults(2), 3));
        assert!(checkpoint_cert_complete(Faults(2), 4));
        assert!(!checkpoint_cert_complete(Faults(2), 2));
    }

    #[test]
    fn pbft_thresholds_match_textbook() {
        // n = 3f + 1 = 4, f = 1: 2f = 2 prepares, 2f + 1 = 3 commits.
        assert_eq!(pbft_prepare_quorum(4, Faults(1)), 2);
        assert_eq!(pbft_commit_quorum(4, Faults(1)), 3);
        // Reduced participation m = 3 of n = 4 still needs f-resilient counts.
        assert_eq!(pbft_prepare_quorum(3, Faults(1)), 1);
        assert_eq!(pbft_commit_quorum(3, Faults(1)), 2);
    }

    #[test]
    fn per_epoch_quorum_bounds() {
        assert_eq!(thm3_bound(Faults(1)), 2);
        assert_eq!(thm3_bound(Faults(2)), 6);
        assert_eq!(thm9_bound(Faults(1)), 4);
        assert_eq!(thm9_bound(Faults(2)), 7);
        assert_eq!(Faults(2).to_string(), "2");
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(10, 3), 120);
    }

    #[test]
    fn peer_coverage() {
        assert!(all_peers_answered(3, 2));
        assert!(!all_peers_answered(3, 1));
        assert!(!all_peers_answered(3, 3));
    }
}
