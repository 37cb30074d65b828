//! Central quorum-threshold arithmetic.
//!
//! Every `f + 1` / `2f + 1` / `n − f` style comparison in the protocol
//! crates must go through these helpers. Hand-written threshold math is
//! the classic off-by-one quorum bug class (a quorum of `f` instead of
//! `f + 1` silently loses the intersection argument behind the paper's
//! Theorems 3 and 9), so the P2 lint in `qsel-lint` flags raw threshold
//! arithmetic everywhere *except* this module and tests.
//!
//! The helpers are deliberately tiny, total over their stated domains,
//! and named after the protocol obligation they encode rather than the
//! formula, so call sites read as the invariant they enforce:
//!
//! ```
//! use qsel_types::thresholds;
//! // n = 5, f = 2: a quorum is 3 processes and intersects every other
//! // quorum in at least one correct process.
//! assert_eq!(thresholds::quorum_size(5, 2), 3);
//! assert!(thresholds::has_correct_majority(5, 2));
//! // A client needs f + 1 matching replies before trusting a result.
//! assert!(!thresholds::reply_quorum_reached(2, 2));
//! assert!(thresholds::reply_quorum_reached(2, 3));
//! ```

/// Quorum size `q = n − f` (the paper's Algorithm 1 assumes `f + q = |Π|`).
#[inline]
pub fn quorum_size(n: u32, f: u32) -> u32 {
    debug_assert!(f < n, "quorum_size requires f < n");
    n - f
}

/// The paper's correct-majority assumption: `n − f > f`, i.e. any quorum
/// of `n − f` processes contains a majority of correct ones.
#[inline]
pub fn has_correct_majority(n: u32, f: u32) -> bool {
    f < n && n - f > f
}

/// Whether the fault bound even fits the cluster (`f < n`). Violations get
/// a dedicated configuration error before majority checking.
#[inline]
pub fn fault_bound_fits(n: u32, f: u32) -> bool {
    f < n
}

/// Whether the cluster satisfies the Follower Selection assumption
/// `|Π| > 3f` of the paper's Section VIII.
#[inline]
pub fn supports_follower_selection(n: u32, f: u32) -> bool {
    n > 3 * f
}

/// Whether a configuration tolerates at least one fault. Selection
/// algorithms that rotate suspects out of the quorum are vacuous (and
/// divide by zero conceptually) when `f = 0`.
#[inline]
pub fn tolerates_faults(f: u32) -> bool {
    f >= 1
}

/// Minimum number of matching client replies that guarantee at least one
/// *correct* replica executed the operation: `f + 1`.
#[inline]
pub fn reply_quorum(f: u32) -> usize {
    f as usize + 1
}

/// Whether `matching` distinct replicas reported the same result, enough
/// to commit on the client (`matching ≥ f + 1`).
#[inline]
pub fn reply_quorum_reached(f: u32, matching: usize) -> bool {
    matching >= reply_quorum(f)
}

/// Number of distinct signers that make a checkpoint certificate
/// self-certifying: `f + 1` signatures over the same digest pin at least
/// one correct replica behind the checkpoint.
#[inline]
pub fn checkpoint_quorum(f: u32) -> usize {
    f as usize + 1
}

/// Whether a checkpoint certificate with `signers` distinct signatures is
/// complete (`signers ≥ f + 1`).
#[inline]
pub fn checkpoint_cert_complete(f: u32, signers: usize) -> bool {
    signers >= checkpoint_quorum(f)
}

/// PBFT prepared threshold generalized to `m` participants: the replica
/// needs `m − f − 1` matching prepares from *others* (the pre-prepare
/// stands in for the primary's prepare). For the textbook `m = n = 3f+1`
/// this is the familiar `2f`.
#[inline]
pub fn pbft_prepare_quorum(participants: usize, f: u32) -> usize {
    debug_assert!(participants > f as usize, "prepare quorum requires m > f");
    participants - f as usize - 1
}

/// PBFT committed threshold generalized to `m` participants: `m − f`
/// matching commits (own commit included). For `m = n = 3f+1` this is the
/// familiar `2f + 1`.
#[inline]
pub fn pbft_commit_quorum(participants: usize, f: u32) -> usize {
    debug_assert!(participants > f as usize, "commit quorum requires m > f");
    participants - f as usize
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
        assert!(tolerates_faults(1));
        assert!(!tolerates_faults(0));
        assert!(fault_bound_fits(3, 1));
        assert!(!fault_bound_fits(3, 3));
    }

    #[test]
    fn reply_and_checkpoint_quorums() {
        assert_eq!(reply_quorum(0), 1);
        assert_eq!(reply_quorum(2), 3);
        assert!(reply_quorum_reached(1, 2));
        assert!(!reply_quorum_reached(1, 1));
        assert_eq!(checkpoint_quorum(2), 3);
        assert!(checkpoint_cert_complete(2, 3));
        assert!(checkpoint_cert_complete(2, 4));
        assert!(!checkpoint_cert_complete(2, 2));
    }

    #[test]
    fn pbft_thresholds_match_textbook() {
        // n = 3f + 1 = 4, f = 1: 2f = 2 prepares, 2f + 1 = 3 commits.
        assert_eq!(pbft_prepare_quorum(4, 1), 2);
        assert_eq!(pbft_commit_quorum(4, 1), 3);
        // Reduced participation m = 3 of n = 4 still needs f-resilient counts.
        assert_eq!(pbft_prepare_quorum(3, 1), 1);
        assert_eq!(pbft_commit_quorum(3, 1), 2);
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
