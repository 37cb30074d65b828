//! # Quorum Selection for Byzantine Fault Tolerance
//!
//! A faithful implementation of Leander Jehl's *Quorum Selection for
//! Byzantine Fault Tolerance* (ICDCS 2019): a mechanism that selects an
//! **active quorum** of well-functioning processes to run a BFT system, so
//! that omission and timing failures of processes *outside* the quorum
//! never need to be masked.
//!
//! The crate provides the paper's two algorithms as sans-io state machines
//! plus the module composition of Figure 1:
//!
//! * [`QuorumSelection`] — Algorithm 1. Suspicions from the local failure
//!   detector are stamped into an eventually-consistent
//!   [`SuspectMatrix`] and propagated in signed `UPDATE` messages; a quorum
//!   is the lexicographically first independent set of size `q = n − f` in
//!   the epoch's suspect graph. Faulty processes can force at most `O(f²)`
//!   quorum changes once the detector is accurate (Theorem 3) — and no
//!   deterministic algorithm can do better (Theorem 4).
//! * [`FollowerSelection`] — Algorithm 2, for leader-centric applications.
//!   Weakens *no suspicion* to *no leader suspicion* and needs only
//!   `3f + 1` quorum changes per epoch (Theorem 9), `6f + 2` in total
//!   after stabilization (Corollary 10).
//! * [`node::SelectorNode`] — the Figure 1 composition (failure detector +
//!   selection module + heartbeat application) ready to run under
//!   `qsel-simnet`.
//!
//! # Quickstart
//!
//! ```
//! use qsel::{QsOutput, QuorumSelection};
//! use qsel_types::crypto::Keychain;
//! use qsel_types::{ClusterConfig, ProcessId, ProcessSet};
//!
//! // A 5-process cluster tolerating 2 faults (q = 3).
//! let cfg = ClusterConfig::new(5, 2).unwrap();
//! let chain = Keychain::new(&cfg, 42);
//! let mut qs = QuorumSelection::new(
//!     cfg,
//!     ProcessId(1),
//!     chain.signer(ProcessId(1)),
//!     chain.verifier(),
//! );
//!
//! // The failure detector reports p2 as suspected:
//! let mut s = ProcessSet::new();
//! s.insert(ProcessId(2));
//! for out in qs.on_suspected(s) {
//!     if let QsOutput::Quorum(q) = out {
//!         assert!(!q.contains(ProcessId(2)));
//!     }
//! }
//! ```

#![warn(missing_docs)]
// S2: protocol code returns typed errors instead of panicking. A
// deliberate panic carries `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod follower_selection;
mod matrix;
pub mod messages;
pub mod node;
mod propagation;
mod quorum_selection;
mod stats;

pub use follower_selection::{FollowerSelection, FsOutput};
pub use matrix::SuspectMatrix;
pub use quorum_selection::{QsOutput, QuorumSelection};
pub use stats::SelectionStats;
