//! Shared vocabulary types for the Quorum Selection reproduction.
//!
//! This crate contains the types every other crate in the workspace speaks:
//!
//! * [`ProcessId`] — a process `p_i` from the paper's `Π = {p_1, …, p_n}`.
//! * [`ClusterConfig`] — the `(n, f, q)` triple with the paper's `n = f + q`
//!   invariant.
//! * [`Epoch`] — the epoch counter used by Algorithm 1 and Algorithm 2.
//! * [`Quorum`] / [`LeaderQuorum`] — outputs of the quorum-selection and
//!   follower-selection modules.
//! * [`crypto`] — a from-scratch SHA-256 and a *simulated* unforgeable
//!   signature scheme (the paper assumes "cryptographic primitives cannot be
//!   broken"; the simulation enforces that assumption by construction while
//!   still allowing Byzantine processes to equivocate).
//! * [`encode`] — a small deterministic binary encoding used as the input to
//!   signatures, so that equivocation (two different signed payloads for the
//!   same slot) is well defined.
//! * [`thresholds`] — the single home of quorum-threshold arithmetic
//!   (`f + 1`, `n − f`, …); the P2 lint rejects raw threshold math
//!   anywhere else.
//!
//! # Example
//!
//! ```
//! use qsel_types::{ClusterConfig, ProcessId, Quorum};
//!
//! let cfg = ClusterConfig::new(5, 2).unwrap(); // n = 5, f = 2, q = 3
//! assert_eq!(cfg.quorum_size(), 3);
//! let q = Quorum::of(&cfg, [ProcessId(1), ProcessId(2), ProcessId(3)]).unwrap();
//! assert!(q.contains(ProcessId(2)));
//! ```

#![warn(missing_docs)]

mod checkpoint;
pub mod crypto;
pub mod encode;
mod epoch;
mod error;
mod id;
mod quorum;
pub mod thresholds;

pub use checkpoint::CheckpointPayload;
pub use crypto::Signed;
pub use epoch::Epoch;
pub use error::{ConfigError, QuorumError};
pub use id::{ClusterConfig, ProcessId, ProcessSet};
pub use quorum::{LeaderQuorum, Quorum};
