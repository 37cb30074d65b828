//! XPaxos-style state machine replication with Quorum Selection
//! (Section V of the paper).
//!
//! XPaxos runs normal operation on an **active quorum** of `q = n − f`
//! replicas only: the leader (lowest id in the quorum) sends `PREPARE`s,
//! members exchange `COMMIT`s, and a request is decided once every other
//! member's matching `COMMIT` arrived (Fig. 2). Replicas outside the
//! quorum receive no traffic at all — that is the message saving the
//! paper's introduction quantifies (~1/3 of inter-replica messages for
//! `n = 3f+1` systems, ~1/2 for `n = 2f+1`).
//!
//! The price is sensitivity to faults *inside* the quorum, and the paper's
//! point is how to pick the next quorum:
//!
//! * [`replica::QuorumPolicy::Enumeration`] — the original XPaxos rule:
//!   try all `C(n, f)` quorums round-robin. A single Byzantine member can
//!   force `C(n−1, q−1)` view changes before it drops out of the quorum.
//! * [`replica::QuorumPolicy::Selection`] — this paper: a
//!   [`qsel::QuorumSelection`] module aggregates failure-detector
//!   suspicions and the replica jumps straight to the selected quorum,
//!   bounding interruptions by `O(f²)`.
//!
//! Failure detection follows §V-A: expectations for `COMMIT`s are issued
//! when a `PREPARE` is sent or received, `COMMIT`s embed the leader's
//! `PREPARE` so malformed commits and equivocation are detectable, and a
//! `COMMIT` overtaking its `PREPARE` commits immediately while expecting
//! the `PREPARE` (Fig. 3).
//!
//! # Quickstart
//!
//! ```
//! use qsel_simnet::SimTime;
//! use qsel_types::ClusterConfig;
//! use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder};
//!
//! let cfg = ClusterConfig::new(4, 1).unwrap();
//! let mut sim = ClusterBuilder::new(cfg, 7).clients(1, 5).build();
//! sim.run_until(SimTime::from_micros(500_000));
//! assert_eq!(total_committed(&sim), 5);
//! assert_safety(&sim);
//! ```

#![warn(missing_docs)]
// S2: protocol code returns typed errors instead of panicking. A
// deliberate panic carries `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod client;
pub mod harness;
pub mod log;
pub mod messages;
pub mod policy;
pub mod replica;

pub use policy::{BatchPolicy, CheckpointPolicy, ViewPolicy};
pub use replica::{QuorumPolicy, Replica, ReplicaConfig, ReplicaStats};
