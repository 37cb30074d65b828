//! A PBFT-style all-to-all broadcast SMR baseline.
//!
//! The paper's introduction motivates Quorum Selection with the message
//! savings of running on an active quorum: "Systems like PBFT … use
//! `n = 3f+1` replicas, broadcast messages to all replicas but require
//! replies from only `n − f` correct replicas. … If a quorum or subset of
//! processes containing `n − f` correct processes can be selected, these
//! systems can drop approximately 1/3 … of the inter-replica messages."
//!
//! This crate implements the normal-case PBFT message pattern
//! (PRE-PREPARE → PREPARE → COMMIT, all-to-all over *all* `n` replicas) so
//! experiment E8 can count its per-request inter-replica messages and
//! compare them with the XPaxos active-quorum pattern. Two participation
//! modes make the comparison direct:
//!
//! * [`Participation::All`] — classic PBFT: every replica participates.
//! * [`Participation::ActiveQuorum`] — the Distler-style optimization the
//!   paper cites: only `n − f` replicas exchange agreement messages (the
//!   rest are passive), preserving the quorum sizes.
//!
//! View changes are out of scope for the baseline (the experiment counts
//! fault-free normal-case traffic); the replica set and primary are fixed.

#![warn(missing_docs)]
// S2: protocol code returns typed errors instead of panicking. A
// deliberate panic carries `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod replica;

pub use replica::{
    run_workload, Participation, PbftClient, PbftMsg, PbftNode, PbftReplica, WorkloadReport,
};
