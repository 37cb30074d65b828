//! Adversary strategies and measurement harnesses for Quorum Selection.
//!
//! The paper's evaluation is a set of bounds on how often faulty processes
//! can interrupt the system once the failure detector is accurate:
//!
//! * **Theorem 3** — Algorithm 1 issues at most `f(f+1)` quorums per epoch.
//! * below Theorem 3 — "Our simulations suggest that Algorithm 1 actually
//!   allows at most `C(f+2, 2)` quorums in one epoch."
//! * **Theorem 4** — no deterministic algorithm can avoid `C(f+2, 2)`
//!   proposed quorums.
//! * **Theorem 9 / Corollary 10** — Follower Selection needs at most
//!   `3f + 1` quorums per epoch, `6f + 2` after stabilization.
//!
//! This crate makes those bounds executable:
//!
//! * [`game`] — the abstract single-epoch interruption game of Theorem 4:
//!   an adversary causes suspicions inside the current quorum, constrained
//!   to be *explainable* by `f` faulty processes (the suspicion pairs must
//!   admit a vertex cover of size ≤ f). Includes an exact
//!   dynamic-programming search for the optimal adversary and a greedy
//!   strategy for larger `f`, plus the XPaxos round-robin enumeration
//!   baseline.
//! * [`cluster`] — in-memory clusters of *real* `QuorumSelection` /
//!   `FollowerSelection` modules with instant reliable propagation, which
//!   the adversary drives by puppeteering the faulty processes' failure
//!   detectors and signing keys.
//! * [`byzantine`] — network-level Byzantine actors for `qsel-simnet`
//!   runs: mute processes, false accusers, and selectively-omitting or
//!   delaying variants of the honest node.
//! * [`registry`] — the by-name strategy registry the declarative
//!   scenario layer (`qsel-scenario`) resolves adversary configuration
//!   through.

#![warn(missing_docs)]

pub mod byzantine;
pub mod cluster;
pub mod game;
pub mod registry;
