//! Cryptographic primitives for the simulation.
//!
//! The paper's system model assumes "cryptographic primitives cannot be
//! broken". This module provides:
//!
//! * [`sha256`] — a from-scratch SHA-256 used for message digests (XPaxos
//!   COMMIT messages carry request hashes, Section V-A).
//! * [`Keychain`] / [`Signer`] / [`Signed`] / [`Verified`] — a simulated
//!   signature scheme whose payloads are read only once verified.
//!
//! # Signature model
//!
//! Signatures are MAC-like tags: `tag = SHA-256(key_i ‖ sign form of the
//! payload)`, where `key_i` is one 64-byte block per process derived from a
//! cluster seed. [`Keychain::new`] compresses each key block once and keeps
//! only the resulting midstate, so a tag hashes the sign form alone. The
//! sign form ([`Encode::sign_form`](crate::encode::Encode::sign_form)) is
//! the wire encoding, except that a value holding a digest of its own
//! content may stand in for it by that digest: XPaxos signs a batch as its
//! digest, so a COMMIT's tag never re-hashes the requests of the PREPARE it
//! embeds.
//!
//! The unbreakability assumption is enforced *by construction*: a process
//! (or the Byzantine adversary playing a set of faulty processes) can only
//! obtain [`Signer`] handles for the processes it was explicitly given at
//! setup, so it can never produce a tag that verifies for a correct
//! process's identity. Byzantine processes retain the misbehaviours the
//! paper's protocols must handle — equivocation (signing two conflicting
//! payloads) and malformed-but-authenticated messages — because signing any
//! payload of their own choosing is allowed.

mod sha256;
mod sign;

pub use sha256::{sha256, Digest, Sha256};
pub use sign::{Keychain, SigTag, Signed, Signer, Verified, Verifier, VerifyError};
