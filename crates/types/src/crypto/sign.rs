//! Simulated unforgeable signatures.
//!
//! See the [module documentation](crate::crypto) for the threat model.
#![expect(
    clippy::disallowed_fields,
    reason = "S1: the defining module: the derived impls, the encoding, the check itself and `Verified::payload`"
)]

use std::error::Error;
use std::fmt;

use crate::encode::{with_sign_form, Decode, DecodeError, Encode, Reader};
use crate::id::{ClusterConfig, ProcessId};

use super::sha256::{Digest, Midstate};

/// A signature tag over a payload's [sign form](Encode::sign_form).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigTag(Digest);

impl fmt::Debug for SigTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigTag({}…)", self.0.short())
    }
}

impl Encode for SigTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for SigTag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SigTag(Digest::decode(r)?))
    }
}

/// A payload together with the identity of its signer and a signature tag.
///
/// Built by [`Signer::sign`], checked by [`Verifier::verify`]. The fields
/// stay public so a Byzantine process can assemble any message it likes,
/// but clippy's `disallowed-fields` bans reading `payload` outside this
/// module (S1, verify before use): a correct process reads a payload
/// through `verify`'s return value or a [`Verified`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// The claimed signer.
    pub signer: ProcessId,
    /// The signature tag.
    pub tag: SigTag,
}

impl<T: Encode> Encode for Signed<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payload.encode(buf);
        self.signer.encode(buf);
        self.tag.encode(buf);
    }

    fn sign_form(&self, buf: &mut Vec<u8>) {
        self.payload.sign_form(buf);
        self.signer.encode(buf);
        self.tag.encode(buf);
    }
}

impl<T: Decode> Decode for Signed<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signed {
            payload: T::decode(r)?,
            signer: ProcessId::decode(r)?,
            tag: SigTag::decode(r)?,
        })
    }
}

/// A signed payload whose signature this process checked, or that it
/// signed itself.
///
/// Only [`Verifier`] and [`Signer`] build one, so holding a `Verified<T>`
/// is proof that the check ran; it has the layout of the [`Signed<T>`] it
/// wraps, and [`Verified::signed`] hands that back for the wire.
///
/// ```compile_fail
/// use qsel_types::crypto::{Signed, Verified};
///
/// fn forge<T>(signed: Signed<T>) -> Verified<T> {
///     Verified(signed)
/// }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verified<T>(Signed<T>);

impl<T> Verified<T> {
    /// The verified payload.
    pub fn payload(&self) -> &T {
        &self.0.payload
    }

    /// The process whose signature verified.
    pub fn signer(&self) -> ProcessId {
        self.0.signer
    }

    /// The signed message, as it travels on the wire.
    pub fn signed(&self) -> &Signed<T> {
        &self.0
    }

    /// Unwraps the signed message, e.g. to send or store it.
    pub fn into_signed(self) -> Signed<T> {
        self.0
    }

    /// Unwraps the verified payload.
    pub fn into_payload(self) -> T {
        self.0.payload
    }
}

/// Central key material for a cluster, derived from a seed.
///
/// Create one keychain per simulated cluster, hand each process (and the
/// adversary, for the faulty processes it plays) its [`Signer`], and share
/// the [`Verifier`] freely.
///
/// # Example
///
/// ```
/// use qsel_types::crypto::Keychain;
/// use qsel_types::{ClusterConfig, ProcessId};
///
/// let cfg = ClusterConfig::new(3, 1).unwrap();
/// let chain = Keychain::new(&cfg, 42);
/// let signer = chain.signer(ProcessId(1));
/// let verifier = chain.verifier();
/// let signed = signer.sign(7u32);
/// assert!(verifier.verify(&signed).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Keychain {
    keys: Vec<Midstate>,
}

/// Process `id`'s secret key block under `seed`: the first block of every
/// tag it makes.
fn key_block(seed: u64, id: ProcessId) -> [u8; 64] {
    let mut block = [0; 64];
    block[..13].copy_from_slice(b"qsel-keychain");
    block[13..21].copy_from_slice(&seed.to_le_bytes());
    block[21..25].copy_from_slice(&id.0.to_le_bytes());
    block
}

/// `SHA-256(key block ‖ sign form of payload)`, resumed from the key
/// block's midstate.
fn tag(key: &Midstate, payload: &(impl Encode + ?Sized)) -> SigTag {
    let mut h = key.resume();
    with_sign_form(payload, |bytes| h.update(bytes));
    SigTag(h.finalize())
}

impl Keychain {
    /// Derives per-process keys for every process of `cfg` from `seed`,
    /// one compression each.
    pub fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        let keys = cfg
            .processes()
            .map(|p| Midstate::of(&key_block(seed, p)))
            .collect();
        Keychain { keys }
    }

    /// The signing handle for `id`.
    ///
    /// Handing a [`Signer`] to a component grants it the ability to
    /// authenticate as `id` — give the adversary only the signers of the
    /// faulty processes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of the cluster the keychain was
    /// created for.
    pub fn signer(&self, id: ProcessId) -> Signer {
        Signer {
            id,
            key: self.keys[id.index()],
        }
    }

    /// A verifier for all processes' signatures.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            keys: self.keys.clone(),
        }
    }
}

/// Capability to sign payloads as one specific process.
#[derive(Clone, Debug)]
pub struct Signer {
    id: ProcessId,
    key: Midstate,
}

impl Signer {
    /// The identity this signer authenticates as.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `payload`.
    pub fn sign<T: Encode>(&self, payload: T) -> Signed<T> {
        Signed {
            tag: tag(&self.key, &payload),
            payload,
            signer: self.id,
        }
    }

    /// Signs `payload` and keeps it as verified: what this process
    /// signed needs no check before it acts on it.
    pub fn seal<T: Encode>(&self, payload: T) -> Verified<T> {
        Verified(self.sign(payload))
    }
}

/// Verifies signatures of any cluster process.
#[derive(Clone, Debug)]
pub struct Verifier {
    keys: Vec<Midstate>,
}

impl Verifier {
    /// Checks that `signed.tag` is a valid signature by `signed.signer` over
    /// `signed.payload`, and returns the payload if it is: the one way to
    /// read a payload that arrived from someone else.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::UnknownSigner`] for out-of-cluster ids and
    /// [`VerifyError::BadSignature`] for tag mismatches.
    pub fn verify<'a, T: Encode>(&self, signed: &'a Signed<T>) -> Result<&'a T, VerifyError> {
        // Ids are 1-based: `p0`, like an id past the cluster, has no key.
        let key = (signed.signer.0.checked_sub(1))
            .and_then(|i| self.keys.get(i as usize))
            .ok_or(VerifyError::UnknownSigner(signed.signer))?;
        if tag(key, &signed.payload) == signed.tag {
            Ok(&signed.payload)
        } else {
            Err(VerifyError::BadSignature(signed.signer))
        }
    }

    /// [`Verifier::verify`] for an owned message, kept as a [`Verified`].
    ///
    /// # Errors
    ///
    /// As [`Verifier::verify`]; the message is dropped.
    pub fn check<T: Encode>(&self, signed: Signed<T>) -> Result<Verified<T>, VerifyError> {
        self.verify(&signed)?;
        Ok(Verified(signed))
    }

    /// [`Verifier::check`], without recomputing the tag when `signed` is
    /// identical (signer, tag and every payload byte) to `earlier`, a
    /// message this process already checked or signed.
    ///
    /// # Errors
    ///
    /// As [`Verifier::verify`]; the message is dropped.
    pub fn check_once<T: Encode + PartialEq>(
        &self,
        signed: Signed<T>,
        earlier: Option<&Signed<T>>,
    ) -> Result<Verified<T>, VerifyError> {
        if earlier == Some(&signed) {
            return Ok(Verified(signed));
        }
        self.check(signed)
    }
}

/// Signature verification failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The claimed signer is not a cluster process.
    UnknownSigner(ProcessId),
    /// The tag does not verify for the claimed signer and payload.
    BadSignature(ProcessId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownSigner(p) => write!(f, "unknown signer {p}"),
            VerifyError::BadSignature(p) => write!(f, "signature does not verify for {p}"),
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Keychain, Verifier) {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let chain = Keychain::new(&cfg, 1);
        let v = chain.verifier();
        (chain, v)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (chain, v) = setup();
        let s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        assert_eq!(s.signer, ProcessId(3));
        assert!(v.verify(&s).is_ok());
    }

    #[test]
    fn tampered_payload_fails() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        s.payload[0] = 9;
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(3))));
    }

    #[test]
    fn claimed_identity_must_match() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(7u64);
        s.signer = ProcessId(2); // impersonation attempt
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(2))));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(1)).sign(7u64);
        s.signer = ProcessId(42);
        assert_eq!(v.verify(&s), Err(VerifyError::UnknownSigner(ProcessId(42))));
    }

    #[test]
    fn signer_zero_is_rejected_not_a_panic() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(1)).sign(7u64);
        s.signer = ProcessId(0);
        assert_eq!(v.verify(&s), Err(VerifyError::UnknownSigner(ProcessId(0))));
    }

    #[test]
    fn sealed_and_checked_messages_agree() {
        let (chain, v) = setup();
        let sealed = chain.signer(ProcessId(2)).seal(5u32);
        let checked = v.check(sealed.signed().clone()).unwrap();
        assert_eq!(sealed, checked);
        assert_eq!((*checked.payload(), checked.signer()), (5, ProcessId(2)));
    }

    #[test]
    fn check_once_trusts_only_an_identical_earlier_message() {
        let (chain, v) = setup();
        let earlier = chain.signer(ProcessId(3)).sign(7u64);
        let same = v.check_once(earlier.clone(), Some(&earlier));
        assert_eq!(same.map(|m| *m.payload()), Ok(7));
        let mut forged = earlier.clone();
        forged.payload = 8;
        let bad = Err(VerifyError::BadSignature(ProcessId(3)));
        assert_eq!(v.check_once(forged.clone(), Some(&earlier)), bad);
        assert_eq!(v.check_once(forged, None), bad);
    }

    #[test]
    fn different_seeds_give_different_tags() {
        let cfg = ClusterConfig::new(3, 1).unwrap();
        let a = Keychain::new(&cfg, 1).signer(ProcessId(1)).sign(1u32);
        let b = Keychain::new(&cfg, 2).signer(ProcessId(1)).sign(1u32);
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn equivocation_is_possible_but_distinct() {
        // A Byzantine signer may sign two conflicting payloads; both verify,
        // and the two signed messages are distinguishable evidence.
        let (chain, v) = setup();
        let signer = chain.signer(ProcessId(2));
        let a = signer.sign(1u32);
        let b = signer.sign(2u32);
        assert!(v.verify(&a).is_ok());
        assert!(v.verify(&b).is_ok());
        assert_ne!(a.tag, b.tag);
    }
}
