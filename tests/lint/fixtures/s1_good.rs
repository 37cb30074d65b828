//! S1 fixture (clean): the payload is read through `verify`'s return
//! value. Building a `Signed` from its parts, as a Byzantine process
//! does to forge one, is no read.
use qsel_types::crypto::{SigTag, Verifier};
use qsel_types::{ProcessId, Signed};

pub fn slot_of(keys: &Verifier, signed: &Signed<(u64, u64)>) -> Option<u64> {
    Some(keys.verify(signed).ok()?.0)
}

pub fn forge(signer: ProcessId, tag: SigTag) -> Signed<(u64, u64)> {
    Signed {
        payload: (7, 7),
        signer,
        tag,
    }
}
