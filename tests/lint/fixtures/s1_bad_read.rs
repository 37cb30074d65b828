//! S1 fixture: a signed payload's field read without verification.
//! rejected-by: clippy::disallowed_fields Signed::payload
use qsel_types::Signed;

pub fn slot_of(signed: &Signed<(u64, u64)>) -> u64 {
    signed.payload.0
}
