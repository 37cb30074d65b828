//! S1 fixture: a signed payload taken apart by a pattern, unverified.
//! rejected-by: clippy::disallowed_fields Signed::payload
use qsel_types::Signed;

pub fn slot_of(signed: Signed<(u64, u64)>) -> u64 {
    let Signed { payload, .. } = signed;
    payload.0
}
