//! S1 fixture: a signed payload changed in place.
//! rejected-by: clippy::disallowed_fields Signed::payload
use qsel_types::Signed;

pub fn bump(signed: &mut Signed<(u64, u64)>) {
    signed.payload.0 = 9;
}
