//! S2 fixture: panic path in protocol code.
//! rejected-by: clippy::unwrap_used unwrap
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub fn committed_op(op: Option<u64>) -> u64 {
    op.unwrap()
}
