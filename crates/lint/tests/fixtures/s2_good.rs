//! S2 fixture (clean): typed error instead of a panic. The failure
//! detector's four-argument `expect` is a method of its own, not
//! `Option::expect`, and clippy knows the difference by type.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

#[derive(Debug)]
pub enum Error {
    MissingOp,
}

pub fn committed_op(op: Option<u64>) -> Result<u64, Error> {
    op.ok_or(Error::MissingOp)
}

pub struct Detector;

impl Detector {
    pub fn expect(&mut self, now: u64, peer: u32, tag: &str, matcher: fn(&u64) -> bool) -> bool {
        matcher(&now) && peer > 0 && !tag.is_empty()
    }
}
