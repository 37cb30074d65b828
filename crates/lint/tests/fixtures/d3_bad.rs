//! D3 fixture: ambient randomness, in each of its three spellings.
//! rejected-by: clippy::disallowed_methods rand::thread_rng
//! rejected-by: clippy::disallowed_methods rand::SeedableRng::from_entropy
//! rejected-by: clippy::disallowed_types rand::rngs::OsRng
use rand::rngs::OsRng;
use rand::{RngCore, SeedableRng};

pub fn roll() -> u64 {
    rand::thread_rng().next_u64()
}

pub fn fresh() -> rand::rngs::StdRng {
    rand::rngs::StdRng::from_entropy()
}

pub fn os() -> u64 {
    OsRng.next_u64()
}
