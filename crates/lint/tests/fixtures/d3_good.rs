//! D3 fixture (clean): randomness flows from a seeded generator.
use rand::{RngCore, SeedableRng};

pub fn roll(seed: u64) -> u64 {
    rand::rngs::StdRng::seed_from_u64(seed).next_u64()
}
