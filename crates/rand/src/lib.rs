//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace ships the
//! small random-number surface it actually uses: a deterministic, seedable
//! [`rngs::StdRng`] plus the [`Rng`] / [`RngExt`] / [`SeedableRng`] traits.
//! Determinism is the point — the discrete-event simulator derives whole
//! executions from `(seed, plan)`, so the generator must be stable across
//! runs and platforms. The implementation is xoshiro256++ seeded through
//! SplitMix64, the same construction the real `rand::rngs::SmallRng` family
//! uses; statistical quality is far beyond what fault sampling needs.
//!
//! Not implemented (unused by this workspace): distributions, OS entropy,
//! thread-local RNGs, byte-filling.

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// An RNG that can be constructed deterministically from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire output stream is a pure function of
    /// `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// Samples a value of type `T` from the uniform "standard" distribution
    /// (`f64`/`f32` in `[0, 1)`, integers over their full range, fair
    /// `bool`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`. Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types samplable by [`RngExt::random`].
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u16 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable by [`RngExt::random_range`].
pub trait SampleRange<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` by widening multiply; bias is < 2^-64 per
/// draw, irrelevant for fault sampling and much faster than rejection.
fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator seeded via SplitMix64.
    ///
    /// Unlike the real crate's ChaCha-based `StdRng` this is not
    /// cryptographic, but every consumer in this workspace only needs
    /// reproducible simulation randomness.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, per Vigna's reference seeding scheme.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.random_range(3u64..=7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
        }
        assert!(seen_lo && seen_hi, "inclusive bounds never sampled");
    }

    #[test]
    fn works_through_unsized_bound() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.random_range(0u64..10)
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(draw(&mut rng) < 10);
        }
    }

    #[test]
    fn u32_range_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[rng.random_range(0u32..4) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }
}
