//! Deterministic case runner and configuration.

/// Configuration accepted by `#![proptest_config(...)]`.
///
/// Only the knobs this workspace uses are present; both support struct
/// update syntax from [`ProptestConfig::default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum total `prop_assume!` rejections before the test aborts.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 1024,
        }
    }
}

impl ProptestConfig {
    /// A default configuration with `cases` overridden.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Why a test case did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case's assumptions were not met; retry with fresh inputs.
    Reject(String),
    /// An assertion failed; the whole test fails.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure, mirroring real proptest's lowercase helper.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// Constructs a rejection, mirroring real proptest's lowercase helper.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

/// Deterministic generator driving strategy sampling (SplitMix64).
///
/// Every case's inputs are a pure function of `(test name, case index)`, so
/// failures reproduce exactly by re-running the same test binary.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds a generator from a seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, span)`; `span` must be non-zero.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform draw from `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }
}

/// FNV-1a hash used to derive a per-test base seed from its name.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Executes `case` until `config.cases` successes, with reject accounting.
///
/// Called by the expansion of `proptest!`; not intended for direct use.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut seeder = TestRng::from_seed(fnv1a(name));
    let mut cases_run = 0u32;
    let mut rejects = 0u32;
    while cases_run < config.cases {
        let case_seed = seeder.next_u64();
        let mut rng = TestRng::from_seed(case_seed);
        match case(&mut rng) {
            Ok(()) => cases_run += 1,
            Err(TestCaseError::Reject(reason)) => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "proptest '{name}': exceeded {} global rejects ({reason})",
                        config.max_global_rejects
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest '{name}' failed on case {} (case seed {case_seed:#018x}):\n{msg}",
                    cases_run + 1
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_seed(5);
        let mut b = TestRng::from_seed(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut rng = TestRng::from_seed(1);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1_000 {
            let v = rng.range_inclusive(2, 4);
            assert!((2..=4).contains(&v));
            lo_seen |= v == 2;
            hi_seen |= v == 4;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn run_cases_counts_successes() {
        let mut calls = 0u32;
        run_cases(&ProptestConfig::with_cases(10), "t", |_| {
            calls += 1;
            Ok(())
        });
        assert_eq!(calls, 10);
    }

    #[test]
    fn run_cases_retries_rejects() {
        let mut calls = 0u32;
        run_cases(&ProptestConfig::with_cases(3), "t", |_| {
            calls += 1;
            if calls.is_multiple_of(2) {
                Err(TestCaseError::reject("odd only"))
            } else {
                Ok(())
            }
        });
        assert!(calls > 3);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn run_cases_aborts_on_reject_storm() {
        let cfg = ProptestConfig {
            cases: 1,
            max_global_rejects: 4,
        };
        run_cases(&cfg, "t", |_| Err(TestCaseError::reject("always")));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn run_cases_panics_on_failure() {
        run_cases(&ProptestConfig::with_cases(5), "t", |_| {
            Err(TestCaseError::Fail("boom".into()))
        });
    }
}
