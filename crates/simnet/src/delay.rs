//! Link delay models.

use rand::{Rng, RngExt};

use crate::time::{SimDuration, SimTime};

/// How long a message takes on a link.
///
/// The paper's system model is asynchronous with an eventually-synchronous
/// strengthening for failure-detector accuracy. [`DelayModel::UntilGst`]
/// models exactly that: arbitrary (bounded only by `before_max`) delays
/// before the global stabilization time, and delays within
/// `[after_min, after_max]` from GST on.
///
/// # Example
///
/// ```
/// use qsel_simnet::{DelayModel, SimDuration};
/// let d = DelayModel::uniform(SimDuration::micros(100), SimDuration::micros(200));
/// assert_eq!(d.max_after_gst(), SimDuration::micros(200));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Delays drawn uniformly from `[min, max]`.
    Uniform {
        /// Minimum delay.
        min: SimDuration,
        /// Maximum delay.
        max: SimDuration,
    },
    /// Eventually synchronous: uniform in `[before_min, before_max]` before
    /// `gst`, uniform in `[after_min, after_max]` afterwards.
    UntilGst {
        /// Minimum delay before GST.
        before_min: SimDuration,
        /// Maximum delay before GST.
        before_max: SimDuration,
        /// Minimum delay after GST.
        after_min: SimDuration,
        /// Maximum delay after GST.
        after_max: SimDuration,
        /// The global stabilization time.
        gst: SimTime,
    },
}

impl DelayModel {
    /// Convenience constructor for [`DelayModel::Uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "uniform delay requires min <= max");
        DelayModel::Uniform { min, max }
    }

    /// Convenience constructor for [`DelayModel::UntilGst`] with a chaotic
    /// pre-GST period of `[0, before_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `after_min > after_max`.
    pub fn eventually_synchronous(
        before_max: SimDuration,
        after_min: SimDuration,
        after_max: SimDuration,
        gst: SimTime,
    ) -> Self {
        assert!(after_min <= after_max, "delay bounds inverted");
        DelayModel::UntilGst {
            before_min: SimDuration::ZERO,
            before_max,
            after_min,
            after_max,
            gst,
        }
    }

    /// Samples a delay for a message sent at `now`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => sample_range(rng, min, max),
            DelayModel::UntilGst {
                before_min,
                before_max,
                after_min,
                after_max,
                gst,
            } => {
                if now < gst {
                    sample_range(rng, before_min, before_max)
                } else {
                    sample_range(rng, after_min, after_max)
                }
            }
        }
    }

    /// The worst-case delay once the network is stable (after GST). One
    /// "communication round" of the paper is bounded by this value.
    pub fn max_after_gst(&self) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { max, .. } => max,
            DelayModel::UntilGst { after_max, .. } => after_max,
        }
    }
}

impl Default for DelayModel {
    /// A modest LAN-like default: uniform 50–150µs.
    fn default() -> Self {
        DelayModel::uniform(SimDuration::micros(50), SimDuration::micros(150))
    }
}

fn sample_range<R: Rng + ?Sized>(rng: &mut R, min: SimDuration, max: SimDuration) -> SimDuration {
    if min == max {
        min
    } else {
        SimDuration::micros(rng.random_range(min.as_micros()..=max.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = DelayModel::Constant(SimDuration::micros(42));
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng, SimTime::ZERO).as_micros(), 42);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = DelayModel::uniform(SimDuration::micros(10), SimDuration::micros(20));
        for _ in 0..100 {
            let s = d.sample(&mut rng, SimTime::ZERO).as_micros();
            assert!((10..=20).contains(&s), "{s}");
        }
    }

    #[test]
    fn gst_switches_regime() {
        let mut rng = StdRng::seed_from_u64(2);
        let gst = SimTime::from_micros(1_000);
        let d = DelayModel::eventually_synchronous(
            SimDuration::micros(10_000),
            SimDuration::micros(1),
            SimDuration::micros(5),
            gst,
        );
        // After GST, all samples in [1, 5].
        for _ in 0..100 {
            let s = d.sample(&mut rng, gst).as_micros();
            assert!((1..=5).contains(&s), "{s}");
        }
        assert_eq!(d.max_after_gst().as_micros(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = DelayModel::default();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20)
                .map(|_| d.sample(&mut rng, SimTime::ZERO).as_micros())
                .collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20)
                .map(|_| d.sample(&mut rng, SimTime::ZERO).as_micros())
                .collect()
        };
        assert_eq!(a, b);
    }
}
