//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in abstract microseconds since simulation
/// start.
///
/// # Example
///
/// ```
/// use qsel_simnet::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::millis(2);
/// assert_eq!(t.as_micros(), 2_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// The instant as microseconds since start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards");
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}µs", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

/// A span of simulated time.
///
/// # Example
///
/// ```
/// use qsel_simnet::SimDuration;
/// assert_eq!(SimDuration::millis(1), SimDuration::micros(1000));
/// assert_eq!(SimDuration::micros(1500).as_micros(), 1500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Constructs from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Constructs from seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating multiplication by an integer factor (used by adaptive
    /// timeout back-off).
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let t2 = t + SimDuration::micros(5);
        assert_eq!(t2.as_micros(), 15);
        assert_eq!(t2 - t, SimDuration::micros(5));
        assert_eq!((t2 - t) + SimDuration::micros(1), SimDuration::micros(6));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::millis(3).as_micros(), 3_000);
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(
            SimDuration::micros(u64::MAX).saturating_mul(2).as_micros(),
            u64::MAX
        );
        assert_eq!(SimDuration::micros(10).saturating_mul(3).as_micros(), 30);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_backwards() {
        let _ = SimTime::from_micros(1).since(SimTime::from_micros(2));
    }
}
