//! Virtual time for the simulator.
//!
//! All framework code runs on [`SimTime`] — virtual nanoseconds since the
//! start of a simulation. Library code never reads the wall clock, which
//! makes every experiment reproducible bit-for-bit.

use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(1500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_millis(), 1500);
        let t2 = t + Duration::from_millis(500);
        assert_eq!(t2, SimTime::from_secs(2));
        assert_eq!(t2 - t, Duration::from_millis(500));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert_eq!(SimTime::from_millis(1250).to_string(), "1.250s");
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(b.saturating_since(a), Duration::from_secs(2));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut t = SimTime::from_secs(1);
        t += Duration::from_micros(1500);
        assert_eq!(t, SimTime::from_secs(1) + Duration::from_micros(1500));
        assert_eq!(t.as_nanos(), 1_001_500_000);
    }

    #[test]
    fn unit_conversions_truncate_toward_the_epoch() {
        assert_eq!(SimTime::from_nanos(1_999_999).as_millis(), 1);
        assert_eq!(SimTime::from_nanos(999_999).as_millis(), 0);
        assert_eq!(SimTime::from_millis(2500).as_secs_f64(), 2.5);
        assert_eq!(SimTime::ZERO.to_string(), "0.000s");
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
