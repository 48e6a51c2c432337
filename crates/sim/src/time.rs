//! Simulation clock.

use core::cmp::Ordering;
use core::ops::{Add, AddAssign, Sub};

/// A point on the simulation timeline, in seconds from the simulation
/// origin.
///
/// Stored as `f64` (sub-microsecond precision over multi-month campaigns)
/// with **total ordering** so it can key a binary heap: `NaN` is
/// considered greater than everything, but library code never produces it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time guaranteed to be after every event (used as a "run to
    /// exhaustion" horizon).
    pub const FAR_FUTURE: SimTime = SimTime(f64::MAX);

    /// From seconds since the origin.
    #[inline]
    pub const fn from_secs(secs: f64) -> SimTime {
        SimTime(secs)
    }

    /// From minutes since the origin.
    #[inline]
    pub fn from_mins(mins: f64) -> SimTime {
        SimTime(mins * 60.0)
    }

    /// From hours since the origin.
    #[inline]
    pub fn from_hours(hours: f64) -> SimTime {
        SimTime(hours * 3_600.0)
    }

    /// From days since the origin.
    #[inline]
    pub fn from_days(days: f64) -> SimTime {
        SimTime(days * 86_400.0)
    }

    /// Seconds since the origin.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Minutes since the origin.
    #[inline]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Hours since the origin.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / 3_600.0
    }
}

impl PartialEq for SimTime {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    /// Shift by seconds.
    #[inline]
    fn add(self, secs: f64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        self.0 += secs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    /// Difference in seconds.
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        let t = SimTime::from_days(2.0);
        assert_eq!(t.as_hours(), 48.0);
        assert_eq!(t.as_mins(), 2880.0);
        assert_eq!(t.as_secs(), 172_800.0);
        assert_eq!(SimTime::from_mins(1.5).as_secs(), 90.0);
        assert_eq!(SimTime::from_hours(0.5).as_mins(), 30.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(a <= a);
        assert_eq!(a, SimTime::from_secs(1.0));
        assert!(SimTime::ZERO < SimTime::FAR_FUTURE);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + 5.0;
        assert_eq!(t.as_secs(), 15.0);
        let mut m = t;
        m += 5.0;
        assert_eq!(m - t, 5.0);
    }
}
