//! Virtual time.
//!
//! All simulation time is kept in nanoseconds inside a [`SimTime`], which
//! doubles as a duration type (the distinction buys nothing here and the
//! arithmetic stays saturating so cost-model experiments cannot panic).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant, used as an "infinite" timeout.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Returns the value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds as a float, the unit the paper's
    /// Table 4 reports.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value in milliseconds as a float, the unit the paper's
    /// Tables 2 and 3 report latency in.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_micros(51).as_nanos(), 51_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_millis_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(5), SimTime::ZERO);
        assert_eq!(SimTime::MAX + SimTime::from_nanos(5), SimTime::MAX);
        assert_eq!(SimTime::MAX * 2, SimTime::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(51)), "51.000us");
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_micros).sum();
        assert_eq!(total, SimTime::from_micros(10));
    }
}
