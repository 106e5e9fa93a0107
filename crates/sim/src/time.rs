//! Virtual time: nanosecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time with nanosecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of microseconds.
    #[must_use]
    pub fn from_micros_f64(micros: f64) -> Self {
        SimDuration((micros.max(0.0) * 1_000.0).round() as u64)
    }

    /// The duration in whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration as fractional microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A point in virtual time, measured from the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch (time zero).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant at `nanos` nanoseconds from the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        assert!(earlier.0 <= self.0, "duration_since with a later instant");
        SimDuration(self.0 - earlier.0)
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(3);
        assert_eq!((a + b).as_micros(), 13);
        assert_eq!((a - b).as_micros(), 7);
        assert_eq!((a * 4).as_micros(), 40);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn instants() {
        let start = SimInstant::EPOCH;
        let later = start + SimDuration::from_micros(7);
        assert_eq!(later.duration_since(start).as_micros(), 7);
        assert!(later > start);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_when_reversed() {
        let start = SimInstant::EPOCH;
        let later = start + SimDuration::from_nanos(1);
        let _ = start.duration_since(later);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(23).to_string(), "23.00us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert!(SimInstant::EPOCH.to_string().starts_with("t+"));
    }
}
