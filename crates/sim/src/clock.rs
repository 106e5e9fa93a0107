//! A shareable virtual clock.

use crate::time::{SimDuration, SimInstant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A virtual clock shared by all components of a simulation.
///
/// Cloning is cheap; clones observe and advance the same underlying time.
///
/// # Example
///
/// ```
/// use tnic_sim::clock::SimClock;
/// use tnic_sim::time::SimDuration;
///
/// let clock = SimClock::new();
/// let device_view = clock.clone();
/// clock.advance(SimDuration::from_micros(5));
/// assert_eq!(device_view.now().as_micros(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at the epoch.
    #[must_use]
    pub fn new() -> Self {
        SimClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Returns the current virtual time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    /// Advances the clock by `duration` and returns the new time.
    pub fn advance(&self, duration: SimDuration) -> SimInstant {
        let new = self.nanos.fetch_add(duration.as_nanos(), Ordering::SeqCst) + duration.as_nanos();
        SimInstant::from_nanos(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(SimClock::new().now(), SimInstant::EPOCH);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(SimDuration::from_micros(3));
        c.advance(SimDuration::from_micros(4));
        assert_eq!(c.now().as_micros(), 7);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        c2.advance(SimDuration::from_nanos(10));
        assert_eq!(c.now().as_nanos(), 10);
    }
}
