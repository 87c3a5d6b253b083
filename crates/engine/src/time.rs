//! Virtual event time: a totally ordered wrapper over simulated seconds.
//!
//! The calendar needs a key type with a *total* order — `f64`'s partial
//! order would make tie-breaking (and therefore cross-thread determinism)
//! depend on NaN handling at every comparison site. [`EventTime`] admits
//! only finite, non-negative instants and compares with `total_cmp`
//! (which coincides with numeric order on that domain). The underlying
//! `f64` seconds are preserved exactly: event times produced by bisection
//! at 1e-7 s tolerance must not be quantized, or downstream arithmetic
//! would differ in the low-order bits.

use dcb_units::{contract, Seconds};
use std::cmp::Ordering;

/// An instant of virtual time, in simulated seconds.
///
/// Construction checks (under contracts) that the instant is finite and
/// non-negative, the domain on which `total_cmp` equals numeric order.
#[derive(Debug, Clone, Copy)]
pub struct EventTime(Seconds);

impl EventTime {
    /// Wraps a simulated-seconds instant.
    #[must_use]
    pub fn new(at: Seconds) -> Self {
        contract!(
            at.is_finite() && at.value() >= 0.0,
            "event time must be finite and non-negative, got {at}"
        );
        EventTime(at)
    }

    /// The instant in simulated seconds, bit-exact as constructed.
    #[must_use]
    pub fn seconds(self) -> Seconds {
        self.0
    }
}

impl PartialEq for EventTime {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EventTime {}

impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.value().total_cmp(&other.0.value())
    }
}

impl std::fmt::Display for EventTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_numerically() {
        let a = EventTime::new(Seconds::new(1.0));
        let b = EventTime::new(Seconds::new(2.0));
        assert!(a < b);
        assert_eq!(a, EventTime::new(Seconds::new(1.0)));
    }

    #[test]
    fn seconds_round_trip_bit_exact() {
        let t = 37.250000001_f64;
        assert_eq!(
            EventTime::new(Seconds::new(t)).seconds().value().to_bits(),
            t.to_bits()
        );
    }
}
