//! The deterministic event calendar.
//!
//! Every scheduled occurrence is keyed by `(time, class, seq)` and the
//! earliest key fires first, compared lexicographically: time ascending,
//! then the caller-assigned *class* (a small priority ordinal mirroring
//! the order a fixed-step formulation would check the same conditions
//! within one step), then the posting sequence number. The sequence
//! number is assigned by the calendar in posting order, so dead-even ties
//! resolve to whichever event was posted first — a pure function of
//! program order, never of thread scheduling: the drain order, and so
//! anything computed from it, is fully determined by the posted set.

use crate::time::EventTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The lexicographic ordering key of a scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// When the event fires.
    pub time: EventTime,
    /// Tie-breaking priority ordinal; lower fires first at equal times.
    pub class: u8,
    /// Posting sequence number; earlier posts win dead-even ties.
    pub seq: u64,
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posted {
    /// Ordering key (compared first; `seq` is unique, so the derived
    /// lexicographic order is total and deterministic).
    pub key: EventKey,
    /// Who handles the event, as the poster numbers its handlers.
    pub owner: usize,
    /// Opaque payload chosen by the poster (typically a small event-kind
    /// enum).
    pub token: u64,
}

/// A priority queue of [`Posted`] events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct Calendar {
    heap: BinaryHeap<Reverse<Posted>>,
    next_seq: u64,
}

impl Calendar {
    /// An empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event; its sequence number is assigned here, in
    /// posting order.
    pub fn post(&mut self, owner: usize, time: EventTime, class: u8, token: u64) {
        let key = EventKey {
            time,
            class,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Posted { key, owner, token }));
    }

    /// Removes and returns the earliest scheduled event.
    pub fn pop(&mut self) -> Option<Posted> {
        self.heap.pop().map(|Reverse(p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_units::Seconds;

    fn at(s: f64) -> EventTime {
        EventTime::new(Seconds::new(s))
    }

    #[test]
    fn earliest_time_wins() {
        let mut cal = Calendar::new();
        cal.post(0, at(5.0), 0, 1);
        cal.post(1, at(2.0), 7, 2);
        cal.post(2, at(9.0), 0, 3);
        assert_eq!(cal.pop().unwrap().token, 2);
        assert_eq!(cal.pop().unwrap().token, 1);
        assert_eq!(cal.pop().unwrap().token, 3);
        assert!(cal.pop().is_none());
    }

    #[test]
    fn class_breaks_time_ties() {
        let mut cal = Calendar::new();
        cal.post(0, at(3.0), 2, 10);
        cal.post(0, at(3.0), 0, 11);
        cal.post(0, at(3.0), 1, 12);
        assert_eq!(cal.pop().unwrap().token, 11);
        assert_eq!(cal.pop().unwrap().token, 12);
        assert_eq!(cal.pop().unwrap().token, 10);
    }

    #[test]
    fn posting_order_breaks_dead_even_ties() {
        let mut cal = Calendar::new();
        cal.post(0, at(3.0), 2, 10);
        cal.post(1, at(3.0), 2, 11);
        cal.post(2, at(3.0), 2, 12);
        assert_eq!(cal.pop().unwrap().token, 10);
        assert_eq!(cal.pop().unwrap().token, 11);
        assert_eq!(cal.pop().unwrap().token, 12);
    }
}
