//! # dcb-engine
//!
//! Event-ordering and root-finding primitives for the underprovisioning
//! framework (DESIGN.md §14): a totally ordered virtual [`EventTime`], a
//! deterministic event [`Calendar`], and the located-event root finder
//! [`locate::first_true`].
//!
//! The outage kernel in `dcb-sim` is a hand-rolled segment loop, and so is
//! the §7 controller in `dcb-core`. Both call [`locate::first_true`] for
//! their predicate-shaped events; its sample grid is a pure function of
//! the search window, so a fixed window gives bit-identical roots on any
//! thread. The calendar's `(time, class, seq)` order breaks ties by
//! posting order, a pure function of program order; no model code posts
//! to it any more, and perfbench's `engine.calendar.post_pop.ns` probe is
//! what still times it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod locate;
pub mod time;

pub use calendar::{Calendar, EventKey, Posted};
pub use time::EventTime;
