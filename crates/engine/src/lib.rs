//! # dcb-engine
//!
//! A reusable component/clock discrete-event core for the
//! underprovisioning framework (DESIGN.md §14).
//!
//! The paper's single-outage kernel, the hierarchical topology resolver,
//! and the planned scenario axes (multi-outage sequences, demand
//! response, fuel-cell surge chains — ROADMAP items 1 and 4) all need the
//! same machinery: components sharing one world state, engine-managed
//! [clocks](clock) mixing event-driven wakeups with timed ticks, and a
//! deterministic event [calendar](calendar) whose `(time, class, seq)`
//! tie-breaking makes results bit-identical across `DCB_THREADS`
//! settings. This crate is that core, patterned on engine-managed-clock
//! DES designs: components never own a time base, they register clocks
//! and post events, and the [`Engine`] sequences everything through a
//! fixed per-cycle phase protocol (see [`Component`]).
//!
//! Two properties carry the workspace's reproducibility guarantees:
//!
//! * **Total event order.** The calendar key is `(time, class, seq)`
//!   compared lexicographically, with `seq` assigned in posting order —
//!   so the firing order is a pure function of program order, never of
//!   thread scheduling.
//! * **Two-stage planning.** Closed-form *hard* events (timers, clock
//!   ticks) post first and pin the cycle's window; predicate-shaped
//!   *located* events (see [`locate::first_true`]) search only inside
//!   `(now, window_hi]`. Root searches sample a grid derived from their
//!   bracket, so pinning the window is what keeps located roots — and
//!   every downstream floating-point value — bit-stable.
//!
//! Observability is built in rather than hand-placed: the engine counts
//! runs, cycles and, while telemetry or the profiler records, fires per
//! component (`engine.fired.<component>`; see OBSERVABILITY.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod clock;
pub mod component;
pub mod engine;
pub mod locate;
mod observe;
pub mod time;

pub use calendar::{Calendar, EventKey, Posted};
pub use clock::ClockSpec;
pub use component::{Component, ComponentId, Fired};
pub use engine::{Ctx, Engine, RunStats, DEFAULT_MAX_EVENTS};
pub use time::EventTime;
