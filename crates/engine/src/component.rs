//! The component contract.
//!
//! A component is one actor in a discrete-event world: it owns a slice of
//! behavior (a battery pack, a technique state machine, a fixed-step
//! oracle), talks to its peers through the shared world state, and
//! participates in the engine's fixed per-cycle phase sequence. Every
//! hook except [`Component::fire`] has an empty default, so a component
//! implements only the phases it cares about.
//!
//! ## The cycle protocol
//!
//! Each engine cycle calls, on every component in registration order:
//!
//! 1. **`prologue`** — apply zero-duration state transitions valid at the
//!    current instant (the delta-cycle of classic DES cores), and refresh
//!    any world state derived from them so every later phase sees one
//!    consistent snapshot.
//! 2. **`hard_event`** — post events whose times are known in closed form
//!    (timer expiries). Together with clock ticks these fix the cycle's
//!    *planning window*.
//! 3. **`plan`** — post *located* events: predicate flips searched for
//!    inside the window `(now, window_hi]` (see [`crate::locate`]). The
//!    two-stage split matters for bit-reproducibility: a root search's
//!    sample points depend on its bracket, so the window must be pinned
//!    by hard events before any search runs.
//!
//! The engine then pops the lexicographically earliest event and calls
//! **`observe`** on every component (commit work that must precede the
//! transition, e.g. closing the elapsed segment), **`fire`** on the
//! owner, and **`epilogue`** on every component (post-transition
//! reactions, e.g. diffing a mode name for a trace event).

use crate::engine::Ctx;
use crate::time::EventTime;

/// Index of a component within its engine, in registration order.
pub type ComponentId = usize;

/// The event the engine popped this cycle, as seen by `observe`, `fire`,
/// and `epilogue`.
#[derive(Debug, Clone, Copy)]
pub struct Fired {
    /// The component whose `fire` hook runs.
    pub owner: ComponentId,
    /// The tie-breaking class the event was posted with.
    pub class: u8,
    /// The poster's opaque payload.
    pub token: u64,
    /// When the event fires, clamped into `[now, horizon]`.
    pub time: EventTime,
}

/// One actor in an engine world of type `W`.
pub trait Component<W> {
    /// Stable short name; used for the component's telemetry counter
    /// (`engine.fired.<name>`) and profiler frame.
    fn name(&self) -> &'static str;

    /// Called once before the first cycle (and before the horizon check,
    /// so it runs even for a zero-length run). Emit root trace events and
    /// publish initial dataflow here.
    fn init(&mut self, _world: &mut W, _ctx: &mut Ctx) {}

    /// Phase 1: zero-duration transitions at the current instant.
    fn prologue(&mut self, _world: &mut W, _ctx: &mut Ctx) {}

    /// Phase 2: post closed-form events via [`Ctx::post`].
    fn hard_event(&mut self, _world: &mut W, _ctx: &mut Ctx) {}

    /// Phase 3: post located events inside `(now, window_hi]`.
    fn plan(&mut self, _world: &mut W, _ctx: &mut Ctx) {}

    /// Pre-transition commit pass; runs for every component, in
    /// registration order, before the owner's `fire`.
    fn observe(&mut self, _world: &mut W, _ctx: &mut Ctx, _fired: &Fired) {}

    /// Handle an event this component posted (or a clock/wakeup tick
    /// registered on its behalf).
    fn fire(&mut self, world: &mut W, ctx: &mut Ctx, fired: &Fired);

    /// Post-transition reaction pass; runs for every component, in
    /// registration order, after the owner's `fire`.
    fn epilogue(&mut self, _world: &mut W, _ctx: &mut Ctx, _fired: &Fired) {}
}

/// Blanket-friendly helper: the fired event's time in seconds.
impl Fired {
    /// The event instant in simulated seconds.
    #[must_use]
    pub fn at(&self) -> EventTime {
        self.time
    }
}
