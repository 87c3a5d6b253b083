//! The engine: component registry, clock manager, and the deterministic
//! cycle loop.
//!
//! One [`Engine`] hosts a set of [`Component`]s over a caller-provided
//! world `W` and advances virtual time from zero to a horizon. Each cycle
//! runs the fixed phase sequence documented on [`Component`]; the event
//! that fires is the lexicographically earliest `(time, class, seq)` key
//! in the calendar, so for a fixed component registration order the whole
//! run — every floating-point operation included — is a pure function of
//! the world's initial state. Nothing in the loop reads a thread id, a
//! wall clock, or an unordered container, which is what lets engine
//! results stay bit-identical across `DCB_THREADS` settings.

use crate::calendar::{Calendar, Origin, Posted};
use crate::clock::{Clock, ClockSpec};
use crate::component::{Component, ComponentId, Fired};
use crate::observe::fired_counter;
use crate::time::EventTime;
use dcb_units::{contract, Seconds};

/// Default per-run event budget: real worlds resolve in well under a
/// hundred events per simulated segment; the cap is a modeling-bug
/// backstop, not a tuning knob.
pub const DEFAULT_MAX_EVENTS: u32 = 10_000;

/// A pending event-driven wakeup (requested via [`Ctx::wake_at`]).
#[derive(Debug, Clone, Copy)]
struct Wake {
    owner: ComponentId,
    class: u8,
    token: u64,
    time: EventTime,
}

/// A registered engine-managed clock.
struct ClockEntry {
    owner: ComponentId,
    class: u8,
    token: u64,
    clock: Clock,
}

/// What a finished run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Cycles executed (each fires exactly one event).
    pub cycles: u32,
    /// Events fired, per component, in registration order.
    pub fired_total: u32,
}

/// The per-cycle context handed to component hooks: the current instant,
/// the planning window, and the posting surface.
pub struct Ctx<'e> {
    now: EventTime,
    horizon: EventTime,
    window_hi: EventTime,
    current: ComponentId,
    calendar: &'e mut Calendar,
    wakes: &'e mut Vec<Option<Wake>>,
}

impl Ctx<'_> {
    /// The current virtual instant.
    #[must_use]
    pub fn now(&self) -> EventTime {
        self.now
    }

    /// The engine horizon (end of virtual time for this run).
    #[must_use]
    pub fn horizon(&self) -> EventTime {
        self.horizon
    }

    /// The upper edge of this cycle's planning window: the earliest hard
    /// event. Valid during `plan`; located events must land in
    /// `(now, window_hi]`. Before the hard-event phase completes this
    /// reads as the horizon.
    #[must_use]
    pub fn window_hi(&self) -> EventTime {
        self.window_hi
    }

    /// Posts an event for this cycle, owned by the calling component. The
    /// entry is transient: it either fires this cycle or is dropped when
    /// the next cycle re-plans.
    pub fn post(&mut self, time: EventTime, class: u8, token: u64) {
        self.calendar.post(self.current, time, class, token);
    }

    /// Requests a one-shot event-driven wakeup at `time`. Unlike
    /// [`Ctx::post`], the wakeup persists across cycles until it fires.
    pub fn wake_at(&mut self, time: EventTime, class: u8, token: u64) {
        self.wakes.push(Some(Wake {
            owner: self.current,
            class,
            token,
            time,
        }));
    }
}

/// A component/clock discrete-event engine over world type `W`.
pub struct Engine<W> {
    components: Vec<Box<dyn Component<W>>>,
    clocks: Vec<ClockEntry>,
    horizon: EventTime,
    max_events: u32,
}

impl<W> Engine<W> {
    /// An engine that will run virtual time from zero to `horizon`.
    #[must_use]
    pub fn new(horizon: Seconds) -> Self {
        Engine {
            components: Vec::new(),
            clocks: Vec::new(),
            horizon: EventTime::new(horizon),
            max_events: DEFAULT_MAX_EVENTS,
        }
    }

    /// Registers a component; registration order is the phase call order
    /// and the dead-even tie-break order.
    pub fn add_component(&mut self, component: impl Component<W> + 'static) -> ComponentId {
        let id = self.components.len();
        self.components.push(Box::new(component));
        id
    }

    /// Registers an engine-managed clock whose ticks fire on `owner` with
    /// the given class and token. Every engine needs at least one
    /// [`ClockSpec::Horizon`] clock so each cycle has a hard event.
    pub fn add_clock(&mut self, owner: ComponentId, class: u8, token: u64, spec: ClockSpec) {
        contract!(
            owner < self.components.len(),
            "clock owner {owner} is not a registered component"
        );
        self.clocks.push(ClockEntry {
            owner,
            class,
            token,
            clock: Clock::new(spec),
        });
    }

    /// Overrides the per-run event budget.
    pub fn set_max_events(&mut self, max_events: u32) {
        self.max_events = max_events;
    }

    /// Runs the world from virtual time zero to the horizon.
    ///
    /// `init` hooks run unconditionally (even for a zero-length horizon);
    /// the cycle loop then advances until an event fires at or beyond the
    /// horizon, or the event budget trips.
    pub fn run(&mut self, world: &mut W) -> RunStats {
        let mut components = std::mem::take(&mut self.components);
        let mut calendar = Calendar::new();
        let mut wakes: Vec<Option<Wake>> = Vec::new();
        let mut now = EventTime::ZERO;
        let mut events = 0u32;
        // Fires per component, tallied only for the telemetry and profiler
        // records below: empty (and allocation-free) when both are off.
        let mut fired_per_component = if dcb_telemetry::enabled() || dcb_prof::enabled() {
            vec![0u64; components.len()]
        } else {
            Vec::new()
        };

        macro_rules! phase {
            ($ctx:expr, $i:expr, $call:expr) => {{
                $ctx.current = $i;
                $call
            }};
        }

        {
            let mut ctx = Ctx {
                now,
                horizon: self.horizon,
                window_hi: self.horizon,
                current: 0,
                calendar: &mut calendar,
                wakes: &mut wakes,
            };
            for (i, c) in components.iter_mut().enumerate() {
                phase!(ctx, i, c.init(world, &mut ctx));
            }
        }

        while now < self.horizon {
            events += 1;
            contract!(
                events <= self.max_events,
                "engine event budget ({}) exceeded at t={now}",
                self.max_events
            );
            if events > self.max_events {
                break; // modeling-bug backstop; the contract above reports it
            }

            calendar.clear_pending();
            {
                let mut ctx = Ctx {
                    now,
                    horizon: self.horizon,
                    window_hi: self.horizon,
                    current: 0,
                    calendar: &mut calendar,
                    wakes: &mut wakes,
                };
                for (i, c) in components.iter_mut().enumerate() {
                    phase!(ctx, i, c.prologue(world, &mut ctx));
                }
            }

            // Hard events: clock ticks, pending wakeups, then each
            // component's closed-form events. Together they pin the
            // planning window before any located search runs.
            for idx in 0..self.clocks.len() {
                let entry = &self.clocks[idx];
                if let Some(at) = entry.clock.next(self.horizon) {
                    calendar.post_from(
                        entry.owner,
                        at.max(now),
                        entry.class,
                        entry.token,
                        Origin::Clock(idx),
                    );
                }
            }
            for (slot, wake) in wakes.iter().enumerate() {
                if let Some(w) = wake {
                    calendar.post_from(
                        w.owner,
                        w.time.max(now),
                        w.class,
                        w.token,
                        Origin::Wake(slot),
                    );
                }
            }
            {
                let mut ctx = Ctx {
                    now,
                    horizon: self.horizon,
                    window_hi: self.horizon,
                    current: 0,
                    calendar: &mut calendar,
                    wakes: &mut wakes,
                };
                for (i, c) in components.iter_mut().enumerate() {
                    phase!(ctx, i, c.hard_event(world, &mut ctx));
                }
            }

            let Some(earliest) = calendar.earliest() else {
                contract!(false, "no hard event at t={now}: register a horizon clock");
                break;
            };
            let window_hi = earliest.key.time.min(self.horizon);

            {
                let mut ctx = Ctx {
                    now,
                    horizon: self.horizon,
                    window_hi,
                    current: 0,
                    calendar: &mut calendar,
                    wakes: &mut wakes,
                };
                for (i, c) in components.iter_mut().enumerate() {
                    phase!(ctx, i, c.plan(world, &mut ctx));
                }
            }

            let Some(winner) = calendar.pop() else {
                break; // unreachable: the hard-event check above ensures one
            };
            self.note_fired(&winner, &mut wakes);
            let fired = Fired {
                owner: winner.owner,
                class: winner.key.class,
                token: winner.token,
                time: winner.key.time.min(self.horizon).max(now),
            };
            if let Some(tally) = fired_per_component.get_mut(fired.owner) {
                *tally += 1;
            }

            {
                let mut ctx = Ctx {
                    now,
                    horizon: self.horizon,
                    window_hi,
                    current: 0,
                    calendar: &mut calendar,
                    wakes: &mut wakes,
                };
                for (i, c) in components.iter_mut().enumerate() {
                    phase!(ctx, i, c.observe(world, &mut ctx, &fired));
                }
                phase!(
                    ctx,
                    fired.owner,
                    components[fired.owner].fire(world, &mut ctx, &fired)
                );
                for (i, c) in components.iter_mut().enumerate() {
                    phase!(ctx, i, c.epilogue(world, &mut ctx, &fired));
                }
            }
            now = fired.time;
        }

        dcb_telemetry::counter!("engine.runs").incr();
        dcb_telemetry::counter!("engine.cycles").add(u64::from(events));
        dcb_telemetry::histogram!("engine.cycles_per_run").observe(u64::from(events));
        if dcb_telemetry::enabled() {
            for (c, fired) in components.iter().zip(&fired_per_component) {
                if *fired > 0 {
                    fired_counter(c.name()).add(*fired);
                }
            }
        }
        if dcb_prof::enabled() {
            // Cycles attribute per component from the fire tally; the sum
            // equals `events`, so the profile reconciles with
            // `engine.cycles` exactly.
            let _engine = dcb_prof::frame("engine");
            for (c, fired) in components.iter().zip(&fired_per_component) {
                if *fired > 0 {
                    let _component = dcb_prof::frame(c.name());
                    dcb_prof::record(dcb_prof::WorkKind::Cycles, *fired);
                }
            }
        }
        self.components = components;
        RunStats {
            cycles: events,
            fired_total: events,
        }
    }

    /// Marks a fired clock tick or wakeup as consumed.
    fn note_fired(&mut self, winner: &Posted, wakes: &mut [Option<Wake>]) {
        match winner.origin {
            Origin::Transient => {}
            Origin::Clock(idx) => self.clocks[idx].clock.advance(),
            Origin::Wake(slot) => wakes[slot] = None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch world: a log of (component tag, token, time-in-seconds).
    #[derive(Default)]
    struct Log {
        fired: Vec<(&'static str, u64, f64)>,
    }

    /// Posts a fixed schedule of transient events each cycle.
    struct Scheduler {
        tag: &'static str,
        class: u8,
        times: Vec<f64>,
    }

    impl Component<Log> for Scheduler {
        fn name(&self) -> &'static str {
            self.tag
        }

        fn hard_event(&mut self, _world: &mut Log, ctx: &mut Ctx) {
            for &t in &self.times {
                if EventTime::new(Seconds::new(t)) > ctx.now() {
                    ctx.post(EventTime::new(Seconds::new(t)), self.class, t as u64);
                }
            }
        }

        fn fire(&mut self, world: &mut Log, _ctx: &mut Ctx, fired: &Fired) {
            world
                .fired
                .push((self.tag, fired.token, fired.time.seconds().value()));
        }
    }

    /// Fires once via an event-driven wakeup, then re-arms itself.
    struct Waker {
        period: f64,
    }

    impl Component<Log> for Waker {
        fn name(&self) -> &'static str {
            "waker"
        }

        fn init(&mut self, _world: &mut Log, ctx: &mut Ctx) {
            ctx.wake_at(EventTime::new(Seconds::new(self.period)), 1, 0);
        }

        fn fire(&mut self, world: &mut Log, ctx: &mut Ctx, fired: &Fired) {
            world
                .fired
                .push(("waker", fired.token, fired.time.seconds().value()));
            let next = fired.time.seconds() + Seconds::new(self.period);
            if next < ctx.horizon().seconds() {
                ctx.wake_at(EventTime::new(next), 1, fired.token + 1);
            }
        }
    }

    /// Absorbs horizon/clock ticks without logging.
    struct Sink;

    impl Component<Log> for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }

        fn fire(&mut self, _world: &mut Log, _ctx: &mut Ctx, _fired: &Fired) {}
    }

    #[test]
    fn earliest_event_fires_and_horizon_ends_the_run() {
        let mut engine: Engine<Log> = Engine::new(Seconds::new(10.0));
        let a = engine.add_component(Scheduler {
            tag: "a",
            class: 2,
            times: vec![4.0, 7.0],
        });
        engine.add_clock(a, 4, 999, ClockSpec::Horizon);
        let mut log = Log::default();
        let stats = engine.run(&mut log);
        assert_eq!(
            log.fired,
            vec![("a", 4, 4.0), ("a", 7, 7.0), ("a", 999, 10.0)]
        );
        assert_eq!(stats.cycles, 3);
    }

    #[test]
    fn class_then_post_order_break_ties() {
        let mut engine: Engine<Log> = Engine::new(Seconds::new(5.0));
        // Registered first but higher class: loses the t=3 tie.
        let hi = engine.add_component(Scheduler {
            tag: "hi-class",
            class: 3,
            times: vec![3.0],
        });
        engine.add_component(Scheduler {
            tag: "lo-class",
            class: 1,
            times: vec![3.0],
        });
        engine.add_clock(hi, 4, 0, ClockSpec::Horizon);
        let mut log = Log::default();
        engine.run(&mut log);
        assert_eq!(log.fired.first().map(|f| f.0), Some("lo-class"));
    }

    #[test]
    fn timed_clock_ticks_strictly_before_horizon() {
        let mut engine: Engine<Log> = Engine::new(Seconds::new(1.0));
        let s = engine.add_component(Scheduler {
            tag: "tick",
            class: 3,
            times: vec![],
        });
        engine.add_clock(s, 3, 7, ClockSpec::Every(Seconds::new(0.25)));
        engine.add_clock(s, 4, 8, ClockSpec::Horizon);
        let mut log = Log::default();
        engine.run(&mut log);
        let ticks: Vec<f64> = log.fired.iter().filter(|f| f.1 == 7).map(|f| f.2).collect();
        assert_eq!(ticks, vec![0.0, 0.25, 0.5, 0.75]);
        assert_eq!(log.fired.last(), Some(&("tick", 8, 1.0)));
    }

    #[test]
    fn wakeups_persist_until_they_fire() {
        let mut engine: Engine<Log> = Engine::new(Seconds::new(1.0));
        engine.add_component(Waker { period: 0.4 });
        let sink = engine.add_component(Sink);
        engine.add_clock(sink, 4, 0, ClockSpec::Horizon);
        let mut log = Log::default();
        engine.run(&mut log);
        let wakes: Vec<u64> = log.fired.iter().map(|f| f.1).collect();
        assert_eq!(wakes, vec![0, 1]); // 0.4, 0.8; 1.2 is past the horizon
    }

    #[test]
    fn zero_horizon_runs_init_but_no_cycles() {
        struct InitProbe;
        impl Component<Log> for InitProbe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn init(&mut self, world: &mut Log, _ctx: &mut Ctx) {
                world.fired.push(("init", 0, 0.0));
            }
            fn fire(&mut self, world: &mut Log, _ctx: &mut Ctx, _fired: &Fired) {
                world.fired.push(("fire", 0, 0.0));
            }
        }
        let mut engine: Engine<Log> = Engine::new(Seconds::ZERO);
        let p = engine.add_component(InitProbe);
        engine.add_clock(p, 4, 0, ClockSpec::Horizon);
        let mut log = Log::default();
        let stats = engine.run(&mut log);
        assert_eq!(log.fired, vec![("init", 0, 0.0)]);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn event_budget_backstop_breaks_the_loop() {
        /// Re-posts an event at the current instant forever.
        struct Livelock;
        impl Component<Log> for Livelock {
            fn name(&self) -> &'static str {
                "livelock"
            }
            fn hard_event(&mut self, _world: &mut Log, ctx: &mut Ctx) {
                ctx.post(ctx.now(), 0, 0);
            }
            fn fire(&mut self, _world: &mut Log, _ctx: &mut Ctx, _fired: &Fired) {}
        }
        let mut engine: Engine<Log> = Engine::new(Seconds::new(1.0));
        let c = engine.add_component(Livelock);
        engine.add_clock(c, 4, 0, ClockSpec::Horizon);
        engine.set_max_events(16);
        let mut log = Log::default();
        // Under contract checking the budget overrun asserts; with
        // contracts off the loop breaks gracefully instead of spinning.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&mut log).cycles));
        match outcome {
            Err(_) => assert!(dcb_units::contracts::enabled()),
            Ok(cycles) => assert!(cycles <= 17),
        }
    }
}
