//! The engine-hosted kernel: the solver of [`kernel`](crate::kernel)
//! split into `dcb-engine` components.
//!
//! One [`Engine`] run replaces the legacy hand-rolled event loop. The
//! world is [`KernelWorld`] — the run state, the backup system, the
//! per-cycle caches and the mode-transition tally — and the components
//! are unit structs, in registration order:
//!
//! 1. [`TechniqueController`] — owns the mode machine: instantaneous
//!    transitions in the prologue, which then re-derives the segment's
//!    constant load and (throughput, downtime) rates from the workload
//!    model; the mode-internal timer as the hard event; the
//!    unthrottle/fallback located searches in the plan phase; and every
//!    mode transition fired by its own tokens. It counts mode changes in
//!    the world.
//! 2. [`BatteryPack`] — plans the closed-form battery-depletion /
//!    supply-overload instant and fires the shortfall crash rule.
//! 3. [`DgRamp`] — announces the DG ramp milestones up front and plans
//!    the located instant a crashed cluster finds enough ramped power to
//!    reboot.
//! 4. [`SupplySegmenter`] — observes every fired event and commits the
//!    segment `[now, fired.time]`: one exact Peukert ramp draw, the
//!    serving/downtime integrals, the committed-segment trace events,
//!    and the timer tick-down.
//!
//! Bit-identity with the legacy loop (`tests/componentized.rs`) pins the
//! mapping: the engine's `(time, class, seq)` calendar reproduces the
//! legacy candidate scan exactly — classes 0/1/2/3/4 are the legacy
//! priorities, and registration order reproduces the legacy push order
//! for the one same-class collision (shortfall before recovery). The
//! horizon clock is the legacy outage-end boundary, and the engine's
//! window pinning (hard events before located searches) is the legacy
//! `hi = boundary.0` rule that keeps `first_true` sample grids — and so
//! every root's low-order bits — unchanged.

use crate::engine::{Mode, OutageSim, RunState};
use crate::kernel::{trace_dg_milestones, Pending, MAX_EVENTS};
use crate::segment::{Segment, SegmentEnd};
use dcb_engine::locate::first_true;
use dcb_engine::{ClockSpec, Component, Ctx, Engine, EventTime, Fired};
use dcb_power::BackupSystem;
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{contract, Fraction, Seconds, Watts};

/// Event class of the DG-crossover unthrottle (legacy priority 0).
const CLASS_UNTHROTTLE: u8 = 0;
/// Event class of the hybrid-fallback deadline (legacy priority 1).
const CLASS_FALLBACK: u8 = 1;
/// Event class of shortfall and recovery-power events (legacy priority 2).
const CLASS_SHORTFALL: u8 = 2;
/// Event class of mode-internal timers (legacy priority 3).
const CLASS_TIMER: u8 = 3;
/// Event class of the outage-end horizon (legacy priority 4).
const CLASS_END: u8 = 4;

/// The engine world: one outage run's state and per-cycle caches.
pub(crate) struct KernelWorld<'a> {
    sim: &'a OutageSim,
    backup: &'a mut BackupSystem,
    transitions: &'a TransitionTimes,
    outage: Seconds,
    st: RunState,
    segments: Vec<Segment>,
    /// Root trace event for the scenario, parent of everything emitted.
    t_root: Option<u32>,
    /// The segment's constant supply load, refreshed each prologue.
    load: Watts,
    /// The segment's (throughput rate, counts-as-downtime) pair.
    rates: (f64, bool),
    /// Mode name captured in `observe`, compared after the fire.
    before: &'static str,
    /// Mode transitions so far.
    mode_changes: u64,
}

/// What a componentized run produced (the facade assembles the outcome).
pub(crate) struct KernelRun {
    /// Committed segments, tiling `[0, outage]`.
    pub(crate) segments: Vec<Segment>,
    /// Final run state.
    pub(crate) st: RunState,
}

/// Runs one outage on the engine-hosted components. `st` is the initial
/// run state (the facade resolves the technique's initial action first).
pub(crate) fn run_componentized(
    sim: &OutageSim,
    outage: Seconds,
    backup: &mut BackupSystem,
    transitions: &TransitionTimes,
    st: RunState,
) -> KernelRun {
    let mut engine: Engine<KernelWorld> = Engine::new(outage);
    let controller = engine.add_component(TechniqueController);
    engine.add_component(BatteryPack);
    engine.add_component(DgRamp);
    engine.add_component(SupplySegmenter);
    engine.add_clock(
        controller,
        CLASS_END,
        Pending::End.token(),
        ClockSpec::Horizon,
    );
    engine.set_max_events(MAX_EVENTS);

    let mut world = KernelWorld {
        sim,
        backup,
        transitions,
        outage,
        before: st.mode.name(),
        st,
        segments: Vec::new(),
        t_root: None,
        load: Watts::ZERO,
        rates: (0.0, false),
        mode_changes: 0,
    };
    engine.run(&mut world);
    dcb_telemetry::counter!("sim.kernel.mode_transitions").add(world.mode_changes);
    KernelRun {
        segments: world.segments,
        st: world.st,
    }
}

impl KernelWorld<'_> {
    /// Counts a change of mode name since `from`, and emits its
    /// technique-transition trace instant at `t`.
    fn note_transition(&mut self, from: &'static str, t: Seconds) {
        let to = self.st.mode.name();
        if to == from {
            return;
        }
        self.mode_changes += 1;
        if dcb_trace::enabled() {
            dcb_trace::instant(Some(dcb_trace::micros(t)), self.t_root, || {
                dcb_trace::EventKind::TechniqueTransition {
                    from: from.to_owned(),
                    to: to.to_owned(),
                }
            });
        }
    }
}

/// Owns the mode machine: instantaneous transitions, mode-internal
/// timers, the unthrottle/fallback searches, and transition dispatch.
struct TechniqueController;

impl<'a> Component<KernelWorld<'a>> for TechniqueController {
    fn name(&self) -> &'static str {
        "technique-controller"
    }

    fn init(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx) {
        // Root trace event for this scenario; a pure function of the
        // configuration, emitted before anything else.
        if dcb_trace::enabled() {
            world.t_root =
                dcb_trace::instant(Some(0), None, || dcb_trace::EventKind::OutageStart {
                    config: world.sim.config().label().to_owned(),
                    technique: world.sim.technique().name().to_owned(),
                    outage_us: dcb_trace::micros(world.outage),
                });
        }
    }

    fn prologue(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx) {
        // Instantaneous transitions, in the stepper's per-step order.
        let t = ctx.now().seconds();
        let from = world.st.mode.name();
        world.sim.apply_instantaneous(
            &mut world.st,
            world.backup,
            world.transitions,
            t,
            world.outage,
        );
        world.note_transition(from, t);
        // The segment's constant load and rates hold until the next event.
        world.load = world.sim.supply_load(&world.st.mode, world.backup);
        world.rates = world.sim.mode_rates(&world.st.mode);
    }

    fn hard_event(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx) {
        // The next mode-internal timer: known exactly, so it pins the
        // planning window. A timer landing exactly on outage end still
        // fires (class 3 beats the class-4 horizon); one beyond outage
        // end is unreachable and cedes to the horizon clock.
        let t = ctx.now().seconds();
        let timer: Option<(Seconds, Pending)> = match &world.st.mode {
            Mode::Migrating {
                remaining, pause, ..
            } => Some(if *remaining > *pause {
                (t + (*remaining - *pause), Pending::Pause)
            } else {
                (t + *remaining, Pending::TimerDone)
            }),
            Mode::EnteringSleep { remaining, .. }
            | Mode::Saving { remaining, .. }
            | Mode::Recovering { remaining } => Some((t + *remaining, Pending::TimerDone)),
            _ => None,
        };
        if let Some((at, ev)) = timer {
            if at <= world.outage {
                ctx.post(EventTime::new(at), CLASS_TIMER, ev.token());
            }
        }
    }

    fn plan(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx) {
        let (unthrottle, fallback) = world.sim.locate_serving_events(
            world.backup,
            world.transitions,
            &world.st.mode,
            world.load,
            ctx.now().seconds(),
            ctx.window_hi().seconds(),
            world.outage,
        );
        if let Some(tu) = unthrottle {
            ctx.post(
                EventTime::new(tu),
                CLASS_UNTHROTTLE,
                Pending::Unthrottle.token(),
            );
        }
        if let Some(tf) = fallback {
            ctx.post(
                EventTime::new(tf),
                CLASS_FALLBACK,
                Pending::Fallback.token(),
            );
        }
    }

    fn observe(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, _fired: &Fired) {
        world.before = world.st.mode.name();
    }

    fn fire(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, fired: &Fired) {
        match Pending::from_token(fired.token) {
            Pending::End => {}
            Pending::Pause => {
                // Pin the timer to the pause length exactly so the
                // copy→pause flip is not re-found a rounding error away.
                if let Mode::Migrating {
                    remaining, pause, ..
                } = &mut world.st.mode
                {
                    *remaining = *pause;
                }
            }
            Pending::TimerDone => {
                world.st.mode = match world.st.mode {
                    Mode::Migrating { after, .. } => Mode::Serving {
                        level: after,
                        share: world.sim.consolidated_share(),
                    },
                    Mode::EnteringSleep { .. } => world.sim.sleep_target(),
                    Mode::Saving { level, .. } => Mode::Hibernated {
                        saved_throttled: level != ThrottleLevel::NONE,
                    },
                    Mode::Recovering { .. } => Mode::Serving {
                        level: ThrottleLevel::NONE,
                        share: Fraction::ONE,
                    },
                    other => other,
                };
            }
            Pending::Unthrottle => {
                if let Mode::Serving { share, .. } = world.st.mode {
                    world.st.mode = Mode::Serving {
                        level: ThrottleLevel::NONE,
                        share,
                    };
                }
            }
            Pending::Fallback => {
                if let Some(fb) = world.sim.technique().fallback() {
                    world.st.mode = world.sim.fallback_mode(fb, world.transitions);
                }
            }
            Pending::Shortfall | Pending::RecoveryReady => {
                contract!(false, "token {} is not a controller event", fired.token);
            }
        }
    }

    fn epilogue(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, fired: &Fired) {
        // The fire has run, whichever component owned the event, so this
        // sees every transition it made.
        world.note_transition(world.before, fired.time.seconds());
    }
}

/// Plans the closed-form shortfall instant and fires the crash rule.
struct BatteryPack;

impl<'a> Component<KernelWorld<'a>> for BatteryPack {
    fn name(&self) -> &'static str {
        "battery-pack"
    }

    fn plan(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx) {
        let t = ctx.now().seconds();
        let hi = ctx.window_hi().seconds();
        if let Some(ts) = world.backup.first_shortfall(world.load, t, hi) {
            ctx.post(
                EventTime::new(ts.max(t)),
                CLASS_SHORTFALL,
                Pending::Shortfall.token(),
            );
        }
    }

    fn fire(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, _fired: &Fired) {
        world.sim.apply_shortfall(&mut world.st);
    }
}

/// Announces the DG ramp milestones and plans crash-recovery power.
struct DgRamp;

impl<'a> Component<KernelWorld<'a>> for DgRamp {
    fn name(&self) -> &'static str {
        "dg-ramp"
    }

    fn init(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx) {
        // DG ramp milestones are a pure function of time: emitted up
        // front, parented to the controller's root (already claimed —
        // the controller registers first).
        if dcb_trace::enabled() {
            trace_dg_milestones(world.backup, world.outage, world.t_root);
        }
    }

    fn plan(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx) {
        // A sufficiently ramped DG lets a crashed cluster reboot
        // mid-outage (NoUPS: "DG translates long outages into short
        // ones"). Planned after the battery pack so a dead-even tie with
        // a shortfall resolves the way the legacy push order did.
        if !matches!(world.st.mode, Mode::Crashed) {
            return;
        }
        let t = ctx.now().seconds();
        let hi = ctx.window_hi().seconds();
        let reboot_load = world.sim.supply_load(
            &Mode::Recovering {
                remaining: Seconds::ZERO,
            },
            world.backup,
        );
        let backup = &*world.backup;
        let ready = |tau| backup.available_power(tau) >= reboot_load;
        if backup.dg().is_none() {
            // Without a DG the available power is the UPS's, which does not
            // move with τ, and the prologue has just found it short of the
            // reboot load at `now`: no instant of the window can reboot.
            contract!(!ready(hi), "DG-less recovery predicate holds at {hi}");
            return;
        }
        if let Some(tr) = first_true(t, hi, ready) {
            ctx.post(
                EventTime::new(tr),
                CLASS_SHORTFALL,
                Pending::RecoveryReady.token(),
            );
        }
    }

    fn fire(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, _fired: &Fired) {
        world.st.crash_recovery_engaged = true;
        world.st.mode = Mode::Recovering {
            remaining: world.sim.expected_recovery(),
        };
    }
}

/// Commits the segment `[now, fired.time]` on every fired event: one
/// exact Peukert ramp draw, the serving/downtime integrals, the trace
/// record, and the timer tick-down.
struct SupplySegmenter;

impl<'a> Component<KernelWorld<'a>> for SupplySegmenter {
    fn name(&self) -> &'static str {
        "supply-segmenter"
    }

    fn observe(&mut self, world: &mut KernelWorld<'a>, ctx: &mut Ctx, fired: &Fired) {
        let t = ctx.now().seconds();
        let end = fired.time.seconds();
        if end <= t {
            return; // zero-width event: nothing to commit
        }
        let what = Pending::from_token(fired.token);
        let load = world.load;
        let sustained = world.backup.supply_segment(load, t, end);
        contract!(
            ((end - t) - sustained).value().abs() < 1e-3,
            "segment [{t}, {end}] not fully sustained: {sustained}"
        );
        let (rate, down) = world.rates;
        world.st.serving_integral += rate * (end - t).value();
        if down {
            world.st.downtime += end - t;
        }
        let ended_by = match what {
            Pending::Unthrottle => SegmentEnd::DgCrossover,
            Pending::Fallback => SegmentEnd::HybridFallback,
            Pending::Shortfall => match world.backup.ups() {
                Some(u) if u.is_depleted() => SegmentEnd::BatteryDepleted,
                _ => SegmentEnd::SupplyOverload,
            },
            Pending::Pause => SegmentEnd::MigrationPause,
            Pending::TimerDone => SegmentEnd::TimerExpired,
            Pending::RecoveryReady => SegmentEnd::RecoveryPower,
            Pending::End => SegmentEnd::OutageEnd,
        };
        world.segments.push(Segment {
            start: t,
            end,
            load,
            throughput: rate,
            in_downtime: down,
            ended_by,
        });
        if dcb_trace::enabled() {
            let start_us = dcb_trace::micros(t);
            let end_us = dcb_trace::micros(end);
            dcb_trace::complete(
                start_us,
                end_us.saturating_sub(start_us),
                world.t_root,
                || dcb_trace::EventKind::SegmentCommit {
                    end_cause: ended_by.as_str().to_owned(),
                    load_mw: (load.value() * 1e3).round() as u64,
                    throughput_pm: (rate * 1e3).round() as u64,
                    in_downtime: down,
                },
            );
            if ended_by == SegmentEnd::BatteryDepleted {
                dcb_trace::instant(Some(end_us), world.t_root, || {
                    dcb_trace::EventKind::BatteryDeplete
                });
            }
        }
        // Timers tick down by the committed span.
        let elapsed = end - t;
        match &mut world.st.mode {
            Mode::Migrating { remaining, .. }
            | Mode::EnteringSleep { remaining, .. }
            | Mode::Saving { remaining, .. }
            | Mode::Recovering { remaining } => *remaining -= elapsed,
            _ => {}
        }
    }

    fn fire(&mut self, _world: &mut KernelWorld<'a>, _ctx: &mut Ctx, fired: &Fired) {
        contract!(
            false,
            "supply segmenter posts no events (token {})",
            fired.token
        );
    }
}
