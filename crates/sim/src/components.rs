//! The engine-hosted kernel: the solver of [`kernel`](crate::kernel)
//! split into `dcb-engine` components.
//!
//! One [`Engine`] run replaces the legacy hand-rolled event loop. The
//! world is [`KernelWorld`] — the run state, the backup system, and the
//! per-cycle caches — and the components are, in registration order:
//!
//! 1. [`TechniqueController`] — owns the mode machine: instantaneous
//!    transitions in the prologue, the mode-internal timer as the hard
//!    event, the unthrottle/fallback located searches in the plan phase,
//!    and every mode transition fired by its own tokens. Publishes
//!    [`ModeChanged`] notifications on an output port.
//! 2. [`WorkloadCoupler`] — drains the mode-change port and re-derives
//!    the segment's constant load and (throughput, downtime) rates from
//!    the workload model each cycle.
//! 3. [`MigrationPlanner`] — publishes the consolidation share the
//!    migration model settled on, so the controller never calls back
//!    into the migration crate mid-run.
//! 4. [`BatteryPack`] — plans the closed-form battery-depletion /
//!    supply-overload instant and fires the shortfall crash rule.
//! 5. [`DgRamp`] — announces the DG ramp milestones up front and plans
//!    the located instant a crashed cluster finds enough ramped power to
//!    reboot.
//! 6. [`SupplySegmenter`] — observes every fired event and commits the
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
use crate::kernel::{Pending, MAX_EVENTS};
use crate::segment::{Segment, SegmentEnd};
use dcb_engine::locate::first_true;
use dcb_engine::{port, ClockSpec, Component, Ctx, Engine, EventTime, Fired, InPort, OutPort};
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

/// Notification that the cluster's mode changed this cycle.
pub(crate) struct ModeChanged;

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
    /// The segment's constant supply load, refreshed by the coupler.
    load: Watts,
    /// The segment's (throughput rate, counts-as-downtime) pair.
    rates: (f64, bool),
    /// Consolidation share published by the migration planner.
    consolidated_share: Fraction,
    /// Mode transitions observed on the notification port.
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
    let (changed_tx, changed_rx) = port::<ModeChanged>();
    let mut engine: Engine<KernelWorld> = Engine::new(outage);
    let controller = engine.add_component(TechniqueController {
        changed: changed_tx,
        before: None,
    });
    engine.add_component(WorkloadCoupler {
        changes: changed_rx,
    });
    engine.add_component(MigrationPlanner);
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
        st,
        segments: Vec::new(),
        t_root: None,
        load: Watts::ZERO,
        rates: (0.0, false),
        consolidated_share: Fraction::ONE,
        mode_changes: 0,
    };
    engine.run(&mut world);
    dcb_telemetry::counter!("sim.kernel.mode_transitions").add(world.mode_changes);
    KernelRun {
        segments: world.segments,
        st: world.st,
    }
}

/// Emits a technique-transition trace instant at `t` if the mode name
/// changed, and reports whether it did.
fn transition_changed(from: &'static str, to: &'static str, t: Seconds, root: Option<u32>) -> bool {
    if to == from {
        return false;
    }
    if dcb_trace::enabled() {
        dcb_trace::instant(Some(dcb_trace::micros(t)), root, || {
            dcb_trace::EventKind::TechniqueTransition {
                from: from.to_owned(),
                to: to.to_owned(),
            }
        });
    }
    true
}

/// Owns the mode machine: instantaneous transitions, mode-internal
/// timers, the unthrottle/fallback searches, and transition dispatch.
struct TechniqueController {
    changed: OutPort<ModeChanged>,
    /// Mode name captured in `observe`, compared after the fire.
    before: Option<&'static str>,
}

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
        if transition_changed(from, world.st.mode.name(), t, world.t_root) {
            self.changed.send(ModeChanged);
        }
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
        self.before = Some(world.st.mode.name());
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
                        share: world.consolidated_share,
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
        let Some(from) = self.before.take() else {
            return;
        };
        if transition_changed(
            from,
            world.st.mode.name(),
            fired.time.seconds(),
            world.t_root,
        ) {
            self.changed.send(ModeChanged);
        }
    }
}

/// Re-derives the workload-facing caches each cycle and tallies the
/// mode-change notifications from the controller's port.
struct WorkloadCoupler {
    changes: InPort<ModeChanged>,
}

impl<'a> Component<KernelWorld<'a>> for WorkloadCoupler {
    fn name(&self) -> &'static str {
        "workload-coupler"
    }

    fn sync(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx) {
        world.mode_changes += self.changes.drain().len() as u64;
        world.load = world.sim.supply_load(&world.st.mode, world.backup);
        world.rates = world.sim.mode_rates(&world.st.mode);
    }

    fn fire(&mut self, _world: &mut KernelWorld<'a>, _ctx: &mut Ctx, fired: &Fired) {
        contract!(
            false,
            "workload coupler posts no events (token {})",
            fired.token
        );
    }

    fn epilogue(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx, _fired: &Fired) {
        // Post-fire transitions land here (the controller's epilogue runs
        // first), so the tally is complete every cycle.
        world.mode_changes += self.changes.drain().len() as u64;
    }
}

/// Publishes the consolidation share the migration model settled on.
struct MigrationPlanner;

impl<'a> Component<KernelWorld<'a>> for MigrationPlanner {
    fn name(&self) -> &'static str {
        "migration-planner"
    }

    fn init(&mut self, world: &mut KernelWorld<'a>, _ctx: &mut Ctx) {
        world.consolidated_share = world.sim.consolidated_share();
    }

    fn fire(&mut self, _world: &mut KernelWorld<'a>, _ctx: &mut Ctx, fired: &Fired) {
        contract!(
            false,
            "migration planner posts no events (token {})",
            fired.token
        );
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
        if !dcb_trace::enabled() {
            return;
        }
        if let Some(dg) = world.backup.dg() {
            let mut milestones = vec![
                ("engine_start", dg.start_delay()),
                ("full_power", dg.transfer_complete()),
            ];
            if let Some(fuel) = dg.fuel_runtime() {
                milestones.push(("fuel_exhausted", fuel));
            }
            for (phase, at) in milestones {
                if at <= world.outage {
                    dcb_trace::instant(Some(dcb_trace::micros(at)), world.t_root, || {
                        dcb_trace::EventKind::DgRampPhase {
                            phase: phase.to_owned(),
                        }
                    });
                }
            }
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
        if let Some(tr) = first_true(t, hi, |tau| backup.available_power(tau) >= reboot_load) {
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
