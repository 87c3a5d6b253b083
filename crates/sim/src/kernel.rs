//! The event-driven piecewise-analytic solver behind
//! [`OutageSim::run`](crate::OutageSim::run).
//!
//! Between events the cluster's mode — hence its load — is constant, so
//! the outage advances segment by segment instead of step by step. Each
//! iteration of the segment loop in
//! [`OutageSim::run_with_backup_trajectory`] applies the zero-duration
//! transitions valid at the current instant, then finds the earliest of:
//!
//! * a mode-internal timer expiry (sleep entered, save finished, migration
//!   copy→pause switch or completion, recovery booted) — known exactly;
//! * the battery-depletion or supply-overload instant for the current
//!   load, solved in closed form by
//!   [`BackupSystem::first_shortfall`](dcb_power::BackupSystem::first_shortfall);
//! * the DG-ramp crossover after which throttling serves no purpose;
//! * the latest safe instant for a hybrid technique to fall back to its
//!   save-state plan;
//! * the instant a crashed cluster finds enough backup power to reboot;
//! * outage end.
//!
//! It commits the segment up to that event with one exact Peukert ramp
//! draw and fires the event's transition. The timer, or else outage end,
//! pins the window `(t, hi]` before any located search runs: a search's
//! sample grid is a pure function of its bracket, so this code order is
//! what keeps every located root, and every value computed from it,
//! bit-stable (DESIGN.md §14). A run records the `engine.*` counters and
//! profiler frames listed in OBSERVABILITY.md.

use crate::engine::{Mode, OutageSim, RunState};
use crate::segment::{Segment, SegmentEnd, Trajectory};
use crate::Fallback;
use dcb_engine::locate::first_true;
use dcb_power::BackupSystem;
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{contract, Fraction, Seconds, Watts};

/// Event budget per outage. Real trajectories resolve in well under a
/// hundred events; the cap is a modeling-bug backstop, not a tuning knob.
const MAX_EVENTS: u32 = 10_000;

/// The per-end-cause telemetry counter for a committed segment. The match
/// keeps each name at a fixed call site so the `counter!` cache applies.
fn segment_end_counter(end: SegmentEnd) -> &'static dcb_telemetry::Counter {
    match end {
        SegmentEnd::OutageEnd => dcb_telemetry::counter!("sim.kernel.end.outage_end"),
        SegmentEnd::TimerExpired => dcb_telemetry::counter!("sim.kernel.end.timer_expired"),
        SegmentEnd::MigrationPause => dcb_telemetry::counter!("sim.kernel.end.migration_pause"),
        SegmentEnd::BatteryDepleted => dcb_telemetry::counter!("sim.kernel.end.battery_depleted"),
        SegmentEnd::SupplyOverload => dcb_telemetry::counter!("sim.kernel.end.supply_overload"),
        SegmentEnd::DgCrossover => dcb_telemetry::counter!("sim.kernel.end.dg_crossover"),
        SegmentEnd::HybridFallback => dcb_telemetry::counter!("sim.kernel.end.hybrid_fallback"),
        SegmentEnd::RecoveryPower => dcb_telemetry::counter!("sim.kernel.end.recovery_power"),
    }
}

/// Emits, as trace instants parented to `root`, the DG ramp milestones an
/// outage of length `outage` reaches: the engine start; full power, when
/// the ramp completes before any fuel limit stops the generator; and fuel
/// exhaustion at `start_delay + fuel_runtime`, where the DG model runs the
/// fuel out. The loop emits them up front: they are a pure function of
/// time.
fn trace_dg_milestones(backup: &BackupSystem, outage: Seconds, root: Option<u32>) {
    let Some(dg) = backup.dg() else {
        return;
    };
    let fuel_out = dg.fuel_runtime().map(|fuel| dg.start_delay() + fuel);
    let full_power = fuel_out
        .is_none_or(|out| dg.transfer_complete() < out)
        .then_some(("full_power", dg.transfer_complete()));
    let milestones = [
        Some(("engine_start", dg.start_delay())),
        full_power,
        fuel_out.map(|out| ("fuel_exhausted", out)),
    ];
    for (phase, at) in milestones.into_iter().flatten() {
        if at <= outage {
            dcb_trace::instant(Some(dcb_trace::micros(at)), root, || {
                dcb_trace::EventKind::DgRampPhase { phase }
            });
        }
    }
}

/// Who fires a kernel event: the technique's mode machine, the battery's
/// shortfall rule, or the DG ramp's crash recovery. The names are the
/// `engine.fired.<owner>` counters and `engine;<owner>` profiler frames a
/// run records (OBSERVABILITY.md).
#[derive(Debug, Clone, Copy)]
enum Owner {
    TechniqueController,
    BatteryPack,
    DgRamp,
}

impl Owner {
    /// Every owner, in recording order.
    const ALL: [Owner; 3] = [
        Owner::TechniqueController,
        Owner::BatteryPack,
        Owner::DgRamp,
    ];

    /// The owner's name in counters and profiler frames.
    const fn name(self) -> &'static str {
        match self {
            Owner::TechniqueController => "technique-controller",
            Owner::BatteryPack => "battery-pack",
            Owner::DgRamp => "dg-ramp",
        }
    }

    /// The owner's fired-event counter, `engine.fired.<owner>`. The match
    /// keeps each name at a fixed call site so the `counter!` cache
    /// applies.
    fn fired_counter(self) -> &'static dcb_telemetry::Counter {
        match self {
            Owner::TechniqueController => {
                dcb_telemetry::counter!("engine.fired.technique-controller")
            }
            Owner::BatteryPack => dcb_telemetry::counter!("engine.fired.battery-pack"),
            Owner::DgRamp => dcb_telemetry::counter!("engine.fired.dg-ramp"),
        }
    }
}

/// What ends the segment under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Restore full speed: the DG now carries the unthrottled load.
    Unthrottle,
    /// Latest safe instant to enter the hybrid fallback.
    Fallback,
    /// Battery depletion or supply overload.
    Shortfall,
    /// Migration copy phase gives way to the stop-and-copy pause.
    Pause,
    /// A mode-internal timer expired.
    TimerDone,
    /// A crashed cluster found enough power to reboot.
    RecoveryReady,
    /// Utility power returned.
    End,
}

impl Pending {
    /// The part of the model whose rule fires this event.
    const fn owner(self) -> Owner {
        match self {
            Pending::Shortfall => Owner::BatteryPack,
            Pending::RecoveryReady => Owner::DgRamp,
            Pending::Unthrottle
            | Pending::Fallback
            | Pending::Pause
            | Pending::TimerDone
            | Pending::End => Owner::TechniqueController,
        }
    }
}

impl OutageSim {
    /// Runs the event-driven solver against a fresh backup system and
    /// returns the full segment trajectory alongside the outcome.
    #[must_use]
    pub fn run_trajectory(&self, outage: Seconds) -> Trajectory {
        let mut backup = self.config().instantiate(self.cluster().peak_power());
        self.run_with_backup_trajectory(outage, &mut backup)
    }

    /// Runs the event-driven solver against an existing backup system,
    /// preserving its battery state of charge, and returns the full
    /// segment trajectory alongside the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `outage` is negative or non-finite.
    #[must_use]
    pub fn run_with_backup_trajectory(
        &self,
        outage: Seconds,
        backup: &mut BackupSystem,
    ) -> Trajectory {
        assert!(
            outage.value() >= 0.0 && outage.is_finite(),
            "outage must be finite and non-negative"
        );
        // Root trace event for this scenario plus the DG ramp milestones,
        // which are a pure function of time and can be emitted up front.
        let t_root = if dcb_trace::enabled() {
            let root = dcb_trace::instant(Some(0), None, || dcb_trace::EventKind::OutageStart {
                config: self.config().label().to_owned(),
                technique: self.technique().name().to_owned(),
                outage_us: dcb_trace::micros(outage),
            });
            trace_dg_milestones(backup, outage, root);
            root
        } else {
            None
        };

        let transitions = TransitionTimes::new(*self.cluster().spec());
        let (mode, state_lost) = self.initial_mode(&transitions);
        let mut st = RunState {
            mode,
            state_lost,
            unplanned_crash: false,
            crash_recovery_engaged: false,
            serving_integral: 0.0,
            downtime: Seconds::ZERO,
        };
        let mut segments: Vec<Segment> = Vec::new();
        let mut t = Seconds::ZERO;
        let mut events = 0u32;
        let mut fired = [0u64; Owner::ALL.len()];
        let mut mode_changes = 0u64;
        while t < outage {
            events += 1;
            contract!(
                events <= MAX_EVENTS,
                "event budget exceeded at t={t} in mode {:?}",
                st.mode
            );
            if events > MAX_EVENTS {
                break; // modeling-bug backstop; the contract above reports it
            }

            // Instantaneous transitions, in the stepper's per-step order.
            let before = st.mode.name();
            self.apply_instantaneous(&mut st, backup, &transitions, t, outage);
            mode_changes += note_transition(before, &st.mode, t, t_root);

            // The segment's constant load, and the hard boundary: the next
            // mode-internal timer, or outage end.
            let load = self.supply_load(&st.mode, backup);
            let timer: Option<(Seconds, Pending)> = match &st.mode {
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
            // A timer landing exactly on outage end still fires (the
            // stepper progresses the mode within its final step).
            let boundary = match timer {
                Some((at, ev)) if at <= outage => (at, 3u8, ev),
                _ => (outage, 4u8, Pending::End),
            };
            let hi = boundary.0;

            // Candidate events inside (t, hi], tagged with a tie-breaking
            // priority mirroring the stepper's within-step check order and
            // offered in a fixed order: the earliest wins, and on a
            // dead-even tie the lower priority number (the check the
            // stepper runs first), then the earlier offer.
            let mut best = boundary;
            if let Some(ts) = backup.first_shortfall(load, t, hi) {
                offer(&mut best, (ts.max(t), 2, Pending::Shortfall));
            }
            let (unthrottle, fallback) =
                self.locate_serving_events(backup, &transitions, &st.mode, load, t, hi, outage);
            if let Some(tu) = unthrottle {
                offer(&mut best, (tu, 0, Pending::Unthrottle));
            }
            if let Some(tf) = fallback {
                offer(&mut best, (tf, 1, Pending::Fallback));
            }
            if matches!(st.mode, Mode::Crashed) {
                // A sufficiently ramped DG lets a crashed cluster reboot
                // mid-outage (NoUPS: "DG translates long outages into short
                // ones").
                let reboot_load = self.supply_load(
                    &Mode::Recovering {
                        remaining: Seconds::ZERO,
                    },
                    backup,
                );
                let ready = |tau| backup.available_power(tau) >= reboot_load;
                if backup.dg().is_none() {
                    // Without a DG the available power is the UPS's, which
                    // does not move with τ, and the instantaneous check has
                    // just found it short of the reboot load at `t`: no
                    // instant of the window can reboot.
                    contract!(!ready(hi), "DG-less recovery predicate holds at {hi}");
                } else if let Some(tr) = first_true(t, hi, ready) {
                    offer(&mut best, (tr, 2, Pending::RecoveryReady));
                }
            }
            let (when, _, what) = best;
            fired[what.owner() as usize] += 1;
            let end = when.min(outage).max(t);

            // Commit the segment: one exact Peukert ramp draw, no steps.
            if end > t {
                let sustained = backup.supply_segment(load, t, end);
                contract!(
                    ((end - t) - sustained).value().abs() < 1e-3,
                    "segment [{t}, {end}] not fully sustained: {sustained}"
                );
                let (rate, down) = self.mode_rates(&st.mode);
                st.serving_integral += rate * (end - t).value();
                if down {
                    st.downtime += end - t;
                }
                let ended_by = match what {
                    Pending::Unthrottle => SegmentEnd::DgCrossover,
                    Pending::Fallback => SegmentEnd::HybridFallback,
                    Pending::Shortfall => match backup.ups() {
                        Some(u) if u.is_depleted() => SegmentEnd::BatteryDepleted,
                        _ => SegmentEnd::SupplyOverload,
                    },
                    Pending::Pause => SegmentEnd::MigrationPause,
                    Pending::TimerDone => SegmentEnd::TimerExpired,
                    Pending::RecoveryReady => SegmentEnd::RecoveryPower,
                    Pending::End => SegmentEnd::OutageEnd,
                };
                segments.push(Segment {
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
                    dcb_trace::complete(start_us, end_us.saturating_sub(start_us), t_root, || {
                        dcb_trace::EventKind::SegmentCommit {
                            end_cause: ended_by.as_str(),
                            load_mw: (load.value() * 1e3).round() as u64,
                            throughput_pm: (rate * 1e3).round() as u64,
                            in_downtime: down,
                        }
                    });
                    if ended_by == SegmentEnd::BatteryDepleted {
                        dcb_trace::instant(Some(end_us), t_root, || {
                            dcb_trace::EventKind::BatteryDeplete
                        });
                    }
                }
                // Timers tick down by the committed span.
                let elapsed = end - t;
                match &mut st.mode {
                    Mode::Migrating { remaining, .. }
                    | Mode::EnteringSleep { remaining, .. }
                    | Mode::Saving { remaining, .. }
                    | Mode::Recovering { remaining } => *remaining -= elapsed,
                    _ => {}
                }
            }
            t = end;

            // Fire the event's transition.
            let before = st.mode.name();
            match what {
                Pending::End => {}
                Pending::Pause => {
                    // Pin the timer to the pause length exactly so the
                    // copy→pause flip is not re-found a rounding error away.
                    if let Mode::Migrating {
                        remaining, pause, ..
                    } = &mut st.mode
                    {
                        *remaining = *pause;
                    }
                }
                Pending::TimerDone => {
                    st.mode = match st.mode {
                        Mode::Migrating { after, .. } => Mode::Serving {
                            level: after,
                            share: self.consolidated_share(),
                        },
                        Mode::EnteringSleep { .. } => self.sleep_target(),
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
                Pending::Shortfall => self.apply_shortfall(&mut st),
                Pending::Unthrottle => {
                    if let Mode::Serving { share, .. } = st.mode {
                        st.mode = Mode::Serving {
                            level: ThrottleLevel::NONE,
                            share,
                        };
                    }
                }
                Pending::Fallback => {
                    if let Some(fb) = self.technique().fallback() {
                        st.mode = self.fallback_mode(fb, &transitions);
                    }
                }
                Pending::RecoveryReady => {
                    st.crash_recovery_engaged = true;
                    st.mode = Mode::Recovering {
                        remaining: self.expected_recovery(),
                    };
                }
            }
            mode_changes += note_transition(before, &st.mode, t, t_root);
        }

        record_run(events, &fired);
        dcb_telemetry::counter!("sim.kernel.mode_transitions").add(mode_changes);
        self.finish_trajectory(outage, st, backup, &transitions, segments)
    }

    /// Assembles, validates, and counts a finished trajectory.
    fn finish_trajectory(
        &self,
        outage: Seconds,
        st: RunState,
        backup: &mut BackupSystem,
        transitions: &TransitionTimes,
        segments: Vec<Segment>,
    ) -> Trajectory {
        let outcome = self.assemble(outage, st, backup, transitions);
        let trajectory = Trajectory { segments, outcome };
        trajectory.validate();
        dcb_telemetry::counter!("sim.kernel.outages").incr();
        dcb_telemetry::counter!("sim.kernel.segments").add(trajectory.segments.len() as u64);
        dcb_telemetry::histogram!("sim.kernel.segments_per_outage")
            .observe(trajectory.segments.len() as u64);
        for segment in &trajectory.segments {
            segment_end_counter(segment.ended_by).incr();
        }
        if dcb_prof::enabled() {
            // Segments attribute per end cause; the per-cause sum equals
            // `sim.kernel.segments`, so the profile reconciles exactly.
            let _kernel = dcb_prof::frame("sim-kernel");
            for segment in &trajectory.segments {
                let _cause = dcb_prof::frame(segment.ended_by.as_str());
                dcb_prof::record(dcb_prof::WorkKind::Segments, 1);
            }
        }
        trajectory
    }

    /// Zero-duration transitions checked at the current instant, in the
    /// stepper's per-step order: unthrottle, hybrid fallback, crash
    /// recovery.
    fn apply_instantaneous(
        &self,
        st: &mut RunState,
        backup: &BackupSystem,
        transitions: &TransitionTimes,
        t: Seconds,
        outage: Seconds,
    ) {
        if let Mode::Serving { level, share } = &st.mode {
            if *level != ThrottleLevel::NONE {
                let full = Mode::Serving {
                    level: ThrottleLevel::NONE,
                    share: *share,
                };
                let full_load = self.supply_load(&full, backup);
                if backup.endurance(full_load, t).value().is_infinite() {
                    st.mode = full;
                }
            }
        }
        if let (Mode::Serving { .. }, Some(fb)) = (&st.mode, self.technique().fallback()) {
            if self.must_fall_back(fb, backup, transitions, &st.mode, t, outage, Seconds::ZERO) {
                st.mode = self.fallback_mode(fb, transitions);
            }
        }
        if matches!(st.mode, Mode::Crashed) {
            let reboot_load = self.supply_load(
                &Mode::Recovering {
                    remaining: Seconds::ZERO,
                },
                backup,
            );
            if backup.available_power(t) >= reboot_load {
                st.crash_recovery_engaged = true;
                st.mode = Mode::Recovering {
                    remaining: self.expected_recovery(),
                };
            }
        }
    }

    /// The stepper's supply-failure transition, fired at the exact
    /// shortfall instant.
    fn apply_shortfall(&self, st: &mut RunState) {
        match st.mode {
            Mode::Hibernated { .. } | Mode::Crashed | Mode::NvdimmPersisted => {
                // Zero-load modes cannot actually get here, but be safe:
                // nothing more to lose.
            }
            Mode::Recovering { .. } => {
                st.mode = Mode::Crashed; // power went away mid-reboot
            }
            Mode::Serving { .. }
                if matches!(self.technique().fallback(), Some(Fallback::Nvdimm)) =>
            {
                // The in-DIMM supercapacitors flush state as power
                // collapses: planned, nothing lost.
                st.mode = Mode::NvdimmPersisted;
            }
            _ => {
                // Losing state that was still intact is an unplanned
                // failure of the technique; re-crashing a cluster whose
                // state was already gone adds nothing the plan had
                // promised to keep.
                if !st.state_lost {
                    st.unplanned_crash = true;
                }
                st.state_lost = true;
                st.mode = Mode::Crashed;
            }
        }
    }

    /// The located events of a cluster serving in `mode` at `t` with the
    /// window pinned at `hi`: the DG crossover after which the unthrottled
    /// load is carried indefinitely, and the latest safe instant to enter
    /// the technique's fallback. `load` is the serving supply load. A
    /// system without a DG has no crossover, so its unthrottle search is
    /// skipped.
    ///
    /// Each predicate reads the battery charge projected to the instant τ
    /// under test. Everything that does not move with τ is planned once per
    /// search: the charge projection of `load` over the window, the
    /// unthrottled load's endurance and the fallback reserve. An
    /// evaluation is then a few flops and at most one `powf`, running the
    /// same floating-point operations as projecting the backup system to τ
    /// and asking it afresh, so every root is unchanged to the bit.
    #[allow(clippy::too_many_arguments)]
    fn locate_serving_events(
        &self,
        backup: &BackupSystem,
        transitions: &TransitionTimes,
        mode: &Mode,
        load: Watts,
        t: Seconds,
        hi: Seconds,
        outage: Seconds,
    ) -> (Option<Seconds>, Option<Seconds>) {
        let Mode::Serving { level, share } = *mode else {
            return (None, None);
        };
        let fallback = self.technique().fallback();
        let full_load = || {
            let full = Mode::Serving {
                level: ThrottleLevel::NONE,
                share,
            };
            self.supply_load(&full, backup)
        };
        // Without a DG the unthrottled load's endurance is the UPS runtime
        // left at that load, finite at every instant (zero without a UPS),
        // so the unthrottle predicate never holds: no search.
        let unthrottles = level != ThrottleLevel::NONE && backup.dg().is_some();
        if level != ThrottleLevel::NONE && !unthrottles {
            contract!(
                !backup
                    .endurance_plan(full_load())
                    .at(backup.charge_projection(load, t, hi).charge_at(hi), hi)
                    .value()
                    .is_infinite(),
                "DG-less unthrottle predicate holds at {hi}"
            );
        }
        if !unthrottles && fallback.is_none() {
            return (None, None);
        }
        let projection = backup.charge_projection(load, t, hi);
        let unthrottle = if unthrottles {
            let endurance = backup.endurance_plan(full_load()).solved();
            first_true(t, hi, |tau| {
                endurance
                    .at(projection.charge_at(tau), tau)
                    .value()
                    .is_infinite()
            })
        } else {
            None
        };
        let fall_back = fallback.and_then(|fb| {
            let plan = self.fallback_plan(fb, backup, transitions, mode).solved();
            first_true(t, hi, |tau| {
                plan.falls_back(projection.charge_at(tau), tau, outage, Seconds::ZERO)
            })
        });
        (unthrottle, fall_back)
    }
}

/// Keeps the earlier of the best candidate so far and `candidate`: the
/// earlier time wins, then the lower priority number; a full tie keeps
/// the earlier offer.
fn offer(best: &mut (Seconds, u8, Pending), candidate: (Seconds, u8, Pending)) {
    if candidate.0 < best.0 || (candidate.0 <= best.0 && candidate.1 < best.1) {
        *best = candidate;
    }
}

/// Counts a change of mode name since `from` (1 or 0), and emits its
/// technique-transition trace instant at `t`.
fn note_transition(from: &'static str, mode: &Mode, t: Seconds, root: Option<u32>) -> u64 {
    let to = mode.name();
    if to == from {
        return 0;
    }
    if dcb_trace::enabled() {
        dcb_trace::instant(Some(dcb_trace::micros(t)), root, || {
            dcb_trace::EventKind::TechniqueTransition { from, to }
        });
    }
    1
}

/// Records one finished run: `engine.runs`, `engine.cycles` and its
/// per-run histogram, and, while telemetry or the profiler records, the
/// fires per owner as `engine.fired.<owner>` counters and `engine;<owner>`
/// profiler frames. A cycle is one loop iteration; an owner that fired
/// nothing registers no counter and opens no frame.
fn record_run(cycles: u32, fired: &[u64; Owner::ALL.len()]) {
    dcb_telemetry::counter!("engine.runs").incr();
    dcb_telemetry::counter!("engine.cycles").add(u64::from(cycles));
    dcb_telemetry::histogram!("engine.cycles_per_run").observe(u64::from(cycles));
    if dcb_telemetry::enabled() {
        for (owner, &n) in Owner::ALL.iter().zip(fired) {
            if n > 0 {
                owner.fired_counter().add(n);
            }
        }
    }
    if dcb_prof::enabled() {
        // The per-owner sum equals `engine.cycles`, so the profile
        // reconciles with telemetry exactly.
        let _engine = dcb_prof::frame("engine");
        for (owner, &n) in Owner::ALL.iter().zip(fired) {
            if n > 0 {
                let _owner = dcb_prof::frame(owner.name());
                dcb_prof::record(dcb_prof::WorkKind::Cycles, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, Technique};
    use dcb_power::BackupConfig;
    use dcb_workload::Workload;

    fn sim(config: BackupConfig, technique: Technique) -> OutageSim {
        OutageSim::new(Cluster::rack(Workload::specjbb()), config, technique)
    }

    #[test]
    fn trajectory_resolves_in_few_segments() {
        let traj = sim(BackupConfig::max_perf(), Technique::ride_through())
            .run_trajectory(Seconds::from_minutes(120.0));
        // Constant serving load through the whole outage: a handful of
        // segments, not 7200 steps.
        assert!(
            traj.segments.len() <= 4,
            "expected O(#events) segments, got {}",
            traj.segments.len()
        );
        assert!(matches!(
            traj.segments.last().map(|s| s.ended_by),
            Some(SegmentEnd::OutageEnd)
        ));
    }

    #[test]
    fn depletion_shows_up_as_an_event() {
        let traj = sim(BackupConfig::no_dg(), Technique::ride_through())
            .run_trajectory(Seconds::from_minutes(10.0));
        assert!(
            traj.segments
                .iter()
                .any(|s| s.ended_by == SegmentEnd::BatteryDepleted),
            "segments: {:?}",
            traj.segments
        );
        assert!(!traj.outcome.feasible);
    }

    #[test]
    fn hybrid_fallback_is_a_located_event() {
        let technique = Technique::throttle_sleep_l(crate::technique::low_power_level());
        let traj = sim(BackupConfig::small_p_large_e_ups(), technique)
            .run_trajectory(Seconds::from_minutes(120.0));
        assert!(
            traj.segments
                .iter()
                .any(|s| s.ended_by == SegmentEnd::HybridFallback),
            "segments: {:?}",
            traj.segments
        );
        assert!(traj.outcome.feasible);
    }

    #[test]
    fn crashed_cluster_recovery_is_a_located_event() {
        let traj = sim(BackupConfig::no_ups(), Technique::ride_through())
            .run_trajectory(Seconds::from_minutes(120.0));
        let kinds: Vec<SegmentEnd> = traj.segments.iter().map(|s| s.ended_by).collect();
        assert!(
            kinds.contains(&SegmentEnd::RecoveryPower) && kinds.contains(&SegmentEnd::TimerExpired),
            "kinds: {kinds:?}"
        );
        assert!(traj.outcome.perf_during_outage.value() > 0.8);
    }

    #[test]
    fn segments_tile_the_outage_exactly() {
        for technique in [
            Technique::ride_through(),
            Technique::sleep_l(),
            Technique::hibernate(),
            Technique::migration(),
        ] {
            let traj = sim(BackupConfig::large_e_ups(), technique)
                .run_trajectory(Seconds::from_minutes(45.0));
            let mut cursor = Seconds::ZERO;
            for seg in &traj.segments {
                assert!((seg.start - cursor).value().abs() < 1e-6);
                assert!(seg.duration().value() >= 0.0);
                cursor = seg.end;
            }
            assert!((cursor.value() - 45.0 * 60.0).abs() < 1e-6);
        }
    }
}
