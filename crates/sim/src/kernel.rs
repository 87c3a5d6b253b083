//! The event-driven piecewise-analytic solver: public facade and shared
//! transition rules.
//!
//! Between events the cluster's mode — hence its load — is constant, so
//! the outage advances segment by segment instead of step by step. Each
//! iteration finds the earliest of:
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
//! Since the `dcb-engine` extraction the solver itself is hosted as a set
//! of engine components — see [`components`](crate::components) for the
//! technique controller, battery pack, DG ramp and supply segmenter, and
//! [`legacy`](crate::legacy) for the original hand-rolled loop kept as a
//! bit-identity oracle. This module keeps the stable entry points
//! ([`OutageSim::run_trajectory`] and friends) and the transition rules
//! both hosts share: the instantaneous mode checks, the shortfall crash
//! rule, the located-event searches of a serving cluster, the DG ramp
//! milestones, and the per-end-cause telemetry.

use crate::components;
use crate::engine::{Mode, OutageSim, RunState};
use crate::segment::{Segment, SegmentEnd, Trajectory};
use crate::Fallback;
use dcb_engine::locate::first_true;
use dcb_power::BackupSystem;
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{contract, Seconds, Watts};

/// Event budget per outage. Real trajectories resolve in well under a
/// hundred events; the cap is a modeling-bug backstop, not a tuning knob.
pub(crate) const MAX_EVENTS: u32 = 10_000;

/// The per-end-cause telemetry counter for a committed segment. The match
/// keeps each name at a fixed call site so the `counter!` cache applies.
pub(crate) fn segment_end_counter(end: SegmentEnd) -> &'static dcb_telemetry::Counter {
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
/// fuel out. Both kernel hosts emit them up front: they are a pure
/// function of time.
pub(crate) fn trace_dg_milestones(backup: &BackupSystem, outage: Seconds, root: Option<u32>) {
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
                dcb_trace::EventKind::DgRampPhase {
                    phase: phase.to_owned(),
                }
            });
        }
    }
}

/// What ends the segment under construction. Shared by the engine-hosted
/// components (as the event token) and the legacy oracle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
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
    /// The calendar token encoding of this event kind.
    pub(crate) const fn token(self) -> u64 {
        match self {
            Pending::Unthrottle => 0,
            Pending::Fallback => 1,
            Pending::Shortfall => 2,
            Pending::Pause => 3,
            Pending::TimerDone => 4,
            Pending::RecoveryReady => 5,
            Pending::End => 6,
        }
    }

    /// Decodes a calendar token posted by one of the kernel components.
    pub(crate) fn from_token(token: u64) -> Pending {
        match token {
            0 => Pending::Unthrottle,
            1 => Pending::Fallback,
            2 => Pending::Shortfall,
            3 => Pending::Pause,
            4 => Pending::TimerDone,
            5 => Pending::RecoveryReady,
            _ => {
                contract!(token == 6, "unknown kernel event token {token}");
                Pending::End
            }
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
    /// Hosted on the `dcb-engine` component core; asserted bit-identical
    /// to [`OutageSim::run_with_backup_trajectory_legacy`] by the
    /// componentized differential suite.
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
        let transitions = TransitionTimes::new(*self.cluster().spec());
        let (mode, state_lost) = self.initial_mode(&transitions);
        let st = RunState {
            mode,
            state_lost,
            unplanned_crash: false,
            crash_recovery_engaged: false,
            serving_integral: 0.0,
            downtime: Seconds::ZERO,
        };
        let run = components::run_componentized(self, outage, backup, &transitions, st);
        self.finish_trajectory(outage, run.st, backup, &transitions, run.segments)
    }

    /// Assembles, validates, and counts a finished trajectory — the
    /// telemetry tail both kernel hosts share.
    pub(crate) fn finish_trajectory(
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
    pub(crate) fn apply_instantaneous(
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
    pub(crate) fn apply_shortfall(&self, st: &mut RunState) {
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
    pub(crate) fn locate_serving_events(
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

    #[test]
    fn pending_tokens_round_trip() {
        for pending in [
            Pending::Unthrottle,
            Pending::Fallback,
            Pending::Shortfall,
            Pending::Pause,
            Pending::TimerDone,
            Pending::RecoveryReady,
            Pending::End,
        ] {
            assert_eq!(Pending::from_token(pending.token()), pending);
        }
    }
}
