//! The outage simulation core: shared mode machinery and the public
//! [`OutageSim`] entry points.
//!
//! Two interchangeable solvers share everything in this module: the
//! event-driven piecewise-analytic kernel (`kernel.rs`, the segment loop
//! behind [`OutageSim::run`]) and the fixed-step loop (`stepper.rs`, a
//! differential oracle compiled only into this crate's tests). Mode
//! semantics, fallback planning, and outcome assembly live here so the
//! two cannot drift apart.

use crate::{Cluster, Fallback, FinalState, InitialAction, SimOutcome, Technique};
use dcb_battery::PackSpec;
use dcb_migration::{ConsolidationPlan, MigrationModel};
use dcb_power::{BackupConfig, BackupSystem, EndurancePlan, Ups};
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{Fraction, Gigabytes, Seconds, Watts};
use dcb_workload::DowntimeRange;
use std::borrow::Cow;

/// Simulates one cluster through one utility outage under one
/// outage-handling technique and one backup configuration.
///
/// The default solver is event-driven: between events the cluster's load
/// is constant (a mode only changes at a timer expiry, a battery-depletion
/// instant, a DG-ramp crossover, a hybrid-fallback latest-safe instant, or
/// outage end), so each next event time is computed in closed form and the
/// outage resolves in O(#events) exact segments. Hybrid techniques switch
/// from their sustain phase to their save-state fallback at the latest
/// instant the remaining battery charge still covers the save — the
/// planning rule behind the paper's *Throttle+Sleep-L* results. The
/// fixed-step solver survives only in this crate's tests, as the
/// kernel's differential oracle.
#[derive(Debug, Clone)]
pub struct OutageSim {
    cluster: Cluster,
    config: BackupConfig,
    technique: Technique,
    migration: MigrationModel,
    consolidation: ConsolidationPlan,
    tare_fraction: f64,
}

/// What the cluster is doing at an instant of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Mode {
    Serving {
        level: ThrottleLevel,
        share: Fraction,
    },
    Migrating {
        during: ThrottleLevel,
        after: ThrottleLevel,
        remaining: Seconds,
        pause: Seconds,
    },
    EnteringSleep {
        level: ThrottleLevel,
        remaining: Seconds,
    },
    Sleeping,
    /// S3 with NIC + memory controller alive: peers serve reads over RDMA.
    SleepingRemote,
    Saving {
        level: ThrottleLevel,
        remaining: Seconds,
    },
    /// State safe in NVDIMM flash, servers powered off.
    NvdimmPersisted,
    Hibernated {
        saved_throttled: bool,
    },
    Crashed,
    Recovering {
        remaining: Seconds,
    },
}

impl Mode {
    /// Stable wire name of the mode, used by trace `technique_transition`
    /// events. Throttled serving is distinguished because the unthrottle
    /// crossover is one of the kernel's located events.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Mode::Serving { level, .. } => {
                if *level == ThrottleLevel::NONE {
                    "serving"
                } else {
                    "serving_throttled"
                }
            }
            Mode::Migrating { .. } => "migrating",
            Mode::EnteringSleep { .. } => "entering_sleep",
            Mode::Sleeping => "sleeping",
            Mode::SleepingRemote => "sleeping_remote",
            Mode::Saving { .. } => "saving",
            Mode::NvdimmPersisted => "nvdimm_persisted",
            Mode::Hibernated { .. } => "hibernated",
            Mode::Crashed => "crashed",
            Mode::Recovering { .. } => "recovering",
        }
    }
}

/// Mutable run state threaded through either solver and handed to
/// [`OutageSim::assemble`] once utility power returns.
#[derive(Debug, Clone)]
pub(crate) struct RunState {
    pub(crate) mode: Mode,
    pub(crate) state_lost: bool,
    pub(crate) unplanned_crash: bool,
    pub(crate) crash_recovery_engaged: bool,
    /// Normalized-throughput seconds served so far.
    pub(crate) serving_integral: f64,
    /// In-outage downtime so far.
    pub(crate) downtime: Seconds,
}

impl OutageSim {
    /// Safety factor on the charge reserved for a fallback save.
    pub(crate) const FALLBACK_SAFETY: f64 = 1.1;
    /// UPS electronics tare draw while discharging, as a fraction of the
    /// unit's power rating.
    const DEFAULT_TARE: f64 = 0.005;

    /// Creates a simulation with the default migration model (Xen over
    /// 1 Gbps) and the paper's 2-to-1 consolidation.
    #[must_use]
    pub fn new(cluster: Cluster, config: BackupConfig, technique: Technique) -> Self {
        Self {
            cluster,
            config,
            technique,
            migration: MigrationModel::xen_default(),
            consolidation: ConsolidationPlan::halve(),
            tare_fraction: Self::DEFAULT_TARE,
        }
    }

    /// Overrides the consolidation plan.
    #[must_use]
    pub fn with_consolidation(mut self, consolidation: ConsolidationPlan) -> Self {
        self.consolidation = consolidation;
        self
    }

    /// Overrides the UPS tare fraction ([`Fraction::ZERO`] disables the
    /// tare). Taking a [`Fraction`] makes out-of-range and NaN inputs
    /// unrepresentable instead of policed by this builder.
    ///
    /// # Panics
    ///
    /// Panics if `tare` is exactly 1: the tare must leave headroom for the
    /// IT load itself.
    #[must_use]
    pub fn with_tare_fraction(mut self, tare: Fraction) -> Self {
        assert!(tare.value() < 1.0, "tare must be in [0, 1)");
        self.tare_fraction = tare.value();
        self
    }

    /// The cluster under test.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The backup configuration under test.
    #[must_use]
    pub fn config(&self) -> &BackupConfig {
        &self.config
    }

    /// The technique under test.
    #[must_use]
    pub fn technique(&self) -> &Technique {
        &self.technique
    }

    /// The consolidated serving share after a completed migration.
    pub(crate) fn consolidated_share(&self) -> Fraction {
        self.consolidation.share()
    }

    /// Number of servers still powered in a mode.
    fn active_servers(&self, share: Fraction) -> f64 {
        (f64::from(self.cluster.size()) * share.value()).ceil()
    }

    /// Cluster IT load (before UPS tare) for a mode.
    pub(crate) fn cluster_load(&self, mode: &Mode) -> Watts {
        let spec = self.cluster.spec();
        let util = self.cluster.workload().utilization();
        let n = f64::from(self.cluster.size());
        match mode {
            Mode::Serving { level, share } => {
                spec.active_power(*level, util) * self.active_servers(*share)
            }
            Mode::Migrating { during, .. } => {
                // Source and destination both busy plus copy overhead — the
                // "momentary spike" of §5, capped at nameplate peak.
                (spec.active_power(*during, util) * 1.05 * n).min(self.cluster.peak_power())
            }
            Mode::EnteringSleep { level, .. } | Mode::Saving { level, .. } => {
                spec.active_power(*level, util) * n
            }
            Mode::Sleeping => spec.sleep_power() * n,
            // Barely-alive: S3 plus an active NIC and memory controller.
            Mode::SleepingRemote => (spec.sleep_power() + Watts::new(10.0)) * n,
            Mode::Hibernated { .. } | Mode::Crashed | Mode::NvdimmPersisted => Watts::ZERO,
            Mode::Recovering { .. } => {
                spec.active_power(ThrottleLevel::NONE, Fraction::new(0.7)) * n
            }
        }
    }

    /// IT load plus UPS electronics tare (drawn whenever the backup is
    /// carrying a nonzero load).
    ///
    /// The tare is conversion overhead internal to the UPS: it drains the
    /// battery but is bounded by the unit's rating, so the combined draw is
    /// capped at the cluster's nameplate peak (the quantity the electronics
    /// are sized against).
    pub(crate) fn supply_load(&self, mode: &Mode, backup: &BackupSystem) -> Watts {
        let it = self.cluster_load(mode);
        if it.is_zero() {
            return it;
        }
        let tare = backup
            .ups()
            .map_or(Watts::ZERO, |u| u.power_capacity() * self.tare_fraction);
        (it + tare).min(self.cluster.peak_power().max(it))
    }

    /// The normalized throughput rate and downtime flag of a mode — the
    /// per-segment accounting rule shared by both solvers.
    pub(crate) fn mode_rates(&self, mode: &Mode) -> (f64, bool) {
        let w = self.cluster.workload();
        match mode {
            Mode::Serving { level, share } => (
                w.throughput_at(level.effective_speed(), *share).value(),
                false,
            ),
            Mode::Migrating {
                during,
                remaining,
                pause,
                ..
            } => {
                if *remaining > *pause {
                    (
                        w.throughput_at(during.effective_speed(), Fraction::ONE)
                            .value(),
                        false,
                    )
                } else {
                    (0.0, true) // stop-and-copy pause
                }
            }
            Mode::SleepingRemote => (w.remote_serve_fraction().value(), false),
            Mode::EnteringSleep { .. }
            | Mode::Sleeping
            | Mode::Saving { .. }
            | Mode::NvdimmPersisted
            | Mode::Hibernated { .. }
            | Mode::Crashed
            | Mode::Recovering { .. } => (0.0, true),
        }
    }

    /// The state volume a hibernation-style save must write. Delegates to
    /// the workload model, which owns the image/dirty-set accounting.
    fn hibernate_state(&self, proactive: bool) -> Gigabytes {
        self.cluster.workload().hibernate_write_volume(proactive)
    }

    /// Initial mode implied by the technique.
    pub(crate) fn initial_mode(&self, transitions: &TransitionTimes) -> (Mode, bool) {
        match self.technique.initial() {
            InitialAction::Continue(level) => (
                Mode::Serving {
                    level,
                    share: Fraction::ONE,
                },
                false,
            ),
            InitialAction::Crash => (Mode::Crashed, true),
            InitialAction::StartSleep(level) => (
                Mode::EnteringSleep {
                    level,
                    remaining: transitions.sleep_enter(level.effective_speed()),
                },
                false,
            ),
            InitialAction::StartHibernate { level, proactive } => (
                Mode::Saving {
                    level,
                    remaining: transitions
                        .hibernate_save(self.hibernate_state(proactive), level.effective_speed()),
                },
                false,
            ),
            InitialAction::PersistNvdimm => (Mode::NvdimmPersisted, false),
            InitialAction::StartRemoteSleep(level) => (
                Mode::EnteringSleep {
                    level,
                    remaining: transitions.sleep_enter(level.effective_speed()),
                },
                false,
            ),
            InitialAction::StartMigration {
                proactive,
                during,
                after,
            } => {
                let w = self.cluster.workload();
                let state = w.migration_state(proactive);
                let plan = self.migration.plan(state, w.dirty_profile().dirty_rate);
                (
                    Mode::Migrating {
                        during,
                        after,
                        remaining: plan.duration,
                        pause: plan.pause,
                    },
                    false,
                )
            }
        }
    }

    /// Whether a serving cluster must switch to its fallback *now* to keep
    /// the save (plus, for sleep, the rest of the outage) within the
    /// remaining battery charge. `step` is the cost lookahead of the
    /// stepped solver (one step of serving); the event kernel passes zero
    /// and locates the crossing instant instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn must_fall_back(
        &self,
        fallback: Fallback,
        backup: &BackupSystem,
        transitions: &TransitionTimes,
        mode: &Mode,
        t: Seconds,
        outage: Seconds,
        step: Seconds,
    ) -> bool {
        let charge = backup.ups().map_or(Fraction::ZERO, Ups::charge);
        self.fallback_plan(fallback, backup, transitions, mode)
            .falls_back(charge, t, outage, step)
    }

    /// The [`FallbackPlan`] of a cluster serving in `mode` on `backup`,
    /// with nothing solved up front.
    pub(crate) fn fallback_plan<'a>(
        &self,
        fallback: Fallback,
        backup: &'a BackupSystem,
        transitions: &TransitionTimes,
        mode: &Mode,
    ) -> FallbackPlan<'a> {
        let serving_load = self.supply_load(mode, backup);
        let reserve = backup.ups().map(|ups| {
            let share = match mode {
                Mode::Serving { share, .. } => *share,
                _ => Fraction::ONE,
            };
            let n = self.active_servers(share);
            let spec = self.cluster.spec();
            let util = self.cluster.workload().utilization();
            let tare = ups.power_capacity() * self.tare_fraction;
            let (save, asleep) = match fallback {
                Fallback::Sleep(level) => (
                    Some((
                        Draw::new(spec.active_power(level, util) * n + tare),
                        transitions.sleep_enter(level.effective_speed()),
                    )),
                    Some(Draw::new(spec.sleep_power() * n + tare)),
                ),
                Fallback::Hibernate { level, proactive } => (
                    Some((
                        Draw::new(spec.active_power(level, util) * n + tare),
                        transitions.hibernate_save(
                            self.hibernate_state(proactive),
                            level.effective_speed(),
                        ),
                    )),
                    None,
                ),
                // NVDIMM persistence is supercap-powered: no reserve needed;
                // serve until the battery cannot cover even the next step.
                Fallback::Nvdimm => (None, None),
            };
            Reserve {
                pack: ups.pack(),
                serving: Draw::new(serving_load),
                save,
                asleep,
            }
        });
        FallbackPlan {
            endurance: backup.endurance_plan(serving_load),
            reserve,
        }
    }

    /// Enters the fallback mode.
    pub(crate) fn fallback_mode(&self, fallback: Fallback, transitions: &TransitionTimes) -> Mode {
        match fallback {
            Fallback::Sleep(level) => Mode::EnteringSleep {
                level,
                remaining: transitions.sleep_enter(level.effective_speed()),
            },
            Fallback::Hibernate { level, proactive } => Mode::Saving {
                level,
                remaining: transitions
                    .hibernate_save(self.hibernate_state(proactive), level.effective_speed()),
            },
            Fallback::Nvdimm => Mode::NvdimmPersisted,
        }
    }

    /// The mode a completed sleep entry lands in: remote-serve sleep only
    /// when the technique *started* as remote sleep.
    pub(crate) fn sleep_target(&self) -> Mode {
        if matches!(self.technique.initial(), InitialAction::StartRemoteSleep(_)) {
            Mode::SleepingRemote
        } else {
            Mode::Sleeping
        }
    }

    /// Expected crash-recovery span: boot, application start, state reload,
    /// warmup, and expected recompute.
    pub(crate) fn expected_recovery(&self) -> Seconds {
        let recovery = self.cluster.workload().recovery();
        self.cluster.spec().boot_time()
            + recovery.app_start
            + recovery.reload_time()
            + recovery.warmup
            + recovery.recompute.expected
    }

    /// Runs the simulation for an outage of the given length against a
    /// freshly provisioned (fully charged) backup system.
    #[must_use]
    pub fn run(&self, outage: Seconds) -> SimOutcome {
        let mut backup = self.config.instantiate(self.cluster.peak_power());
        self.run_with_backup(outage, &mut backup)
    }

    /// Runs an outage that begins at absolute time `start`.
    ///
    /// For workloads carrying a diurnal [`dcb_workload::LoadProfile`] the
    /// utilization is resolved at the outage's start and held for its
    /// duration (load variation *within* an outage is second-order next to
    /// when it strikes); without a profile this is identical to [`run`].
    ///
    /// [`run`]: Self::run
    #[must_use]
    pub fn run_at(&self, start: Seconds, outage: Seconds) -> SimOutcome {
        let sim = self.resolved_at(start);
        let mut backup = sim.config.instantiate(sim.cluster.peak_power());
        sim.run_with_backup(outage, &mut backup)
    }

    /// This simulation with any load profile resolved at `start`: itself,
    /// borrowed, when the workload has no profile.
    pub(crate) fn resolved_at(&self, start: Seconds) -> Cow<'_, OutageSim> {
        if self.cluster.workload().load_profile().is_none() {
            return Cow::Borrowed(self);
        }
        let util = self.cluster.workload().utilization_at(start);
        let workload = self.cluster.workload().with_constant_load(util);
        let cluster = Cluster::new(self.cluster.size(), *self.cluster.spec(), workload);
        Cow::Owned(OutageSim {
            cluster,
            ..self.clone()
        })
    }

    /// Runs one outage against an existing backup system, preserving its
    /// battery state of charge — the building block for simulating yearly
    /// traces where back-to-back outages find a partially recharged
    /// battery.
    #[must_use]
    pub fn run_with_backup(&self, outage: Seconds, backup: &mut BackupSystem) -> SimOutcome {
        self.run_with_backup_trajectory(outage, backup).outcome
    }

    /// Utility restored: computes the recovery tail, the final state, and
    /// the full [`SimOutcome`] from a solver's end-of-outage [`RunState`].
    pub(crate) fn assemble(
        &self,
        outage: Seconds,
        state: RunState,
        backup: &BackupSystem,
        transitions: &TransitionTimes,
    ) -> SimOutcome {
        let w = self.cluster.workload();
        let recovery = w.recovery();
        let mut crash_recovery_engaged = state.crash_recovery_engaged;
        let (tail, final_state) = match state.mode {
            Mode::Serving { .. } => (Seconds::ZERO, FinalState::Serving),
            Mode::Migrating {
                remaining, pause, ..
            } => {
                // Service continues; only an in-flight stop-and-copy pause
                // still blocks requests.
                (
                    remaining.min(pause).max(Seconds::ZERO),
                    FinalState::Migrating,
                )
            }
            Mode::EnteringSleep { remaining, .. } => (
                remaining.max(Seconds::ZERO) + transitions.sleep_resume(),
                FinalState::EnteringSleep,
            ),
            Mode::Sleeping => (transitions.sleep_resume(), FinalState::Sleeping),
            Mode::SleepingRemote => (transitions.sleep_resume(), FinalState::Sleeping),
            Mode::NvdimmPersisted => (
                transitions.nvdimm_restore(w.memory_footprint()),
                FinalState::Hibernated,
            ),
            Mode::Saving { remaining, level } => (
                // The suspend image must complete (on utility power) before
                // the machine can come back.
                remaining.max(Seconds::ZERO)
                    + transitions.hibernate_resume(
                        self.hibernate_state(false),
                        level != ThrottleLevel::NONE,
                    ),
                FinalState::Saving,
            ),
            Mode::Hibernated { saved_throttled } => (
                transitions.hibernate_resume(self.hibernate_state(false), saved_throttled),
                FinalState::Hibernated,
            ),
            Mode::Crashed => {
                crash_recovery_engaged = true;
                (self.expected_recovery(), FinalState::Crashed)
            }
            Mode::Recovering { remaining } => {
                (remaining.max(Seconds::ZERO), FinalState::Recovering)
            }
        };

        let expected_downtime = state.downtime + tail;
        let downtime_range = if crash_recovery_engaged {
            let rec = recovery.recompute;
            DowntimeRange {
                min: (expected_downtime + rec.min - rec.expected).max(Seconds::ZERO),
                expected: expected_downtime,
                max: expected_downtime + rec.max - rec.expected,
            }
        } else {
            DowntimeRange::exact(expected_downtime)
        };

        let perf = if outage.value() > 0.0 {
            Fraction::new(state.serving_integral / outage.value())
        } else {
            Fraction::ONE
        };
        let peak = backup.peak_drawn();
        SimOutcome {
            outage,
            feasible: !state.unplanned_crash,
            state_lost: state.state_lost,
            peak_power: peak,
            peak_power_fraction: Fraction::new(peak / self.cluster.peak_power()),
            energy: backup.energy_drawn(),
            perf_during_outage: perf,
            downtime: downtime_range,
            downtime_during_outage: state.downtime,
            final_state,
        }
    }
}

/// [`OutageSim::must_fall_back`]'s rule for one serving mode, with
/// everything it reads that moves with neither time nor charge computed
/// once: the serving load's endurance, and the loads, durations and
/// Peukert runtimes of the charge the fallback keeps in reserve.
///
/// [`OutageSim::fallback_plan`] solves no Peukert runtime up front, so one
/// evaluation costs what the rule always did; [`Self::solved`] solves them
/// all for a located-event search. Both give the same bits.
pub(crate) struct FallbackPlan<'a> {
    /// The serving load's endurance: a DG that carries it indefinitely
    /// means the sustain phase never has to end.
    endurance: EndurancePlan<'a>,
    /// The battery's side of the rule; `None` without a UPS.
    reserve: Option<Reserve>,
}

/// The charge a fallback save needs from the battery.
struct Reserve {
    pack: PackSpec,
    /// One more step of serving (the stepped solver's lookahead).
    serving: Draw,
    /// The fixed-length save and its duration: sleep entry or the
    /// hibernate image write. `None` for NVDIMM.
    save: Option<(Draw, Seconds)>,
    /// Sleep only: the asleep load, held from the end of the entry to
    /// outage end.
    asleep: Option<Draw>,
}

/// A constant load drawn from the battery, with the pack's runtime at it
/// once solved.
#[derive(Clone, Copy)]
struct Draw {
    load: Watts,
    runtime: Option<Seconds>,
}

impl Draw {
    fn new(load: Watts) -> Self {
        Self {
            load,
            runtime: None,
        }
    }

    /// Charge fraction carrying the load for `duration` spends
    /// (rate-dependent Peukert accounting).
    fn charge(&self, pack: PackSpec, duration: Seconds) -> f64 {
        if duration.value() <= 0.0 {
            return 0.0;
        }
        let runtime = self.runtime.unwrap_or_else(|| pack.runtime_at(self.load));
        if runtime.value().is_finite() && runtime.value() > 0.0 {
            duration.value() / runtime.value()
        } else if self.load.value() <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

impl FallbackPlan<'_> {
    /// This plan with every Peukert runtime of the reserve and of the
    /// serving load's endurance solved once, for repeated evaluation.
    pub(crate) fn solved(self) -> Self {
        let reserve = self.reserve.map(|mut r| {
            let solve = |draw: &mut Draw| draw.runtime = Some(r.pack.runtime_at(draw.load));
            if let Some((save, _)) = &mut r.save {
                solve(save);
            }
            if let Some(asleep) = &mut r.asleep {
                solve(asleep);
            }
            r
        });
        Self {
            endurance: self.endurance.solved(),
            reserve,
        }
    }

    /// Whether a cluster serving at `t` with the battery at `charge` must
    /// fall back now (see [`OutageSim::must_fall_back`]).
    pub(crate) fn falls_back(
        &self,
        charge: Fraction,
        t: Seconds,
        outage: Seconds,
        step: Seconds,
    ) -> bool {
        if self.endurance.at(charge, t).value().is_infinite() {
            return false;
        }
        let Some(r) = &self.reserve else {
            return true; // no battery at all: save immediately (will fail anyway)
        };
        let needed = r.save.map_or(0.0, |(save, duration)| {
            let entry = save.charge(r.pack, duration);
            match r.asleep {
                Some(asleep) => {
                    let rest = (outage - t - duration).max(Seconds::ZERO);
                    entry + asleep.charge(r.pack, rest)
                }
                None => entry,
            }
        });
        // Serving one more step costs this much charge; fall back when we
        // can no longer afford both.
        let step_cost = r.serving.charge(r.pack, step);
        charge.value() <= (needed * OutageSim::FALLBACK_SAFETY + step_cost).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    fn sim(config: BackupConfig, technique: Technique) -> OutageSim {
        OutageSim::new(Cluster::rack(Workload::specjbb()), config, technique)
    }

    fn minutes(m: f64) -> Seconds {
        Seconds::from_minutes(m)
    }

    #[test]
    fn max_perf_is_seamless_for_all_durations() {
        for m in [0.5, 5.0, 30.0, 60.0, 120.0] {
            let out = sim(BackupConfig::max_perf(), Technique::ride_through()).run(minutes(m));
            assert!(out.feasible, "{m} min");
            assert!(out.seamless(), "{m} min: downtime {:?}", out.downtime);
            assert!(out.perf_during_outage.value() > 0.999);
            assert!(!out.state_lost);
        }
    }

    #[test]
    fn min_cost_crashes_with_long_downtime() {
        let out = sim(BackupConfig::min_cost(), Technique::crash()).run(minutes(0.5));
        assert!(out.feasible); // the crash is intentional
        assert!(out.state_lost);
        assert_eq!(out.final_state, FinalState::Crashed);
        // §6.1: ~400 s downtime for a 30 s outage.
        assert!(
            (out.downtime.expected.value() - 400.0).abs() < 15.0,
            "downtime {}",
            out.downtime.expected
        );
        assert_eq!(out.perf_during_outage, Fraction::ZERO);
    }

    #[test]
    fn no_dg_full_speed_dies_after_two_minutes() {
        let out = sim(BackupConfig::no_dg(), Technique::ride_through()).run(minutes(10.0));
        assert!(!out.feasible);
        assert!(out.state_lost);
        // Served roughly the first 2 battery minutes of the 10.
        let served = out.perf_during_outage.value() * 10.0;
        assert!((1.0..3.5).contains(&served), "served {served} min");
    }

    #[test]
    fn no_dg_survives_short_outage_at_full_speed() {
        let out = sim(BackupConfig::no_dg(), Technique::ride_through()).run(minutes(1.0));
        assert!(out.feasible);
        assert!(out.seamless());
    }

    #[test]
    fn large_e_ups_rides_30_minutes_at_full_performance() {
        let out = sim(BackupConfig::large_e_ups(), Technique::ride_through()).run(minutes(30.0));
        assert!(out.feasible);
        assert!(out.perf_during_outage.value() > 0.99);
        assert!(out.seamless());
    }

    #[test]
    fn sleep_keeps_downtime_near_outage_plus_resume() {
        let out = sim(BackupConfig::no_dg(), Technique::sleep_l()).run(minutes(0.5));
        assert!(out.feasible);
        assert!(!out.state_lost);
        // ~38 s for a 30 s outage (§6.2).
        assert!(
            (out.downtime.expected.value() - 38.0).abs() < 4.0,
            "downtime {}",
            out.downtime.expected
        );
    }

    #[test]
    fn hibernate_is_a_bad_idea_for_short_outages() {
        let out = sim(BackupConfig::no_dg(), Technique::hibernate()).run(minutes(0.5));
        assert!(out.feasible);
        // Save (230 s) must finish, then resume (157 s): ~390 s.
        assert!(
            (out.downtime.expected.value() - 387.0).abs() < 10.0,
            "downtime {}",
            out.downtime.expected
        );
        assert_eq!(out.final_state, FinalState::Saving);
    }

    #[test]
    fn throttle_sleep_hybrid_survives_two_hours_on_half_power_ups() {
        let technique = Technique::throttle_sleep_l(crate::technique::low_power_level());
        let out = sim(BackupConfig::small_p_large_e_ups(), technique).run(minutes(120.0));
        assert!(out.feasible, "hybrid died: {:?}", out.final_state);
        assert!(!out.state_lost);
        // It served part of the outage before sleeping.
        assert!(out.perf_during_outage.value() > 0.05);
    }

    #[test]
    fn dg_recovers_crashed_cluster_mid_outage() {
        // NoUPS: crash at t=0, DG carries a reboot ~2 min in; for a 2 h
        // outage the service is back long before utility power.
        let out = sim(BackupConfig::no_ups(), Technique::ride_through()).run(minutes(120.0));
        assert!(!out.feasible); // the crash was unplanned
        assert!(out.state_lost);
        // Recovered mid-outage: performance is well above zero.
        assert!(
            out.perf_during_outage.value() > 0.8,
            "perf {:?}",
            out.perf_during_outage
        );
        // Downtime is minutes, not the whole two hours.
        assert!(out.downtime.expected < minutes(20.0));
    }

    #[test]
    fn migration_halves_load_for_long_outages() {
        let out = sim(BackupConfig::large_e_ups(), Technique::migration()).run(minutes(60.0));
        assert!(out.feasible, "migration infeasible");
        assert!(!out.state_lost);
        // Consolidated performance is about half for most of the hour.
        let perf = out.perf_during_outage.value();
        assert!((0.4..0.75).contains(&perf), "perf {perf}");
    }

    #[test]
    fn peak_power_fraction_reflects_throttling() {
        let out = sim(BackupConfig::no_dg(), Technique::throttle_deepest()).run(minutes(2.0));
        assert!(out.feasible);
        assert!(
            out.peak_power_fraction.value() < 0.55,
            "peak fraction {:?}",
            out.peak_power_fraction
        );
    }

    #[test]
    fn zero_duration_outage_is_free() {
        let out = sim(BackupConfig::max_perf(), Technique::ride_through()).run(Seconds::ZERO);
        assert!(out.feasible && out.seamless());
        assert_eq!(out.perf_during_outage, Fraction::ONE);
    }

    #[test]
    fn no_ups_short_outage_matches_min_cost_downtime() {
        // §6.1: "In NoUPS ... the down-time is same as that for MinCost" —
        // for outages shorter than the DG transfer, state is lost and the
        // recovery dominates either way.
        let outage = Seconds::new(30.0);
        let no_ups = sim(BackupConfig::no_ups(), Technique::ride_through()).run(outage);
        let min_cost = sim(BackupConfig::min_cost(), Technique::crash()).run(outage);
        assert!(no_ups.state_lost && min_cost.state_lost);
        // Within ~the DG transfer window of each other.
        let diff = (no_ups.downtime.expected - min_cost.downtime.expected)
            .abs()
            .value();
        assert!(
            diff < 150.0,
            "NoUPS {} vs MinCost {}",
            no_ups.downtime.expected,
            min_cost.downtime.expected
        );
    }

    #[test]
    fn throttle_hibernate_hybrid_persists_before_battery_dies() {
        // Serve throttled, then hibernate with the charge reserved for the
        // save: state must be on disk when the battery gives out. The
        // battery must at least cover the ~385 s low-power save, so use a
        // half-power UPS with 8 minutes of runtime.
        let config = BackupConfig::custom(
            "UPS 50% × 8min",
            Fraction::ZERO,
            Fraction::HALF,
            Seconds::from_minutes(8.0),
        );
        let technique = Technique::throttle_hibernate(crate::technique::low_power_level());
        let out = sim(config, technique).run(minutes(60.0));
        assert!(
            out.feasible,
            "save must have completed: {:?}",
            out.final_state
        );
        assert!(!out.state_lost);
        assert!(matches!(
            out.final_state,
            FinalState::Hibernated | FinalState::Saving
        ));
        // It served a little before falling back.
        assert!(out.perf_during_outage.value() > 0.0);
    }

    #[test]
    fn throttle_hibernate_on_a_two_minute_battery_is_infeasible() {
        // The same hybrid on the base 2-minute battery cannot finish the
        // 385 s low-power save: the engine must report the failure rather
        // than pretend.
        let technique = Technique::throttle_hibernate(crate::technique::low_power_level());
        let out = sim(BackupConfig::no_dg(), technique).run(minutes(60.0));
        assert!(!out.feasible);
        assert!(out.state_lost);
    }

    #[test]
    fn proactive_hibernate_beats_plain_for_short_outages() {
        let outage = minutes(0.5);
        let plain = sim(BackupConfig::no_dg(), Technique::hibernate()).run(outage);
        let proactive = sim(BackupConfig::no_dg(), Technique::proactive_hibernate()).run(outage);
        assert!(proactive.downtime.expected < plain.downtime.expected);
    }

    #[test]
    fn consolidated_cluster_draws_about_half_power() {
        let out = sim(BackupConfig::large_e_ups(), Technique::migration()).run(minutes(40.0));
        assert!(out.feasible);
        // After the ~10-minute migration the surviving half dominates the
        // energy draw; the peak still reflects the migration spike.
        assert!(out.peak_power_fraction.value() > 0.85);
        let avg_power_fraction = out.energy.value()
            / (Cluster::rack(Workload::specjbb()).peak_power().value()
                * Seconds::from_minutes(40.0).to_hours());
        assert!(
            (0.4..0.8).contains(&avg_power_fraction),
            "avg {avg_power_fraction}"
        );
    }

    #[test]
    fn diurnal_load_changes_outcome_by_time_of_day() {
        use dcb_workload::LoadProfile;
        let workload =
            Workload::specjbb().with_load_profile(LoadProfile::typical_diurnal(Fraction::new(0.9)));
        let sim = OutageSim::new(
            Cluster::rack(workload),
            BackupConfig::no_dg(),
            Technique::ride_through(),
        );
        // A 3-minute outage at the 8 am trough fits the 2-minute-rated
        // battery (Peukert stretch at the lower load); the same outage at
        // the 8 pm peak does not.
        let trough = sim.run_at(Seconds::from_hours(8.0), minutes(3.0));
        let peak = sim.run_at(Seconds::from_hours(20.0), minutes(3.0));
        assert!(trough.feasible, "trough outage should ride through");
        assert!(!peak.feasible, "peak outage should exhaust the battery");
    }

    #[test]
    fn run_at_is_run_for_constant_load() {
        let s = sim(BackupConfig::no_dg(), Technique::ride_through());
        let a = s.run(minutes(1.5));
        let b = s.run_at(Seconds::from_hours(13.0), minutes(1.5));
        assert_eq!(a, b);
    }

    #[test]
    fn nvdimm_survives_with_no_backup_at_all() {
        // §7: NVDIMMs persist state "without the need for any external
        // backup power source" — even the MinCost (no UPS, no DG)
        // configuration keeps state.
        let out = sim(BackupConfig::min_cost(), Technique::nvdimm()).run(minutes(30.0));
        assert!(out.feasible);
        assert!(!out.state_lost);
        // Down for the outage plus the flash→DRAM restore (~22 s for 18 GB).
        let expected_restore = 18.0 * 1000.0 / 1500.0 + 10.0;
        assert!(
            (out.downtime.expected.value() - (1800.0 + expected_restore)).abs() < 5.0,
            "downtime {}",
            out.downtime.expected
        );
        assert_eq!(out.energy.value(), 0.0);
    }

    #[test]
    fn throttle_nvdimm_serves_longer_than_throttle_sleep() {
        // No sleep reserve to keep: the NVDIMM hybrid spends every joule on
        // service.
        let level = crate::technique::low_power_level();
        let config = BackupConfig::small_pups();
        let outage = minutes(30.0);
        let nvdimm = sim(config.clone(), Technique::throttle_nvdimm(level)).run(outage);
        let sleep = sim(config, Technique::throttle_sleep_l(level)).run(outage);
        assert!(nvdimm.feasible && !nvdimm.state_lost);
        assert!(
            nvdimm.perf_during_outage > sleep.perf_during_outage,
            "nvdimm {:?} vs sleep {:?}",
            nvdimm.perf_during_outage,
            sleep.perf_during_outage
        );
    }

    #[test]
    fn rdma_sleep_serves_reads_while_asleep() {
        let cluster = Cluster::rack(Workload::memcached());
        let rdma = OutageSim::new(cluster, BackupConfig::no_dg(), Technique::rdma_sleep())
            .run(minutes(30.0));
        assert!(rdma.feasible, "barely-alive load must fit the battery");
        assert!(!rdma.state_lost);
        // Perf approaches the workload's remote-serve fraction (0.35),
        // minus the brief sleep-entry window.
        let perf = rdma.perf_during_outage.value();
        assert!((0.30..=0.36).contains(&perf), "perf {perf}");
        // Plain sleep serves nothing.
        let plain = OutageSim::new(
            Cluster::rack(Workload::memcached()),
            BackupConfig::no_dg(),
            Technique::sleep_l(),
        )
        .run(minutes(30.0));
        assert_eq!(plain.perf_during_outage.value(), 0.0);
    }

    #[test]
    fn tare_fraction_takes_a_validated_fraction() {
        let base = sim(BackupConfig::no_dg(), Technique::ride_through());
        // Zero tare stretches the battery slightly further than the default.
        let no_tare = base
            .clone()
            .with_tare_fraction(Fraction::ZERO)
            .run(minutes(10.0));
        let default_tare = base.run(minutes(10.0));
        assert!(no_tare.perf_during_outage >= default_tare.perf_during_outage);
    }

    #[test]
    fn solved_fallback_plan_agrees_with_must_fall_back() {
        // The solved plan a located search evaluates must answer exactly
        // as `must_fall_back` on a backup probed to the same charge: for
        // sleep, hibernate and NVDIMM fallbacks, a full and a consolidated
        // serving share, and the stepper's one-step lookahead.
        let level = crate::technique::low_power_level();
        let transitions = TransitionTimes::new(*Cluster::rack(Workload::specjbb()).spec());
        let outage = minutes(120.0);
        let mut fallbacks_seen = 0;
        for config in [
            BackupConfig::max_perf(),
            BackupConfig::no_dg(),
            BackupConfig::no_ups(),
            BackupConfig::small_pups(),
            BackupConfig::small_p_large_e_ups(),
        ] {
            for technique in [
                Technique::throttle_sleep_l(level),
                Technique::throttle_hibernate(level),
                Technique::throttle_nvdimm(level),
                Technique::migration_sleep_l(),
            ] {
                let sim = sim(config.clone(), technique.clone());
                let fb = technique.fallback().expect("a hybrid technique");
                let backup = config.instantiate(sim.cluster().peak_power());
                for share in [Fraction::ONE, Fraction::HALF] {
                    let mode = Mode::Serving { level, share };
                    let plan = sim.fallback_plan(fb, &backup, &transitions, &mode).solved();
                    for charge in (0..=20).map(|i| Fraction::new(f64::from(i) / 20.0)) {
                        let probe = backup.with_ups_charge(charge);
                        for t in [0.0, 10.0, 60.0, 119.0, 600.0, 3_000.0, 7_190.0] {
                            for step in [0.0, 0.25, 30.0] {
                                let (t, step) = (Seconds::new(t), Seconds::new(step));
                                let planned = plan.falls_back(charge, t, outage, step);
                                let direct = sim.must_fall_back(
                                    fb,
                                    &probe,
                                    &transitions,
                                    &mode,
                                    t,
                                    outage,
                                    step,
                                );
                                assert_eq!(
                                    planned,
                                    direct,
                                    "{} {} share {share:?} charge {charge:?} t {t} step {step}",
                                    config.label(),
                                    technique.name()
                                );
                                fallbacks_seen += usize::from(direct);
                            }
                        }
                    }
                }
            }
        }
        // The grid reaches both answers.
        assert!(fallbacks_seen > 0 && fallbacks_seen < 5 * 4 * 2 * 21 * 7 * 3);
    }

    #[test]
    #[should_panic(expected = "tare must be in [0, 1)")]
    fn full_tare_fraction_rejected() {
        let _ =
            sim(BackupConfig::no_dg(), Technique::ride_through()).with_tare_fraction(Fraction::ONE);
    }
}
