//! The §7 adaptive controller for outages of unknown duration.
//!
//! "We may choose to start with the throttling at full performance mode
//! (assuming outage will be short) and gradually transition to lower power
//! modes and then finally (when outage exceeds 5 mins) use the sleep or
//! hibernate techniques which are known to considerably reduce backup
//! energy requirement."
//!
//! The controller re-plans every step. Serving burns charge that could
//! otherwise extend the sleep endurance, so the governing quantity is the
//! *state-loss risk*: the predictor's probability that the outage outlasts
//! the sleep coverage the remaining charge would buy. The controller serves
//! at the shallowest throttle level that keeps this risk within tolerance
//! over a short lookahead window, escalates to deeper levels as charge
//! falls, and finally drops to sleep — reproducing the paper's
//! full-performance-first, gradually-deepening strategy. What stays fixed
//! for one outage is planned once, so a re-plan weighs only the current
//! charge and the elapsed time.

use dcb_outage::DurationPredictor;
use dcb_power::{BackupConfig, BackupSystem};
use dcb_server::{PState, TState, ThrottleLevel, TransitionTimes};
use dcb_sim::Cluster;
use dcb_units::{Fraction, Seconds, Watts};
use dcb_workload::DowntimeRange;

/// One controller decision, for post-hoc inspection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Decision {
    /// When (into the outage) the decision took effect.
    pub at: Seconds,
    /// Human-readable action ("serve@P6/T0", "enter-sleep", ...).
    pub action: String,
}

/// The outcome of an adaptively controlled outage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdaptiveOutcome {
    /// The outage length that actually materialized.
    pub outage: Seconds,
    /// Whether volatile state survived.
    pub state_lost: bool,
    /// Average normalized performance over the outage.
    pub perf_during_outage: Fraction,
    /// Total downtime including the recovery tail.
    pub downtime: DowntimeRange,
    /// The decision log.
    pub decisions: Vec<Decision>,
}

/// The adaptive outage controller.
///
/// ```
/// use dcb_core::online::AdaptiveController;
/// use dcb_core::{BackupConfig, Cluster};
/// use dcb_outage::{DurationDistribution, DurationPredictor};
/// use dcb_units::Seconds;
/// use dcb_workload::Workload;
///
/// let controller = AdaptiveController::new(
///     DurationPredictor::from_distribution(&DurationDistribution::us_business()),
/// );
/// let outcome = controller.simulate(
///     &Cluster::rack(Workload::specjbb()),
///     &BackupConfig::large_e_ups(),
///     Seconds::from_minutes(45.0),
/// );
/// // State must survive even though the duration was unknown in advance.
/// assert!(!outcome.state_lost);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    predictor: DurationPredictor,
    risk: f64,
    tare_fraction: f64,
}

/// What the cluster is doing; a serving throttle level is an index into
/// [`AdaptiveController::ladder`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Serving(usize),
    EnteringSleep { remaining: Seconds },
    Sleeping,
    Saving { remaining: Seconds },
    Hibernated,
    Crashed,
}

/// The ladder index of the deepest level, which sleep and hibernation start from.
const DEEPEST: usize = 2;

/// Everything about one outage that stays fixed while it runs, computed
/// once right after the backup system is instantiated.
struct Plan {
    /// Cluster load at each ladder level, UPS tare included.
    serve_load: [Watts; 3],
    /// Normalized throughput at each ladder level.
    throughput: [f64; 3],
    /// Cluster load asleep, UPS tare included.
    sleep_load: Watts,
    /// Time to enter sleep from the deepest level.
    entry_time: Seconds,
    /// Time to save the hibernate image from the deepest level.
    save_time: Seconds,
    /// The UPS side of the plan; `None` without a UPS.
    ups: Option<UpsPlan>,
}

/// The fixed UPS quantities a re-plan weighs the current charge against.
struct UpsPlan {
    /// Nameplate (full-charge) runtime at each ladder level's load.
    runtime: [Seconds; 3],
    /// Nameplate runtime at the sleep load.
    sleep_runtime: Seconds,
    /// Charge fraction that entering sleep from the deepest level burns.
    entry_frac: f64,
    /// Charge fraction the hibernate save needs, with a 15 % margin.
    save_reserve: f64,
    /// The UPS electronics rating: levels above it are never served.
    cap: Watts,
}

/// The charge fraction drawing `load` for `duration` costs, given the
/// pack's nameplate `runtime` at that load.
fn charge_fraction(runtime: Seconds, load: Watts, duration: Seconds) -> f64 {
    match (duration.value(), runtime.value()) {
        (d, _) if d <= 0.0 => 0.0,
        (d, r) if r.is_finite() && r > 0.0 => d / r,
        _ if load.value() <= 0.0 => 0.0,
        _ => f64::INFINITY,
    }
}

impl AdaptiveController {
    /// Default tolerated probability of the outage outlasting the sleep
    /// coverage bought by the remaining charge.
    pub const DEFAULT_RISK: f64 = 0.1;

    /// A controller over the given predictor with the default risk.
    #[must_use]
    pub fn new(predictor: DurationPredictor) -> Self {
        Self {
            predictor,
            risk: Self::DEFAULT_RISK,
            tare_fraction: 0.005,
        }
    }

    /// Overrides the risk tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < risk < 1`.
    #[must_use]
    pub fn with_risk(mut self, risk: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&risk) && risk > 0.0,
            "risk must be in (0,1)"
        );
        self.risk = risk;
        self
    }

    /// The throttle ladder the controller escalates through.
    fn ladder() -> [ThrottleLevel; 3] {
        [
            ThrottleLevel::NONE,
            ThrottleLevel {
                p: PState::new(3),
                t: TState::full(),
            },
            ThrottleLevel {
                p: PState::slowest(),
                t: TState::full(),
            },
        ]
    }

    /// Plans the fixed quantities of one outage of `cluster` on `backup`.
    fn plan(&self, cluster: &Cluster, backup: &BackupSystem) -> Plan {
        let spec = cluster.spec();
        let transitions = TransitionTimes::new(*spec);
        let w = cluster.workload();
        let util = w.utilization();
        let n = f64::from(cluster.size());
        let tare = backup
            .ups()
            .map_or(Watts::ZERO, |u| u.power_capacity() * self.tare_fraction);
        let ladder = Self::ladder();
        let serve_load = ladder.map(|level| spec.active_power(level, util) * n + tare);
        let sleep_load = spec.sleep_power() * n + tare;
        let deepest = ladder[DEEPEST].effective_speed();
        let entry_time = transitions.sleep_enter(deepest);
        let save_time = transitions.hibernate_save(w.effective_hibernate_image(), deepest);
        let ups = backup.ups().map(|ups| {
            let runtime = serve_load.map(|load| ups.pack().runtime_at(load));
            let deep = |duration| charge_fraction(runtime[DEEPEST], serve_load[DEEPEST], duration);
            UpsPlan {
                runtime,
                sleep_runtime: ups.pack().runtime_at(sleep_load),
                entry_frac: deep(entry_time),
                save_reserve: deep(save_time) * 1.15,
                cap: ups.power_capacity(),
            }
        });
        Plan {
            serve_load,
            throughput: ladder.map(|level| {
                w.throughput_at(level.effective_speed(), Fraction::ONE)
                    .value()
            }),
            sleep_load,
            entry_time,
            save_time,
            ups,
        }
    }

    /// Runs the controller through an outage whose duration it does *not*
    /// know in advance.
    #[must_use]
    pub fn simulate(
        &self,
        cluster: &Cluster,
        config: &BackupConfig,
        outage: Seconds,
    ) -> AdaptiveOutcome {
        let spec = *cluster.spec();
        let w = *cluster.workload();
        let transitions = TransitionTimes::new(spec);
        let mut backup = config.instantiate(cluster.peak_power());
        let plan = self.plan(cluster, &backup);

        let mut mode = Mode::Serving(0);
        let mut decisions = vec![Decision {
            at: Seconds::ZERO,
            action: "serve@full".to_owned(),
        }];
        let mut serving_integral = 0.0;
        let mut downtime = Seconds::ZERO;
        let mut state_lost = false;

        let step = Seconds::new((outage.value() / 7200.0).max(0.25));
        let mut t = Seconds::ZERO;
        while t < outage {
            let dt = step.min(outage - t);
            // Re-plan while serving.
            if matches!(mode, Mode::Serving(_))
                && !backup
                    .endurance(plan.serve_load[0], t)
                    .value()
                    .is_infinite()
            {
                let charge = backup.ups().map_or(0.0, |ups| ups.charge().value());
                let next = self.decide(&plan, charge, t, dt);
                if next != mode {
                    let action = match next {
                        Mode::Serving(level) => format!("serve@{}", Self::ladder()[level]),
                        Mode::Saving { .. } => "enter-hibernate".to_owned(),
                        _ => "enter-sleep".to_owned(),
                    };
                    decisions.push(Decision { at: t, action });
                    mode = next;
                }
            }
            let load = match mode {
                Mode::Serving(level) => plan.serve_load[level],
                Mode::EnteringSleep { .. } | Mode::Saving { .. } => plan.serve_load[DEEPEST],
                Mode::Sleeping => plan.sleep_load,
                Mode::Hibernated | Mode::Crashed => Watts::ZERO,
            };
            let supply = backup.supply(load, t, dt);
            if !supply.fully_covered() {
                // Entering sleep, asleep or saving, the cluster served
                // nothing in the sustained part of the step either.
                if let Mode::Serving(level) = mode {
                    serving_integral += plan.throughput[level] * supply.sustained.value();
                    downtime += dt - supply.sustained;
                } else {
                    downtime += dt;
                }
                if !matches!(mode, Mode::Crashed) {
                    state_lost = true;
                    mode = Mode::Crashed;
                }
                t += dt;
                continue;
            }
            match &mut mode {
                Mode::Serving(level) => serving_integral += plan.throughput[*level] * dt.value(),
                Mode::EnteringSleep { remaining } => {
                    downtime += dt;
                    *remaining -= dt;
                    if remaining.value() <= 0.0 {
                        mode = Mode::Sleeping;
                    }
                }
                Mode::Saving { remaining } => {
                    downtime += dt;
                    *remaining -= dt;
                    if remaining.value() <= 0.0 {
                        mode = Mode::Hibernated;
                    }
                }
                Mode::Sleeping | Mode::Hibernated | Mode::Crashed => downtime += dt,
            }
            t += dt;
        }

        // Recovery tail.
        let recovery = w.recovery();
        let boot = spec.boot_time();
        let (tail_expected, spread) = match mode {
            Mode::Serving(_) => (Seconds::ZERO, None),
            Mode::EnteringSleep { remaining } => (
                remaining.max(Seconds::ZERO) + transitions.sleep_resume(),
                None,
            ),
            Mode::Sleeping => (transitions.sleep_resume(), None),
            Mode::Saving { remaining } => (
                remaining.max(Seconds::ZERO)
                    + transitions.hibernate_resume(w.effective_hibernate_image(), true),
                None,
            ),
            Mode::Hibernated => (
                transitions.hibernate_resume(w.effective_hibernate_image(), true),
                None,
            ),
            Mode::Crashed => {
                let r = boot
                    + recovery.app_start
                    + recovery.reload_time()
                    + recovery.warmup
                    + recovery.recompute.expected;
                (r, Some(recovery.recompute))
            }
        };
        let expected = downtime + tail_expected;
        let downtime_range = match spread {
            Some(rec) => DowntimeRange {
                min: (expected + rec.min - rec.expected).max(Seconds::ZERO),
                expected,
                max: expected + rec.max - rec.expected,
            },
            None => DowntimeRange::exact(expected),
        };
        AdaptiveOutcome {
            outage,
            state_lost,
            perf_during_outage: if outage.value() > 0.0 {
                Fraction::new(serving_integral / outage.value())
            } else {
                Fraction::ONE
            },
            downtime: downtime_range,
            decisions,
        }
    }

    /// Decides the mode for one more re-planning step at the given battery
    /// `charge`: serve at some ladder level, drop to sleep, or persist to
    /// disk.
    ///
    /// The fallback *kind* is chosen first — sleep when the remaining
    /// charge's sleep coverage plausibly outlasts the predictor's
    /// pessimistic horizon, hibernation when it does not but the battery
    /// can still carry the (expensive) save. With a sleep fallback the
    /// serve rule is risk-based: the probability that the outage outlasts
    /// one more step plus the post-step sleep coverage must stay within the
    /// risk budget. With a hibernate fallback the rule is a hard energy
    /// reserve: serve while the charge stays above what the save needs.
    /// Levels whose load exceeds the UPS electronics rating are never
    /// candidates.
    fn decide(&self, plan: &Plan, charge: f64, elapsed: Seconds, step: Seconds) -> Mode {
        let sleep = Mode::EnteringSleep {
            remaining: plan.entry_time,
        };
        let Some(ups) = &plan.ups else {
            return sleep; // no battery: nothing better exists
        };
        let load = plan.serve_load;
        let burn =
            |level: usize, duration| charge_fraction(ups.runtime[level], load[level], duration);
        let coverage = |c: f64| ups.sleep_runtime * c.max(0.0);
        let within_cap = |level: &usize| load[*level] <= ups.cap;
        let keeps_reserve = |level: &usize| charge - burn(*level, step) > ups.save_reserve;

        // Risk-based serve check under a sleep fallback. Shallower levels
        // must commit to a larger safety window (a bigger slice of their
        // own endurance), so as charge falls the controller passes through
        // the throttled levels before stopping instead of jumping from
        // full speed to a save-state mode.
        const WINDOW_FRACTIONS: [f64; 3] = [0.25, 0.15, 0.05];
        let serve = (0..load.len()).filter(within_cap).find(|&level| {
            let window = (ups.runtime[level] * WINDOW_FRACTIONS[level]).max(step);
            let left = charge - burn(level, window) - ups.entry_frac;
            left > 0.0
                && self
                    .predictor
                    .probability_exceeds(elapsed, window + coverage(left))
                    <= self.risk
        });

        // 1. Serving is safe when the sleep-risk rule allows it AND one
        //    more step still leaves the hibernate reserve intact — either
        //    fallback stays reachable.
        if let Some(level) = serve.filter(keeps_reserve) {
            return Mode::Serving(level);
        }
        // 2. If the remaining charge sleeps through the pessimistic
        //    horizon, stay in the sleep regime (faster resume than a disk
        //    image). When hibernation is affordable, demand a margin:
        //    without it this regime could keep serving until the hibernate
        //    reserve is gone and then find the sleep coverage no longer
        //    sufficient. A battery that could never carry the save has no
        //    reserve to protect. The horizon is a bisection over the
        //    predictor, so only this branch computes it.
        let margin = if ups.save_reserve < 1.0 { 1.25 } else { 1.0 };
        let horizon = self.predictor.remaining_quantile(elapsed, self.risk);
        if coverage(charge - ups.entry_frac).value() >= horizon.value() * margin {
            return serve.map_or(sleep, Mode::Serving);
        }
        // 3. Sleep cannot cover the horizon: spend the remaining headroom
        //    above the save reserve on throttled service, then persist.
        if charge >= ups.save_reserve {
            let level = (0..load.len()).filter(within_cap).find(keeps_reserve);
            let save = Mode::Saving {
                remaining: plan.save_time,
            };
            return level.map_or(save, Mode::Serving);
        }
        // 4. Too late for the save: sleep as the best remaining effort.
        sleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_outage::DurationDistribution;
    use dcb_workload::Workload;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(DurationPredictor::from_distribution(
            &DurationDistribution::us_business(),
        ))
    }

    fn cluster() -> Cluster {
        Cluster::rack(Workload::specjbb())
    }

    #[test]
    fn short_outage_served_at_high_performance() {
        let out = controller().simulate(&cluster(), &BackupConfig::no_dg(), Seconds::new(30.0));
        assert!(!out.state_lost);
        assert!(
            out.perf_during_outage.value() > 0.5,
            "perf {:?}",
            out.perf_during_outage
        );
    }

    #[test]
    fn long_outage_preserves_state_via_sleep() {
        let out = controller().simulate(
            &cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_hours(2.0),
        );
        assert!(!out.state_lost, "decisions: {:?}", out.decisions);
        assert!(
            out.decisions.iter().any(|d| d.action == "enter-sleep"),
            "never slept: {:?}",
            out.decisions
        );
    }

    #[test]
    fn dg_configs_never_escalate() {
        let out = controller().simulate(
            &cluster(),
            &BackupConfig::max_perf(),
            Seconds::from_hours(2.0),
        );
        assert!(!out.state_lost);
        assert_eq!(out.decisions.len(), 1, "decisions: {:?}", out.decisions);
        assert!(out.perf_during_outage.value() > 0.99);
    }

    #[test]
    fn decisions_escalate_monotonically_in_time() {
        let out = controller().simulate(
            &cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_hours(3.0),
        );
        for pair in out.decisions.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn never_strands_a_save_across_durations() {
        // The controller's core guarantee: across a wide range of outage
        // durations it never loses state when the battery could have
        // covered a timely sleep.
        for minutes in [1.0, 5.0, 20.0, 45.0, 90.0, 180.0] {
            let out = controller().simulate(
                &cluster(),
                &BackupConfig::large_e_ups(),
                Seconds::from_minutes(minutes),
            );
            assert!(!out.state_lost, "{minutes} min: {:?}", out.decisions);
        }
    }

    #[test]
    fn controller_hibernates_when_sleep_cannot_cover_the_horizon() {
        // A half-power UPS with 10 minutes of battery cannot sleep through
        // a predicted multi-hour tail, but it can afford the low-power
        // save: the controller must choose hibernation over a doomed sleep.
        let config = BackupConfig::custom(
            "UPS 50% × 10min",
            dcb_units::Fraction::ZERO,
            dcb_units::Fraction::HALF,
            Seconds::from_minutes(10.0),
        );
        let out = controller().simulate(&cluster(), &config, Seconds::from_hours(8.0));
        assert!(!out.state_lost, "decisions: {:?}", out.decisions);
        assert!(
            out.decisions.iter().any(|d| d.action == "enter-hibernate"),
            "expected hibernation: {:?}",
            out.decisions
        );
    }

    #[test]
    fn higher_risk_tolerance_serves_longer() {
        let bold = controller().with_risk(0.4).simulate(
            &cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_minutes(60.0),
        );
        let cautious = controller().with_risk(0.01).simulate(
            &cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_minutes(60.0),
        );
        assert!(bold.perf_during_outage >= cautious.perf_during_outage);
    }
}
