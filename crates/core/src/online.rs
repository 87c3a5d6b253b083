//! The §7 adaptive controller for outages of unknown duration.
//!
//! "We may choose to start with the throttling at full performance mode
//! (assuming outage will be short) and gradually transition to lower power
//! modes and then finally (when outage exceeds 5 mins) use the sleep or
//! hibernate techniques which are known to considerably reduce backup
//! energy requirement."
//!
//! Serving burns charge that could otherwise extend the sleep endurance,
//! so the governing quantity is the *state-loss risk*: the predictor's
//! probability that the outage outlasts the sleep coverage the remaining
//! charge would buy. The controller serves at the shallowest throttle
//! level that keeps this risk within tolerance over a short lookahead
//! window, escalates to deeper levels as charge falls, and finally drops
//! to sleep — reproducing the paper's full-performance-first,
//! gradually-deepening strategy. What stays fixed for one outage is
//! planned once, so a re-plan weighs only the current charge and the
//! elapsed time.
//!
//! The controller re-plans at located events, not on a step grid. Between
//! two decisions the load is constant and the charge falls along a known
//! curve, so the next decision is the first instant the risk comparison
//! flips, found by [`first_true`] — the shape of the online rules of Lu &
//! Chen, which act only when a running cost crosses a threshold.

use dcb_outage::DurationPredictor;
use dcb_power::{BackupConfig, BackupSystem, EndurancePlan, Ups};
use dcb_server::{PState, TState, ThrottleLevel, TransitionTimes};
use dcb_sim::{first_true, Cluster};
use dcb_units::{contract, Fraction, Seconds, Watts};
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
/// It runs an outage segment by segment. A segment holds one mode at a
/// constant load and is drawn in one analytic step. It ends at the outage
/// end, at a sleep-entry or hibernate-save timer, at battery depletion,
/// or, while serving, at the first instant a re-plan would choose a
/// different mode: a located event, so decision instants sit on no step
/// grid.
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

impl Plan {
    /// The cluster load in `mode`, UPS tare included.
    fn load(&self, mode: Mode) -> Watts {
        match mode {
            Mode::Serving(level) => self.serve_load[level],
            Mode::EnteringSleep { .. } | Mode::Saving { .. } => self.serve_load[DEEPEST],
            Mode::Sleeping => self.sleep_load,
            Mode::Hibernated | Mode::Crashed => Watts::ZERO,
        }
    }
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

/// How far ahead a re-plan looks: the serve rule keeps the hibernate
/// reserve for at least this long, and it is the shortest risk window.
const LOOKAHEAD: Seconds = Seconds::literal(0.25);

/// The logged decision to adopt `next` at `at`.
fn decision(at: Seconds, next: Mode) -> Decision {
    let action = match next {
        Mode::Serving(level) => format!("serve@{}", AdaptiveController::ladder()[level]),
        Mode::Saving { .. } => "enter-hibernate".to_owned(),
        _ => "enter-sleep".to_owned(),
    };
    Decision { at, action }
}

/// What one controlled outage has accumulated when it ends.
struct Ledger {
    mode: Mode,
    decisions: Vec<Decision>,
    serving_integral: f64,
    downtime: Seconds,
    state_lost: bool,
}

impl Ledger {
    /// The outcome of an `outage` of `cluster` that ended with this ledger:
    /// the mode it ended in adds its recovery tail to the downtime.
    fn outcome(self, cluster: &Cluster, outage: Seconds) -> AdaptiveOutcome {
        let w = cluster.workload();
        let transitions = TransitionTimes::new(*cluster.spec());
        let recovery = w.recovery();
        let boot = cluster.spec().boot_time();
        let (tail_expected, spread) = match self.mode {
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
        let expected = self.downtime + tail_expected;
        let downtime = match spread {
            Some(rec) => DowntimeRange {
                min: (expected + rec.min - rec.expected).max(Seconds::ZERO),
                expected,
                max: expected + rec.max - rec.expected,
            },
            None => DowntimeRange::exact(expected),
        };
        AdaptiveOutcome {
            outage,
            state_lost: self.state_lost,
            perf_during_outage: if outage.value() > 0.0 {
                Fraction::new(self.serving_integral / outage.value())
            } else {
                Fraction::ONE
            },
            downtime,
            decisions: self.decisions,
        }
    }
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
        let tare = backup.ups().map_or(Watts::ZERO, Ups::tare);
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
    ///
    /// # Panics
    ///
    /// Panics if `outage` is negative or non-finite.
    #[must_use]
    pub fn simulate(
        &self,
        cluster: &Cluster,
        config: &BackupConfig,
        outage: Seconds,
    ) -> AdaptiveOutcome {
        assert!(
            outage.value() >= 0.0 && outage.is_finite(),
            "outage must be finite and non-negative"
        );
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

        // The re-plan at outage start; every later one is a located flip.
        let charge = backup.ups().map_or(Fraction::ZERO, Ups::charge);
        let full = backup.endurance_plan(plan.serve_load[0]);
        if let Some(next) = self
            .replan(&plan, &full, charge, Seconds::ZERO)
            .filter(|&next| next != mode)
        {
            decisions.push(decision(Seconds::ZERO, next));
            mode = next;
        }

        let mut t = Seconds::ZERO;
        while t < outage {
            let load = plan.load(mode);
            // A transition that completes before the outage ends bounds
            // the segment.
            let timer = match mode {
                Mode::EnteringSleep { remaining } | Mode::Saving { remaining } => {
                    Some(t + remaining).filter(|&done| done <= outage)
                }
                _ => None,
            };
            let limit = timer.unwrap_or(outage);
            let shortfall = backup.first_shortfall(load, t, limit);
            let stop = shortfall.unwrap_or(limit);
            // A flip at the outage end would change nothing it serves.
            let flip = match mode {
                Mode::Serving(_) => self
                    .next_flip(&plan, &backup, mode, load, t, stop)
                    .filter(|&(at, _)| at < outage),
                _ => None,
            };
            let end = flip.map_or(stop, |(at, _)| at);
            let sustained = backup.supply_segment(load, t, end);
            contract!(
                ((end - t) - sustained).value().abs() < 1e-3,
                "controller segment [{t}, {end}] not fully sustained: {sustained}"
            );
            let span = end - t;
            t = end;
            // Entering sleep, asleep or saving, the cluster serves nothing.
            if let Mode::Serving(level) = mode {
                serving_integral += plan.throughput[level] * span.value();
            } else {
                downtime += span;
            }
            if let Some((_, next)) = flip {
                decisions.push(decision(t, next));
                mode = next;
            } else if shortfall.is_some() {
                // The rest of the outage is downtime, counted by the
                // crashed segment that follows.
                state_lost = true;
                mode = Mode::Crashed;
            } else if timer.is_some() {
                mode = match mode {
                    Mode::Saving { .. } => Mode::Hibernated,
                    _ => Mode::Sleeping,
                };
            } else if let Mode::EnteringSleep { remaining } | Mode::Saving { remaining } = &mut mode
            {
                // The outage ended mid-transition.
                *remaining -= span;
            }
        }

        Ledger {
            mode,
            decisions,
            serving_integral,
            downtime,
            state_lost,
        }
        .outcome(cluster, outage)
    }

    /// The mode a re-plan at `elapsed` chooses when the battery holds
    /// `charge`; `None` while the backup system carries the full load
    /// indefinitely (`full` is its endurance), when nothing needs planning.
    fn replan(
        &self,
        plan: &Plan,
        full: &EndurancePlan<'_>,
        charge: Fraction,
        elapsed: Seconds,
    ) -> Option<Mode> {
        (!full.at(charge, elapsed).value().is_infinite())
            .then(|| self.decide(plan, charge, elapsed, LOOKAHEAD))
    }

    /// The first instant of `(t, stop]` at which a re-plan would leave the
    /// serving `mode`, and the mode it chooses there.
    ///
    /// The predicate reads the battery charge projected to the instant
    /// under test for the constant `load`. The projection and the full
    /// load's endurance are planned once per search, as the kernel's
    /// located events are. While serving, the full load's endurance only
    /// grows towards infinite, so a search that starts infinite is skipped.
    fn next_flip(
        &self,
        plan: &Plan,
        backup: &BackupSystem,
        mode: Mode,
        load: Watts,
        t: Seconds,
        stop: Seconds,
    ) -> Option<(Seconds, Mode)> {
        let full = backup.endurance_plan(plan.serve_load[0]).solved();
        let charge = backup.ups().map_or(Fraction::ZERO, Ups::charge);
        if full.at(charge, t).value().is_infinite() {
            return None;
        }
        let projection = backup.charge_projection(load, t, stop);
        let replan = |tau| self.replan(plan, &full, projection.charge_at(tau), tau);
        let at = first_true(t, stop, |tau| replan(tau).is_some_and(|next| next != mode))?;
        Some((at, replan(at)?))
    }

    /// Decides the mode at the given battery `charge`, `elapsed` into the
    /// outage: serve at some ladder level, drop to sleep, or persist to
    /// disk. `lookahead` is the shortest span a decision commits to.
    ///
    /// The fallback *kind* is chosen first — sleep when the remaining
    /// charge's sleep coverage plausibly outlasts the predictor's
    /// pessimistic horizon, hibernation when it does not but the battery
    /// can still carry the (expensive) save. With a sleep fallback the
    /// serve rule is risk-based: the probability that the outage outlasts
    /// a serving window plus the sleep coverage left after it must stay
    /// within the risk budget. With a hibernate fallback the rule is a hard
    /// energy reserve: serve while the charge stays above what the save
    /// needs. Levels whose load exceeds the UPS electronics rating are
    /// never candidates.
    fn decide(&self, plan: &Plan, charge: Fraction, elapsed: Seconds, lookahead: Seconds) -> Mode {
        let sleep = Mode::EnteringSleep {
            remaining: plan.entry_time,
        };
        let Some(ups) = &plan.ups else {
            return sleep; // no battery: nothing better exists
        };
        let charge = charge.value();
        let load = plan.serve_load;
        let burn =
            |level: usize, duration| charge_fraction(ups.runtime[level], load[level], duration);
        let coverage = |c: f64| ups.sleep_runtime * c.max(0.0);
        let within_cap = |level: &usize| load[*level] <= ups.cap;
        let keeps_reserve = |level: &usize| charge - burn(*level, lookahead) > ups.save_reserve;

        // Risk-based serve check under a sleep fallback. Shallower levels
        // must commit to a larger safety window (a bigger slice of their
        // own endurance), so as charge falls the controller passes through
        // the throttled levels before stopping instead of jumping from
        // full speed to a save-state mode.
        const WINDOW_FRACTIONS: [f64; 3] = [0.25, 0.15, 0.05];
        let serve = (0..load.len()).filter(within_cap).find(|&level| {
            let window = (ups.runtime[level] * WINDOW_FRACTIONS[level]).max(lookahead);
            let left = charge - burn(level, window) - ups.entry_frac;
            left > 0.0
                && self
                    .predictor
                    .probability_exceeds(elapsed, window + coverage(left))
                    <= self.risk
        });

        // 1. Serving is safe when the sleep-risk rule allows it AND one
        //    more lookahead still leaves the hibernate reserve intact — either
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
    use dcb_outage::{DurationDistribution, WeibullDuration};
    use dcb_workload::Workload;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(DurationPredictor::from_distribution(
            &DurationDistribution::us_business(),
        ))
    }

    fn cluster() -> Cluster {
        Cluster::rack(Workload::specjbb())
    }

    /// The fixed-step loop the event-driven controller replaced, kept as
    /// its oracle. It re-plans at every step of `max(outage/7200, 0.25 s)`,
    /// looking one step ahead, so its cadence and its lookahead both read
    /// the outage length.
    fn stepped(
        controller: &AdaptiveController,
        cluster: &Cluster,
        config: &BackupConfig,
        outage: Seconds,
    ) -> AdaptiveOutcome {
        let mut backup = config.instantiate(cluster.peak_power());
        let plan = controller.plan(cluster, &backup);

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
                let charge = backup.ups().map_or(Fraction::ZERO, Ups::charge);
                let next = controller.decide(&plan, charge, t, dt);
                if next != mode {
                    decisions.push(decision(t, next));
                    mode = next;
                }
            }
            let load = plan.load(mode);
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

        Ledger {
            mode,
            decisions,
            serving_integral,
            downtime,
            state_lost,
        }
        .outcome(cluster, outage)
    }

    /// One controlled outage of the comparison grid.
    struct Case {
        controller: AdaptiveController,
        cluster: Cluster,
        config: BackupConfig,
        outage: Seconds,
    }

    impl Case {
        fn run(&self, outage: Seconds) -> AdaptiveOutcome {
            self.controller
                .simulate(&self.cluster, &self.config, outage)
        }

        fn name(&self) -> String {
            format!(
                "{} / {} / {} s",
                self.config.label(),
                self.cluster.workload(),
                self.outage.value()
            )
        }
    }

    /// The controllers, clusters and configurations of the golden grid in
    /// `tests/online_golden.rs`, each paired with every outage length of
    /// `durations`, then the half-power 10-minute UPS at risks 0.01 and
    /// 0.4 with every length of `hibernate_durations`.
    fn grid(durations: &[f64], hibernate_durations: &[f64]) -> Vec<Case> {
        let predictors = [
            DurationPredictor::from_distribution(&DurationDistribution::us_business()),
            DurationPredictor::from_distribution(&WeibullDuration::fit_us_business().to_bucketed()),
        ];
        let mut cases = Vec::new();
        for config in BackupConfig::table3() {
            for workload in [Workload::specjbb(), Workload::memcached()] {
                for predictor in &predictors {
                    for &outage in durations {
                        cases.push(Case {
                            controller: AdaptiveController::new(predictor.clone()),
                            cluster: Cluster::rack(workload),
                            config: config.clone(),
                            outage: Seconds::new(outage),
                        });
                    }
                }
            }
        }
        let hibernate = BackupConfig::custom(
            "UPS 50% × 10min",
            Fraction::ZERO,
            Fraction::HALF,
            Seconds::from_minutes(10.0),
        );
        for risk in [0.01, 0.4] {
            for &outage in hibernate_durations {
                cases.push(Case {
                    controller: controller().with_risk(risk),
                    cluster: cluster(),
                    config: hibernate.clone(),
                    outage: Seconds::new(outage),
                });
            }
        }
        cases
    }

    /// The event-driven controller against the stepped loop it replaced,
    /// over the golden grid plus 600-, 5,000- and 12,000-s outages. Only
    /// the decision instants move, off the step grid, so every deviation
    /// is bounded by one step of the stepped loop.
    #[test]
    fn event_driven_controller_tracks_the_stepped_loop() {
        let durations = [30.0, 190.0, 600.0, 2_100.0, 5_000.0, 12_000.0, 42_400.0];
        let cases = grid(&durations, &[8.0 * 3_600.0]);
        assert_eq!(cases.len(), 254);
        for case in &cases {
            let name = case.name();
            let event = case.run(case.outage);
            let oracle = stepped(&case.controller, &case.cluster, &case.config, case.outage);
            let step = (case.outage.value() / 7200.0).max(0.25);
            assert_eq!(event.state_lost, oracle.state_lost, "{name}");
            let actions = |o: &AdaptiveOutcome| -> Vec<String> {
                o.decisions.iter().map(|d| d.action.clone()).collect()
            };
            assert_eq!(actions(&event), actions(&oracle), "{name}");
            for (e, o) in event.decisions.iter().zip(&oracle.decisions) {
                assert!(
                    (e.at - o.at).value().abs() <= step,
                    "{name}: {} at {} against {} (step {step})",
                    e.action,
                    e.at,
                    o.at
                );
            }
            let perf = (event.perf_during_outage.value() - oracle.perf_during_outage.value()).abs();
            assert!(perf <= 2e-3, "{name}: perf off by {perf}");
            for (e, o) in [
                (event.downtime.min, oracle.downtime.min),
                (event.downtime.expected, oracle.downtime.expected),
                (event.downtime.max, oracle.downtime.max),
            ] {
                assert!(
                    (e - o).value().abs() <= step,
                    "{name}: downtime {e} against {o} (step {step})"
                );
            }
        }
    }

    /// The controller does not know the outage length, so a shorter outage
    /// must make the same decisions, at the same instants, as a longer one
    /// makes before the shorter one ends.
    #[test]
    fn decisions_do_not_depend_on_the_outage_length() {
        let short = [30.0, 190.0, 600.0, 2_100.0, 5_000.0, 12_000.0];
        let hibernate_short = [100.0, 400.0, 1_000.0, 10_000.0];
        let mut pairs = 0;
        for long in grid(&[42_400.0], &[8.0 * 3_600.0]) {
            let full = long.run(long.outage);
            let lengths = if long.outage.value() == 42_400.0 {
                &short[..]
            } else {
                &hibernate_short[..]
            };
            for &length in lengths {
                let outage = Seconds::new(length);
                let name = format!("{} cut to {length} s", long.name());
                let out = long.run(outage);
                let before: Vec<&Decision> =
                    full.decisions.iter().filter(|d| d.at < outage).collect();
                assert_eq!(
                    out.decisions.len(),
                    before.len(),
                    "{name}: {:?}",
                    out.decisions
                );
                for (d, r) in out.decisions.iter().zip(before) {
                    assert_eq!(d.action, r.action, "{name}");
                    assert!(
                        (d.at - r.at).value().abs() <= 1e-6,
                        "{name}: {} at {} against {}",
                        d.action,
                        d.at,
                        r.at
                    );
                }
                pairs += 1;
            }
        }
        assert_eq!(pairs, 224);
    }

    #[test]
    #[should_panic(expected = "outage must be finite and non-negative")]
    fn negative_outage_is_rejected() {
        let _ = controller().simulate(&cluster(), &BackupConfig::no_dg(), Seconds::new(-5.0));
    }

    #[test]
    #[should_panic(expected = "outage must be finite and non-negative")]
    fn infinite_outage_is_rejected() {
        let _ = controller().simulate(
            &cluster(),
            &BackupConfig::no_dg(),
            Seconds::new(f64::INFINITY),
        );
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
