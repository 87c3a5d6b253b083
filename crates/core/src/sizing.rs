//! Minimum-cost UPS sizing for a technique and outage duration.
//!
//! §6.2: "For each system technique, we use the lowest cost backup
//! configuration (combination of UPS peak and energy capacity) at each of
//! the offered performance and availability operating points." This module
//! implements that search — the engine behind the cost bars of Figures 6–9.
//! The DG is excluded ("the presence of DG ... is not only expensive but is
//! also uninteresting in its performability implications for outages longer
//! than the DG start-up time", §6.2).

use crate::cost::CostModel;
use crate::evaluate::Performability;
use crate::fleet;
use dcb_fleet::ClusterKey;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, InitialAction, Technique};
use dcb_units::{Fraction, Seconds};

/// Acceptance criteria for a sized configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SizingTargets {
    /// Volatile state must survive the outage (set `false` only for the
    /// crash baseline).
    pub require_state_preserved: bool,
    /// Minimum average normalized performance during the outage, if any.
    pub min_perf: Option<f64>,
    /// Maximum tolerable downtime, if any.
    pub max_downtime: Option<Seconds>,
}

impl SizingTargets {
    /// The Figure 6 criterion: the technique must run to plan and keep
    /// state; performance and downtime are *reported*, not constrained.
    #[must_use]
    pub fn execute_to_plan() -> Self {
        Self {
            require_state_preserved: true,
            min_perf: None,
            max_downtime: None,
        }
    }

    /// Whether a simulated point satisfies the targets.
    #[must_use]
    pub fn satisfied_by(&self, p: &Performability) -> bool {
        let o = &p.outcome;
        if !o.feasible {
            return false;
        }
        if self.require_state_preserved && o.state_lost {
            return false;
        }
        if let Some(min_perf) = self.min_perf {
            if o.perf_during_outage.value() + 1e-12 < min_perf {
                return false;
            }
        }
        if let Some(max_downtime) = self.max_downtime {
            if o.downtime.expected > max_downtime {
                return false;
            }
        }
        true
    }
}

impl Default for SizingTargets {
    fn default() -> Self {
        Self::execute_to_plan()
    }
}

/// A sized operating point: the cheapest UPS-only configuration found and
/// its evaluated performability.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SizedPoint {
    /// The minimum-cost configuration.
    pub config: BackupConfig,
    /// Its evaluation at the sizing duration.
    pub performability: Performability,
}

/// The UPS power fractions the search considers.
const POWER_FRACTIONS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// A probed UPS-only configuration, labelled `UPS <power>% × <runtime>min`
/// with both numbers rounded to whole ones.
fn ups_only(power: f64, runtime: Seconds) -> BackupConfig {
    BackupConfig::custom(
        format!(
            "UPS {}% × {}min",
            whole(power * 100.0),
            whole(runtime.to_minutes())
        ),
        Fraction::ZERO,
        Fraction::new(power),
        runtime,
    )
}

/// `value` rounded to an integer, ties to even. For a finite, non-negative
/// `value` below 2^53 this prints exactly what `{:.0}` prints, which runs
/// an exact-mode float formatter at several times the cost.
fn whole(value: f64) -> u64 {
    value.round_ties_even() as u64
}

/// Finds the minimum-cost UPS-only configuration under which `technique`
/// satisfies `targets` for an outage of `duration`.
///
/// For each candidate power fraction the minimal battery runtime is found
/// by bisection (feasibility is monotone in energy), and the cheapest
/// satisfying point across fractions wins, the first on a tie. Returns
/// `None` when no candidate satisfies the targets (the paper's
/// "infeasible" bars).
///
/// The search runs serially on the calling thread, in ascending fraction
/// order, and is pruned by cost: a fraction is dropped before its ceiling
/// probe when the free runtime already costs the incumbent, and
/// mid-bisection when a runtime proven too short does. The pruning is
/// exact: at a fixed power, cost never decreases as runtime grows (each
/// step of [`CostModel::annual_cost`] is a monotone IEEE operation on it),
/// the bisected runtime is never below the free runtime and lies above
/// every failed probe, and a later fraction loses a tie. Unpruned
/// fractions make the blind search's probes, so results are bit-identical
/// to it. Parallelism comes from callers such as [`technique_tradeoffs`]
/// that fan many searches over the shared [`crate::fleet`] pool; every
/// probe memoizes in its cache.
///
/// # Panics
///
/// Panics if `duration` is negative or non-finite.
#[must_use]
pub fn min_cost_ups(
    cluster: &Cluster,
    technique: &Technique,
    duration: Seconds,
    targets: &SizingTargets,
) -> Option<SizedPoint> {
    dcb_telemetry::counter!("core.sizing.searches").incr();
    // Price the baseline once, outside the fraction loop. The cost model
    // never reads a label, so prices come from unlabelled configurations.
    let normalizer = CostModel::paper().normalizer();
    let cost = |power: f64, runtime: Seconds| {
        let config =
            BackupConfig::custom(String::new(), Fraction::ZERO, Fraction::new(power), runtime);
        normalizer.normalized_cost(&config)
    };
    // Generous energy ceiling: ride the whole outage plus save overheads.
    let max_runtime = (duration * 1.5 + Seconds::from_minutes(40.0))
        .min(Seconds::from_minutes(480.0))
        .max(Seconds::from_minutes(4.0));
    let key = ClusterKey::new(cluster);
    let try_runtime = |power: f64, runtime: Seconds| -> Option<SizedPoint> {
        let config = ups_only(power, runtime);
        let p = fleet::evaluate_keyed(&key, &config, technique, duration);
        targets.satisfied_by(&p).then_some(SizedPoint {
            config,
            performability: p,
        })
    };
    // The cheapest point at `power` if it costs less than `incumbent`.
    let size = |power: f64, incumbent: f64| -> Option<SizedPoint> {
        let pruned = || {
            dcb_telemetry::counter!("core.sizing.fractions_pruned").incr();
            None
        };
        if cost(power, BackupConfig::FREE_RUNTIME) >= incumbent {
            return pruned();
        }
        // The ceiling must work at this power level at all.
        let Some(mut at_hi) = try_runtime(power, max_runtime) else {
            dcb_telemetry::counter!("core.sizing.ceiling_infeasible").incr();
            return None;
        };
        let (mut lo, mut hi) = (BackupConfig::FREE_RUNTIME, max_runtime);
        if let Some(at_lo) = try_runtime(power, lo) {
            return Some(at_lo);
        }
        // Bisect the minimal runtime to 1-minute granularity.
        while (hi - lo) > Seconds::from_minutes(1.0) {
            let mid = (lo + hi) / 2.0;
            match try_runtime(power, mid) {
                Some(at_mid) => (hi, at_hi) = (mid, at_mid),
                None if cost(power, mid) >= incumbent => return pruned(),
                None => lo = mid,
            }
        }
        Some(at_hi).filter(|p| p.performability.cost < incumbent)
    };

    let (mut best, mut incumbent) = (None, f64::INFINITY);
    for power in POWER_FRACTIONS {
        if let Some(point) = size(power, incumbent) {
            incumbent = point.performability.cost;
            best = Some(point);
        }
    }
    best
}

/// Sizes every technique in `catalog` at every duration — the full data
/// behind one Figure 6/7/8/9 panel, in technique-major order. Entries are
/// `None` where the technique cannot meet the targets at any candidate UPS
/// size; a technique whose initial action is [`InitialAction::Crash`] is
/// the crash baseline, priced at MinCost without reading `targets`.
///
/// The whole grid is one batch on the shared [`crate::fleet`] pool, the
/// sizing search's only parallelism: each cell's [`min_cost_ups`] runs
/// serially on its worker, and every simulated point memoizes in the
/// shared cache.
///
/// # Panics
///
/// Panics if a duration is negative or non-finite.
#[must_use]
pub fn technique_tradeoffs(
    cluster: &Cluster,
    catalog: &[Technique],
    durations: &[Seconds],
    targets: &SizingTargets,
) -> Vec<(Technique, Seconds, Option<SizedPoint>)> {
    let _span = dcb_telemetry::span("technique_tradeoffs");
    let _prof = dcb_prof::frame("technique_tradeoffs");
    let mut cells = Vec::with_capacity(catalog.len() * durations.len());
    for technique in catalog {
        for &duration in durations {
            cells.push((technique.clone(), duration));
        }
    }
    let points = fleet::pool().run_all(&cells, |(technique, duration)| {
        // The crash baseline needs no backup at all: report MinCost.
        if matches!(technique.initial(), InitialAction::Crash) {
            let config = BackupConfig::min_cost();
            Some(SizedPoint {
                performability: fleet::evaluate_keyed(
                    &ClusterKey::new(cluster),
                    &config,
                    technique,
                    *duration,
                ),
                config,
            })
        } else {
            min_cost_ups(cluster, technique, *duration, targets)
        }
    });
    cells
        .into_iter()
        .zip(points)
        .map(|((technique, duration), point)| (technique, duration, point))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::paper_durations;
    use dcb_fleet::Scenario;
    use dcb_server::{PState, TState, ThrottleLevel};
    use dcb_workload::Workload;
    use proptest::prelude::*;

    fn cluster() -> Cluster {
        Cluster::rack(Workload::specjbb())
    }

    /// The unpruned search `min_cost_ups` replaced, kept as its oracle:
    /// each fraction's candidate, from a ceiling probe and a blind
    /// bisection, in fraction order.
    fn blind_candidates(
        cluster: &Cluster,
        technique: &Technique,
        duration: Seconds,
        targets: &SizingTargets,
    ) -> Vec<Option<(f64, SizedPoint)>> {
        let normalizer = CostModel::paper().normalizer();
        let max_runtime = (duration * 1.5 + Seconds::from_minutes(40.0))
            .min(Seconds::from_minutes(480.0))
            .max(Seconds::from_minutes(4.0));
        POWER_FRACTIONS
            .iter()
            .map(|&power| {
                let try_runtime = |runtime: Seconds| -> Option<Performability> {
                    let config = ups_only(power, runtime);
                    let p = fleet::evaluate_scenario(&Scenario::new(
                        cluster, &config, technique, duration,
                    ));
                    targets.satisfied_by(&p).then_some(p)
                };
                try_runtime(max_runtime)?;
                let mut lo = BackupConfig::FREE_RUNTIME;
                let mut hi = max_runtime;
                if try_runtime(lo).is_some() {
                    hi = lo;
                } else {
                    while (hi - lo) > Seconds::from_minutes(1.0) {
                        let mid = (lo + hi) / 2.0;
                        if try_runtime(mid).is_some() {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                }
                let config = ups_only(power, hi);
                let performability =
                    fleet::evaluate_scenario(&Scenario::new(cluster, &config, technique, duration));
                let cost = normalizer.normalized_cost(&config);
                Some((
                    cost,
                    SizedPoint {
                        config,
                        performability,
                    },
                ))
            })
            .collect()
    }

    /// The blind search's answer: the first cheapest candidate.
    fn blind_min_cost_ups(
        cluster: &Cluster,
        technique: &Technique,
        duration: Seconds,
        targets: &SizingTargets,
    ) -> Option<SizedPoint> {
        let mut best: Option<(f64, SizedPoint)> = None;
        for candidate in blind_candidates(cluster, technique, duration, targets)
            .into_iter()
            .flatten()
        {
            if best.as_ref().is_none_or(|(c, _)| candidate.0 < *c) {
                best = Some(candidate);
            }
        }
        best.map(|(_, point)| point)
    }

    /// Every float of a sized point, as its bit pattern.
    fn float_bits(point: &SizedPoint) -> Vec<u64> {
        let config = &point.config;
        let o = &point.performability.outcome;
        [
            config.dg_power().value(),
            config.ups_power().value(),
            config.ups_runtime().value(),
            point.performability.cost,
            o.outage.value(),
            o.peak_power.value(),
            o.peak_power_fraction.value(),
            o.energy.value(),
            o.perf_during_outage.value(),
            o.downtime.min.value(),
            o.downtime.expected.value(),
            o.downtime.max.value(),
            o.downtime_during_outage.value(),
        ]
        .map(f64::to_bits)
        .to_vec()
    }

    /// Whether two search results agree bit for bit: equal field for
    /// field, with every float also equal as a bit pattern.
    fn same_bits(a: Option<&SizedPoint>, b: Option<&SizedPoint>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b && float_bits(a) == float_bits(b),
            _ => false,
        }
    }

    fn assert_matches_blind(
        cluster: &Cluster,
        technique: &Technique,
        duration: Seconds,
        targets: &SizingTargets,
    ) {
        let pruned = min_cost_ups(cluster, technique, duration, targets);
        let blind = blind_min_cost_ups(cluster, technique, duration, targets);
        assert!(
            same_bits(pruned.as_ref(), blind.as_ref()),
            "{} at {duration:?} under {targets:?}: pruned {pruned:?}, blind {blind:?}",
            technique.name()
        );
    }

    #[test]
    fn pruned_search_matches_blind_search_on_the_exhibit_grid() {
        let short_medium_long = [
            Seconds::new(30.0),
            Seconds::from_minutes(30.0),
            Seconds::from_minutes(120.0),
        ];
        let figures = [
            (Workload::specjbb(), paper_durations()),
            (Workload::memcached(), short_medium_long.to_vec()),
            (Workload::web_search(), short_medium_long.to_vec()),
            (Workload::spec_cpu(), short_medium_long.to_vec()),
            (Workload::oltp_database(), short_medium_long.to_vec()),
        ];
        let to_plan = SizingTargets::execute_to_plan();
        for (workload, durations) in figures {
            for technique in Technique::catalog() {
                for &duration in &durations {
                    assert_matches_blind(&Cluster::rack(workload), &technique, duration, &to_plan);
                }
            }
        }
        // The direct searches of `repro verify` (claims 3 and 4) and of the
        // chemistry ablation.
        let claim3 = SizingTargets {
            require_state_preserved: true,
            min_perf: Some(0.58),
            max_downtime: Some(Seconds::new(1.0)),
        };
        let p3 = Technique::throttle(ThrottleLevel {
            p: PState::new(3),
            t: TState::full(),
        });
        let hybrid = Technique::throttle_sleep_l(ThrottleLevel {
            p: PState::slowest(),
            t: TState::full(),
        });
        let (short, hour, long) = (
            Seconds::new(30.0),
            Seconds::from_minutes(60.0),
            Seconds::from_minutes(120.0),
        );
        let deepest = Technique::throttle_deepest();
        assert_matches_blind(&cluster(), &p3, hour, &claim3);
        for (technique, duration) in [
            (&deepest, short),
            (&hybrid, long),
            (&deepest, long),
            (&deepest, hour),
            (&Technique::proactive_hibernate(), hour),
        ] {
            assert_matches_blind(&cluster(), technique, duration, &to_plan);
        }
    }

    #[test]
    fn pruned_search_keeps_a_higher_fraction_that_wins() {
        // At 6 h the lowest feasible fraction is not the cheapest: a
        // 62.5 % UPS needs so much less runtime than a 50 % one that it
        // costs less, so the prune must not stop at the first feasible
        // fraction.
        let technique = Technique::throttle_deepest();
        let duration = Seconds::from_minutes(360.0);
        let to_plan = SizingTargets::execute_to_plan();
        let candidates = blind_candidates(&cluster(), &technique, duration, &to_plan);
        let first_feasible = candidates.iter().position(Option::is_some).unwrap();
        let point = min_cost_ups(&cluster(), &technique, duration, &to_plan).unwrap();
        assert!(point.config.ups_power().value() > POWER_FRACTIONS[first_feasible]);
        assert_matches_blind(&cluster(), &technique, duration, &to_plan);
    }

    #[test]
    fn sleep_sizes_tiny_for_short_outage() {
        // §6.2: "Sleep-L, which costs only 20% of MaxPerf" for a 30 s
        // outage.
        let point = min_cost_ups(
            &cluster(),
            &Technique::sleep_l(),
            Seconds::new(30.0),
            &SizingTargets::execute_to_plan(),
        )
        .expect("sleep-l must be sizable");
        let cost = point.performability.cost;
        assert!(cost <= 0.25, "cost {cost}");
        assert!(!point.performability.outcome.state_lost);
    }

    #[test]
    fn throttling_cheap_for_medium_outages() {
        // §6.2: throttling matches MaxPerf performance at < 40% of its cost
        // for outages up to 30 minutes (at some throttle depth).
        let point = min_cost_ups(
            &cluster(),
            &Technique::throttle_deepest(),
            Seconds::from_minutes(30.0),
            &SizingTargets::execute_to_plan(),
        )
        .expect("throttling must be sizable for 30 min");
        assert!(
            point.performability.cost < 0.45,
            "cost {}",
            point.performability.cost
        );
    }

    #[test]
    fn ride_through_costs_more_than_throttling() {
        let duration = Seconds::from_minutes(30.0);
        let full = min_cost_ups(
            &cluster(),
            &Technique::ride_through(),
            duration,
            &SizingTargets::execute_to_plan(),
        )
        .expect("ride-through sizable");
        let throttled = min_cost_ups(
            &cluster(),
            &Technique::throttle_deepest(),
            duration,
            &SizingTargets::execute_to_plan(),
        )
        .expect("throttle sizable");
        assert!(full.performability.cost > throttled.performability.cost);
    }

    #[test]
    fn hybrid_sleep_cheapest_for_long_outages() {
        // §6.2: "for long outages ... Throttle+Sleep-L can sustain at as low
        // as 20% cost" while pure throttling needs much more.
        let duration = Seconds::from_minutes(120.0);
        let hybrid = min_cost_ups(
            &cluster(),
            &Technique::throttle_sleep_l(dcb_server::ThrottleLevel {
                p: dcb_server::PState::slowest(),
                t: dcb_server::TState::full(),
            }),
            duration,
            &SizingTargets::execute_to_plan(),
        )
        .expect("hybrid sizable for 2 h");
        assert!(
            hybrid.performability.cost <= 0.30,
            "cost {}",
            hybrid.performability.cost
        );
    }

    #[test]
    fn targets_filter_low_performance() {
        let strict = SizingTargets {
            require_state_preserved: true,
            min_perf: Some(0.99),
            max_downtime: Some(Seconds::ZERO),
        };
        // Sleeping gives zero perf, so it can never satisfy the strict
        // target.
        let point = min_cost_ups(&cluster(), &Technique::sleep(), Seconds::new(30.0), &strict);
        assert!(point.is_none());
    }

    #[test]
    fn labels_print_what_float_formatting_printed() {
        // Every fraction at every runtime of 1/64 min granularity over the
        // search's 2–480 min span, which holds every exact half-minute tie.
        for power in POWER_FRACTIONS {
            for k in 128..=30_720 {
                let runtime = Seconds::from_minutes(f64::from(k) / 64.0);
                let formatted =
                    format!("UPS {:.0}% × {:.0}min", power * 100.0, runtime.to_minutes());
                assert_eq!(ups_only(power, runtime).label(), formatted);
            }
        }
    }

    #[test]
    fn crash_baseline_is_picked_by_its_initial_action() {
        // A ride-through named "Crash" is sized like any other technique,
        // and a crash under another name is the MinCost baseline.
        let continuing =
            Technique::named("Crash", InitialAction::Continue(ThrottleLevel::NONE), None);
        let halting = Technique::named("Halt", InitialAction::Crash, None);
        let (duration, targets) = (Seconds::new(30.0), SizingTargets::execute_to_plan());
        let rows = technique_tradeoffs(
            &cluster(),
            &[continuing.clone(), halting],
            &[duration],
            &targets,
        );
        let searched = min_cost_ups(&cluster(), &continuing, duration, &targets);
        assert!(searched.is_some(), "a ride-through is sizable for 30 s");
        assert_eq!(rows[0].2, searched);
        let baseline = rows[1]
            .2
            .as_ref()
            .expect("the crash baseline is always priced");
        assert_eq!(baseline.config, BackupConfig::min_cost());
    }

    #[test]
    fn tradeoffs_table_covers_catalog() {
        let rows = technique_tradeoffs(
            &cluster(),
            &[Technique::crash(), Technique::sleep_l()],
            &[Seconds::new(30.0)],
            &SizingTargets::execute_to_plan(),
        );
        assert_eq!(rows.len(), 2);
        // Crash maps to the MinCost config.
        let (_, _, crash_point) = &rows[0];
        assert_eq!(crash_point.as_ref().unwrap().config.label(), "MinCost");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pruned_search_matches_blind_search_on_random_targets(
            workload in 0usize..5,
            technique in 0usize..Technique::extended_catalog().len(),
            minutes in 0.0f64..=480.0,
            keep_state in 0u8..2,
            min_perf in prop_oneof![Just(None), (0.0f64..=1.0).prop_map(Some)],
            max_downtime in prop_oneof![Just(None), (0.0f64..=240.0).prop_map(Some)],
        ) {
            let workload = [
                Workload::specjbb(),
                Workload::memcached(),
                Workload::web_search(),
                Workload::spec_cpu(),
                Workload::oltp_database(),
            ][workload];
            let cluster = Cluster::rack(workload);
            let technique = &Technique::extended_catalog()[technique];
            let duration = Seconds::from_minutes(minutes);
            let targets = SizingTargets {
                require_state_preserved: keep_state == 1,
                min_perf,
                max_downtime: max_downtime.map(Seconds::from_minutes),
            };
            let pruned = min_cost_ups(&cluster, technique, duration, &targets);
            let blind = blind_min_cost_ups(&cluster, technique, duration, &targets);
            prop_assert!(
                same_bits(pruned.as_ref(), blind.as_ref()),
                "pruned {pruned:?}, blind {blind:?}"
            );
        }

        #[test]
        fn whole_rounds_as_float_formatting_does(
            value in prop_oneof![
                0.0f64..9_007_199_254_740_992.0,
                0.0f64..1_000.0,
                (0u64..1 << 40).prop_map(|halves| halves as f64 / 2.0),
            ],
        ) {
            prop_assert_eq!(whole(value).to_string(), format!("{value:.0}"));
        }

        #[test]
        fn ups_cost_never_decreases_with_runtime(
            minutes in 0.0f64..=480.0,
            extra in 0.0f64..=480.0,
        ) {
            let normalizer = CostModel::paper().normalizer();
            let runtime = Seconds::from_minutes(minutes);
            let longer = [
                Seconds::new(runtime.value().next_up()),
                Seconds::from_minutes((minutes + extra).min(480.0)),
            ];
            for power in POWER_FRACTIONS {
                let base = normalizer.normalized_cost(&ups_only(power, runtime));
                for &longer in &longer {
                    let cost = normalizer.normalized_cost(&ups_only(power, longer));
                    prop_assert!(
                        cost >= base,
                        "UPS {power} × {longer:?} costs {cost}, below {base} at {runtime:?}"
                    );
                }
            }
        }
    }
}
