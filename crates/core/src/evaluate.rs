//! Performability evaluation: cost + performance + availability per
//! (configuration, technique, outage) point.

use crate::cost::{CostModel, Normalizer};
use dcb_fleet::Scenario;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, OutageSim, SimOutcome, Technique};
use dcb_units::Seconds;
use std::sync::OnceLock;

/// The paper cost model's normalizer, priced once per process: every
/// evaluation shares the same `MaxPerf` baseline instead of re-pricing it
/// per point.
fn paper_normalizer() -> &'static Normalizer {
    static NORMALIZER: OnceLock<Normalizer> = OnceLock::new();
    NORMALIZER.get_or_init(|| CostModel::paper().normalizer())
}

/// One point in the cost-performability space: a configuration and
/// technique evaluated against one outage duration.
///
/// `cost` is normalized to today's practice (MaxPerf = 1.0), matching every
/// cost axis in the paper.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Performability {
    /// Label of the evaluated configuration.
    pub config: String,
    /// Name of the technique used during the outage.
    pub technique: String,
    /// Normalized yearly backup cost (MaxPerf = 1).
    pub cost: f64,
    /// The simulated outcome (performance, downtime, feasibility...).
    pub outcome: SimOutcome,
}

impl Performability {
    /// Total lost service time: post-outage downtime plus performance
    /// degradation integrated over the outage — the scalar used to rank
    /// techniques ("the system technique that offers the highest
    /// performance and lowest down time", §6.1). Idle in-outage seconds
    /// count through both terms, weighting hard unavailability above mere
    /// degradation.
    #[must_use]
    pub fn lost_service(&self) -> f64 {
        let o = &self.outcome;
        o.downtime.expected.value() + (1.0 - o.perf_during_outage.value()) * o.outage.value()
    }

    /// Ranking key: state-preserving feasible runs first, then least lost
    /// service.
    fn rank(&self) -> (u8, f64) {
        let class = u8::from(!self.outcome.feasible) + u8::from(self.outcome.state_lost);
        (class, self.lost_service())
    }
}

/// Evaluates the cost-performability of running `technique` on `cluster`
/// backed by `config` through an outage of `duration`.
///
/// ```
/// use dcb_core::evaluate::evaluate;
/// use dcb_core::{BackupConfig, Cluster, Technique};
/// use dcb_units::Seconds;
/// use dcb_workload::Workload;
///
/// let p = evaluate(
///     &Cluster::rack(Workload::specjbb()),
///     &BackupConfig::max_perf(),
///     &Technique::ride_through(),
///     Seconds::from_minutes(5.0),
/// );
/// assert_eq!(p.cost, 1.0);
/// assert!(p.outcome.seamless());
/// ```
#[must_use]
pub fn evaluate(
    cluster: &Cluster,
    config: &BackupConfig,
    technique: &Technique,
    duration: Seconds,
) -> Performability {
    let _prof = dcb_prof::frame("evaluate");
    let outcome = OutageSim::new(*cluster, config.clone(), technique.clone()).run(duration);
    dcb_telemetry::counter!("core.evaluate.scenarios").incr();
    if !outcome.feasible {
        dcb_telemetry::counter!("core.evaluate.infeasible").incr();
    }
    if dcb_trace::enabled() {
        dcb_trace::instant(Some(dcb_trace::micros(duration)), None, || {
            dcb_trace::EventKind::Evaluate {
                config: config.label().to_owned(),
                technique: technique.name().to_owned(),
                feasible: outcome.feasible,
            }
        });
    }
    Performability {
        config: config.label().to_owned(),
        technique: technique.name().to_owned(),
        cost: paper_normalizer().normalized_cost(config),
        outcome,
    }
}

/// The best-ranked point of a non-empty, order-significant slice: ties go
/// to the earliest point, matching the serial `min_by` reference.
fn pick_best(points: &[Performability]) -> &Performability {
    let better = |a: &Performability, b: &Performability| {
        let (ca, la) = a.rank();
        let (cb, lb) = b.rank();
        ca.cmp(&cb).then_with(|| la.total_cmp(&lb)).is_le()
    };
    #[expect(
        clippy::expect_used,
        reason = "callers assert non-empty catalogs; documented `# Panics`"
    )]
    let mut best = points.first().expect("technique catalog must not be empty");
    for point in &points[1..] {
        if !better(best, point) {
            best = point;
        }
    }
    best
}

/// Evaluates every technique in `catalog` and returns the best one for the
/// configuration — the per-point selection behind Figure 5 ("For each
/// backup configuration, we choose the system technique that offers the
/// highest performance and lowest down time").
///
/// Candidates fan out over the shared [`crate::fleet`] pool and memoize in
/// its cache; ties resolve to the earliest catalog entry, exactly as the
/// serial reference would.
///
/// # Panics
///
/// Panics if `catalog` is empty.
#[must_use]
pub fn best_technique(
    cluster: &Cluster,
    config: &BackupConfig,
    duration: Seconds,
    catalog: &[Technique],
) -> Performability {
    assert!(!catalog.is_empty(), "technique catalog must not be empty");
    let scenarios: Vec<Scenario> = catalog
        .iter()
        .map(|t| Scenario::new(cluster, config, t, duration))
        .collect();
    pick_best(&crate::fleet::run_all(&scenarios)).clone()
}

/// A full configuration × duration sweep with best-technique selection:
/// the data behind Figure 5 (and its per-workload variants).
///
/// The whole configuration × duration × technique grid is flattened into
/// one batch for the shared [`crate::fleet`] pool — parallelism spans the
/// full sweep, not one point at a time — then each point's best technique
/// is selected from its contiguous chunk. Cost normalization is priced
/// once per process (see [`Normalizer`]), not once per grid point.
///
/// # Panics
///
/// Panics if `catalog` is empty.
#[must_use]
pub fn sweep_configs(
    cluster: &Cluster,
    configs: &[BackupConfig],
    durations: &[Seconds],
    catalog: &[Technique],
) -> Vec<Performability> {
    assert!(!catalog.is_empty(), "technique catalog must not be empty");
    let _span = dcb_telemetry::span("sweep_configs");
    let _prof = dcb_prof::frame("sweep_configs");
    let mut scenarios = Vec::with_capacity(configs.len() * durations.len() * catalog.len());
    for config in configs {
        for &duration in durations {
            for technique in catalog {
                scenarios.push(Scenario::new(cluster, config, technique, duration));
            }
        }
    }
    let evaluated = crate::fleet::run_all(&scenarios);
    let mut rows = Vec::with_capacity(configs.len() * durations.len());
    for point in evaluated.chunks(catalog.len()) {
        rows.push(pick_best(point).clone());
    }
    rows
}

/// Evaluates every technique in `catalog` against one configuration — the
/// per-technique comparison of Figures 6–9 at a fixed backup. Runs as one
/// batch on the shared [`crate::fleet`] pool, rows in technique-major
/// order.
#[must_use]
pub fn sweep_techniques(
    cluster: &Cluster,
    config: &BackupConfig,
    durations: &[Seconds],
    catalog: &[Technique],
) -> Vec<Performability> {
    let _span = dcb_telemetry::span("sweep_techniques");
    let _prof = dcb_prof::frame("sweep_techniques");
    let mut scenarios = Vec::with_capacity(catalog.len() * durations.len());
    for technique in catalog {
        for &duration in durations {
            scenarios.push(Scenario::new(cluster, config, technique, duration));
        }
    }
    crate::fleet::run_all(&scenarios)
}

/// The outage durations the paper's Figure 5/6 panels use.
#[must_use]
pub fn paper_durations() -> Vec<Seconds> {
    [0.5, 5.0, 30.0, 60.0, 120.0]
        .into_iter()
        .map(Seconds::from_minutes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    fn cluster() -> Cluster {
        Cluster::rack(Workload::specjbb())
    }

    #[test]
    fn max_perf_best_technique_is_seamless() {
        let p = best_technique(
            &cluster(),
            &BackupConfig::max_perf(),
            Seconds::from_minutes(30.0),
            &Technique::catalog(),
        );
        assert!(p.outcome.seamless(), "chose {}", p.technique);
        assert!(p.outcome.perf_during_outage.value() > 0.99);
    }

    #[test]
    fn best_technique_prefers_state_preservation() {
        // On a tiny battery and a long outage, the chosen technique must
        // preserve state (sleep/hibernate family), not crash.
        let p = best_technique(
            &cluster(),
            &BackupConfig::small_pups(),
            Seconds::from_minutes(30.0),
            &Technique::catalog(),
        );
        assert!(!p.outcome.state_lost, "chose {}", p.technique);
    }

    #[test]
    fn no_dg_short_outage_prefers_sustain_execution() {
        // 2-minute battery, 30 s outage: throttling (or riding through)
        // beats sleeping.
        let p = best_technique(
            &cluster(),
            &BackupConfig::no_dg(),
            Seconds::new(30.0),
            &Technique::catalog(),
        );
        assert!(
            p.outcome.perf_during_outage.value() > 0.4,
            "chose {} with perf {:?}",
            p.technique,
            p.outcome.perf_during_outage
        );
        assert!(p.outcome.seamless());
    }

    #[test]
    fn sweep_shapes() {
        let rows = sweep_configs(
            &cluster(),
            &[BackupConfig::max_perf(), BackupConfig::min_cost()],
            &[Seconds::new(30.0), Seconds::from_minutes(5.0)],
            &Technique::catalog(),
        );
        assert_eq!(rows.len(), 4);
        let rows = sweep_techniques(
            &cluster(),
            &BackupConfig::no_dg(),
            &[Seconds::new(30.0)],
            &Technique::catalog(),
        );
        assert_eq!(rows.len(), Technique::catalog().len());
    }

    #[test]
    fn lost_service_orders_sensibly() {
        let seamless = evaluate(
            &cluster(),
            &BackupConfig::max_perf(),
            &Technique::ride_through(),
            Seconds::from_minutes(5.0),
        );
        let crashed = evaluate(
            &cluster(),
            &BackupConfig::min_cost(),
            &Technique::crash(),
            Seconds::from_minutes(5.0),
        );
        assert!(seamless.lost_service() < crashed.lost_service());
    }
}
