//! Capacity planning for heterogeneous applications (§7).
//!
//! "Multiple datacenters or sections in a datacenter could have different
//! backup configurations, in the spectrum of cost-performability choices we
//! outlined. Capacity planning could depend on historic data about multiple
//! application requirements and cost preferences." This module sizes a
//! separate backup configuration per application section, each against its
//! own performability SLO, and reports the blended savings versus
//! provisioning today's full backup everywhere.

use crate::cost::CostModel;
use crate::fleet;
use crate::sizing::{min_cost_ups, SizedPoint, SizingTargets};
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, Technique};
use dcb_units::{DollarsPerYear, Seconds, Watts};

/// A per-application service-level objective for outage handling.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Slo {
    /// The outage duration the section must survive.
    pub cover_outage: Seconds,
    /// Acceptance criteria within that outage.
    pub targets: SizingTargets,
}

impl Slo {
    /// Survive the given outage with state preserved; performance and
    /// downtime unconstrained.
    #[must_use]
    pub fn survive(cover_outage: Seconds) -> Self {
        Self {
            cover_outage,
            targets: SizingTargets::execute_to_plan(),
        }
    }

    /// Survive with a minimum performance level during the outage.
    #[must_use]
    pub fn with_min_perf(mut self, min_perf: f64) -> Self {
        self.targets.min_perf = Some(min_perf);
        self
    }

    /// Survive with a maximum downtime.
    #[must_use]
    pub fn with_max_downtime(mut self, max_downtime: Seconds) -> Self {
        self.targets.max_downtime = Some(max_downtime);
        self
    }
}

/// The chosen provisioning for one application section.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanEntry {
    /// The section's workload name.
    pub workload: String,
    /// The technique the section will execute during outages.
    pub technique: String,
    /// The chosen technique itself (absent for unsatisfiable sections).
    pub chosen_technique: Option<Technique>,
    /// The sized configuration and its evaluation, or `None` if no
    /// candidate met the SLO.
    pub point: Option<SizedPoint>,
    /// Absolute yearly cost of the chosen configuration for this section.
    pub yearly_cost: DollarsPerYear,
    /// Yearly cost had the section used today's full backup (MaxPerf).
    pub max_perf_cost: DollarsPerYear,
}

/// The full heterogeneous plan.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Plan {
    /// Per-section choices.
    pub entries: Vec<PlanEntry>,
}

impl Plan {
    /// Whether every section found a satisfying configuration.
    #[must_use]
    pub fn fully_satisfied(&self) -> bool {
        self.entries.iter().all(|e| e.point.is_some())
    }

    /// Total yearly cost across satisfied sections.
    #[must_use]
    pub fn total_cost(&self) -> DollarsPerYear {
        self.entries.iter().map(|e| e.yearly_cost).sum()
    }

    /// Total cost had every section provisioned MaxPerf.
    #[must_use]
    pub fn max_perf_cost(&self) -> DollarsPerYear {
        self.entries.iter().map(|e| e.max_perf_cost).sum()
    }

    /// Blended savings fraction versus provisioning MaxPerf everywhere.
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        let baseline = self.max_perf_cost();
        if !baseline.is_positive() {
            return 0.0;
        }
        1.0 - self.total_cost() / baseline
    }
}

/// Plans one section: tries every technique in `catalog`, sizes each, and
/// keeps the cheapest satisfying choice. Candidate techniques fan out over
/// the shared [`crate::fleet`] pool (the nested per-technique sizing
/// searches run inline on their workers); ties resolve to the earliest
/// catalog entry, as in the serial reference.
#[must_use]
pub fn plan_section(cluster: &Cluster, slo: &Slo, catalog: &[Technique]) -> PlanEntry {
    let model = CostModel::paper();
    let peak: Watts = cluster.peak_power();
    let max_perf_cost = model.annual_cost(&BackupConfig::max_perf(), peak).total();
    let sized = fleet::pool().run_all(catalog, |technique| {
        min_cost_ups(cluster, technique, slo.cover_outage, &slo.targets).map(|point| {
            let cost = model.annual_cost(&point.config, peak).total();
            (cost, point)
        })
    });
    let mut best: Option<(DollarsPerYear, Technique, SizedPoint)> = None;
    for (technique, candidate) in catalog.iter().zip(sized) {
        if let Some((cost, point)) = candidate {
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, technique.clone(), point));
            }
        }
    }
    match best {
        Some((cost, technique, point)) => PlanEntry {
            workload: cluster.workload().kind().to_string(),
            technique: technique.name().to_owned(),
            chosen_technique: Some(technique),
            point: Some(point),
            yearly_cost: cost,
            max_perf_cost,
        },
        None => PlanEntry {
            workload: cluster.workload().kind().to_string(),
            technique: "unsatisfiable".to_owned(),
            chosen_technique: None,
            point: None,
            // Fall back to full provisioning for unsatisfiable sections.
            yearly_cost: max_perf_cost,
            max_perf_cost,
        },
    }
}

/// Plans every section, fanning sections out over the shared
/// [`crate::fleet`] pool. Entries stay in section order.
#[must_use]
pub fn plan(sections: &[(Cluster, Slo)], catalog: &[Technique]) -> Plan {
    Plan {
        entries: fleet::pool().run_all(sections, |(cluster, slo)| {
            plan_section(cluster, slo, catalog)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    fn small_catalog() -> Vec<Technique> {
        vec![
            Technique::ride_through(),
            Technique::throttle_deepest(),
            Technique::sleep_l(),
        ]
    }

    #[test]
    fn single_section_plan_is_cheaper_than_max_perf() {
        let sections = vec![(
            Cluster::rack(Workload::memcached()),
            Slo::survive(Seconds::from_minutes(10.0)),
        )];
        let plan = plan(&sections, &small_catalog());
        assert!(plan.fully_satisfied());
        assert!(
            plan.savings_fraction() > 0.3,
            "savings {}",
            plan.savings_fraction()
        );
    }

    #[test]
    fn stricter_slo_costs_at_least_as_much() {
        let cluster = Cluster::rack(Workload::specjbb());
        let lax = plan_section(
            &cluster,
            &Slo::survive(Seconds::from_minutes(10.0)),
            &small_catalog(),
        );
        let strict = plan_section(
            &cluster,
            &Slo::survive(Seconds::from_minutes(10.0)).with_min_perf(0.9),
            &small_catalog(),
        );
        assert!(strict.yearly_cost >= lax.yearly_cost);
    }

    #[test]
    fn impossible_slo_falls_back_to_max_perf() {
        let cluster = Cluster::rack(Workload::specjbb());
        // Zero downtime and full performance for a 2 h outage cannot be met
        // by a UPS-only configuration from this catalog at full load...
        let slo = Slo::survive(Seconds::from_hours(12.0))
            .with_min_perf(1.0)
            .with_max_downtime(Seconds::ZERO);
        let entry = plan_section(&cluster, &slo, &small_catalog());
        assert!(entry.point.is_none());
        assert_eq!(entry.yearly_cost, entry.max_perf_cost);
    }

    #[test]
    fn heterogeneous_sections_pick_different_techniques() {
        let sections = vec![
            (
                Cluster::rack(Workload::memcached()),
                Slo::survive(Seconds::from_minutes(30.0)).with_min_perf(0.4),
            ),
            (
                Cluster::rack(Workload::spec_cpu()),
                Slo::survive(Seconds::from_minutes(30.0)),
            ),
        ];
        let plan = plan(&sections, &small_catalog());
        assert!(plan.fully_satisfied());
        assert_eq!(plan.entries.len(), 2);
    }
}
