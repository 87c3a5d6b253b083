//! Machine-readable (CSV) exports of the evaluation data behind the
//! figures, for external plotting.
//!
//! Each function returns one CSV document (header + rows). The `export`
//! binary writes them to files.

use dcb_core::availability::frontier;
use dcb_core::evaluate::{best_technique, paper_durations};
use dcb_core::sizing::{technique_tradeoffs, SizingTargets};
use dcb_core::tco::TcoModel;
use dcb_core::{BackupConfig, Cluster, Technique};
use dcb_workload::Workload;
use std::fmt::Write as _;

/// A workload constructor.
type MakeWorkload = fn() -> Workload;

/// The workloads of the per-workload exports, under the names their
/// files and rows carry.
pub const WORKLOADS: [(&str, MakeWorkload); 5] = [
    ("specjbb", Workload::specjbb),
    ("websearch", Workload::web_search),
    ("memcached", Workload::memcached),
    ("speccpu", Workload::spec_cpu),
    ("oltp", Workload::oltp_database),
];

/// Figure 5 data for one named workload: configuration × duration with
/// best-technique selection.
#[must_use]
pub fn fig5_csv((name, workload): (&str, Workload)) -> String {
    let cluster = Cluster::rack(workload);
    let catalog = Technique::catalog();
    let mut out = String::from(
        "workload,config,normalized_cost,outage_minutes,perf,downtime_expected_minutes,downtime_min_minutes,downtime_max_minutes,technique,state_lost,feasible\n",
    );
    for config in BackupConfig::table3() {
        for &duration in &paper_durations() {
            let p = best_technique(&cluster, &config, duration, &catalog);
            let o = &p.outcome;
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.2},{:.4},{:.3},{:.3},{:.3},{},{},{}",
                name,
                config.label(),
                p.cost,
                duration.to_minutes(),
                o.perf_during_outage.value(),
                o.downtime.expected.to_minutes(),
                o.downtime.min.to_minutes(),
                o.downtime.max.to_minutes(),
                p.technique,
                o.state_lost,
                o.feasible,
            );
        }
    }
    out
}

/// Figure 6–9 data for one named workload: technique × duration with
/// minimum-cost sizing.
#[must_use]
pub fn fig6_csv((name, workload): (&str, Workload)) -> String {
    let cluster = Cluster::rack(workload);
    let mut out = String::from(
        "workload,technique,outage_minutes,normalized_cost,perf,downtime_expected_minutes,sized_backup,feasible\n",
    );
    let targets = SizingTargets::execute_to_plan();
    for (technique, duration, point) in technique_tradeoffs(
        &cluster,
        &Technique::catalog(),
        &paper_durations(),
        &targets,
    ) {
        match point {
            Some(p) => {
                let o = &p.performability.outcome;
                let _ = writeln!(
                    out,
                    "{},{},{:.2},{:.4},{:.4},{:.3},{},true",
                    name,
                    technique.name(),
                    duration.to_minutes(),
                    p.performability.cost,
                    o.perf_during_outage.value(),
                    o.downtime.expected.to_minutes(),
                    p.config.label(),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{},{},{:.2},,,,,false",
                    name,
                    technique.name(),
                    duration.to_minutes(),
                );
            }
        }
    }
    out
}

/// Figure 10 data: the TCO loss curve and the DG line.
#[must_use]
pub fn fig10_csv() -> String {
    let tco = TcoModel::google_2011();
    let mut out = String::from("outage_minutes_per_year,loss_per_kw_year,dg_cost_per_kw_year\n");
    for (minutes, loss) in tco.curve(500.0, 51) {
        let _ = writeln!(
            out,
            "{minutes:.1},{:.3},{:.1}",
            loss.value(),
            tco.dg_savings_per_kw_year().value()
        );
    }
    out
}

/// Cost–availability frontier data.
#[must_use]
pub fn frontier_csv(years: usize, seed: u64) -> String {
    let cluster = Cluster::rack(Workload::specjbb());
    let candidates = vec![
        (BackupConfig::min_cost(), Technique::crash()),
        (BackupConfig::small_pups(), Technique::sleep_l()),
        (
            BackupConfig::small_p_large_e_ups(),
            Technique::throttle_sleep_l(dcb_sim::low_power_level()),
        ),
        (BackupConfig::no_dg(), Technique::ride_through()),
        (BackupConfig::large_e_ups(), Technique::ride_through()),
        (BackupConfig::max_perf(), Technique::ride_through()),
    ];
    let mut out = String::from(
        "config,technique,normalized_cost,mean_yearly_downtime_minutes,p95_yearly_downtime_minutes,nines,state_loss_rate,battery_cycles_per_year\n",
    );
    for r in frontier(&cluster, &candidates, years, seed) {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.3},{:.3},{:.4},{:.4},{:.4}",
            r.config,
            r.technique,
            r.cost,
            r.mean_yearly_downtime.to_minutes(),
            r.p95_yearly_downtime.to_minutes(),
            if r.nines.is_finite() { r.nines } else { 99.0 },
            r.state_loss_rate,
            r.mean_yearly_battery_cycles,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_csv_shape() {
        let csv = fig5_csv(("specjbb", Workload::specjbb()));
        let lines: Vec<&str> = csv.lines().collect();
        // Header + 9 configs × 5 durations.
        assert_eq!(lines.len(), 1 + 45);
        assert!(lines[0].starts_with("workload,config,"));
        assert!(lines[1].starts_with("specjbb,MaxPerf,1.00"));
        // Every row has the full column count.
        let columns = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "{line}");
        }
    }

    #[test]
    fn fig10_csv_monotone() {
        let csv = fig10_csv();
        let mut last = -1.0;
        for line in csv.lines().skip(1) {
            let loss: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!(loss >= last);
            last = loss;
        }
    }
}
