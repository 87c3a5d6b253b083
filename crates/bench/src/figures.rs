//! Figure reproductions.

use crate::bar;
use dcb_battery::{runtime_chart, PackSpec};
use dcb_core::evaluate::{paper_durations, sweep_configs};
use dcb_core::sizing::{technique_tradeoffs, SizingTargets};
use dcb_core::tco::TcoModel;
use dcb_core::{BackupConfig, Cluster, Technique};
use dcb_outage::{DurationDistribution, FrequencyDistribution};
use dcb_units::{Seconds, Watts};
use dcb_workload::Workload;
use std::fmt::Write as _;

/// Figure 1: power outage frequency and duration distributions for US
/// businesses.
#[must_use]
pub fn fig1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — Power Outages Distribution for U.S. Business"
    );
    let _ = writeln!(out, "(a) outage frequency per year");
    let freq = FrequencyDistribution::us_business();
    for (lo, hi, p) in freq.rows() {
        let label = match (lo, hi) {
            (0, 0) => "None".to_owned(),
            (7, _) => "7+".to_owned(),
            _ => format!("{lo} to {hi}"),
        };
        let _ = writeln!(
            out,
            "  {label:<8} {:>4.0}%  {}",
            p * 100.0,
            bar(*p, 0.5, 30)
        );
    }
    let _ = writeln!(out, "(b) outage duration");
    let dur = DurationDistribution::us_business();
    for (bucket, p) in dur.buckets() {
        let _ = writeln!(
            out,
            "  {:<12} {:>4.0}%  {}",
            bucket.to_string(),
            p * 100.0,
            bar(*p, 0.5, 30)
        );
    }
    let _ = writeln!(
        out,
        "  checks: P(<=5 min) = {:.0}%  (paper: >58%),  P(none/yr) = 17%",
        dur.probability_within(Seconds::from_minutes(5.0)) * 100.0
    );
    out
}

/// Figure 2: the power hierarchy's up-front unit costs.
#[must_use]
pub fn fig2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — Datacenter Power Infrastructure (cost annotations)"
    );
    let _ = writeln!(out, "  utility → ATS → PDU → racks");
    let _ = writeln!(
        out,
        "  Diesel Generator : $1.0/W up-front  (≈ $83.3/kW/yr over 12 yr)"
    );
    let _ = writeln!(
        out,
        "  UPS electronics  : $0.6/W up-front  (≈ $50/kW/yr over 12 yr)"
    );
    let _ = writeln!(
        out,
        "  UPS battery      : $0.2/Wh up-front (≈ $50/kWh/yr over 4 yr)"
    );
    let _ = writeln!(
        out,
        "  offline UPS switchover ~10 ms, PSU ride-through ~30 ms, DG start ~25 s,"
    );
    let _ = writeln!(out, "  full UPS→DG load transfer ~2 min");
    out
}

/// Figure 3: battery runtime (and energy delivered) versus load for the
/// 4 kW reference pack.
#[must_use]
pub fn fig3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — Runtime for a battery with max. power of 4 kW"
    );
    let _ = writeln!(
        out,
        "  {:>6} {:>9} {:>9}  runtime bar",
        "load", "runtime", "energy"
    );
    let chart = runtime_chart(PackSpec::figure3_reference(), 8);
    for point in &chart {
        let _ = writeln!(
            out,
            "  {:>5.0}% {:>7.1} m {:>7.2} kWh  {}",
            point.load.to_percent(),
            point.runtime.to_minutes(),
            point.energy.value() / 1000.0,
            bar(point.runtime.to_minutes(), 80.0, 32)
        );
    }
    let _ = writeln!(
        out,
        "  anchors: 10 min @ 100% load (0.66 kWh), 60 min @ 25% load (1 kWh)"
    );
    out
}

fn fig5_like(workload: Workload, title: &str, durations: &[Seconds]) -> String {
    let cluster = Cluster::rack(workload);
    let catalog = Technique::catalog();
    let configs = [
        BackupConfig::max_perf(),
        BackupConfig::dg_small_pups(),
        BackupConfig::large_e_ups(),
        BackupConfig::no_dg(),
        BackupConfig::small_p_large_e_ups(),
        BackupConfig::min_cost(),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<18} {:>5} | {:>8} {:>7} {:>10}  best technique",
        "config", "cost", "outage", "perf", "downtime"
    );
    // One flattened batch: the whole config × duration × technique grid
    // fans out over the shared fleet pool (rows return in grid order).
    let rows = sweep_configs(&cluster, &configs, durations, &catalog);
    for (row, p) in rows.iter().enumerate() {
        let duration = durations[row % durations.len()];
        let _ = writeln!(
            out,
            "  {:<18} {:>5.2} | {:>6.1} m {:>6.0}% {:>8.1} m  {}",
            p.config,
            p.cost,
            duration.to_minutes(),
            p.outcome.perf_during_outage.to_percent(),
            p.outcome.downtime.expected.to_minutes(),
            p.technique
        );
    }
    out
}

/// Figure 5: cost and performability trade-offs between the six highlighted
/// Table 3 configurations for Specjbb.
#[must_use]
pub fn fig5() -> String {
    fig5_like(
        Workload::specjbb(),
        "Figure 5 — Cost & performability across backup configurations (Specjbb)",
        &paper_durations(),
    )
}

fn technique_figure(workload: Workload, title: &str, durations: &[Seconds]) -> String {
    let cluster = Cluster::rack(workload);
    let catalog = Technique::catalog();
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<20} {:>8} | {:>5} {:>7} {:>12}  sized backup",
        "technique", "outage", "cost", "perf", "downtime"
    );
    let targets = SizingTargets::execute_to_plan();
    for (technique, duration, point) in technique_tradeoffs(&cluster, &catalog, durations, &targets)
    {
        match point {
            Some(p) => {
                let o = &p.performability.outcome;
                let downtime = if o.downtime.is_exact() {
                    format!("{:>8.1} m", o.downtime.expected.to_minutes())
                } else {
                    format!(
                        "{:.0}–{:.0} m",
                        o.downtime.min.to_minutes(),
                        o.downtime.max.to_minutes()
                    )
                };
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6.1} m | {:>5.2} {:>6.0}% {:>12}  {}",
                    technique.name(),
                    duration.to_minutes(),
                    p.performability.cost,
                    o.perf_during_outage.to_percent(),
                    downtime,
                    p.config.label()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6.1} m |   (infeasible at any candidate UPS size)",
                    technique.name(),
                    duration.to_minutes()
                );
            }
        }
    }
    out
}

/// Figure 6: per-technique cost, downtime and performance for Specjbb over
/// the full outage-duration range.
#[must_use]
pub fn fig6() -> String {
    technique_figure(
        Workload::specjbb(),
        "Figure 6 — Outage-duration impact on techniques (Specjbb); each point uses\n\
         the lowest-cost UPS-only backup that executes the technique to plan",
        &paper_durations(),
    )
}

/// Figure 7: technique trade-offs for Memcached (short/medium/long).
#[must_use]
pub fn fig7() -> String {
    technique_figure(
        Workload::memcached(),
        "Figure 7 — Tradeoffs for Memcached",
        &[
            Seconds::new(30.0),
            Seconds::from_minutes(30.0),
            Seconds::from_minutes(120.0),
        ],
    )
}

/// Figure 8: technique trade-offs for Web-search.
#[must_use]
pub fn fig8() -> String {
    technique_figure(
        Workload::web_search(),
        "Figure 8 — Tradeoffs for Web-search",
        &[
            Seconds::new(30.0),
            Seconds::from_minutes(30.0),
            Seconds::from_minutes(120.0),
        ],
    )
}

/// Figure 9: technique trade-offs for SpecCPU (mcf × 8).
#[must_use]
pub fn fig9() -> String {
    technique_figure(
        Workload::spec_cpu(),
        "Figure 9 — Tradeoffs for SpecCPU (mcf*8)",
        &[
            Seconds::new(30.0),
            Seconds::from_minutes(30.0),
            Seconds::from_minutes(120.0),
        ],
    )
}

/// Figure 10: revenue loss + server depreciation versus DG savings
/// (Google 2011 data).
#[must_use]
pub fn fig10() -> String {
    let tco = TcoModel::google_2011();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10 — Revenue loss and server depreciation vs. savings from backup\n\
         under-provisioning (Google 2011: 260 MW, $38B revenue)"
    );
    let _ = writeln!(
        out,
        "  loss rate: ${:.3}/kW/min revenue + ${:.4}/kW/min depreciation",
        tco.revenue_per_kw_min.value(),
        tco.depreciation_per_kw_min.value()
    );
    let _ = writeln!(
        out,
        "  DG cost line: ${:.1}/kW/yr",
        tco.dg_savings_per_kw_year().value()
    );
    let _ = writeln!(out, "  {:>10} {:>14}  ", "min/yr", "loss $/kW/yr");
    for (minutes, loss) in tco.curve(500.0, 11) {
        let marker = if loss < tco.dg_savings_per_kw_year() {
            "profitable without DG"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:>10.0} {:>14.1}  {} {}",
            minutes,
            loss.value(),
            bar(loss.value(), 150.0, 28),
            marker
        );
    }
    let _ = writeln!(
        out,
        "  cross-over: {:.0} min/yr (~{:.1} h; paper: \"around 5 hours per year\")",
        tco.breakeven_minutes_per_year(),
        tco.breakeven_minutes_per_year() / 60.0
    );
    out
}

/// A Figure 6-style technique table for an arbitrary workload (used by the
/// extension exhibits).
#[must_use]
pub fn technique_figure_for(workload: Workload, title: &str, durations: &[Seconds]) -> String {
    technique_figure(workload, title, durations)
}

/// Supporting sweep used by EXPERIMENTS.md: Figure 5's study repeated for
/// another workload.
#[must_use]
pub fn fig5_for(workload: Workload) -> String {
    let title = format!(
        "Figure 5 variant — configuration study for {}",
        workload.kind()
    );
    fig5_like(workload, &title, &paper_durations())
}

/// Figure 5 variant: the configuration study for Web-search.
#[must_use]
pub fn fig5_websearch() -> String {
    fig5_for(Workload::web_search())
}

/// Figure 5 variant: the configuration study for Memcached.
#[must_use]
pub fn fig5_memcached() -> String {
    fig5_for(Workload::memcached())
}

/// Figure 5 variant: the configuration study for SpecCPU.
#[must_use]
pub fn fig5_speccpu() -> String {
    fig5_for(Workload::spec_cpu())
}

/// Convenience wrapper re-exported for the Watts type used in doc tests.
#[must_use]
pub fn reference_peak() -> Watts {
    Cluster::rack(Workload::specjbb()).peak_power()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_mentions_paper_anchors() {
        let s = fig1();
        assert!(s.contains("58"), "{s}");
        assert!(s.contains("None"));
    }

    #[test]
    fn fig3_reproduces_anchor_rows() {
        let s = fig3();
        assert!(s.contains("10.0 m"), "{s}");
        assert!(s.contains("60.0 m"), "{s}");
    }

    #[test]
    fn fig10_crossover_near_five_hours() {
        let s = fig10();
        assert!(
            s.contains("4.9 h") || s.contains("5.0 h") || s.contains("5.1 h"),
            "{s}"
        );
    }
}
