//! Heterogeneous capacity planning (§7): give each application section its
//! own backup configuration sized against its own performability SLO, and
//! compare the blended cost with provisioning today's full backup
//! everywhere. Finishes with the TCO break-even check of Figure 10.
//!
//! ```sh
//! cargo run --release --example capacity_planner
//! ```

use dcbackup::core::planner::{plan, Slo};
use dcbackup::core::tco::TcoModel;
use dcbackup::core::{BackupConfig, Cluster, Technique};
use dcbackup::topology::{resolve, Consumer, Level, Node, Topology};
use dcbackup::units::Seconds;
use dcbackup::workload::Workload;

fn main() {
    // Four sections with very different needs:
    //  - web-search: user-facing, must keep serving 30-minute outages;
    //  - specjbb: business logic, may degrade but must keep state;
    //  - memcached: cache tier, tolerate anything but keep state;
    //  - speccpu: batch HPC, just don't lose hours of work.
    let sections = vec![
        (
            Cluster::rack(Workload::web_search()),
            Slo::survive(Seconds::from_minutes(30.0)).with_min_perf(0.5),
        ),
        (
            Cluster::rack(Workload::specjbb()),
            Slo::survive(Seconds::from_minutes(30.0)),
        ),
        (
            Cluster::rack(Workload::memcached()),
            Slo::survive(Seconds::from_minutes(120.0)),
        ),
        (
            Cluster::rack(Workload::spec_cpu()),
            Slo::survive(Seconds::from_minutes(120.0)),
        ),
    ];

    println!(
        "Planning per-section backup (catalog: {} techniques)...\n",
        Technique::catalog().len()
    );
    let plan = plan(&sections, &Technique::catalog());

    println!(
        "{:<18} {:<20} {:<24} {:>10} {:>10}",
        "section", "technique", "backup sizing", "$/yr", "MaxPerf $"
    );
    println!("{}", "-".repeat(88));
    for entry in &plan.entries {
        let sizing = entry
            .point
            .as_ref()
            .map_or("— unsatisfiable —".to_owned(), |p| {
                p.config.label().to_owned()
            });
        println!(
            "{:<18} {:<20} {:<24} {:>10.0} {:>10.0}",
            entry.workload,
            entry.technique,
            sizing,
            entry.yearly_cost.value(),
            entry.max_perf_cost.value(),
        );
    }
    println!("{}", "-".repeat(88));
    println!(
        "total ${:>.0}/yr vs ${:>.0}/yr for MaxPerf everywhere → {:.0}% savings\n",
        plan.total_cost().value(),
        plan.max_perf_cost().value(),
        plan.savings_fraction() * 100.0,
    );

    // Close the loop: build the planned facility as a topology — one
    // cluster per section under its own backup, unsatisfiable sections on
    // today's MaxPerf + ride-through — and hit it with the planned outage
    // to verify every SLO end to end.
    let clusters = sections
        .iter()
        .zip(&plan.entries)
        .map(|((cluster, _), entry)| {
            let (config, technique) = match (&entry.point, &entry.chosen_technique) {
                (Some(point), Some(technique)) => (point.config.clone(), technique.clone()),
                _ => (BackupConfig::max_perf(), Technique::ride_through()),
            };
            Node::consumer(
                entry.workload.clone(),
                Level::Cluster,
                Consumer::new(*cluster, technique),
            )
            .with_backup(config)
        })
        .collect();
    let facility = Topology::new(Node::group("dc", Level::Datacenter, clusters));
    let outcome = resolve(&facility, Seconds::from_minutes(30.0))
        .expect("the planned facility is a valid topology")
        .aggregate;
    println!(
        "verification: 30-min outage on the planned facility → facility perf {:.0}%,\n\
         worst section downtime {:.1} min, {} feasible, {}\n",
        outcome.perf_during_outage.to_percent(),
        outcome.downtime.expected.to_minutes(),
        if outcome.feasible {
            "all sections"
        } else {
            "NOT all sections"
        },
        if outcome.state_lost {
            "state lost"
        } else {
            "no state lost"
        },
    );

    // Should the organization skip DGs at all? Figure 10's break-even.
    let tco = TcoModel::google_2011();
    println!(
        "TCO check (Google-2011 parameters): skipping the DG is profitable while\n\
         yearly outages stay under {:.0} minutes (~{:.1} h); a typical year sees\n\
         far less, so underprovisioning pays.",
        tco.breakeven_minutes_per_year(),
        tco.breakeven_minutes_per_year() / 60.0,
    );
}
