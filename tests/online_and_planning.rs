//! Integration tests for the §7 machinery: the adaptive controller over
//! sampled outage traces, and heterogeneous capacity planning.

use dcbackup::core::online::AdaptiveController;
use dcbackup::core::planner::{plan, Slo};
use dcbackup::core::tco::TcoModel;
use dcbackup::core::{BackupConfig, Cluster, OutageSim, Technique};
use dcbackup::outage::{DurationDistribution, DurationPredictor, OutageSampler};
use dcbackup::topology::{resolve, Consumer, Level, Node, Topology};
use dcbackup::units::Seconds;
use dcbackup::workload::Workload;

fn controller() -> AdaptiveController {
    AdaptiveController::new(DurationPredictor::from_distribution(
        &DurationDistribution::us_business(),
    ))
}

#[test]
fn controller_handles_a_sampled_decade_without_stranding_state() {
    // Run the controller over ten sampled years of outages on a LargeEUPS
    // backup; the risk budget is 10%, so over the sampled outages the
    // state-loss rate must stay low and the controller must stay sensible.
    let cluster = Cluster::rack(Workload::specjbb());
    let config = BackupConfig::large_e_ups();
    let ctl = controller();
    let mut sampler = OutageSampler::seeded(77);
    let mut outages = 0usize;
    let mut losses = 0usize;
    for trace in sampler.sample_years(10) {
        for outage in trace.outages() {
            outages += 1;
            let outcome = ctl.simulate(&cluster, &config, outage.duration);
            if outcome.state_lost {
                losses += 1;
            }
            // Short outages must be served at high performance.
            if outage.duration <= Seconds::from_minutes(2.0) {
                assert!(
                    outcome.perf_during_outage.value() > 0.9,
                    "short outage {:.1} min served at {:?}",
                    outage.duration.to_minutes(),
                    outcome.perf_during_outage
                );
            }
        }
    }
    assert!(outages > 10, "sampler produced only {outages} outages");
    let loss_rate = losses as f64 / outages as f64;
    assert!(
        loss_rate <= 0.12,
        "state lost in {losses}/{outages} outages ({loss_rate:.2})"
    );
}

#[test]
fn controller_beats_static_sleep_on_short_outages() {
    // Against a static immediately-sleep policy, the controller should
    // deliver strictly better performance for sub-5-minute outages at the
    // same backup.
    let cluster = Cluster::rack(Workload::memcached());
    let config = BackupConfig::no_dg();
    let ctl = controller();
    for minutes in [0.5, 1.0, 2.0] {
        let adaptive = ctl.simulate(&cluster, &config, Seconds::from_minutes(minutes));
        // Static sleep would score ~0 here; the controller must serve a
        // substantial share, and essentially all of a 30 s outage.
        assert!(
            adaptive.perf_during_outage.value() > 0.25,
            "{minutes} min: {:?}",
            adaptive.perf_during_outage
        );
    }
    let short = ctl.simulate(&cluster, &config, Seconds::new(30.0));
    assert!(
        short.perf_during_outage.value() > 0.9,
        "{:?}",
        short.perf_during_outage
    );
}

#[test]
fn fitted_predictor_tracks_short_outage_history() {
    // A utility with only sub-minute outages should make the controller
    // serve aggressively even on small batteries.
    let trace: dcbackup::outage::OutageTrace = (0..200)
        .map(|i| dcbackup::outage::Outage {
            start: Seconds::from_hours(f64::from(i)),
            duration: Seconds::new(40.0),
        })
        .collect();
    let predictor = DurationPredictor::fit(&[trace]);
    let ctl = AdaptiveController::new(predictor);
    let outcome = ctl.simulate(
        &Cluster::rack(Workload::specjbb()),
        &BackupConfig::no_dg(),
        Seconds::new(40.0),
    );
    assert!(!outcome.state_lost);
    assert!(
        outcome.perf_during_outage.value() > 0.9,
        "perf {:?} with history of short outages",
        outcome.perf_during_outage
    );
}

#[test]
fn plan_composes_sizing_and_cost_consistently() {
    let sections = vec![
        (
            Cluster::rack(Workload::web_search()),
            Slo::survive(Seconds::from_minutes(10.0)).with_min_perf(0.4),
        ),
        (
            Cluster::rack(Workload::memcached()),
            Slo::survive(Seconds::from_minutes(30.0)),
        ),
    ];
    let plan = plan(&sections, &Technique::catalog());
    assert!(plan.fully_satisfied());
    assert!(plan.total_cost() < plan.max_perf_cost());
    assert!(plan.savings_fraction() > 0.0 && plan.savings_fraction() < 1.0);
    for entry in &plan.entries {
        let point = entry.point.as_ref().unwrap();
        assert!(point.performability.outcome.feasible);
        assert!(!point.performability.outcome.state_lost);
    }
}

#[test]
fn planned_facility_honours_every_slo() {
    let sections = vec![
        (
            Cluster::rack(Workload::web_search()),
            Slo::survive(Seconds::from_minutes(20.0)).with_min_perf(0.4),
        ),
        (
            Cluster::rack(Workload::memcached()),
            Slo::survive(Seconds::from_minutes(20.0)),
        ),
    ];
    let catalog = [
        Technique::ride_through(),
        Technique::throttle_deepest(),
        Technique::sleep_l(),
    ];
    let plan = plan(&sections, &catalog);
    // The planned facility: a root without backup over one cluster per
    // section, each under the backup and technique its plan entry chose.
    let chosen: Vec<_> = sections
        .iter()
        .zip(&plan.entries)
        .map(|((cluster, _), entry)| {
            let point = entry.point.as_ref().expect("every section is satisfiable");
            let technique = entry.chosen_technique.clone().expect("a chosen technique");
            (*cluster, point.config.clone(), technique)
        })
        .collect();
    let clusters = chosen
        .iter()
        .map(|(cluster, config, technique)| {
            Node::consumer(
                cluster.workload().kind().to_string(),
                Level::Cluster,
                Consumer::new(*cluster, technique.clone()),
            )
            .with_backup(config.clone())
        })
        .collect();
    let facility = Topology::new(Node::group("dc", Level::Datacenter, clusters));
    // The planned facility must honour every SLO under the planned outage.
    let outage = Seconds::from_minutes(20.0);
    let outcome = resolve(&facility, outage)
        .expect("valid topology")
        .aggregate;
    assert!(outcome.feasible);
    assert!(!outcome.state_lost);
    // The web-search section keeps serving at >= its SLO floor.
    let (cluster, config, technique) = chosen[0].clone();
    let web_search = OutageSim::new(cluster, config, technique).run(outage);
    assert!(web_search.perf_during_outage.value() >= 0.4);
}

#[test]
fn tco_and_outage_statistics_compose() {
    // Expected yearly outage minutes from the Figure 1 distributions sit
    // far below the Google break-even, so skipping DGs is profitable in
    // expectation.
    let mut sampler = OutageSampler::seeded(3);
    let years = sampler.sample_years(2_000);
    let mean_minutes: f64 = years
        .iter()
        .map(|y| y.total_outage_time().to_minutes())
        .sum::<f64>()
        / years.len() as f64;
    let tco = TcoModel::google_2011();
    assert!(
        mean_minutes < tco.breakeven_minutes_per_year(),
        "mean {mean_minutes:.0} min/yr vs breakeven {:.0}",
        tco.breakeven_minutes_per_year()
    );
    assert!(tco.profitable_without_dg(mean_minutes));
}
