//! Differential guarantee: a degenerate single-path topology is the flat
//! kernel scenario, and its resolved aggregate must match
//! [`OutageSim::run`] **bit-for-bit** — every field, every float. A
//! sectioned facility (§7: each section under its own backup) resolves
//! as one independent kernel run per section.
//!
//! Mirrors the harness shape of `crates/sim/tests/differential.rs`: an
//! exhaustive sweep over the Table-3 configuration grid × the extended
//! technique catalog × representative outage durations, plus a proptest
//! over randomly drawn grid points and durations.

use dcb_fleet::FleetPool;
use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, OutageSim, Technique};
use dcb_topology::{
    resolve, resolve_with_evaluator, Aggregation, Consumer, KernelEvaluator, Level, Node, Topology,
};
use dcb_units::{Seconds, WattHours, Watts};
use dcb_workload::Workload;
use proptest::prelude::*;

fn workloads() -> [Workload; 4] {
    [
        Workload::specjbb(),
        Workload::web_search(),
        Workload::memcached(),
        Workload::spec_cpu(),
    ]
}

/// The full Table-3 × extended-catalog × duration grid (9 × 16 × 3 per
/// workload): the topology aggregate equals the kernel outcome exactly.
#[test]
fn single_path_matches_kernel_bit_for_bit() {
    let durations = [30.0, 1800.0, 7200.0];
    let mut points = 0u32;
    for workload in workloads() {
        let cluster = Cluster::rack(workload);
        for config in BackupConfig::table3() {
            for technique in Technique::extended_catalog() {
                for duration in durations {
                    let outage = Seconds::new(duration);
                    let expected =
                        OutageSim::new(cluster, config.clone(), technique.clone()).run(outage);
                    let topology =
                        Topology::single_path(cluster, config.clone(), technique.clone());
                    let outcome = resolve(&topology, outage).expect("single path resolves");
                    assert_eq!(
                        outcome.aggregate,
                        expected,
                        "config={config} technique={} outage={duration}s",
                        technique.name()
                    );
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 4 * 9 * 16 * 3, "the sweep must cover the full grid");
}

/// A single-path topology needs exactly one kernel run and no shedding.
#[test]
fn single_path_stats_are_degenerate() {
    let topology = Topology::single_path(
        Cluster::rack(Workload::specjbb()),
        BackupConfig::max_perf(),
        Technique::ride_through(),
    );
    let outcome = resolve(&topology, Seconds::new(600.0)).expect("resolves");
    assert_eq!(outcome.stats.distinct_leaf_sims, 1);
    assert_eq!(outcome.stats.implied_leaf_sims, 1);
    assert_eq!(outcome.stats.shed_events, 0);
    assert_eq!(outcome.stats.shed_servers, 0);
    assert_eq!(outcome.stats.served_servers, 16);
    assert_eq!(outcome.stats.explicit_nodes, 3);
    // Three levels reported: datacenter, cluster, rack.
    assert_eq!(outcome.levels.len(), 3);
    assert!(outcome.levels.iter().all(|level| level.shed_servers == 0));
}

/// Flat (expanded) resolution of a single path is the identity transform,
/// so it must also be bit-exact.
#[test]
fn single_path_flat_resolution_is_also_exact() {
    for technique in Technique::catalog() {
        let cluster = Cluster::rack(Workload::web_search());
        let outage = Seconds::new(900.0);
        let expected =
            OutageSim::new(cluster, BackupConfig::small_pups(), technique.clone()).run(outage);
        let topology = Topology::single_path(cluster, BackupConfig::small_pups(), technique);
        let outcome = resolve_with_evaluator(
            &topology,
            outage,
            &FleetPool::new(),
            Aggregation::Flat,
            &KernelEvaluator,
        )
        .expect("resolves");
        assert_eq!(outcome.aggregate, expected);
    }
}

/// A sectioned facility: a root without backup over one cluster-level
/// consumer per section, each provisioning its own backup.
fn sectioned(sections: &[(Cluster, BackupConfig, Technique)]) -> Topology {
    let children = sections
        .iter()
        .enumerate()
        .map(|(i, (cluster, config, technique))| {
            Node::consumer(
                format!("section-{i}"),
                Level::Cluster,
                Consumer::new(*cluster, technique.clone()),
            )
            .with_backup(config.clone())
        })
        .collect();
    Topology::new(Node::group("dc", Level::Datacenter, children))
}

/// Independent sections resolve as independent kernel runs. Over Table 3
/// × the catalog × the Figure 5/6 durations, three heterogeneous sections
/// (sizes, workloads, and rotated configurations and techniques) fold into
/// the aggregate as separate [`OutageSim::run`]s: performance weighted by
/// nameplate peak, the worst expected downtime and the summed energy,
/// feasible only if every section is, state lost if any section lost it.
#[test]
fn independent_sections_resolve_as_independent_kernel_runs() {
    let configs = BackupConfig::table3();
    let catalog = Technique::catalog();
    let spec = ServerSpec::paper_testbed();
    let clusters = [
        Cluster::new(16, spec, Workload::web_search()),
        Cluster::new(8, spec, Workload::memcached()),
        Cluster::new(32, spec, Workload::spec_cpu()),
    ];
    let mut facilities = 0u32;
    for c in 0..configs.len() {
        for t in 0..catalog.len() {
            let sections: Vec<_> = clusters
                .iter()
                .enumerate()
                .map(|(k, cluster)| {
                    (
                        *cluster,
                        configs[(c + k) % configs.len()].clone(),
                        catalog[(t + k) % catalog.len()].clone(),
                    )
                })
                .collect();
            let topology = sectioned(&sections);
            let total: Watts = clusters.iter().map(Cluster::peak_power).sum();
            for minutes in [0.5, 5.0, 30.0, 60.0, 120.0] {
                let outage = Seconds::from_minutes(minutes);
                let mut perf = 0.0;
                let mut worst = Seconds::ZERO;
                let mut energy = WattHours::ZERO;
                let mut feasible = true;
                let mut state_lost = false;
                for (cluster, config, technique) in &sections {
                    let run =
                        OutageSim::new(*cluster, config.clone(), technique.clone()).run(outage);
                    perf += run.perf_during_outage.value() * (cluster.peak_power() / total);
                    worst = worst.max(run.downtime.expected);
                    energy += run.energy;
                    feasible &= run.feasible;
                    state_lost |= run.state_lost;
                }
                let aggregate = resolve(&topology, outage)
                    .expect("a sectioned facility resolves")
                    .aggregate;
                let at = format!("config {c} technique {t} outage {minutes} min");
                assert!(
                    (aggregate.perf_during_outage.value() - perf).abs() <= 1e-12,
                    "{at}: perf {} vs {perf}",
                    aggregate.perf_during_outage.value()
                );
                assert_eq!(
                    aggregate.downtime.expected.value().to_bits(),
                    worst.value().to_bits(),
                    "{at}: worst downtime"
                );
                assert_eq!(
                    aggregate.energy.value().to_bits(),
                    energy.value().to_bits(),
                    "{at}: energy"
                );
                assert_eq!(aggregate.feasible, feasible, "{at}: feasible");
                assert_eq!(aggregate.state_lost, state_lost, "{at}: state lost");
                facilities += 1;
            }
        }
    }
    assert_eq!(facilities, 9 * 13 * 5, "the sweep must cover the full grid");
}

proptest! {
    /// Random grid points: any (config, technique, workload, duration)
    /// combination agrees exactly, including off-grid durations.
    #[test]
    fn random_single_paths_agree(
        config_ix in 0usize..9,
        technique_ix in 0usize..16,
        workload_ix in 0usize..4,
        duration in 30.0f64..7200.0,
    ) {
        let config = BackupConfig::table3().swap_remove(config_ix);
        let technique = Technique::extended_catalog().swap_remove(technique_ix);
        let cluster = Cluster::rack(workloads()[workload_ix]);
        let outage = Seconds::new(duration);
        let expected = OutageSim::new(cluster, config.clone(), technique.clone()).run(outage);
        let topology = Topology::single_path(cluster, config, technique);
        let outcome = resolve(&topology, outage).expect("resolves");
        prop_assert_eq!(outcome.aggregate, expected);
    }
}
