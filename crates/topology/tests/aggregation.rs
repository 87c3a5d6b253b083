//! Aggregation invariance: resolving N explicit identical subtrees must be
//! **bit-identical** to resolving the collapsed 1-node × N form, results
//! must not depend on `DCB_THREADS`, and the deficit machinery (priority
//! shedding, brownout, survivor boost) must behave as specified.

use dcb_fleet::FleetPool;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, Technique};
use dcb_topology::{
    resolve, resolve_with_evaluator, Aggregation, Consumer, DeficitPolicy, KernelEvaluator, Level,
    Node, Topology,
};
use dcb_units::Seconds;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The explicit form (every copy spelled out) and the aggregated form
    /// (multiplicity counts) of the same uniform DC resolve to the same
    /// `TopologyOutcome`, bit for bit — stats included.
    #[test]
    fn explicit_and_aggregated_forms_are_bit_identical(
        clusters in 1u32..4,
        racks in 1u32..30,
        config_ix in 0usize..9,
        technique_ix in 0usize..16,
        workload_ix in 0usize..4,
        duration in 30.0f64..7200.0,
    ) {
        let config = BackupConfig::table3().swap_remove(config_ix);
        let technique = Technique::extended_catalog().swap_remove(technique_ix);
        let aggregated = Topology::uniform(
            clusters,
            racks,
            workloads()[workload_ix],
            config,
            technique,
        );
        let explicit = aggregated.expand();
        let outage = Seconds::new(duration);
        let from_aggregated = resolve(&aggregated, outage).expect("aggregated resolves");
        let from_explicit = resolve(&explicit, outage).expect("explicit resolves");
        prop_assert_eq!(from_aggregated, from_explicit);
    }

    /// Thread count is invisible: 1, 2, and 8 workers give identical
    /// results (the fleet pool preserves submission order).
    #[test]
    fn results_are_thread_count_invariant(
        racks in 1u32..50,
        config_ix in 0usize..9,
        technique_ix in 0usize..16,
        duration in 60.0f64..3600.0,
    ) {
        let config = BackupConfig::table3().swap_remove(config_ix);
        let technique = Technique::extended_catalog().swap_remove(technique_ix);
        // Mix two workloads so several distinct leaf jobs actually fan out.
        let web = Node::consumer(
            "web",
            Level::Rack,
            Consumer::new(Cluster::rack(Workload::web_search()), technique.clone()),
        )
        .times(racks);
        let batch = Node::consumer(
            "batch",
            Level::Rack,
            Consumer::new(Cluster::rack(Workload::spec_cpu()), technique),
        )
        .times(racks);
        let root = Node::group(
            "dc",
            Level::Datacenter,
            vec![Node::group("cluster", Level::Cluster, vec![web, batch])],
        )
        .with_backup(config);
        let topology = Topology::new(root);
        let outage = Seconds::new(duration);
        let single = resolve_with_evaluator(
            &topology,
            outage,
            &FleetPool::with_threads(1),
            Aggregation::Collapsed,
            &KernelEvaluator,
        )
        .expect("resolves");
        for threads in [2, 8] {
            let pool = FleetPool::with_threads(threads);
            let multi = resolve_with_evaluator(
                &topology,
                outage,
                &pool,
                Aggregation::Collapsed,
                &KernelEvaluator,
            )
            .expect("resolves");
            prop_assert_eq!(&single, &multi, "threads={}", threads);
        }
    }
}

/// Two racks behind a feed edge that only carries one rack's demand: the
/// lower-priority rack is shed, the higher-priority rack is served, and
/// the stats account for both.
#[test]
fn deficit_sheds_lowest_priority_first() {
    let serve_first = Node::consumer(
        "frontend",
        Level::Rack,
        Consumer::new(
            Cluster::rack(Workload::web_search()),
            Technique::ride_through(),
        )
        .with_priority(0),
    );
    let shed_first = Node::consumer(
        "batch",
        Level::Rack,
        Consumer::new(
            Cluster::rack(Workload::spec_cpu()),
            Technique::ride_through(),
        )
        .with_priority(5),
    );
    let rack_demand = Cluster::rack(Workload::web_search()).peak_power();
    let cluster = Node::group("cluster", Level::Cluster, vec![shed_first, serve_first])
        .with_feed_capacity(rack_demand);
    let root =
        Node::group("dc", Level::Datacenter, vec![cluster]).with_backup(BackupConfig::max_perf());
    let outcome = resolve(&Topology::new(root), Seconds::new(600.0)).expect("resolves");

    assert_eq!(outcome.stats.served_servers, 16, "frontend survives");
    assert_eq!(outcome.stats.shed_servers, 16, "batch is shed");
    assert_eq!(outcome.stats.shed_events, 1);
    assert!(outcome.aggregate.state_lost, "shed racks crash");
    let rack_level = outcome
        .levels
        .iter()
        .find(|level| level.level == Level::Rack)
        .expect("rack level reported");
    assert_eq!(rack_level.shed_servers, 16);
}

/// A consumer with a brownout policy and an allocation above the floor
/// degrades to its fallback technique instead of being shed.
#[test]
fn brownout_policy_degrades_instead_of_shedding() {
    let rack_demand = Cluster::rack(Workload::web_search()).peak_power();
    let serve = Node::consumer(
        "frontend",
        Level::Rack,
        Consumer::new(
            Cluster::rack(Workload::web_search()),
            Technique::ride_through(),
        )
        .with_priority(0),
    );
    let brown = Node::consumer(
        "batch",
        Level::Rack,
        Consumer::new(
            Cluster::rack(Workload::web_search()),
            Technique::ride_through(),
        )
        .with_priority(5)
        .with_deficit_policy(DeficitPolicy::Brownout(Technique::throttle_deepest())),
    );
    // 1.5 racks of feed: frontend full, batch at 50% — exactly the floor.
    let cluster = Node::group("cluster", Level::Cluster, vec![serve, brown])
        .with_feed_capacity(rack_demand * 1.5);
    let root =
        Node::group("dc", Level::Datacenter, vec![cluster]).with_backup(BackupConfig::max_perf());
    let outcome = resolve(&Topology::new(root), Seconds::new(600.0)).expect("resolves");

    assert_eq!(outcome.stats.served_servers, 16);
    assert_eq!(outcome.stats.browned_out_servers, 16);
    assert_eq!(outcome.stats.shed_servers, 0);
    assert_eq!(outcome.stats.shed_events, 0);
}

/// Flat (fully expanded) and aggregated resolution agree on every boolean
/// and within float tolerance on the blended continuous metrics, from a
/// 200-rack facility up to a 100k-rack one whose merged groups hold 1,000
/// racks each.
#[test]
fn flat_and_aggregated_resolutions_agree() {
    let cases = [
        (
            5,
            40,
            Workload::specjbb(),
            BackupConfig::dg_small_pups(),
            Technique::sleep(),
        ),
        (
            10,
            100,
            Workload::web_search(),
            BackupConfig::dg_small_pups(),
            Technique::sleep(),
        ),
        (
            100,
            1000,
            Workload::specjbb(),
            BackupConfig::max_perf(),
            Technique::ride_through(),
        ),
    ];
    let outage = Seconds::new(1800.0);
    for (clusters, racks, workload, config, technique) in cases {
        let label = format!("{clusters}x{racks} {workload} / {config} / {technique}");
        let topology = Topology::uniform(clusters, racks, workload, config, technique);
        let aggregated = resolve(&topology, outage).expect("aggregated resolves");
        let flat = resolve_with_evaluator(
            &topology,
            outage,
            &FleetPool::new(),
            Aggregation::Flat,
            &KernelEvaluator,
        )
        .expect("flat resolves");

        let (a, f) = (&aggregated.aggregate, &flat.aggregate);
        assert_eq!(a.feasible, f.feasible, "{label}");
        assert_eq!(a.state_lost, f.state_lost, "{label}");
        assert_eq!(a.final_state, f.final_state, "{label}");
        assert_eq!(a.downtime, f.downtime, "{label}");
        let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1e-12);
        assert!(
            rel(a.peak_power.value(), f.peak_power.value()) < 1e-9,
            "{label}: peak power"
        );
        assert!(
            rel(a.energy.value(), f.energy.value()) < 1e-9,
            "{label}: energy"
        );
        assert!(
            rel(a.perf_during_outage.value(), f.perf_during_outage.value()) < 1e-9,
            "{label}: performance"
        );

        // Both account for the same fleet, but aggregation does far less work.
        let (a, f) = (&aggregated.stats, &flat.stats);
        assert_eq!(a.explicit_nodes, f.explicit_nodes, "{label}");
        assert_eq!(a.implied_leaf_sims, f.implied_leaf_sims, "{label}");
        assert!(a.resolved_nodes < f.resolved_nodes / 10, "{label}");
        assert!(a.collapse_ratio() > 10.0, "{label}");
    }
}

/// The collapse ratio grows with the fleet: a 100k-rack DC resolves in a
/// handful of node-steps.
#[test]
fn collapse_ratio_scales_to_large_fleets() {
    let topology = Topology::uniform(
        100,
        1000,
        Workload::memcached(),
        BackupConfig::max_perf(),
        Technique::ride_through(),
    );
    let outcome = resolve(&topology, Seconds::new(300.0)).expect("resolves");
    assert_eq!(outcome.stats.explicit_nodes, 1 + 100 + 100_000);
    assert_eq!(outcome.stats.distinct_leaf_sims, 1);
    assert!(outcome.stats.resolved_nodes <= 10);
    assert!(outcome.stats.collapse_ratio() > 10_000.0);
    assert_eq!(outcome.stats.implied_leaf_sims, 100_000);
    let leaf = dcb_sim::OutageSim::new(
        Cluster::rack(Workload::memcached()),
        BackupConfig::max_perf(),
        Technique::ride_through(),
    )
    .run(Seconds::new(300.0));
    let expected_peak = leaf.peak_power * 100_000.0;
    let rel = (outcome.aggregate.peak_power.value() - expected_peak.value()).abs()
        / expected_peak.value().max(1e-12);
    assert!(rel < 1e-9, "fleet peak is the leaf peak times the fleet");
}

/// Validation errors surface through the resolver entry points.
#[test]
fn invalid_topologies_are_rejected_by_resolve() {
    let uncovered = Topology::new(Node::group(
        "dc",
        Level::Datacenter,
        vec![Node::consumer(
            "rack",
            Level::Rack,
            Consumer::new(
                Cluster::rack(Workload::specjbb()),
                Technique::ride_through(),
            ),
        )],
    ));
    assert!(resolve(&uncovered, Seconds::new(60.0)).is_err());
}
