//! Golden digest of a large heterogeneous facility: it pins every bit of
//! every outcome the resolver reports for it, so a change to planning,
//! deduplication, leaf evaluation or stitching that moves a result must
//! re-commit it and say why.
//!
//! The facility is built here from a fixed seed: a datacenter of 240
//! clusters, each behind its own Table-3 backup, with 2–7 rack classes
//! apiece. A rack class draws its workload, technique, 8/16/32 servers,
//! priority, deficit policy (shed, or brownout to one of two fallbacks)
//! and multiplicity; some rack classes sit under their own feed cap, some
//! repeat an earlier sibling under another name (so `collapse` merges
//! them), and a third of the clusters feed all their racks through one
//! capped row, whose deficit the rack classes share in priority order.
//! Deficits, brownouts and the survivor boost all occur, which the test
//! checks before it compares the digest.
//!
//! Each resolve at the paper's five outage lengths, collapsed and flat,
//! on one and on two fleet threads, folds the `Debug` text of its
//! aggregate, its level reports and its stats into one FNV-1a
//! [`StableHasher`] digest.

use dcb_fleet::FleetPool;
use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, SimOutcome, Technique};
use dcb_topology::{
    resolve_with_evaluator, Aggregation, BackupShare, Consumer, DeficitPolicy, KernelEvaluator,
    LeafEvaluator, LeafRun, Level, Node, Topology, TopologyOutcome,
};
use dcb_units::{Seconds, StableHasher};
use dcb_workload::Workload;
use std::sync::atomic::{AtomicBool, Ordering};

/// The digest of [`facility_digest`].
const GOLDEN: u128 = 0xe658_8a18_dcf9_0f49_3e3b_c491_5a83_b052;

const CLUSTERS: usize = 240;

/// SplitMix64: a fixed generator, so the facility never depends on a
/// library's choice of algorithm.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn rack_class(rng: &mut SplitMix64, index: usize) -> Node {
    let workloads = [
        Workload::specjbb(),
        Workload::web_search(),
        Workload::memcached(),
        Workload::spec_cpu(),
    ];
    let techniques = Technique::catalog();
    let fallbacks = [Technique::throttle_deepest(), Technique::sleep()];
    let servers = [8u32, 16, 32][rng.below(3)];
    let cluster = Cluster::new(
        servers,
        ServerSpec::paper_testbed(),
        workloads[rng.below(workloads.len())],
    );
    let technique = techniques[rng.below(techniques.len())].clone();
    let policy = if rng.below(2) == 0 {
        DeficitPolicy::Shed
    } else {
        DeficitPolicy::Brownout(fallbacks[rng.below(fallbacks.len())].clone())
    };
    let consumer = Consumer::new(cluster, technique)
        .with_priority(rng.below(4) as u8)
        .with_deficit_policy(policy);
    let copies = 1 + rng.below(12) as u32;
    let rack = Node::consumer(format!("r{index}"), Level::Rack, consumer).times(copies);
    if rng.below(4) == 0 {
        let cap = cluster.peak_power() * (0.3 + 0.6 * rng.unit());
        rack.with_feed_capacity(cap)
    } else {
        rack
    }
}

fn facility() -> Topology {
    let mut rng = SplitMix64(0x00FA_C111_7E5E_ED00);
    let configs = BackupConfig::table3();
    let clusters = (0..CLUSTERS)
        .map(|c| {
            let mut racks: Vec<Node> = Vec::new();
            for r in 0..2 + rng.below(6) {
                let rack = match racks.last() {
                    // A renamed copy of its elder sibling: one class twice.
                    Some(previous) if rng.below(5) == 0 => {
                        let mut copy = previous.clone();
                        copy.name = format!("r{r}");
                        copy.multiplicity = 1 + rng.below(6) as u32;
                        copy
                    }
                    _ => rack_class(&mut rng, r),
                };
                racks.push(rack);
            }
            let body = if rng.below(3) == 0 {
                let row = Node::group("row", Level::Cluster, racks);
                let cap = row.unit_demand() * (0.4 + 0.5 * rng.unit());
                vec![row.with_feed_capacity(cap)]
            } else {
                racks
            };
            let config = configs[rng.below(configs.len())].clone();
            Node::group(format!("c{c}"), Level::Cluster, body).with_backup(config)
        })
        .collect();
    Topology::new(Node::group("dc", Level::Datacenter, clusters))
}

/// The outage kernel, noting whether any job ran on a boosted slice.
#[derive(Default)]
struct BoostWatch {
    boosted: AtomicBool,
}

impl LeafEvaluator for BoostWatch {
    fn evaluate(&self, run: &LeafRun, outage: Seconds) -> SimOutcome {
        if let LeafRun::Serve {
            share: BackupShare::Boosted(_),
            ..
        } = run
        {
            self.boosted.store(true, Ordering::Relaxed);
        }
        KernelEvaluator.evaluate(run, outage)
    }
}

fn fold(hasher: &mut StableHasher, outcome: &TopologyOutcome) {
    hasher.write_str(&format!("{:?}", outcome.aggregate));
    hasher.write_u64(outcome.levels.len() as u64);
    for level in &outcome.levels {
        hasher.write_str(&format!("{level:?}"));
    }
    hasher.write_str(&format!("{:?}", outcome.stats));
}

/// The facility's digest on `threads` fleet threads, and whether shedding,
/// brownout and the survivor boost all occurred.
fn facility_digest(threads: usize) -> (u128, [bool; 3]) {
    let topology = facility();
    let pool = FleetPool::with_threads(threads);
    let watch = BoostWatch::default();
    let mut hasher = StableHasher::new();
    let (mut shed, mut browned) = (false, false);
    for aggregation in [Aggregation::Collapsed, Aggregation::Flat] {
        for minutes in [0.5, 5.0, 30.0, 60.0, 120.0] {
            let outage = Seconds::from_minutes(minutes);
            let outcome = resolve_with_evaluator(&topology, outage, &pool, aggregation, &watch)
                .unwrap_or_else(|err| panic!("the facility resolves: {err}"));
            shed |= outcome.stats.shed_servers > 0;
            browned |= outcome.stats.browned_out_servers > 0;
            fold(&mut hasher, &outcome);
        }
    }
    let boosted = watch.boosted.load(Ordering::Relaxed);
    (hasher.finish(), [shed, browned, boosted])
}

#[test]
fn facility_is_large_and_merges_siblings() {
    let topology = facility();
    let collapsed = topology.collapse();
    assert!(topology.root.explicit_nodes() > 5_000);
    assert!(
        collapsed.root.represented_nodes() < topology.root.represented_nodes(),
        "no sibling merged"
    );
}

#[test]
fn facility_outcomes_match_the_golden_digest() {
    for threads in [1, 2] {
        let (digest, [shed, browned, boosted]) = facility_digest(threads);
        assert!(shed, "no server was shed");
        assert!(browned, "no server browned out");
        assert!(boosted, "no survivor ran on a boosted slice");
        assert_eq!(
            digest, GOLDEN,
            "facility digest on {threads} fleet threads: {digest:#034x}"
        );
    }
}
