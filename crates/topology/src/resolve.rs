//! The aggregated deficit-sharing resolver.
//!
//! Resolution runs in three deterministic passes:
//!
//! 1. **Plan** (top-down, no simulation): starting at each node that
//!    provisions backup (a *supply domain*), nameplate power budgets flow
//!    down the tree. A node whose grant or feed-edge capacity falls short
//!    of its subtree's nameplate demand is *in deficit*: siblings are
//!    served in priority order (ties by document order), identical copies
//!    split into fully-served / partially-served / unpowered classes, and
//!    each under-served consumer either *browns out* to its fallback
//!    technique (if the allocation covers at least [`BROWNOUT_FLOOR`] of
//!    nameplate) or is *shed*. Because allocation depends only on static
//!    nameplate demands, the plan for N identical copies is computed once.
//! 2. **Simulate**: every distinct leaf class becomes one kernel run
//!    ([`dcb_sim::OutageSim`]), deduplicated by its typed encoding and fanned
//!    out over a [`dcb_fleet::FleetPool`] (order-preserving, so results
//!    are `DCB_THREADS`-invariant). Served leaves run their technique
//!    against their proportional slice of the domain's backup; when a
//!    domain shed load, survivors draw the shed share of the *shared
//!    storage* too (the boosted slice — the deficit-sharing semantics);
//!    shed leaves crash with no usable backup runtime.
//! 3. **Stitch** (bottom-up): leaf outcomes scale by multiplicity
//!    (extensive metrics multiply, intensive metrics copy) and blend
//!    across heterogeneous siblings (capacity-weighted performance, worst
//!    downtime, any-state-loss, all-feasible).
//!
//! A degenerate single-path topology takes only the fast no-deficit path,
//! where the leaf job is exactly [`dcb_sim::OutageSim::run`] and every
//! stitch step is a verbatim copy — so its aggregate is bit-identical to
//! the flat kernel's [`SimOutcome`].

use crate::digest::View;
use crate::evaluate::{BackupShare, Job, KernelEvaluator, LeafEvaluator, LeafRun};
use crate::node::{Body, Consumer, DeficitPolicy, Level, Topology, TopologyError};
use crate::outcome::{LevelReport, ResolveStats, TopologyOutcome};
use dcb_fleet::FleetPool;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, FinalState, SimOutcome, Technique};
use dcb_trace::EventKind;
use dcb_units::{Fraction, Seconds, StableHash, StableHasher, WattHours, Watts};
use dcb_workload::DowntimeRange;
use std::collections::BTreeMap;

/// The smallest fraction of nameplate demand a brownout allocation must
/// cover. The paper's low-power operating points sit near half of peak,
/// so below one half a degraded consumer cannot hold even its brownout
/// technique and is shed instead.
pub const BROWNOUT_FLOOR: Fraction = Fraction::HALF;

/// Which representation the resolver works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Merge identical siblings first (the [`collapse`](crate::collapse)
    /// rule, over a borrowed view): identical subtrees resolve once.
    Collapsed,
    /// Naive flat expansion: every copy resolves individually (the
    /// baseline the topology bench measures aggregation against).
    Flat,
}

/// Resolves `topology` through one outage of length `outage`, with
/// aggregation, on a default fleet pool (honours `DCB_THREADS`).
///
/// # Errors
///
/// Returns the [`TopologyError`] of the first structural invariant the
/// topology violates.
pub fn resolve(topology: &Topology, outage: Seconds) -> Result<TopologyOutcome, TopologyError> {
    resolve_with(topology, outage, &FleetPool::new(), Aggregation::Collapsed)
}

/// Resolves without aggregation: every explicit node is visited and every
/// leaf copy simulated individually. Same semantics as [`resolve`] up to
/// floating-point association order in heterogeneous blends.
///
/// # Errors
///
/// Returns the [`TopologyError`] of the first structural invariant the
/// topology violates.
pub fn resolve_flat(
    topology: &Topology,
    outage: Seconds,
) -> Result<TopologyOutcome, TopologyError> {
    resolve_with(topology, outage, &FleetPool::new(), Aggregation::Flat)
}

/// Full-control entry point: explicit pool and aggregation mode.
///
/// # Errors
///
/// Returns the [`TopologyError`] of the first structural invariant the
/// topology violates.
pub fn resolve_with(
    topology: &Topology,
    outage: Seconds,
    pool: &FleetPool,
    aggregation: Aggregation,
) -> Result<TopologyOutcome, TopologyError> {
    resolve_with_evaluator(topology, outage, pool, aggregation, &KernelEvaluator)
}

/// Resolves with an injected [`LeafEvaluator`]: the planner and stitcher
/// run unchanged, but every distinct leaf class is evaluated through the
/// given seam instead of the default outage kernel.
///
/// # Errors
///
/// Returns the [`TopologyError`] of the first structural invariant the
/// topology violates.
pub fn resolve_with_evaluator<E: LeafEvaluator + ?Sized>(
    topology: &Topology,
    outage: Seconds,
    pool: &FleetPool,
    aggregation: Aggregation,
    evaluator: &E,
) -> Result<TopologyOutcome, TopologyError> {
    topology.validate()?;
    let _span = dcb_telemetry::span("topo.resolve");
    let expanded;
    let view = match aggregation {
        Aggregation::Collapsed => View::merged(&topology.root),
        Aggregation::Flat => {
            expanded = topology.expand();
            View::unmerged(&expanded.root)
        }
    };
    let mut planner = Planner::new();
    planner.stats.explicit_nodes = topology.root.explicit_nodes();
    let plan = planner.plan_node(&view, None, view.demand(), 1, 1);
    planner.materialize_jobs();
    planner.stats.distinct_leaf_sims = planner.jobs.len() as u64;

    let results: Vec<SimOutcome> =
        pool.run_all(&planner.jobs, |job| evaluator.evaluate(job, outage));

    let lanes = dcb_trace::claim_lanes(Level::ALL.len());
    let mut stitcher = Stitcher {
        planner: &planner,
        results: &results,
        outage,
        record: lanes.is_some(),
        events: Vec::new(),
        levels: BTreeMap::new(),
    };
    let root_part = stitcher.stitch(&plan);
    stitcher.emit_lanes(lanes);

    let levels = stitcher
        .levels
        .into_values()
        .map(LevelAcc::into_report)
        .collect();
    let stats = planner.stats;
    dcb_telemetry::counter!("topo.resolve.runs").incr();
    dcb_telemetry::counter!("topo.nodes.explicit").add(stats.explicit_nodes);
    dcb_telemetry::counter!("topo.nodes.resolved").add(stats.resolved_nodes);
    dcb_telemetry::counter!("topo.leaf.sims").add(stats.distinct_leaf_sims);
    dcb_telemetry::counter!("topo.shed.events").add(stats.shed_events);
    dcb_telemetry::counter!("topo.shed.servers").add(stats.shed_servers);
    dcb_telemetry::histogram!("topo.collapse.ratio_x100")
        .observe((stats.collapse_ratio() * 100.0) as u64);
    if dcb_prof::enabled() {
        let _resolve = dcb_prof::frame("topo-resolve");
        dcb_prof::record(dcb_prof::WorkKind::NodeSteps, stats.resolved_nodes);
    }

    Ok(TopologyOutcome {
        aggregate: root_part.outcome,
        levels,
        stats,
    })
}

/// The in-resolve identity of a planned leaf run, used to deduplicate
/// identical jobs within one resolve: [`LeafRun`]'s typed encoding,
/// absorbed word-wise ([`StableHasher::words`]).
fn job_key(job: &Job<'_>) -> u128 {
    let mut hasher = StableHasher::words();
    job.stable_hash(&mut hasher);
    hasher.finish()
}

/// One supply domain: the subtree under a backup-provisioning node.
#[derive(Debug)]
struct Domain<'a> {
    config: Option<&'a BackupConfig>,
    /// Nameplate demand of one copy of the domain node.
    nameplate: Watts,
    /// Nameplate demand shed within one copy (drives the survivor boost).
    shed_demand: Watts,
    pending: Vec<PendingLeaf<'a>>,
    /// Pending index → global job index, filled by `materialize_jobs`.
    job_of: Vec<usize>,
}

impl<'a> Domain<'a> {
    fn new(config: Option<&'a BackupConfig>, nameplate: Watts) -> Self {
        Self {
            config,
            nameplate,
            shed_demand: Watts::ZERO,
            pending: Vec::new(),
            job_of: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct PendingLeaf<'a> {
    cluster: Cluster,
    /// The technique the allocation lets this leaf hold, borrowed from
    /// its consumer; `None` when the leaf is shed.
    technique: Option<&'a Technique>,
}

/// The plan for one (possibly aggregated) node.
struct PlanNode<'a> {
    view: &'a View<'a>,
    /// How many times this whole context repeats globally (product of
    /// ancestor class copies).
    scale: u64,
    classes: Vec<PlanClass<'a>>,
}

/// One allocation class: `copies` identical copies of the node sharing
/// the same per-copy allocation.
struct PlanClass<'a> {
    copies: u64,
    kind: ClassKind<'a>,
}

enum ClassKind<'a> {
    Leaf { domain: usize, pending: usize },
    Group { children: Vec<PlanNode<'a>> },
}

struct Planner<'a> {
    stats: ResolveStats,
    domains: Vec<Domain<'a>>,
    jobs: Vec<LeafRun>,
}

impl<'a> Planner<'a> {
    fn new() -> Self {
        Self {
            stats: ResolveStats::default(),
            domains: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Plans `node` given a total grant covering all its copies at this
    /// position. `scale` counts how many times the position repeats
    /// globally; `wcopies` counts repeats *within one copy of the
    /// enclosing supply domain* (the multiplier for per-copy shed
    /// accounting).
    fn plan_node(
        &mut self,
        view: &'a View<'a>,
        domain: Option<usize>,
        grant_total: Watts,
        scale: u64,
        wcopies: u64,
    ) -> PlanNode<'a> {
        let mult = u64::from(view.multiplicity);

        // A backup node opens its own supply domain and is self-powered at
        // nameplate: grants from above describe the (now dead) grid feed.
        if let Some(config) = &view.node.backup {
            let domain_id = self.domains.len();
            self.domains
                .push(Domain::new(Some(config), view.unit_demand));
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body(view, domain_id, view.unit_demand, scale * mult, 1);
            return PlanNode {
                view,
                scale,
                classes: vec![PlanClass { copies: mult, kind }],
            };
        }

        let Some(domain_id) = domain else {
            // Above all domains there is no supply to allocate: pure
            // grouping (validate guarantees no consumer lives here).
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body_ungoverned(view, scale * mult);
            return PlanNode {
                view,
                scale,
                classes: vec![PlanClass { copies: mult, kind }],
            };
        };

        let unit_demand = view.unit_demand;
        let want = match view.node.feed_capacity {
            Some(capacity) => capacity.min(unit_demand),
            None => unit_demand,
        };

        // Fast path: the grant covers every copy. One class at `want`
        // (which still carries an interior deficit when the feed edge
        // caps below nameplate). Grants in this regime are exact copies
        // of demands, so the comparison involves no arithmetic slack.
        if grant_total >= view.demand() {
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body(view, domain_id, want, scale * mult, wcopies * mult);
            return PlanNode {
                view,
                scale,
                classes: vec![PlanClass { copies: mult, kind }],
            };
        }

        // Deficit: concentrate the grant — serve as many copies fully as
        // possible, give one copy the remainder, cut the rest.
        let mut classes = Vec::new();
        let available = grant_total.min(want * mult as f64);
        let full = (mult as f64).min((available / want).floor()) as u64;
        if full > 0 {
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body(view, domain_id, want, scale * full, wcopies * full);
            classes.push(PlanClass { copies: full, kind });
        }
        let leftover = available - want * full as f64;
        let mut assigned = full;
        if leftover.is_positive() && full < mult {
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body(view, domain_id, leftover, scale, wcopies);
            classes.push(PlanClass { copies: 1, kind });
            assigned += 1;
        }
        if assigned < mult {
            let rest = mult - assigned;
            self.stats.resolved_nodes += 1;
            let kind = self.plan_body(view, domain_id, Watts::ZERO, scale * rest, wcopies * rest);
            classes.push(PlanClass { copies: rest, kind });
        }
        PlanNode {
            view,
            scale,
            classes,
        }
    }

    /// Plans one copy's interior under a per-copy allocation. `class_scale`
    /// is the global repeat count of this copy; `wcopies` its repeat count
    /// within one copy of the enclosing domain.
    fn plan_body(
        &mut self,
        view: &'a View<'a>,
        domain_id: usize,
        alloc: Watts,
        class_scale: u64,
        wcopies: u64,
    ) -> ClassKind<'a> {
        match &view.node.body {
            Body::Consumer(consumer) => {
                self.plan_leaf(consumer, view, domain_id, alloc, class_scale, wcopies)
            }
            Body::Group(_) => {
                let children = &view.children;
                if alloc >= view.unit_demand {
                    let planned = children
                        .iter()
                        .map(|child| {
                            self.plan_node(
                                child,
                                Some(domain_id),
                                child.demand(),
                                class_scale,
                                wcopies,
                            )
                        })
                        .collect();
                    return ClassKind::Group { children: planned };
                }
                // Priority-ordered grants (stable sort: ties keep document
                // order), then plan in document order so sibling layout —
                // and with it stat/trace ordering — stays representation-
                // independent.
                let mut order: Vec<usize> = (0..children.len()).collect();
                order.sort_by_key(|&i| children[i].priority);
                let mut grants = vec![Watts::ZERO; children.len()];
                let mut remaining = alloc;
                for &i in &order {
                    let grant = children[i].demand().min(remaining);
                    grants[i] = grant;
                    remaining -= grant;
                }
                let planned = children
                    .iter()
                    .zip(grants)
                    .map(|(child, grant)| {
                        self.plan_node(child, Some(domain_id), grant, class_scale, wcopies)
                    })
                    .collect();
                ClassKind::Group { children: planned }
            }
        }
    }

    /// Decides one consumer class's fate under its allocation: serve,
    /// brown out, or shed.
    fn plan_leaf(
        &mut self,
        consumer: &'a Consumer,
        view: &View<'_>,
        domain_id: usize,
        alloc: Watts,
        class_scale: u64,
        wcopies: u64,
    ) -> ClassKind<'a> {
        let demand = view.unit_demand;
        let servers = view.unit_servers * class_scale;
        self.stats.implied_leaf_sims += class_scale;
        let technique = if alloc >= demand {
            self.stats.served_servers += servers;
            Some(&consumer.technique)
        } else {
            match &consumer.on_deficit {
                DeficitPolicy::Brownout(fallback) if alloc >= demand * BROWNOUT_FLOOR.value() => {
                    self.stats.browned_out_servers += servers;
                    Some(fallback)
                }
                _ => {
                    self.stats.shed_events += 1;
                    self.stats.shed_servers += servers;
                    // The shed nameplate feeds the survivor boost; both it
                    // and the domain nameplate are per-domain-copy values,
                    // hence the within-domain multiplier.
                    self.domains[domain_id].shed_demand += demand * wcopies as f64;
                    None
                }
            }
        };
        let pending = self.domains[domain_id].pending.len();
        self.domains[domain_id].pending.push(PendingLeaf {
            cluster: consumer.cluster,
            technique,
        });
        ClassKind::Leaf {
            domain: domain_id,
            pending,
        }
    }

    /// Plans grouping structure that sits above every supply domain.
    fn plan_body_ungoverned(&mut self, view: &'a View<'a>, class_scale: u64) -> ClassKind<'a> {
        match &view.node.body {
            // Unreachable for validated topologies (a consumer above all
            // domains fails `validate`); planned as shed defensively.
            Body::Consumer(consumer) => {
                let domain_id = self.domains.len();
                self.domains.push(Domain::new(None, view.unit_demand));
                self.plan_leaf(consumer, view, domain_id, Watts::ZERO, class_scale, 1)
            }
            Body::Group(_) => ClassKind::Group {
                children: view
                    .children
                    .iter()
                    .map(|child| self.plan_node(child, None, child.demand(), class_scale, 1))
                    .collect(),
            },
        }
    }

    /// Converts pending leaves into deduplicated jobs, assigning each
    /// domain's survivor share (boosted when the domain shed load). A
    /// leaf's job is keyed from borrowed parts; only a new key clones
    /// them into a [`LeafRun`].
    fn materialize_jobs(&mut self) {
        let jobs = &mut self.jobs;
        let leaves = self.domains.iter().map(|domain| domain.pending.len()).sum();
        let mut index = JobIndex::with_capacity(leaves);
        // Only a domain above every backup node (which `validate`
        // rejects) has no configuration of its own.
        let mut min_cost: Option<BackupConfig> = None;
        for domain in &mut self.domains {
            let headroom = domain.nameplate - domain.shed_demand;
            let share = if domain.shed_demand.is_zero() || !headroom.is_positive() {
                BackupShare::Proportional
            } else {
                BackupShare::Boosted(domain.nameplate / headroom)
            };
            let config = match domain.config {
                Some(config) => config,
                None => min_cost.get_or_insert_with(BackupConfig::min_cost),
            };
            let job_of: Vec<usize> = domain
                .pending
                .iter()
                .map(|leaf| {
                    let job = match leaf.technique {
                        Some(technique) => Job::Serve {
                            cluster: leaf.cluster,
                            config,
                            technique,
                            share: &share,
                        },
                        None => Job::Shed {
                            cluster: leaf.cluster,
                        },
                    };
                    index.get_or_insert(job_key(&job), || {
                        jobs.push(job.to_run());
                        jobs.len() - 1
                    })
                })
                .collect();
            domain.job_of = job_of;
        }
    }
}

/// Job indices by job key, in open addressing over the key's low bits
/// (the word-wise mixer spreads them). It is only looked up, never
/// iterated, so its layout cannot reach the job order.
struct JobIndex {
    /// `(key, job)` pairs; `job == usize::MAX` marks an empty slot.
    slots: Vec<(u128, usize)>,
}

impl JobIndex {
    /// Room for `keys` keys at most half full.
    fn with_capacity(keys: usize) -> Self {
        Self {
            slots: vec![(0, usize::MAX); (2 * keys).next_power_of_two()],
        }
    }

    /// The job filed under `key`, or the one `new` files there.
    fn get_or_insert(&mut self, key: u128, new: impl FnOnce() -> usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = key as usize & mask;
        loop {
            let (filed, job) = self.slots[slot];
            if job == usize::MAX {
                let job = new();
                self.slots[slot] = (key, job);
                return job;
            }
            if filed == key {
                return job;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// The bottom-up combination pass: leaf outcomes → class parts → node
/// parts, with per-level accounting and buffered trace events.
struct Stitcher<'a> {
    planner: &'a Planner<'a>,
    results: &'a [SimOutcome],
    outage: Seconds,
    record: bool,
    /// Buffered `(level index, duration µs, event)` rows: each level's
    /// lane may only be entered once per trace, so events are emitted
    /// level by level after the walk.
    events: Vec<(usize, u64, EventKind)>,
    levels: BTreeMap<usize, LevelAcc>,
}

impl Stitcher<'_> {
    fn stitch(&mut self, plan: &PlanNode<'_>) -> Part {
        let view = plan.view;
        let node = view.node;
        let mut class_parts = Vec::with_capacity(plan.classes.len());
        let mut shed_servers = 0u64;
        for class in &plan.classes {
            let unit = match &class.kind {
                ClassKind::Leaf { domain, pending } => {
                    let leaf = &self.planner.domains[*domain].pending[*pending];
                    if leaf.technique.is_none() {
                        let servers = u64::from(leaf.cluster.size()) * plan.scale * class.copies;
                        shed_servers += servers;
                        if self.record {
                            self.events.push((
                                node.level.index(),
                                0,
                                EventKind::TopoShed {
                                    level: node.level.name(),
                                    name: node.name.clone(),
                                    servers,
                                },
                            ));
                        }
                    }
                    let job = self.planner.domains[*domain].job_of[*pending];
                    Part {
                        outcome: self.results[job].clone(),
                        nameplate: leaf.cluster.peak_power(),
                    }
                }
                ClassKind::Group { children } => {
                    let parts: Vec<Part> =
                        children.iter().map(|child| self.stitch(child)).collect();
                    combine(&parts)
                }
            };
            class_parts.push(scale_part(unit, class.copies));
        }
        let part = combine(&class_parts);

        if self.record {
            self.events.push((
                node.level.index(),
                dcb_trace::micros(self.outage),
                EventKind::TopoResolve {
                    level: node.level.name(),
                    name: node.name.clone(),
                    multiplicity: plan.scale * u64::from(view.multiplicity),
                    feasible: part.outcome.feasible,
                },
            ));
        }

        let acc = self
            .levels
            .entry(node.level.index())
            .or_insert_with(|| LevelAcc::new(node.level));
        acc.resolved_nodes += plan.classes.len() as u64;
        acc.explicit_nodes += plan.scale * u64::from(view.multiplicity);
        acc.servers += view.servers() * plan.scale;
        acc.shed_servers += shed_servers;
        acc.observe(&part.outcome);
        part
    }

    /// Replays the buffered events, one lane per topology level.
    fn emit_lanes(&self, lanes: Option<u64>) {
        let Some(base) = lanes else { return };
        for level in Level::ALL {
            let rows: Vec<_> = self
                .events
                .iter()
                .filter(|(index, _, _)| *index == level.index())
                .collect();
            if rows.is_empty() {
                continue;
            }
            let _lane = dcb_trace::lane_scope(base + level.index() as u64);
            for (_, dur_us, kind) in rows {
                if *dur_us == 0 {
                    let _ = dcb_trace::instant(Some(0), None, || kind.clone());
                } else {
                    let _ = dcb_trace::complete(0, *dur_us, None, || kind.clone());
                }
            }
        }
    }
}

/// A node aggregate plus the nameplate weight it blends with.
struct Part {
    outcome: SimOutcome,
    nameplate: Watts,
}

/// Scales extensive metrics by a copy count; intensive metrics are shared
/// by every identical copy. `n == 1` is the identity (bit-exact).
fn scale_part(part: Part, n: u64) -> Part {
    if n == 1 {
        return part;
    }
    let f = n as f64;
    Part {
        outcome: SimOutcome {
            peak_power: part.outcome.peak_power * f,
            energy: part.outcome.energy * f,
            ..part.outcome
        },
        nameplate: part.nameplate * f,
    }
}

/// Blends sibling parts. A single part passes through verbatim (the
/// degenerate single-path case stays bit-exact); heterogeneous parts sum
/// extensive metrics, weight performance by nameplate capacity, take the
/// worst downtime and final state, AND feasibility, and OR state loss.
fn combine(parts: &[Part]) -> Part {
    if let [only] = parts {
        return Part {
            outcome: only.outcome.clone(),
            nameplate: only.nameplate,
        };
    }
    debug_assert!(!parts.is_empty(), "validate rejects empty groups");
    let nameplate: Watts = parts.iter().map(|p| p.nameplate).sum();
    let peak_power: Watts = parts.iter().map(|p| p.outcome.peak_power).sum();
    let energy: WattHours = parts.iter().map(|p| p.outcome.energy).sum();
    let weighted_perf: f64 = parts
        .iter()
        .map(|p| p.nameplate.value() * p.outcome.perf_during_outage.value())
        .sum();
    let worst = parts
        .iter()
        .max_by(|a, b| {
            a.outcome
                .downtime
                .expected
                .total_cmp(&b.outcome.downtime.expected)
        })
        .unwrap_or(&parts[0]);
    let final_state = parts
        .iter()
        .map(|p| p.outcome.final_state)
        .max_by_key(|state| severity(*state))
        .unwrap_or(FinalState::Serving);
    let outcome = SimOutcome {
        outage: parts[0].outcome.outage,
        feasible: parts.iter().all(|p| p.outcome.feasible),
        state_lost: parts.iter().any(|p| p.outcome.state_lost),
        peak_power,
        peak_power_fraction: Fraction::new(if nameplate.is_positive() {
            peak_power.value() / nameplate.value()
        } else {
            0.0
        }),
        energy,
        perf_during_outage: Fraction::new(if nameplate.is_positive() {
            weighted_perf / nameplate.value()
        } else {
            0.0
        }),
        downtime: worst.outcome.downtime,
        downtime_during_outage: worst.outcome.downtime_during_outage,
        final_state,
    };
    Part { outcome, nameplate }
}

/// Severity order for blending terminal states: the aggregate reports the
/// worst fate any member met.
fn severity(state: FinalState) -> u8 {
    match state {
        FinalState::Serving => 0,
        FinalState::Sleeping => 1,
        FinalState::EnteringSleep => 2,
        FinalState::Migrating => 3,
        FinalState::Saving => 4,
        FinalState::Hibernated => 5,
        FinalState::Recovering => 6,
        FinalState::Crashed => 7,
    }
}

/// Per-level accumulation during the stitch pass.
struct LevelAcc {
    level: Level,
    resolved_nodes: u64,
    explicit_nodes: u64,
    servers: u64,
    shed_servers: u64,
    worst_downtime: Option<DowntimeRange>,
    min_perf: Option<Fraction>,
}

impl LevelAcc {
    fn new(level: Level) -> Self {
        Self {
            level,
            resolved_nodes: 0,
            explicit_nodes: 0,
            servers: 0,
            shed_servers: 0,
            worst_downtime: None,
            min_perf: None,
        }
    }

    fn observe(&mut self, outcome: &SimOutcome) {
        let worse = match &self.worst_downtime {
            Some(current) => {
                outcome.downtime.expected.total_cmp(&current.expected)
                    == core::cmp::Ordering::Greater
            }
            None => true,
        };
        if worse {
            self.worst_downtime = Some(outcome.downtime);
        }
        self.min_perf = Some(match self.min_perf {
            Some(current) => current.min(outcome.perf_during_outage),
            None => outcome.perf_during_outage,
        });
    }

    fn into_report(self) -> LevelReport {
        LevelReport {
            level: self.level,
            resolved_nodes: self.resolved_nodes,
            explicit_nodes: self.explicit_nodes,
            servers: self.servers,
            shed_servers: self.shed_servers,
            worst_downtime: self
                .worst_downtime
                .unwrap_or_else(|| DowntimeRange::exact(Seconds::ZERO)),
            min_perf: self.min_perf.unwrap_or(Fraction::ONE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    #[test]
    fn every_leaf_run_field_moves_the_job_key() {
        let cluster = Cluster::rack(Workload::specjbb());
        let serve = |cluster, config, technique, share| LeafRun::Serve {
            cluster,
            config,
            technique,
            share,
        };
        let base = || {
            serve(
                cluster,
                BackupConfig::max_perf(),
                Technique::sleep(),
                BackupShare::Proportional,
            )
        };
        let variants = [
            ("base", base()),
            (
                "serve.cluster",
                serve(
                    Cluster::rack(Workload::memcached()),
                    BackupConfig::max_perf(),
                    Technique::sleep(),
                    BackupShare::Proportional,
                ),
            ),
            (
                "serve.config",
                serve(
                    cluster,
                    BackupConfig::no_dg(),
                    Technique::sleep(),
                    BackupShare::Proportional,
                ),
            ),
            (
                "serve.technique",
                serve(
                    cluster,
                    BackupConfig::max_perf(),
                    Technique::hibernate(),
                    BackupShare::Proportional,
                ),
            ),
            (
                "serve.share",
                serve(
                    cluster,
                    BackupConfig::max_perf(),
                    Technique::sleep(),
                    BackupShare::Boosted(1.5),
                ),
            ),
            (
                "serve.share.boost",
                serve(
                    cluster,
                    BackupConfig::max_perf(),
                    Technique::sleep(),
                    BackupShare::Boosted(2.0),
                ),
            ),
            ("shed", LeafRun::Shed { cluster }),
            (
                "shed.cluster",
                LeafRun::Shed {
                    cluster: Cluster::rack(Workload::memcached()),
                },
            ),
        ];
        let key = |run: &LeafRun| job_key(&Job::from(run));
        assert_eq!(key(&base()), key(&base()));
        for (i, (name_a, a)) in variants.iter().enumerate() {
            for (name_b, b) in &variants[i + 1..] {
                assert_ne!(key(a), key(b), "`{name_a}` and `{name_b}` share a key");
            }
        }
    }
}
