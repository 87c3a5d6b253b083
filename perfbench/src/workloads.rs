//! The four workloads and one closed-loop pass of each.
//!
//! A pass is what one client waits for; the next pass starts when it ends.
//! Untraced passes call exactly the public entry points a user runs
//! (`repro all`'s generators, `availability::frontier`,
//! `topology::resolve`). Traced passes make the same calls with
//! benchmark-side spans around them, reaching one level further in where a
//! public seam allows it: per-candidate `availability::analyze` on the
//! shared pool instead of `frontier`, and `resolve_with_evaluator` with a
//! timing leaf evaluator instead of `resolve`. Their outputs are checked
//! against the untraced warm-up pass, so both measure the same program.

use crate::check::{guarded, Op};
use crate::inputs::{self, YearlyInputs};
use crate::spans::Tracer;
use dcb_bench::{all_exhibits, extra_exhibits, tables, verify};
use dcb_core::availability::{analyze, frontier, AvailabilityReport};
use dcb_core::evaluate::paper_durations;
use dcb_fleet::FleetPool;
use dcb_sim::SimOutcome;
use dcb_topology::{
    parse_spec, resolve, resolve_with_evaluator, unit_digest, Aggregation, KernelEvaluator,
    LeafEvaluator, LeafRun, Topology, TopologyOutcome,
};
use dcb_units::Seconds;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Everything `repro all` prints, rendered in memory from a cold cache:
    /// 17 paper exhibits, 14 extra exhibits, the state-size sensitivity
    /// table and the 6 headline claims (38 operations, ~0.2 s). The number
    /// users wait for; about half is `core::online` (robustness-predictor)
    /// and most of the rest `core::sizing` through the fleet cache.
    Paper,
    /// `availability::frontier` for the four paper workloads over all 117
    /// Table-3 × catalog candidates and 100 seeded years each: 468 reports
    /// and ~150k Figure-1 outages replayed with recharge (~0.35 s). Loads the
    /// outage kernel (sim, engine, power, battery, migration) and bypasses
    /// `core::online`, the fleet cache and topology.
    YearlyAvailability,
    /// Parses a seeded ~400-cluster heterogeneous facility spec and resolves
    /// it at the five paper durations (~47k explicit nodes, ~2k node-steps
    /// per resolve, ~0.2 s). The only workload with topology planning,
    /// collapse and stitching on the critical path.
    Facility,
    /// The `Paper` pass with telemetry, the flight recorder and the profiler
    /// all recording, rendering the stable telemetry JSON, the Chrome trace
    /// and the collapsed profile each pass. The only workload where the
    /// three instrumentation planes do real work; `Paper` pays only their
    /// disabled branch.
    PaperObserved,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::YearlyAvailability,
        Workload::Facility,
        Workload::PaperObserved,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::YearlyAvailability => "yearly_availability",
            Workload::Facility => "facility",
            Workload::PaperObserved => "paper_observed",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// The paper reproduction takes no inputs.
    Paper,
    /// Racks, candidates, years and trial seed.
    Yearly(YearlyInputs),
    /// The facility spec text.
    Facility(String),
}

impl Inputs {
    /// Generates `workload`'s inputs for `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Paper | Workload::PaperObserved => Inputs::Paper,
            Workload::YearlyAvailability => Inputs::Yearly(inputs::yearly(seed)),
            Workload::Facility => Inputs::Facility(inputs::facility_spec(seed)),
        }
    }
}

/// Turns telemetry, the flight recorder and the profiler on or off.
pub fn observe_planes(on: bool) {
    dcb_telemetry::set_enabled(on);
    dcb_trace::set_enabled(on);
    dcb_prof::set_enabled(on);
}

/// One workload's inputs plus the benchmark-owned pool the traced resolve
/// runs its timing evaluator on.
#[derive(Debug)]
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Its generated inputs.
    pub inputs: Inputs,
    pool: FleetPool,
}

/// What one pass produced, before it is rendered for checking (rendering
/// happens after the pass clock stops).
// One value per pass: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PassOutput {
    /// Rendered exhibits and claims, in `repro all` order.
    Paper(Vec<(&'static str, Result<String, String>)>),
    /// One frontier per rack.
    Yearly(Vec<Result<Vec<AvailabilityReport>, String>>),
    /// The parsed spec and one resolve per paper duration.
    Facility {
        /// The parse.
        parsed: Result<Topology, String>,
        /// `(duration, outcome)` per resolve.
        resolves: Vec<(Seconds, Result<TopologyOutcome, String>)>,
    },
    /// The paper pass plus the three exports.
    Observed {
        /// As for `Paper`.
        exhibits: Vec<(&'static str, Result<String, String>)>,
        /// Telemetry JSON, Chrome trace, collapsed profile.
        exports: Vec<(&'static str, Result<String, String>)>,
        /// Flight-recorder events drained this pass.
        trace_events: usize,
    },
}

/// Wraps the default kernel evaluator in one span per leaf simulation.
struct TimingEvaluator<'t> {
    tracer: &'t Tracer,
    parent: Option<u32>,
}

impl LeafEvaluator for TimingEvaluator<'_> {
    fn evaluate(&self, run: &LeafRun, outage: Seconds) -> SimOutcome {
        let _span = self.tracer.span("leaf_eval", self.parent);
        KernelEvaluator.evaluate(run, outage)
    }
}

impl Bench {
    /// Generates `workload`'s inputs for `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            inputs: Inputs::generate(workload, seed),
            pool: FleetPool::new(),
        }
    }

    /// Runs one pass. `tracer` records a `pass` span and its children when
    /// on; the instrumentation planes are switched to the workload's
    /// setting first.
    #[must_use]
    pub fn pass(&self, tracer: &Tracer) -> PassOutput {
        observe_planes(self.workload == Workload::PaperObserved);
        self.body(tracer)
    }

    /// Runs one untraced pass with telemetry counting and returns the
    /// counters it recorded, leaving the planes as the workload wants them.
    #[must_use]
    pub fn counting_pass(&self) -> (PassOutput, dcb_telemetry::Snapshot) {
        observe_planes(self.workload == Workload::PaperObserved);
        dcb_telemetry::registry().reset();
        dcb_telemetry::set_enabled(true);
        let output = self.body(&Tracer::off());
        let counts = dcb_telemetry::snapshot();
        observe_planes(self.workload == Workload::PaperObserved);
        (output, counts)
    }

    fn body(&self, tracer: &Tracer) -> PassOutput {
        let pass = tracer.span("pass", None);
        let parent = pass.id();
        match (&self.inputs, self.workload) {
            (Inputs::Yearly(inputs), _) => PassOutput::Yearly(yearly_pass(inputs, tracer, parent)),
            (Inputs::Facility(spec), _) => facility_pass(spec, &self.pool, tracer, parent),
            (Inputs::Paper, Workload::PaperObserved) => observed_pass(tracer, parent),
            (Inputs::Paper, _) => PassOutput::Paper(paper_pass(tracer, parent)),
        }
    }
}

/// Renders everything `repro all` prints, cold, as `repro all` starts.
fn paper_pass(tracer: &Tracer, parent: Option<u32>) -> Vec<(&'static str, Result<String, String>)> {
    dcb_core::fleet::clear_cache();
    let mut exhibits = all_exhibits();
    exhibits.extend(extra_exhibits());
    let mut rendered = Vec::with_capacity(exhibits.len() + 7);
    for (name, generate) in exhibits {
        let _span = tracer.span(name, parent);
        let _timer = dcb_telemetry::span(name);
        rendered.push((name, guarded(|| format!("{}\n", generate()))));
    }
    {
        let _span = tracer.span("sensitivity", parent);
        let _timer = dcb_telemetry::span("sensitivity");
        rendered.push((
            "sensitivity",
            guarded(|| format!("{}\n", tables::state_size_sensitivity())),
        ));
    }
    let _span = tracer.span("verify", parent);
    let _timer = dcb_telemetry::span("verify");
    match guarded(verify::verify_all) {
        Ok(claims) => {
            for (claim, check) in claims {
                rendered.push((
                    claim,
                    check
                        .map(|summary| format!("  PASS {claim}: {summary}\n"))
                        .map_err(|err| format!("FAIL {claim}: {err}")),
                ));
            }
        }
        Err(panic) => rendered.push(("verify", Err(panic))),
    }
    rendered
}

/// The paper pass with all three planes recording, then their exports.
/// The planes are reset after the cache is cleared and before recording,
/// so each pass's exports cover exactly that pass, as a fresh
/// `DCB_TELEMETRY=json DCB_TRACE=chrome DCB_PROF=collapsed repro all` would.
fn observed_pass(tracer: &Tracer, parent: Option<u32>) -> PassOutput {
    dcb_core::fleet::clear_cache();
    dcb_telemetry::registry().reset();
    dcb_trace::reset();
    dcb_prof::reset();
    let exhibits = paper_pass(tracer, parent);
    let mut exports = Vec::with_capacity(3);
    {
        let _span = tracer.span("telemetry.export", parent);
        exports.push((
            "telemetry.export",
            guarded(|| dcb_telemetry::snapshot().to_stable_json()),
        ));
    }
    let mut trace_events = 0;
    {
        let _span = tracer.span("trace.export", parent);
        let export = guarded(|| {
            let events = dcb_trace::drain();
            (events.len(), dcb_trace::chrome::export(&events))
        });
        let dropped = dcb_trace::dropped();
        exports.push((
            "trace.export",
            export.and_then(|(events, document)| {
                trace_events = events;
                if dropped > 0 {
                    Err(format!("flight recorder dropped {dropped} events"))
                } else {
                    Ok(document)
                }
            }),
        ));
    }
    {
        let _span = tracer.span("prof.export", parent);
        exports.push((
            "prof.export",
            guarded(|| dcb_prof::collapsed::render(&dcb_prof::snapshot())),
        ));
    }
    PassOutput::Observed {
        exhibits,
        exports,
        trace_events,
    }
}

fn yearly_pass(
    inputs: &YearlyInputs,
    tracer: &Tracer,
    parent: Option<u32>,
) -> Vec<Result<Vec<AvailabilityReport>, String>> {
    let years = inputs.years;
    inputs
        .racks
        .iter()
        .zip(&inputs.trial_seeds)
        .map(|(rack, &seed)| {
            if !tracer.is_on() {
                return guarded(|| frontier(rack, &inputs.candidates, years, seed));
            }
            // `frontier` itself: fan the candidates out over the shared
            // pool, analyze each, sort by cost.
            let span = tracer.span("frontier", parent);
            let id = span.id();
            guarded(|| {
                let mut reports =
                    dcb_core::fleet::pool().run_all(&inputs.candidates, |(config, technique)| {
                        let _span = tracer.span("analyze", id);
                        analyze(rack, config, technique, years, seed)
                    });
                reports.sort_by(|a, b| a.cost.total_cmp(&b.cost));
                reports
            })
        })
        .collect()
}

fn facility_pass(spec: &str, pool: &FleetPool, tracer: &Tracer, parent: Option<u32>) -> PassOutput {
    let parsed = {
        let _span = tracer.span("parse_spec", parent);
        guarded(|| parse_spec(spec)).and_then(|r| r.map_err(|e| e.to_string()))
    };
    let resolves = paper_durations()
        .into_iter()
        .map(|outage| {
            let Ok(topology) = &parsed else {
                return (outage, Err("the spec did not parse".to_owned()));
            };
            let outcome = if tracer.is_on() {
                let span = tracer.span("resolve", parent);
                let evaluator = TimingEvaluator {
                    tracer,
                    parent: span.id(),
                };
                guarded(|| {
                    resolve_with_evaluator(
                        topology,
                        outage,
                        pool,
                        Aggregation::Collapsed,
                        &evaluator,
                    )
                })
            } else {
                guarded(|| resolve(topology, outage))
            };
            (outage, outcome.and_then(|r| r.map_err(|e| e.to_string())))
        })
        .collect();
    PassOutput::Facility { parsed, resolves }
}

/// A report's own invariants: availability is a probability and no more
/// outages lose state than were simulated.
fn report_invariants(report: &AvailabilityReport, years: usize) -> Result<(), String> {
    let availability = report.mean_availability.value();
    if !(0.0..=1.0).contains(&availability) {
        return Err(format!("availability {availability} outside [0, 1]"));
    }
    if !(0.0..=1.0).contains(&report.state_loss_rate) {
        return Err(format!(
            "state-loss rate {} means more losses than outages",
            report.state_loss_rate
        ));
    }
    if report.years != years {
        return Err(format!("{} years reported, {years} asked", report.years));
    }
    Ok(())
}

/// Every server is served, browned out or shed: exactly once.
fn resolve_invariants(outcome: &TopologyOutcome, servers: u64) -> Result<(), String> {
    let s = &outcome.stats;
    let accounted = s.served_servers + s.browned_out_servers + s.shed_servers;
    if accounted == servers {
        Ok(())
    } else {
        Err(format!(
            "served {} + browned out {} + shed {} = {accounted} != {servers} servers",
            s.served_servers, s.browned_out_servers, s.shed_servers
        ))
    }
}

impl PassOutput {
    /// Renders every operation's output bytes, or why it failed.
    #[must_use]
    pub fn into_ops(self, inputs: &Inputs) -> Vec<Op> {
        let rendered = |list: Vec<(&'static str, Result<String, String>)>| {
            list.into_iter().map(|(name, outcome)| Op {
                name: name.to_owned(),
                outcome,
            })
        };
        match (self, inputs) {
            (PassOutput::Paper(list), _) => rendered(list).collect(),
            (
                PassOutput::Observed {
                    exhibits, exports, ..
                },
                _,
            ) => rendered(exhibits).chain(rendered(exports)).collect(),
            (PassOutput::Yearly(frontiers), Inputs::Yearly(inputs)) => {
                let mut ops = Vec::new();
                for (rack, frontier) in inputs.racks.iter().zip(frontiers) {
                    let workload = rack.workload().kind();
                    match frontier {
                        Ok(reports) => ops.extend(reports.iter().map(|r| {
                            let name = format!("{workload} {} + {}", r.config, r.technique);
                            match report_invariants(r, inputs.years) {
                                Ok(()) => Op::ok(name, format!("{r:?}")),
                                Err(why) => Op::failed(name, why),
                            }
                        })),
                        Err(why) => ops.extend(
                            inputs
                                .candidates
                                .iter()
                                .map(|_| Op::failed(format!("{workload} frontier"), why.clone())),
                        ),
                    }
                }
                ops
            }
            (PassOutput::Facility { parsed, resolves }, _) => {
                let servers = parsed.as_ref().map_or(0, |t| t.root.servers());
                let mut ops = vec![match parsed {
                    Ok(t) => Op::ok(
                        "parse_spec",
                        format!(
                            "explicit_nodes={} servers={servers} digest={:032x}",
                            t.root.explicit_nodes(),
                            unit_digest(&t.root)
                        ),
                    ),
                    Err(why) => Op::failed("parse_spec", why),
                }];
                for (outage, outcome) in resolves {
                    let name = format!("resolve {outage}");
                    ops.push(match outcome {
                        Ok(o) => match resolve_invariants(&o, servers) {
                            Ok(()) => Op::ok(name, format!("{o:?}")),
                            Err(why) => Op::failed(name, why),
                        },
                        Err(why) => Op::failed(name, why),
                    });
                }
                ops
            }
            (PassOutput::Yearly(_), _) => vec![Op::failed("yearly", "inputs are not yearly")],
        }
    }

    /// Outages simulated by a yearly pass (0 for other workloads).
    #[must_use]
    pub fn outages(&self) -> usize {
        match self {
            PassOutput::Yearly(frontiers) => frontiers
                .iter()
                .flatten()
                .flat_map(|reports| reports.iter().map(|r| r.outages))
                .sum(),
            _ => 0,
        }
    }
}
