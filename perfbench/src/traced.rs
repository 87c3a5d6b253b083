//! The traced run: per-layer metrics from benchmark-side spans, probes and
//! the program's own counters.
//!
//! 1. The workload under test alternates untraced and traced passes for
//!    the run's seconds; the ratio of their medians is `spans.overhead`.
//! 2. One untimed counting pass of it reads the program's existing counters
//!    through `dcb_telemetry::snapshot()`. It runs before any other
//!    workload, whose code paths would register counters and so change the
//!    stable telemetry output the pass is checked against.
//! 3. Every other workload runs a few traced passes, so each layer's span
//!    metrics come from the workload that puts the layer on its critical
//!    path.
//! 4. The probes run on the workload's own scenarios, and the yearly replay
//!    re-derives the yearly reports step by step.

use crate::check::Checker;
use crate::probes::{self, Scene};
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::workloads::{observe_planes, Bench, Inputs, PassOutput, Workload};
use crate::Metric;
use dcb_sim::Cluster;
use dcb_workload::Workload as App;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Traced passes of each workload other than the one under test.
const CROSS_PASSES: usize = 3;

/// Every per-layer metric, with its unit and better direction, in the
/// order BENCHMARK.json lists them.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("bench.exhibit.robustness-predictor.s", "s", "lower"),
    ("bench.exhibit.fig5.s", "s", "lower"),
    ("bench.exhibit.fig5-websearch.s", "s", "lower"),
    ("bench.exhibit.fig5-memcached.s", "s", "lower"),
    ("bench.exhibit.fig5-speccpu.s", "s", "lower"),
    ("bench.exhibit.fig6.s", "s", "lower"),
    ("bench.exhibit.fig7.s", "s", "lower"),
    ("bench.exhibit.fig8.s", "s", "lower"),
    ("bench.exhibit.fig9.s", "s", "lower"),
    ("bench.exhibit.extension-oltp.s", "s", "lower"),
    ("bench.exhibit.availability-frontier.s", "s", "lower"),
    ("bench.exhibit.tier-analysis.s", "s", "lower"),
    ("bench.exhibit.dual-use-batteries.s", "s", "lower"),
    ("bench.exhibit.verify.s", "s", "lower"),
    ("bench.exhibit.other.s", "s", "lower"),
    ("core.online.simulate.ms", "ms", "lower"),
    ("core.online.decisions", "count", "lower"),
    ("core.sizing.min_cost_ups.ms", "ms", "lower"),
    ("core.evaluate.us", "us", "lower"),
    ("core.availability.analyze.ms", "ms", "lower"),
    ("fleet.cache.hit_ratio", "ratio", "higher"),
    ("fleet.cache.hit_ns", "ns", "lower"),
    ("fleet.pool.dispatch_ns", "ns", "lower"),
    ("fleet.pool.idle_share", "ratio", "lower"),
    ("sim.run_trace.ns_per_outage", "ns", "lower"),
    ("sim.run.us", "us", "lower"),
    ("sim.leaf_eval_share", "ratio", "lower"),
    ("engine.cycles_per_run", "count", "lower"),
    ("engine.locate.first_true_calls_per_run", "count", "lower"),
    ("engine.locate.bisection_iters_per_search", "count", "lower"),
    ("engine.locate.first_true.ns", "ns", "lower"),
    ("engine.locate.pred_evals_per_call", "count", "lower"),
    ("engine.calendar.post_pop.ns", "ns", "lower"),
    ("power.instantiate.ns", "ns", "lower"),
    ("power.first_shortfall.ns", "ns", "lower"),
    ("power.supply_segment.ns", "ns", "lower"),
    ("battery.runtime_at.ns", "ns", "lower"),
    ("battery.depletion_time_over_ramp.ns", "ns", "lower"),
    ("migration.plan.ns", "ns", "lower"),
    ("migration.plans", "count", "lower"),
    ("server.transition_times.ns", "ns", "lower"),
    ("outage.sample_year.ns", "ns", "lower"),
    ("topology.parse_spec.ms", "ms", "lower"),
    ("topology.resolve.ms", "ms", "lower"),
    ("topology.self_share", "ratio", "lower"),
    ("topology.node_steps", "count", "lower"),
    ("topology.distinct_leaf_sims", "count", "lower"),
    ("topology.collapse_ratio", "ratio", "higher"),
    ("topology.ns_per_node_step", "ns", "lower"),
    ("telemetry.export.ms", "ms", "lower"),
    ("trace.export.ms", "ms", "lower"),
    ("prof.export.ms", "ms", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("observe.record_s", "s", "lower"),
    ("spans.unattributed_s", "s", "lower"),
    ("spans.overhead", "ratio", "lower"),
];

/// Exhibits with a span metric of their own, by span name; the rest sum
/// into `bench.exhibit.other.s`.
const NAMED_EXHIBITS: [(&str, &str); 14] = [
    (
        "robustness-predictor",
        "bench.exhibit.robustness-predictor.s",
    ),
    ("fig5", "bench.exhibit.fig5.s"),
    ("fig5-websearch", "bench.exhibit.fig5-websearch.s"),
    ("fig5-memcached", "bench.exhibit.fig5-memcached.s"),
    ("fig5-speccpu", "bench.exhibit.fig5-speccpu.s"),
    ("fig6", "bench.exhibit.fig6.s"),
    ("fig7", "bench.exhibit.fig7.s"),
    ("fig8", "bench.exhibit.fig8.s"),
    ("fig9", "bench.exhibit.fig9.s"),
    ("extension-oltp", "bench.exhibit.extension-oltp.s"),
    (
        "availability-frontier",
        "bench.exhibit.availability-frontier.s",
    ),
    ("tier-analysis", "bench.exhibit.tier-analysis.s"),
    ("dual-use-batteries", "bench.exhibit.dual-use-batteries.s"),
    ("verify", "bench.exhibit.verify.s"),
];

/// The three exports' span names and metrics.
const EXPORTS: [(&str, &str); 3] = [
    ("telemetry.export", "telemetry.export.ms"),
    ("trace.export", "trace.export.ms"),
    ("prof.export", "prof.export.ms"),
];

/// One workload's passes within the traced run.
struct Runs {
    bench: Bench,
    checker: Checker,
    /// `(pass id, seconds)` per traced pass.
    traced: Vec<(u32, f64)>,
    untraced: Vec<f64>,
    last: Option<PassOutput>,
}

impl Runs {
    /// Generates the inputs and checks one untraced warm-up pass.
    fn setup(workload: Workload, seed: u64) -> Self {
        let bench = Bench::new(workload, seed);
        let mut checker = Checker::new();
        checker.observe(&bench.pass(&Tracer::off()).into_ops(&bench.inputs));
        Self {
            bench,
            checker,
            traced: Vec::new(),
            untraced: Vec::new(),
            last: None,
        }
    }

    fn untraced_pass(&mut self) {
        let t0 = Instant::now();
        let output = self.bench.pass(&Tracer::off());
        self.untraced.push(t0.elapsed().as_secs_f64());
        self.checker.observe(&output.into_ops(&self.bench.inputs));
    }

    fn traced_pass(&mut self, tracer: &Tracer, id: &mut u32) {
        *id += 1;
        tracer.set_pass(*id);
        let t0 = Instant::now();
        let output = self.bench.pass(tracer);
        self.traced.push((*id, t0.elapsed().as_secs_f64()));
        self.checker
            .observe(&output.clone().into_ops(&self.bench.inputs));
        self.last = Some(output);
    }

    fn traced_seconds(&self) -> Vec<f64> {
        self.traced.iter().map(|&(_, s)| s).collect()
    }
}

/// Everything the traced run measured.
#[derive(Debug)]
pub struct TracedRun {
    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Output checks over every pass, replay and cross-check.
    pub checker: Checker,
    spans: Vec<Span>,
    lines: Vec<String>,
}

/// Spans with their self times, grouped by the workload whose pass
/// recorded them.
struct SpanIndex {
    spans: Vec<(Span, u64)>,
    workload_of: HashMap<u32, Workload>,
}

impl SpanIndex {
    fn of<'a>(&'a self, workload: Workload) -> impl Iterator<Item = &'a (Span, u64)> + 'a {
        self.spans
            .iter()
            .filter(move |(s, _)| self.workload_of.get(&s.pass) == Some(&workload))
    }

    /// Durations of every `name` span of `workload`, in seconds.
    fn durations(&self, workload: Workload, name: &str) -> Vec<f64> {
        self.of(workload)
            .filter(|(s, _)| s.name == name)
            .map(|(s, _)| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per pass of `workload`: the summed duration of its spans that `pick`
    /// selects, in seconds.
    fn per_pass(&self, workload: Workload, pick: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for (s, _) in self.of(workload) {
            if s.name == "pass" {
                sums.entry(s.pass).or_default();
            } else if pick(s) {
                *sums.entry(s.pass).or_default() += s.duration_ns() as f64 * 1e-9;
            }
        }
        sums.into_values().collect()
    }
}

/// Runs the traced run for `workload` (see the module docs).
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64) -> TracedRun {
    let tracer = Tracer::on();
    let mut pass_id = 0;
    let mut runs: BTreeMap<Workload, Runs> = BTreeMap::new();
    let mut main = Runs::setup(workload, seed);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while main.traced.is_empty() || start.elapsed() < budget {
        main.untraced_pass();
        main.traced_pass(&tracer, &mut pass_id);
    }
    let mut lines = Vec::new();
    let mut metrics = counting_metrics(&mut main, &mut lines);
    runs.insert(workload, main);
    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        let mut cross = Runs::setup(other, seed);
        for _ in 0..CROSS_PASSES {
            cross.traced_pass(&tracer, &mut pass_id);
        }
        runs.insert(other, cross);
    }
    observe_planes(false);

    let recorded = tracer.spans();
    let self_ns = spans::self_times(&recorded);
    let index = SpanIndex {
        workload_of: runs
            .iter()
            .flat_map(|(&w, r)| r.traced.iter().map(move |&(id, _)| (id, w)))
            .collect(),
        spans: recorded.iter().cloned().zip(self_ns).collect(),
    };

    let mut checker = Checker::new();
    metrics.extend(span_metrics(workload, &runs, &index, &mut lines));

    let scenes = scenes_of(&runs[&workload]);
    lines.push(format!("probes ran on {} scenarios", scenes.len()));
    metrics.extend(probes::layer_probes(&scenes));
    metrics.extend(probes::core_probes());
    let yearly = &runs[&Workload::YearlyAvailability];
    if let (Inputs::Yearly(inputs), Some(PassOutput::Yearly(frontiers))) =
        (&yearly.bench.inputs, &yearly.last)
    {
        let reports: Vec<_> = frontiers
            .iter()
            .map(|f| f.clone().unwrap_or_default())
            .collect();
        metrics.extend(probes::yearly_replay(inputs, &reports, &mut checker));
    }

    for r in runs.into_values() {
        checker.absorb(r.checker);
    }
    let metrics = ordered(metrics, &mut checker);
    TracedRun {
        metrics,
        checker,
        spans: recorded,
        lines,
    }
}

/// The counting pass: one untimed pass of the workload under test with
/// telemetry counting, run before any other workload can register counters
/// that would change its stable telemetry output.
fn counting_metrics(main: &mut Runs, lines: &mut Vec<String>) -> Vec<Metric> {
    dcb_core::fleet::clear_cache();
    let (output, counts) = main.bench.counting_pass();
    observe_planes(false);
    main.checker.observe(&output.into_ops(&main.bench.inputs));
    let cache = dcb_core::fleet::cache_stats();
    let counter = |name: &str| counts.counter(name).unwrap_or(0) as f64;
    let runs_count = counter("engine.runs").max(1.0);
    let searches = counts
        .histogram("engine.locate.bisection_iters_per_search")
        .map_or(0, |h| h.count)
        .max(1) as f64;
    let metrics = vec![
        Metric::new("fleet.cache.hit_ratio", cache.hit_rate(), "ratio"),
        Metric::new(
            "engine.cycles_per_run",
            counter("engine.cycles") / runs_count,
            "count",
        ),
        Metric::new(
            "engine.locate.first_true_calls_per_run",
            counter("engine.locate.first_true_calls") / runs_count,
            "count",
        ),
        Metric::new(
            "engine.locate.bisection_iters_per_search",
            counter("engine.locate.bisection_iters") / searches,
            "count",
        ),
        Metric::new("migration.plans", counter("migration.plans"), "count"),
    ];
    lines.push(format!(
        "counting pass: engine.runs={} cache hits={} misses={}",
        counter("engine.runs"),
        cache.hits,
        cache.misses
    ));

    metrics
}

/// The scenarios a workload's passes evaluate, for the probes.
fn scenes_of(runs: &Runs) -> Vec<Scene> {
    match (&runs.bench.inputs, &runs.last) {
        (Inputs::Yearly(inputs), _) => probes::grid_scenes(&inputs.racks),
        (Inputs::Facility(_), Some(PassOutput::Facility { parsed: Ok(t), .. })) => {
            probes::topology_scenes(t)
        }
        _ => probes::grid_scenes(&[Cluster::rack(App::specjbb())]),
    }
}

/// The metrics read off the spans: exhibits, analyze, topology, exports,
/// the instrumentation cost, and the workload's own unattributed time and
/// tracing overhead.
fn span_metrics(
    workload: Workload,
    runs: &BTreeMap<Workload, Runs>,
    index: &SpanIndex,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let paper = if matches!(workload, Workload::PaperObserved) {
        Workload::PaperObserved
    } else {
        Workload::Paper
    };
    for (span, name) in NAMED_EXHIBITS {
        metrics.push(Metric::new(
            name,
            median(&index.durations(paper, span)),
            "s",
        ));
    }
    let other = index.per_pass(paper, |s| {
        s.name != "pass"
            && !NAMED_EXHIBITS.iter().any(|(span, _)| *span == s.name)
            && !EXPORTS.iter().any(|(span, _)| *span == s.name)
    });
    metrics.push(Metric::new("bench.exhibit.other.s", median(&other), "s"));

    let analyze = index.durations(Workload::YearlyAvailability, "analyze");
    metrics.push(Metric::new(
        "core.availability.analyze.ms",
        median(&analyze) * 1e3,
        "ms",
    ));

    metrics.extend(topology_metrics(runs, index, lines));

    for (span, name) in EXPORTS {
        let ms = median(&index.durations(Workload::PaperObserved, span)) * 1e3;
        metrics.push(Metric::new(name, ms, "ms"));
    }
    if let Some(PassOutput::Observed { trace_events, .. }) = &runs[&Workload::PaperObserved].last {
        metrics.push(Metric::new("trace.events", *trace_events as f64, "count"));
    }
    metrics.push(Metric::new(
        "trace.dropped",
        dcb_trace::dropped() as f64,
        "count",
    ));
    let observed = &runs[&Workload::PaperObserved];
    let exports = index.per_pass(Workload::PaperObserved, |s| {
        EXPORTS.iter().any(|(span, _)| *span == s.name)
    });
    let recording: Vec<f64> = observed
        .traced_seconds()
        .iter()
        .zip(&exports)
        .map(|(pass, exports)| pass - exports)
        .collect();
    metrics.push(Metric::new(
        "observe.record_s",
        median(&recording) - median(&runs[&Workload::Paper].traced_seconds()),
        "s",
    ));

    let own = &runs[&workload];
    let unattributed: Vec<f64> = index
        .of(workload)
        .filter(|(s, _)| s.name == "pass")
        .map(|&(_, self_ns)| self_ns as f64 * 1e-9)
        .collect();
    metrics.push(Metric::new(
        "spans.unattributed_s",
        median(&unattributed),
        "s",
    ));
    let traced = median(&own.traced_seconds());
    let untraced = median(&own.untraced);
    metrics.push(Metric::new("spans.overhead", traced / untraced, "ratio"));
    lines.push(format!(
        "{} passes: {} untraced (p50 {untraced:.6} s), {} traced (p50 {traced:.6} s)",
        workload.name(),
        own.untraced.len(),
        own.traced.len()
    ));

    let passes = own.traced.len().max(1) as f64;
    let own_spans: Vec<Span> = index.of(workload).map(|(s, _)| s.clone()).collect();
    for (name, (calls, self_ns, total_ns)) in spans::self_time_by_name(&own_spans) {
        lines.push(format!(
            "self {name}: {:.3} ms per pass ({:.3} ms inclusive, {calls} calls)",
            self_ns as f64 * 1e-6 / passes,
            total_ns as f64 * 1e-6 / passes,
        ));
    }
    metrics
}

/// Topology metrics from the facility passes: parse and resolve spans, the
/// timing evaluator's leaf spans, and the resolver's own statistics.
fn topology_metrics(
    runs: &BTreeMap<Workload, Runs>,
    index: &SpanIndex,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let facility = Workload::Facility;
    let threads = dcb_fleet::FleetPool::new().threads() as f64;
    let mut leaves: HashMap<u32, Vec<&Span>> = HashMap::new();
    for (s, _) in index.of(facility).filter(|(s, _)| s.name == "leaf_eval") {
        if let Some(parent) = s.parent {
            leaves.entry(parent).or_default().push(s);
        }
    }
    let (mut wall, mut own, mut busy, mut window) = (0u64, 0u64, 0u64, 0u64);
    let mut per_duration: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut order: HashMap<u32, usize> = HashMap::new();
    for (s, self_ns) in index.of(facility).filter(|(s, _)| s.name == "resolve") {
        let nth = order.entry(s.pass).or_default();
        per_duration
            .entry(*nth)
            .or_default()
            .push(s.duration_ns() as f64 * 1e-6);
        *nth += 1;
        wall += s.duration_ns();
        own += self_ns;
        if let Some(kids) = leaves.get(&s.id) {
            busy += kids.iter().map(|k| k.duration_ns()).sum::<u64>();
            let first = kids.iter().map(|k| k.start_ns).min().unwrap_or(0);
            let last = kids.iter().map(|k| k.end_ns).max().unwrap_or(0);
            window += last - first;
        }
    }
    let durations = dcb_core::evaluate::paper_durations();
    for (nth, ms) in &per_duration {
        lines.push(format!(
            "topology.resolve at {}: {:.3} ms",
            durations
                .get(*nth)
                .map_or_else(|| "?".to_owned(), ToString::to_string),
            median(ms)
        ));
    }
    let resolves = runs[&facility].traced.len() * durations.len();
    let (mut steps, mut sims, mut explicit) = (0u64, 0u64, 0u64);
    if let Some(PassOutput::Facility { resolves: outs, .. }) = &runs[&facility].last {
        for outcome in outs.iter().filter_map(|(_, o)| o.as_ref().ok()) {
            steps += outcome.stats.resolved_nodes;
            sims += outcome.stats.distinct_leaf_sims;
            explicit += outcome.stats.explicit_nodes;
        }
    }
    let per_resolve = durations.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        Metric::new(
            "topology.parse_spec.ms",
            median(&index.durations(facility, "parse_spec")) * 1e3,
            "ms",
        ),
        Metric::new(
            "topology.resolve.ms",
            median(&index.durations(facility, "resolve")) * 1e3,
            "ms",
        ),
        Metric::new(
            "topology.self_share",
            ratio(own as f64, wall as f64),
            "ratio",
        ),
        Metric::new("topology.node_steps", steps as f64 / per_resolve, "count"),
        Metric::new(
            "topology.distinct_leaf_sims",
            sims as f64 / per_resolve,
            "count",
        ),
        Metric::new(
            "topology.collapse_ratio",
            ratio(explicit as f64, steps as f64),
            "ratio",
        ),
        Metric::new(
            "topology.ns_per_node_step",
            ratio(own as f64, steps as f64 / per_resolve * resolves as f64),
            "ns",
        ),
        Metric::new(
            "sim.leaf_eval_share",
            ratio(busy as f64, wall as f64),
            "ratio",
        ),
        Metric::new(
            "fleet.pool.idle_share",
            1.0 - ratio(busy as f64, window as f64 * threads),
            "ratio",
        ),
    ]
}

/// Puts `metrics` in [`PER_LAYER`] order; a listed metric that was not
/// measured is reported as 0 and counted as a failed operation.
fn ordered(metrics: Vec<Metric>, checker: &mut Checker) -> Vec<Metric> {
    let mut by_name: HashMap<&str, Metric> = metrics.into_iter().map(|m| (m.name, m)).collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let found = by_name.remove(name);
            checker.record(
                &format!("metric {name}"),
                found
                    .as_ref()
                    .map(|_| ())
                    .ok_or_else(|| "not measured".to_owned()),
            );
            found.unwrap_or(Metric::new(name, 0.0, unit))
        })
        .collect()
}

impl TracedRun {
    /// Human-readable report lines: every per-layer metric with its unit,
    /// then self time per span name and notes.
    #[must_use]
    pub fn report(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{} = {} {}", m.name, m.value, m.unit))
            .collect();
        lines.extend(self.lines.iter().cloned());
        lines.push(format!(
            "error_rate = {} ({} failed / {} attempted operations)",
            self.checker.error_rate(),
            self.checker.failed,
            self.checker.attempted
        ));
        lines
    }

    /// The recorded spans, one per line (see [`spans::render`]).
    #[must_use]
    pub fn rendered_spans(&self) -> String {
        spans::render(&self.spans)
    }
}
