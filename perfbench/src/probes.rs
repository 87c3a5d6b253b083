//! Per-layer probes: timed calls into each crate's public functions, made
//! from the benchmark on the workload's own inputs (the scenarios its
//! passes evaluate), plus the fixed inputs of the exhibits a layer serves.

use crate::check::Checker;
use crate::inputs::YearlyInputs;
use crate::stats::median;
use crate::Metric;
use dcb_core::availability::AvailabilityReport;
use dcb_core::evaluate::{evaluate, paper_durations, Performability};
use dcb_core::online::AdaptiveController;
use dcb_core::sizing::{min_cost_ups, SizingTargets};
use dcb_core::technique::TechniqueDemand;
use dcb_engine::{Calendar, EventTime};
use dcb_fleet::{trial_seed, EvalCache, FleetPool, Scenario};
use dcb_migration::MigrationModel;
use dcb_outage::{DurationDistribution, DurationPredictor, OutageSampler, WeibullDuration};
use dcb_power::{BackupConfig, BackupSystem};
use dcb_server::TransitionTimes;
use dcb_sim::{Cluster, OutageSim, Technique};
use dcb_topology::{Body, Node, Topology};
use dcb_units::{Fraction, Seconds, Watts};
use dcb_workload::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One scenario a workload evaluates: a server group, its backup and its
/// technique.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The server group.
    pub cluster: Cluster,
    /// Its backup configuration.
    pub config: BackupConfig,
    /// Its technique.
    pub technique: Technique,
}

/// `racks` × Table-3 × catalog.
#[must_use]
pub fn grid_scenes(racks: &[Cluster]) -> Vec<Scene> {
    let mut scenes = Vec::new();
    for rack in racks {
        for (config, technique) in crate::inputs::candidates() {
            scenes.push(Scene {
                cluster: *rack,
                config,
                technique,
            });
        }
    }
    scenes
}

/// The distinct consumer classes of a topology, each with the backup of
/// the supply domain above it.
#[must_use]
pub fn topology_scenes(topology: &Topology) -> Vec<Scene> {
    fn walk(node: &Node, backup: Option<&BackupConfig>, out: &mut BTreeMap<String, Scene>) {
        let backup = node.backup.as_ref().or(backup);
        match &node.body {
            Body::Consumer(consumer) => {
                if let Some(config) = backup {
                    let scene = Scene {
                        cluster: consumer.cluster,
                        config: config.clone(),
                        technique: consumer.technique.clone(),
                    };
                    out.entry(format!("{scene:?}")).or_insert(scene);
                }
            }
            Body::Group(children) => {
                for child in children {
                    walk(child, backup, out);
                }
            }
        }
    }
    let mut scenes = BTreeMap::new();
    walk(&topology.root, None, &mut scenes);
    scenes.into_values().collect()
}

/// Times `round` (which makes `calls` calls) repeatedly for about 40 ms and
/// returns the median ns per call.
fn per_call_ns(calls: usize, mut round: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    round();
    let first = t0.elapsed().max(Duration::from_nanos(1));
    let rounds = (Duration::from_millis(40).as_nanos() / first.as_nanos()).clamp(5, 2000);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / calls.max(1) as f64
}

/// Two hours: the longest outage the paper's panels evaluate.
fn horizon() -> Seconds {
    Seconds::from_minutes(120.0)
}

/// The loads a scene's backup carries: the rack's nameplate peak, and the
/// technique's steady draw once in effect.
fn loads(scene: &Scene) -> Vec<Watts> {
    let demand = TechniqueDemand::of(
        &scene.technique,
        scene.cluster.workload(),
        scene.cluster.spec(),
    );
    let steady = demand.power_after * f64::from(scene.cluster.size());
    let mut loads = vec![scene.cluster.peak_power()];
    if steady.value() > 0.0 && steady != loads[0] {
        loads.push(steady);
    }
    loads
}

/// The power, battery, engine, migration, server and fleet-cache probes on
/// `scenes`.
#[must_use]
pub fn layer_probes(scenes: &[Scene]) -> Vec<Metric> {
    let mut cases: Vec<(BackupSystem, Watts)> = Vec::new();
    for scene in scenes {
        let system = scene.config.instantiate(scene.cluster.peak_power());
        for load in loads(scene) {
            cases.push((system.clone(), load));
        }
    }
    let with_ups: Vec<&(BackupSystem, Watts)> =
        cases.iter().filter(|(s, _)| s.ups().is_some()).collect();
    let to = horizon();
    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };

    push(
        "power.instantiate.ns",
        per_call_ns(scenes.len(), || {
            for scene in scenes {
                black_box(
                    scene
                        .config
                        .instantiate(black_box(scene.cluster.peak_power())),
                );
            }
        }),
        "ns",
    );
    push(
        "power.first_shortfall.ns",
        per_call_ns(cases.len(), || {
            for (system, load) in &cases {
                black_box(system.first_shortfall(black_box(*load), Seconds::ZERO, to));
            }
        }),
        "ns",
    );
    let mut fresh: Vec<(BackupSystem, Watts)> = Vec::new();
    let mut supply_samples = Vec::new();
    for _ in 0..20 {
        fresh.clone_from(&cases);
        let t0 = Instant::now();
        for (system, load) in &mut fresh {
            black_box(system.supply_segment(black_box(*load), Seconds::ZERO, to));
        }
        supply_samples.push(t0.elapsed().as_nanos() as f64 / cases.len().max(1) as f64);
    }
    push("power.supply_segment.ns", median(&supply_samples), "ns");
    push(
        "battery.runtime_at.ns",
        per_call_ns(with_ups.len(), || {
            for (system, load) in &with_ups {
                let pack = system.ups().map(dcb_power::Ups::pack);
                black_box(pack.map(|p| p.runtime_at(black_box(*load))));
            }
        }),
        "ns",
    );
    let ramps: Vec<_> = with_ups
        .iter()
        .flat_map(|(system, load)| {
            let pack = system.ups().map(dcb_power::Ups::pack);
            system
                .residual_phases(*load, Seconds::ZERO, to)
                .into_iter()
                .filter(|ph| !ph.is_free())
                .filter_map(move |ph| pack.map(|p| (p, ph)))
        })
        .collect();
    push(
        "battery.depletion_time_over_ramp.ns",
        per_call_ns(ramps.len(), || {
            for (pack, ph) in &ramps {
                black_box(pack.depletion_time_over_ramp(
                    Fraction::ONE,
                    black_box(ph.residual_start),
                    ph.residual_end,
                    ph.duration(),
                ));
            }
        }),
        "ns",
    );

    // The kernel's located-event shape: the first instant the battery has
    // spent its whole charge carrying the load.
    let mut evals = 0u64;
    let mut calls = 0u64;
    push(
        "engine.locate.first_true.ns",
        per_call_ns(with_ups.len(), || {
            for (system, load) in &with_ups {
                calls += 1;
                black_box(dcb_engine::locate::first_true(Seconds::ZERO, to, |t| {
                    evals += 1;
                    system.charge_used_for(*load, Seconds::ZERO, t) >= 1.0
                }));
            }
        }),
        "ns",
    );
    push(
        "engine.locate.pred_evals_per_call",
        evals as f64 / calls.max(1) as f64,
        "count",
    );
    const EVENTS: usize = 64;
    push(
        "engine.calendar.post_pop.ns",
        per_call_ns(EVENTS, || {
            let mut calendar = Calendar::new();
            for i in 0..EVENTS {
                let at = Seconds::new(((i * 7919) % 1000) as f64);
                calendar.post(i % 6, EventTime::new(at), (i % 3) as u8, i as u64);
            }
            while let Some(posted) = calendar.pop() {
                black_box(posted);
            }
        }),
        "ns",
    );

    let workloads: Vec<Workload> = scenes.iter().map(|s| *s.cluster.workload()).collect();
    let migration = MigrationModel::xen_default();
    push(
        "migration.plan.ns",
        per_call_ns(2 * workloads.len(), || {
            for w in &workloads {
                for proactive in [false, true] {
                    black_box(migration.plan(
                        black_box(w.migration_state(proactive)),
                        w.dirty_profile().dirty_rate,
                    ));
                }
            }
        }),
        "ns",
    );
    push(
        "server.transition_times.ns",
        per_call_ns(scenes.len(), || {
            for scene in scenes {
                let t = TransitionTimes::new(*black_box(scene.cluster.spec()));
                let w = scene.cluster.workload();
                black_box(
                    t.sleep_enter(Fraction::ONE)
                        + t.sleep_resume()
                        + t.hibernate_save(w.hibernate_image(), Fraction::ONE)
                        + t.hibernate_resume(w.hibernate_image(), false)
                        + t.boot(),
                );
            }
        }),
        "ns",
    );

    let cache: EvalCache<Performability> = EvalCache::new();
    let outage = Seconds::from_minutes(30.0);
    let keys: Vec<u128> = scenes
        .iter()
        .map(|s| {
            let key = Scenario::new(&s.cluster, &s.config, &s.technique, outage).digest();
            cache.insert(key, evaluate(&s.cluster, &s.config, &s.technique, outage));
            key
        })
        .collect();
    push(
        "fleet.cache.hit_ns",
        per_call_ns(keys.len(), || {
            for &key in &keys {
                black_box(
                    cache.get_or_compute(black_box(key), || unreachable!("every key was inserted")),
                );
            }
        }),
        "ns",
    );
    let pool = FleetPool::new();
    let batch = [(); 8];
    push(
        "fleet.pool.dispatch_ns",
        per_call_ns(1, || {
            black_box(pool.run_all(&batch, |()| ()));
        }),
        "ns",
    );
    metrics
}

/// `core::online` on robustness-predictor's inputs, `core::sizing` on the
/// Figure-6 cells and `core::evaluate` / `OutageSim::run` on the Figure-5
/// grid, each from a cold fleet cache.
#[must_use]
pub fn core_probes() -> Vec<Metric> {
    let specjbb = Cluster::rack(Workload::specjbb());
    let config = BackupConfig::large_e_ups();
    let weibull = WeibullDuration::fit_us_business();
    let controllers = [
        AdaptiveController::new(DurationPredictor::from_distribution(
            &DurationDistribution::us_business(),
        )),
        AdaptiveController::new(DurationPredictor::from_distribution(&weibull.to_bucketed())),
    ];
    let mut simulate_ms = Vec::new();
    let mut decisions = 0;
    for controller in &controllers {
        for q in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let t0 = Instant::now();
            let outcome = controller.simulate(&specjbb, &config, weibull.quantile(q));
            simulate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            decisions += outcome.decisions.len();
        }
    }

    let mut sizing_ms = Vec::new();
    for technique in Technique::catalog().iter().filter(|t| t.name() != "Crash") {
        for duration in paper_durations() {
            dcb_core::fleet::clear_cache();
            let t0 = Instant::now();
            black_box(min_cost_ups(
                &specjbb,
                technique,
                duration,
                &SizingTargets::execute_to_plan(),
            ));
            sizing_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    let fig5_configs = [
        BackupConfig::max_perf(),
        BackupConfig::dg_small_pups(),
        BackupConfig::large_e_ups(),
        BackupConfig::no_dg(),
        BackupConfig::small_p_large_e_ups(),
        BackupConfig::min_cost(),
    ];
    let mut grid = Vec::new();
    for config in &fig5_configs {
        for duration in paper_durations() {
            for technique in Technique::catalog() {
                grid.push((config.clone(), duration, technique));
            }
        }
    }
    dcb_core::fleet::clear_cache();
    let mut evaluate_us = Vec::new();
    for (config, duration, technique) in &grid {
        let scenario = Scenario::new(&specjbb, config, technique, *duration);
        let t0 = Instant::now();
        black_box(dcb_core::fleet::evaluate_scenario(&scenario));
        evaluate_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    dcb_core::fleet::clear_cache();
    let mut run_us = Vec::new();
    for (config, duration, technique) in &grid {
        let t0 = Instant::now();
        black_box(OutageSim::new(specjbb, config.clone(), technique.clone()).run(*duration));
        run_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    vec![
        Metric::new("core.online.simulate.ms", median(&simulate_ms), "ms"),
        Metric::new("core.online.decisions", decisions as f64, "count"),
        Metric::new("core.sizing.min_cost_ups.ms", median(&sizing_ms), "ms"),
        Metric::new("core.evaluate.us", median(&evaluate_us), "us"),
        Metric::new("sim.run.us", median(&run_us), "us"),
    ]
}

/// Replays each candidate's yearly analysis step by step through
/// `FleetPool::monte_carlo`, `trial_seed`, `OutageSampler::sample_year` and
/// `OutageSim::run_trace`, timing the sampler and the trace kernel. Each
/// replay must reproduce its report's outage and state-loss counts exactly;
/// one that does not is recorded as a failed operation.
#[must_use]
pub fn yearly_replay(
    inputs: &YearlyInputs,
    reports: &[Vec<AvailabilityReport>],
    checker: &mut Checker,
) -> Vec<Metric> {
    let year = Seconds::from_hours(365.0 * 24.0);
    let (mut sample_ns, mut trace_ns, mut trials, mut outages) = (0u128, 0u128, 0usize, 0usize);
    for ((rack, &seed), frontier) in inputs.racks.iter().zip(&inputs.trial_seeds).zip(reports) {
        let replays = dcb_core::fleet::pool().run_all(&inputs.candidates, |(config, technique)| {
            let sim = OutageSim::new(*rack, config.clone(), technique.clone());
            dcb_core::fleet::pool().monte_carlo(seed, inputs.years, 0, |trial| {
                let seeded = trial.seed == trial_seed(seed, trial.index as u64);
                let t0 = Instant::now();
                let trace = OutageSampler::seeded(trial.seed).sample_year();
                let t1 = Instant::now();
                let outcome = sim.run_trace(&trace, year);
                let t2 = Instant::now();
                (
                    outcome.outcomes.len(),
                    outcome.state_losses(),
                    (t1 - t0).as_nanos(),
                    (t2 - t1).as_nanos(),
                    seeded,
                )
            })
        });
        for ((config, technique), years) in inputs.candidates.iter().zip(replays) {
            let replayed = years.iter().map(|y| y.0).sum::<usize>();
            let lost = years.iter().map(|y| y.1).sum::<usize>();
            sample_ns += years.iter().map(|y| y.2).sum::<u128>();
            trace_ns += years.iter().map(|y| y.3).sum::<u128>();
            trials += years.len();
            outages += replayed;
            let name = format!(
                "replay {} {} + {}",
                rack.workload().kind(),
                config.label(),
                technique.name()
            );
            let report = frontier
                .iter()
                .find(|r| r.config == config.label() && r.technique == technique.name());
            let outcome = match report {
                None => Err("no report to compare with".to_owned()),
                Some(_) if !years.iter().all(|y| y.4) => {
                    Err("trial seeds differ from trial_seed".to_owned())
                }
                Some(r) => {
                    let reported_losses = (r.state_loss_rate * r.outages as f64).round() as usize;
                    if r.outages == replayed && reported_losses == lost {
                        Ok(())
                    } else {
                        Err(format!(
                            "replay counted {replayed} outages / {lost} losses, \
                             analyze {} / {reported_losses}",
                            r.outages
                        ))
                    }
                }
            };
            checker.record(&name, outcome);
        }
    }
    vec![
        Metric::new(
            "sim.run_trace.ns_per_outage",
            trace_ns as f64 / outages.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "outage.sample_year.ns",
            sample_ns as f64 / trials.max(1) as f64,
            "ns",
        ),
    ]
}
