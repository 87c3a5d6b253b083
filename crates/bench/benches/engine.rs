//! Engine benchmark: the fixed-step oracle against the event-driven
//! kernel on the workloads that dominate reproduction time — the Figure-5
//! sweep grid and a Monte-Carlo batch of hour-scale outages.
//!
//! It runs one repetition over 40 Monte-Carlo scenarios, appends one
//! `"mode": "smoke"` line with the speedups to `BENCH_history.jsonl` at
//! the workspace root, and fails if the kernel is not at least 5× faster
//! than the stepper.
//!
//! Run with `cargo bench -p dcb-bench --bench engine`.

use dcb_core::evaluate::paper_durations;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, OutageSim, Technique};
use dcb_units::Seconds;
use dcb_workload::Workload;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Implementation generation stamped into every history line.
/// `engine-v3` runs the kernel as a segment loop and the stepper as a
/// plain fixed-step loop; `engine-v2` ran both on the `dcb-engine`
/// component core, so its ratios are not comparable; entries without a
/// tag predate that core and ran the monolithic event loop.
const BENCH_TAG: &str = "engine-v3";

/// One (simulator, outage duration) pair to run both ways.
struct Scenario {
    sim: OutageSim,
    outage: Seconds,
}

/// The Figure-5 grid: six highlighted configurations × the five paper
/// durations × the full technique catalog.
fn fig5_scenarios() -> Vec<Scenario> {
    let cluster = Cluster::rack(Workload::specjbb());
    let configs = [
        BackupConfig::max_perf(),
        BackupConfig::dg_small_pups(),
        BackupConfig::large_e_ups(),
        BackupConfig::no_dg(),
        BackupConfig::small_p_large_e_ups(),
        BackupConfig::min_cost(),
    ];
    let mut scenarios = Vec::new();
    for config in &configs {
        for &outage in &paper_durations() {
            for technique in Technique::catalog() {
                scenarios.push(Scenario {
                    sim: OutageSim::new(cluster, config.clone(), technique),
                    outage,
                });
            }
        }
    }
    scenarios
}

/// A Monte-Carlo batch of hour-scale outages: random Table-3 config,
/// random technique, random duration in [1 h, 2 h]. Seeded xorshift so
/// the batch is identical across runs.
fn monte_carlo_scenarios(count: usize) -> Vec<Scenario> {
    let cluster = Cluster::rack(Workload::specjbb());
    let configs = BackupConfig::table3();
    let techniques = Technique::catalog();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let config = configs[(next() as usize) % configs.len()].clone();
            let technique = techniques[(next() as usize) % techniques.len()].clone();
            let outage = Seconds::new(3600.0 + 3600.0 * (next() as f64 / u64::MAX as f64));
            Scenario {
                sim: OutageSim::new(cluster, config, technique),
                outage,
            }
        })
        .collect()
}

/// Wall time of running every scenario through `f` once.
fn time_scenarios(scenarios: &[Scenario], f: impl Fn(&Scenario)) -> f64 {
    let start = Instant::now();
    for s in scenarios {
        f(s);
    }
    start.elapsed().as_secs_f64()
}

struct Measurement {
    name: &'static str,
    scenarios: usize,
    stepped_s: f64,
    kernel_s: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.stepped_s / self.kernel_s.max(1e-12)
    }
}

fn measure(name: &'static str, scenarios: &[Scenario]) -> Measurement {
    // Warm-up pass, and a cheap differential check while we are at it:
    // the two solvers must agree on feasibility or the timing is moot.
    for s in scenarios {
        let kernel = s.sim.run(s.outage);
        let stepped = s.sim.run_stepped(s.outage);
        assert_eq!(
            kernel.feasible, stepped.feasible,
            "solvers disagree on {name}; benchmark numbers would be meaningless"
        );
    }
    let stepped_s = time_scenarios(scenarios, |s| {
        black_box(s.sim.run_stepped(s.outage));
    });
    let kernel_s = time_scenarios(scenarios, |s| {
        black_box(s.sim.run(s.outage));
    });
    Measurement {
        name,
        scenarios: scenarios.len(),
        stepped_s,
        kernel_s,
    }
}

/// One-line JSONL record for `BENCH_history.jsonl`: enough to trend the
/// speedup floor across commits.
fn render_history_line(measurements: &[Measurement], min_speedup: f64) -> String {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let workloads: Vec<String> = measurements
        .iter()
        .map(|m| format!("{{\"name\": \"{}\", \"speedup\": {}}}", m.name, m.speedup()))
        .collect();
    format!(
        "{{\"bench\": \"engine\", \"tag\": \"{BENCH_TAG}\", \"unix_s\": {unix_s}, \"mode\": \"smoke\", \"min_speedup\": {min_speedup}, \"workloads\": [{}]}}\n",
        workloads.join(", ")
    )
}

fn main() {
    // The timed sections must measure disabled-mode cost (one branch per
    // record site), whatever the environment says.
    dcb_telemetry::set_enabled(false);

    let fig5 = fig5_scenarios();
    let monte = monte_carlo_scenarios(40);
    let measurements = [
        measure("fig5_sweep", &fig5),
        measure("two_hour_monte_carlo", &monte),
    ];
    for m in &measurements {
        println!(
            "engine/{}: {} scenarios, stepped {:.3} s, kernel {:.3} s, speedup {:.1}x",
            m.name,
            m.scenarios,
            m.stepped_s,
            m.kernel_s,
            m.speedup()
        );
    }
    let min_speedup = measurements
        .iter()
        .map(Measurement::speedup)
        .fold(f64::INFINITY, f64::min);

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let root = match root.canonicalize() {
        Ok(resolved) => resolved,
        Err(_) => root,
    };
    let history_path = root.join("BENCH_history.jsonl");
    let line = render_history_line(&measurements, min_speedup);
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&history_path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, line.as_bytes()));
    match appended {
        Ok(()) => println!("appended {}", history_path.display()),
        Err(err) => {
            eprintln!("could not append {}: {err}", history_path.display());
            std::process::exit(1);
        }
    }

    assert!(
        min_speedup >= 5.0,
        "kernel must be at least 5x faster than the stepper, got {min_speedup:.1}x"
    );
}
