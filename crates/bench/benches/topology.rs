//! Topology benchmark: flat (fully expanded) against aggregated
//! (digest-collapsed) resolution of uniform datacenters at 1k and 100k
//! racks. Aggregation is the whole point of `dcb-topology` — a facility
//! resolves in a handful of node-steps instead of one per rack — so this
//! harness records the speedup and fails if it ever drops below 10×.
//!
//! Like the engine harness it *records* its numbers: `BENCH_topology.json`
//! at the workspace root holds the latest run, and one tagged line is
//! appended to `BENCH_history.jsonl` (`"bench": "topology"`) so CI can
//! trend the floor. `DCB_TOPOLOGY_BENCH_SMOKE=1` drops to a single
//! repetition for the CI smoke stage.
//!
//! Run with `cargo bench -p dcb-bench --bench topology`.

use dcb_fleet::FleetPool;
use dcb_power::BackupConfig;
use dcb_sim::Technique;
use dcb_topology::{resolve_with_evaluator, Aggregation, KernelEvaluator, Topology};
use dcb_units::Seconds;
use dcb_workload::Workload;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One facility to resolve both ways over a fixed outage.
struct Scenario {
    name: &'static str,
    topology: Topology,
    racks: u64,
    outage: Seconds,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "dc_1k_racks",
            topology: Topology::uniform(
                10,
                100,
                Workload::web_search(),
                BackupConfig::dg_small_pups(),
                Technique::sleep(),
            ),
            racks: 1_000,
            outage: Seconds::from_minutes(30.0),
        },
        Scenario {
            name: "dc_100k_racks",
            topology: Topology::uniform(
                100,
                1000,
                Workload::specjbb(),
                BackupConfig::max_perf(),
                Technique::ride_through(),
            ),
            racks: 100_000,
            outage: Seconds::from_minutes(30.0),
        },
    ]
}

/// Mean wall time per repetition of resolving the scenario with `mode`.
fn time_resolve(s: &Scenario, pool: &FleetPool, mode: Aggregation, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(
            resolve_with_evaluator(&s.topology, s.outage, pool, mode, &KernelEvaluator)
                .expect("resolves"),
        );
    }
    start.elapsed().as_secs_f64() / reps as f64
}

struct Measurement {
    name: &'static str,
    racks: u64,
    resolved_nodes: u64,
    flat_s: f64,
    aggregated_s: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.flat_s / self.aggregated_s.max(1e-12)
    }
}

fn measure(s: &Scenario, pool: &FleetPool, reps: usize) -> Measurement {
    // Warm-up pass doubling as a differential check: both modes must agree
    // on the blended aggregate or the timing is meaningless.
    let resolve = |mode| {
        resolve_with_evaluator(&s.topology, s.outage, pool, mode, &KernelEvaluator)
            .expect("resolves")
    };
    let aggregated = resolve(Aggregation::Collapsed);
    let flat = resolve(Aggregation::Flat);
    assert_eq!(
        aggregated.aggregate.feasible, flat.aggregate.feasible,
        "modes disagree on {}; benchmark numbers would be meaningless",
        s.name
    );
    assert_eq!(aggregated.aggregate.downtime, flat.aggregate.downtime);
    let rel = (aggregated.aggregate.energy.value() - flat.aggregate.energy.value()).abs()
        / flat.aggregate.energy.value().max(1e-12);
    assert!(
        rel < 1e-9,
        "modes disagree on blended energy for {}",
        s.name
    );

    let flat_s = time_resolve(s, pool, Aggregation::Flat, reps);
    let aggregated_s = time_resolve(s, pool, Aggregation::Collapsed, reps);
    Measurement {
        name: s.name,
        racks: s.racks,
        resolved_nodes: aggregated.stats.resolved_nodes,
        flat_s,
        aggregated_s,
    }
}

fn render_json(mode: &str, measurements: &[Measurement], min_speedup: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"topology\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"facilities\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"racks\": {}, \"resolved_nodes\": {}, \"flat_s\": {}, \"aggregated_s\": {}, \"speedup\": {}}}{}\n",
            m.name,
            m.racks,
            m.resolved_nodes,
            m.flat_s,
            m.aggregated_s,
            m.speedup(),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"min_speedup\": {min_speedup}\n"));
    out.push_str("}\n");
    out
}

/// One-line JSONL record for `BENCH_history.jsonl`, tagged with the bench
/// name so per-bench floors can be greped out of the shared log.
fn render_history_line(mode: &str, measurements: &[Measurement], min_speedup: f64) -> String {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let facilities: Vec<String> = measurements
        .iter()
        .map(|m| format!("{{\"name\": \"{}\", \"speedup\": {}}}", m.name, m.speedup()))
        .collect();
    format!(
        "{{\"bench\": \"topology\", \"unix_s\": {unix_s}, \"mode\": \"{mode}\", \"min_speedup\": {min_speedup}, \"facilities\": [{}]}}\n",
        facilities.join(", ")
    )
}

fn main() {
    dcb_telemetry::set_enabled(false);
    let smoke = std::env::var("DCB_TOPOLOGY_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (mode, reps) = if smoke { ("smoke", 1) } else { ("full", 5) };

    let pool = FleetPool::new();
    let measurements: Vec<Measurement> = scenarios()
        .iter()
        .map(|s| measure(s, &pool, reps))
        .collect();
    for m in &measurements {
        println!(
            "topology/{}: {} racks -> {} node-steps, flat {:.4} s, aggregated {:.4} s, speedup {:.1}x",
            m.name,
            m.racks,
            m.resolved_nodes,
            m.flat_s,
            m.aggregated_s,
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
    let path = root.join("BENCH_topology.json");
    let json = render_json(mode, &measurements, min_speedup);
    if let Err(err) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {err}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    let history_path = root.join("BENCH_history.jsonl");
    let line = render_history_line(mode, &measurements, min_speedup);
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
        min_speedup >= 10.0,
        "aggregated resolution must be at least 10x faster than flat, got {min_speedup:.1}x"
    );
}
