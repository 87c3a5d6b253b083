//! Absolute benchmark of the dcbackup reproduction.
//!
//! One command per workload runs closed-loop passes (one client; each pass
//! starts when the previous one ends) in a single process, with the fleet
//! pool at its default size capped at two workers. With `--trace 0` it
//! reports host-time end-to-end metrics; with `--trace 1` it reports
//! per-layer metrics measured from benchmark-side spans around calls into
//! each crate's public functions, probes of each layer on the workload's
//! own inputs, and the program's own telemetry counters. See `README.md`.

pub mod check;
pub mod inputs;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

/// Highest fleet worker count the benchmark runs with.
pub const MAX_THREADS: usize = 2;

/// Caps the fleet pool at [`MAX_THREADS`] workers unless `DCB_THREADS`
/// already chooses a count. Must run before any pool is created.
pub fn cap_threads() {
    let chosen = std::env::var("DCB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .is_some_and(|threads| threads > 0);
    if !chosen {
        let threads = dcb_fleet::FleetPool::new().threads().min(MAX_THREADS);
        std::env::set_var("DCB_THREADS", threads.to_string());
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as BENCHMARK.json lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as BENCHMARK.json lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A measured metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
