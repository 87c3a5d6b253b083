//! The untraced run: set-up, then closed-loop timed passes, reported as
//! end-to-end host-time metrics.

use crate::check::Checker;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mib, tail};
use crate::workloads::{Bench, Workload};
use crate::Metric;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Each generates the inputs
/// from the seed and runs one untimed warm-up pass; the first also covers
/// process start-up and one-time initialisation.
pub const SETUPS: usize = 5;

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct TimedRun {
    /// Wall time of each set-up, in seconds.
    pub setups: Vec<f64>,
    /// Wall time of each timed pass, in seconds.
    pub passes: Vec<f64>,
    /// Outages one pass simulates (yearly only; fixed by the seed).
    pub outages_per_pass: usize,
    /// Output checks over every pass, warm-ups included.
    pub checker: Checker,
}

/// Sets up [`SETUPS`] times, then runs timed passes until `seconds` have
/// elapsed (at least one). `started` is when the process started.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, started: Instant) -> TimedRun {
    let off = Tracer::off();
    let mut checker = Checker::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { started } else { Instant::now() };
        let b = Bench::new(workload, seed);
        let warm = b.pass(&off);
        setups.push(t0.elapsed().as_secs_f64());
        checker.observe(&warm.into_ops(&b.inputs));
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let mut passes = Vec::new();
    let mut outages_per_pass = 0;
    let budget = Duration::from_secs_f64(seconds);
    let loop_start = Instant::now();
    while passes.is_empty() || loop_start.elapsed() < budget {
        let t0 = Instant::now();
        let output = bench.pass(&off);
        let took = t0.elapsed().as_secs_f64();
        passes.push(took);
        outages_per_pass = output.outages();
        checker.observe(&output.into_ops(&bench.inputs));
    }
    TimedRun {
        setups,
        passes,
        outages_per_pass,
        checker,
    }
}

impl TimedRun {
    /// The end-to-end metrics BENCHMARK.json lists, in its order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setups), "s"),
            Metric::new("pass_s.p50", median(&self.passes), "s"),
            Metric::new("pass_s.tail", tail(&self.passes).value, "s"),
            Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB"),
        ]
    }

    /// Human-readable report lines: every metric with its unit, the tail's
    /// rank and sample count, the error rate and the output digest.
    #[must_use]
    pub fn report(&self, workload: Workload) -> Vec<String> {
        let metrics = self.metrics();
        let t = tail(&self.passes);
        let (digest, bytes) = self.checker.pass_digest();
        let mut lines = vec![
            format!(
                "setup_s = {:.6} s (median of {} set-ups)",
                metrics[0].value,
                self.setups.len()
            ),
            format!(
                "pass_s.p50 = {:.6} s ({} passes)",
                metrics[1].value,
                self.passes.len()
            ),
            format!(
                "pass_s.tail = {:.6} s (p{:.1}, {} passes)",
                t.value, t.percentile, t.samples
            ),
            format!("peak_rss_mb = {:.2} MiB", metrics[3].value),
            format!(
                "error_rate = {} ({} failed / {} attempted operations)",
                self.checker.error_rate(),
                self.checker.failed,
                self.checker.attempted
            ),
        ];
        if workload == Workload::YearlyAvailability {
            let rates: Vec<f64> = self
                .passes
                .iter()
                .map(|took| self.outages_per_pass as f64 / took)
                .collect();
            lines.push(format!(
                "outages_per_s = {:.0} 1/s (median over passes; {} outages per pass)",
                median(&rates),
                self.outages_per_pass
            ));
        }
        lines.push(format!(
            "output_digest = {digest:032x} ({bytes} bytes per pass)"
        ));
        lines
    }
}
