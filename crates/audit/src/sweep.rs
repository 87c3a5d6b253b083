//! Dynamic contract sweep: force-enable the `dcb-units` model contracts
//! and replay the paper's evaluation surface — the Table 3 configuration
//! grid and the Figure 5/6 technique sweeps — so every battery, power
//! source, availability, and cost invariant is exercised even in release
//! builds (where `debug_assert`-style checks are normally compiled out).
//!
//! A contract violation panics with its message (non-zero exit from the
//! CLI); a clean pass reports how many checks actually ran, so "no
//! violations" can be distinguished from "nothing was checked".

use dcb_core::availability::analyze;
use dcb_core::cost::CostModel;
use dcb_core::evaluate::{paper_durations, sweep_configs, sweep_techniques};
use dcb_core::{fleet, BackupConfig, Cluster, Technique};
use dcb_units::contracts;
use dcb_workload::Workload;
use std::fmt::Write as _;

/// Sampled years per availability candidate: enough to exercise the
/// multi-outage paths without dominating the sweep's runtime.
const AVAILABILITY_YEARS: usize = 50;

/// What the sweep ran and what it observed.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Rows in the Table 3 configuration × duration grid (Figure 5).
    pub grid_points: usize,
    /// Rows in the per-technique sweep (Figure 6).
    pub technique_points: usize,
    /// Monte-Carlo availability candidates analyzed.
    pub availability_candidates: usize,
    /// Model contracts evaluated during the replay.
    pub contract_checks: u64,
    /// Shared evaluation-cache hits after the sweep.
    pub cache_hits: u64,
    /// Shared evaluation-cache misses after the sweep.
    pub cache_misses: u64,
    /// Cross-checks that failed (empty on a clean pass).
    pub problems: Vec<String>,
}

impl SweepSummary {
    /// Whether the sweep passed: contracts were actually evaluated and no
    /// cross-check failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.contract_checks > 0
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "contract sweep: {} grid points (Table 3 × durations), {} technique points, {} availability candidates ({AVAILABILITY_YEARS} sampled years each)",
            self.grid_points, self.technique_points, self.availability_candidates,
        );
        let _ = writeln!(
            out,
            "model contracts evaluated: {} (cache: {} hits / {} misses)",
            self.contract_checks, self.cache_hits, self.cache_misses,
        );
        if self.passed() {
            out.push_str("sweep clean: every contract held\n");
        } else if self.contract_checks == 0 {
            out.push_str("SWEEP FAILED: no contracts were evaluated (force-enable broken?)\n");
        } else {
            for p in &self.problems {
                let _ = writeln!(out, "SWEEP PROBLEM: {p}");
            }
        }
        out
    }
}

/// Runs the full sweep. Contract violations panic (by design); modelling
/// cross-checks that fail are collected into `problems`.
#[must_use]
pub fn run() -> SweepSummary {
    contracts::force_enable();
    let checks_before = contracts::checked_count();
    let mut problems = Vec::new();

    let cluster = Cluster::rack(Workload::specjbb());
    let configs = BackupConfig::table3();
    let durations = paper_durations();
    let catalog = Technique::catalog();

    // Figure 5 surface: best technique per Table 3 configuration ×
    // duration, every candidate simulated under contracts.
    let grid = sweep_configs(&cluster, &configs, &durations, &catalog);
    for p in &grid {
        let perf = p.outcome.perf_during_outage.value();
        if !(0.0..=1.0).contains(&perf) {
            problems.push(format!(
                "{} / {}: perf {perf} outside [0, 1]",
                p.config, p.technique
            ));
        }
        if !(p.cost >= 0.0 && p.cost.is_finite()) {
            problems.push(format!(
                "{} / {}: normalized cost {} not finite and non-negative",
                p.config, p.technique, p.cost
            ));
        }
    }

    // Figure 6 surface: every technique against a fixed mid-grid backup.
    let techniques = sweep_techniques(&cluster, &BackupConfig::no_dg(), &durations, &catalog);

    // Availability layer: Monte-Carlo yearly analysis on a cheap, a
    // mid-range, and today's configuration.
    let candidates = [
        (BackupConfig::min_cost(), Technique::crash()),
        (BackupConfig::no_dg(), Technique::ride_through()),
        (BackupConfig::max_perf(), Technique::ride_through()),
    ];
    for (config, technique) in &candidates {
        let report = analyze(&cluster, config, technique, AVAILABILITY_YEARS, 11);
        if !(0.0..=1.0).contains(&report.state_loss_rate) {
            problems.push(format!(
                "{} / {}: state-loss rate {} outside [0, 1]",
                config.label(),
                technique.name(),
                report.state_loss_rate
            ));
        }
    }

    // Cost layer: the normalizer must map today's practice to exactly 1.
    if !CostModel::paper().normalizer().is_idempotent() {
        problems.push("cost normalizer is not idempotent (MaxPerf != 1.0)".to_owned());
    }

    let stats = fleet::cache_stats();
    SweepSummary {
        grid_points: grid.len(),
        technique_points: techniques.len(),
        availability_candidates: candidates.len(),
        contract_checks: contracts::checked_count() - checks_before,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts EXPERIMENTS.md quotes. They are exact: the sweep is
    /// seeded and deterministic, and so are the shared cache's hits and
    /// misses at any `DCB_THREADS`.
    #[test]
    fn sweep_passes_and_counts_checks() {
        let summary = run();
        assert!(summary.passed(), "{}", summary.render());
        assert_eq!(summary.grid_points, 9 * 5, "{}", summary.render());
        assert_eq!(summary.technique_points, 13 * 5, "{}", summary.render());
        assert_eq!(summary.availability_candidates, 3);
        assert_eq!(summary.contract_checks, 37_585, "{}", summary.render());
        assert_eq!(
            (summary.cache_hits, summary.cache_misses),
            (65, 585),
            "{}",
            summary.render()
        );
        assert!(summary.render().contains("sweep clean"));
    }
}
