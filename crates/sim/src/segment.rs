//! Piecewise-constant trajectory segments produced by the event-driven
//! kernel.
//!
//! Between events the cluster's mode — and therefore its load and
//! normalized throughput rate — is constant, so one outage resolves to a
//! short list of [`Segment`]s instead of thousands of steps. The segment
//! list is the kernel's ground truth: every metric in
//! [`SimOutcome`](crate::SimOutcome) is an exact integral over it, and
//! [`Trajectory::validate`] re-checks those integrals as model contracts.

use crate::SimOutcome;
use dcb_units::{contract, Seconds, Watts};

/// Why a segment ended — the event taxonomy of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SegmentEnd {
    /// Utility power returned.
    OutageEnd,
    /// A mode-internal timer expired (sleep entered, save finished,
    /// migration completed, recovery booted).
    TimerExpired,
    /// A live migration switched from its copy phase to the stop-and-copy
    /// pause.
    MigrationPause,
    /// The UPS battery ran dry mid-segment.
    BatteryDepleted,
    /// The load exceeded what the backup could deliver at this instant.
    SupplyOverload,
    /// The DG ramped far enough to carry the unthrottled load: throttling
    /// ends.
    DgCrossover,
    /// The latest safe instant to switch to the hybrid fallback arrived.
    HybridFallback,
    /// A crashed cluster found enough backup power to reboot mid-outage.
    RecoveryPower,
}

/// One constant-mode span of an outage trajectory.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Segment {
    /// Outage time at which the span begins.
    pub start: Seconds,
    /// Outage time at which the span ends.
    pub end: Seconds,
    /// Load drawn from the backup system during the span (IT + UPS tare).
    pub load: Watts,
    /// Normalized throughput rate delivered during the span (0..=1).
    pub throughput: f64,
    /// Whether the span counts toward in-outage downtime.
    pub in_downtime: bool,
    /// The event that ended the span.
    pub ended_by: SegmentEnd,
}

impl Segment {
    /// Span length.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Normalized throughput-seconds delivered over the span.
    #[must_use]
    pub fn throughput_seconds(&self) -> f64 {
        self.throughput * self.duration().value()
    }
}

impl SegmentEnd {
    /// Stable snake_case name: the end cause of trace segment events and
    /// the name of the kernel's per-cause profiler frames.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::OutageEnd => "outage_end",
            Self::TimerExpired => "timer_expired",
            Self::MigrationPause => "migration_pause",
            Self::BatteryDepleted => "battery_depleted",
            Self::SupplyOverload => "supply_overload",
            Self::DgCrossover => "dg_crossover",
            Self::HybridFallback => "hybrid_fallback",
            Self::RecoveryPower => "recovery_power",
        }
    }
}

/// A full outage trajectory: the ordered segment list plus the outcome
/// assembled from it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Trajectory {
    /// Constant-mode spans in time order, tiling `[0, outage]`.
    pub segments: Vec<Segment>,
    /// The outcome integrated from the segments.
    pub outcome: SimOutcome,
}

impl Trajectory {
    /// Checks the kernel's structural invariants: non-negative durations,
    /// monotone contiguous event times covering the whole outage, bounded
    /// throughput rates, and segment integrals that reproduce the
    /// outcome's performance and in-outage downtime.
    ///
    /// All checks are `contract!`s: free in release unless the contracts
    /// layer is force-enabled (`dcb-audit sweep`).
    pub fn validate(&self) {
        let mut cursor = Seconds::ZERO;
        for seg in &self.segments {
            contract!(
                seg.duration().value() >= 0.0,
                "segment duration negative: {} -> {}",
                seg.start,
                seg.end
            );
            contract!(
                (seg.start - cursor).value().abs() < 1e-6,
                "segment start {} does not continue from {cursor}",
                seg.start
            );
            contract!(
                (0.0..=1.0 + 1e-9).contains(&seg.throughput),
                "segment throughput {} outside [0, 1]",
                seg.throughput
            );
            contract!(
                seg.load.value() >= 0.0,
                "segment load negative: {}",
                seg.load
            );
            cursor = seg.end;
        }
        contract!(
            (cursor - self.outcome.outage).value().abs() < 1e-6,
            "segments cover {cursor}, outage is {}",
            self.outcome.outage
        );
        let served = self.served_seconds();
        let expected = self.outcome.perf_during_outage.value() * self.outcome.outage.value();
        contract!(
            (served - expected).abs() < 1e-6 * expected.max(1.0),
            "segment throughput integral {served} disagrees with outcome {expected}"
        );
        let down = self.downtime_seconds();
        contract!(
            (down - self.outcome.downtime_during_outage.value()).abs() < 1e-6,
            "segment downtime integral {down} disagrees with outcome {}",
            self.outcome.downtime_during_outage
        );
    }

    /// Normalized throughput-seconds served, recomputed from the segments
    /// alone (equals `perf_during_outage × outage`).
    #[must_use]
    pub fn served_seconds(&self) -> f64 {
        self.segments.iter().map(Segment::throughput_seconds).sum()
    }

    /// In-outage downtime, recomputed from the segments alone.
    #[must_use]
    pub fn downtime_seconds(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.in_downtime)
            .map(|s| s.duration().value())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FinalState;
    use dcb_units::{Fraction, WattHours};
    use dcb_workload::DowntimeRange;

    fn sample() -> Trajectory {
        let outage = Seconds::new(100.0);
        let segments = vec![
            Segment {
                start: Seconds::ZERO,
                end: Seconds::new(62.5),
                load: Watts::new(4000.0),
                throughput: 1.0,
                in_downtime: false,
                ended_by: SegmentEnd::BatteryDepleted,
            },
            Segment {
                start: Seconds::new(62.5),
                end: outage,
                load: Watts::ZERO,
                throughput: 0.0,
                in_downtime: true,
                ended_by: SegmentEnd::OutageEnd,
            },
        ];
        let outcome = SimOutcome {
            outage,
            feasible: false,
            state_lost: true,
            peak_power: Watts::new(4000.0),
            peak_power_fraction: Fraction::new(1.0),
            energy: WattHours::new(4000.0 * 62.5 / 3600.0),
            perf_during_outage: Fraction::new(0.625),
            downtime: DowntimeRange {
                min: Seconds::new(400.0),
                expected: Seconds::new(437.5),
                max: Seconds::new(500.0),
            },
            downtime_during_outage: Seconds::new(37.5),
            final_state: FinalState::Crashed,
        };
        Trajectory { segments, outcome }
    }

    #[test]
    fn validate_accepts_a_consistent_trajectory() {
        sample().validate();
    }

    #[test]
    #[should_panic(expected = "segments cover")]
    fn validate_rejects_a_coverage_gap() {
        // Forced on, so a release test run checks too.
        dcb_units::contracts::force_enable();
        let mut t = sample();
        t.segments.pop();
        t.validate();
    }

    #[test]
    #[should_panic(expected = "throughput integral")]
    fn validate_rejects_a_wrong_throughput_integral() {
        dcb_units::contracts::force_enable();
        let mut t = sample();
        t.segments[0].throughput = 0.5;
        t.validate();
    }
}
