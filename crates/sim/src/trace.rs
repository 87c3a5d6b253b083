//! Simulating whole outage *traces*: back-to-back outages with partial
//! battery recharge in between.
//!
//! The per-outage evaluation of the paper assumes a fully charged battery
//! at outage start. Over a real year that is optimistic: lead-acid packs
//! recharge at ~C/10, so a second outage within a few hours of the first
//! finds a depleted battery. [`OutageSim::run_trace`] threads one
//! [`dcb_power::BackupSystem`] through every outage of a yearly trace,
//! recharging during the gaps, and aggregates availability.

use crate::{OutageSim, SimOutcome, Trajectory};
use dcb_outage::OutageTrace;
use dcb_units::{Fraction, Seconds};

/// Aggregate result of simulating a full outage trace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceOutcome {
    /// Per-outage outcomes, in trace order.
    pub outcomes: Vec<SimOutcome>,
    /// The horizon the trace covers (for availability accounting).
    pub span: Seconds,
    /// Battery wear across the whole trace, in equivalent full cycles —
    /// §2's point that rare backup duty barely wears the pack, measurable.
    pub battery_cycles: f64,
}

impl TraceOutcome {
    /// Total expected downtime across the trace.
    #[must_use]
    pub fn total_downtime(&self) -> Seconds {
        self.outcomes.iter().map(|o| o.downtime.expected).sum()
    }

    /// Number of outages in which volatile state was lost.
    #[must_use]
    pub fn state_losses(&self) -> usize {
        self.outcomes.iter().filter(|o| o.state_lost).count()
    }

    /// Number of outages the technique failed to execute to plan.
    #[must_use]
    pub fn unplanned_crashes(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.feasible).count()
    }

    /// Availability over the span: `1 − downtime/span` (clamped).
    #[must_use]
    pub fn availability(&self) -> Fraction {
        if self.span.value() <= 0.0 {
            return Fraction::ONE;
        }
        Fraction::new(1.0 - self.total_downtime().value() / self.span.value())
    }

    /// Availability expressed in "nines" (`log10` of the unavailability),
    /// the industry/Tier shorthand. Returns infinity for zero downtime.
    #[must_use]
    pub fn nines(&self) -> f64 {
        let unavailability = 1.0 - self.availability().value();
        if unavailability <= 0.0 {
            f64::INFINITY
        } else {
            -unavailability.log10()
        }
    }
}

impl OutageSim {
    /// Simulates every outage of `trace` over a horizon of `span`,
    /// recharging the battery between outages at the chemistry's rate.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    #[must_use]
    pub fn run_trace(&self, trace: &OutageTrace, span: Seconds) -> TraceOutcome {
        self.replay(trace, span, |trajectory| trajectory.outcome)
    }

    /// Like [`run_trace`](Self::run_trace), but also returns the full
    /// event-kernel [`Trajectory`] of every outage, in trace order. The
    /// aggregate outcome is assembled from exactly these trajectories, so
    /// `outcome.outcomes[i] == trajectories[i].outcome` holds identically.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    #[must_use]
    pub fn run_trace_trajectories(
        &self,
        trace: &OutageTrace,
        span: Seconds,
    ) -> (TraceOutcome, Vec<Trajectory>) {
        let mut trajectories = Vec::with_capacity(trace.len());
        let outcome = self.replay(trace, span, |trajectory| {
            let outcome = trajectory.outcome.clone();
            trajectories.push(trajectory);
            outcome
        });
        (outcome, trajectories)
    }

    /// The replay loop behind both trace entry points: threads one backup
    /// system through every outage, recharging in the gaps, and hands
    /// each outage's trajectory to `keep`, which returns its outcome.
    fn replay(
        &self,
        trace: &OutageTrace,
        span: Seconds,
        mut keep: impl FnMut(Trajectory) -> SimOutcome,
    ) -> TraceOutcome {
        assert!(span.value() > 0.0, "trace span must be positive");
        let mut backup = self.config().instantiate(self.cluster().peak_power());
        let mut outcomes = Vec::with_capacity(trace.len());
        let mut last_end = Seconds::ZERO;
        for outage in trace.outages() {
            let gap = (outage.start - last_end).max(Seconds::ZERO);
            backup.recharge_for(gap);
            // Diurnal workloads see the utilization of the hour the outage
            // strikes.
            let resolved = self.resolved_at(outage.start);
            outcomes.push(keep(
                resolved.run_with_backup_trajectory(outage.duration, &mut backup),
            ));
            last_end = outage.end();
        }
        TraceOutcome {
            outcomes,
            span,
            battery_cycles: backup.battery_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, Technique};
    use dcb_outage::Outage;
    use dcb_power::BackupConfig;
    use dcb_workload::Workload;

    const YEAR: f64 = 365.0 * 24.0 * 3600.0;

    fn sim(config: BackupConfig) -> OutageSim {
        OutageSim::new(
            Cluster::rack(Workload::specjbb()),
            config,
            Technique::ride_through(),
        )
    }

    #[test]
    fn empty_trace_is_fully_available() {
        let outcome =
            sim(BackupConfig::max_perf()).run_trace(&OutageTrace::default(), Seconds::new(YEAR));
        assert!(outcome.outcomes.is_empty());
        assert_eq!(outcome.availability(), Fraction::ONE);
        assert!(outcome.nines().is_infinite());
    }

    #[test]
    fn well_separated_outages_all_ride_through() {
        let trace = OutageTrace::new(vec![
            Outage {
                start: Seconds::from_hours(100.0),
                duration: Seconds::from_minutes(1.0),
            },
            Outage {
                start: Seconds::from_hours(500.0),
                duration: Seconds::from_minutes(1.5),
            },
        ]);
        let outcome = sim(BackupConfig::no_dg()).run_trace(&trace, Seconds::new(YEAR));
        assert_eq!(outcome.state_losses(), 0);
        assert_eq!(outcome.total_downtime(), Seconds::ZERO);
    }

    #[test]
    fn back_to_back_outage_finds_depleted_battery() {
        // First outage drains most of the 2-minute battery; a second outage
        // ten minutes later (recharge restores ~0.2% of charge) crashes the
        // cluster even though the same outage in isolation would ride
        // through.
        let trace = OutageTrace::new(vec![
            Outage {
                start: Seconds::ZERO,
                duration: Seconds::from_minutes(1.8),
            },
            Outage {
                start: Seconds::from_minutes(12.0),
                duration: Seconds::from_minutes(1.8),
            },
        ]);
        let s = sim(BackupConfig::no_dg());
        let outcome = s.run_trace(&trace, Seconds::new(YEAR));
        assert!(outcome.outcomes[0].feasible, "first outage must survive");
        assert!(
            !outcome.outcomes[1].feasible,
            "second outage should crash on a drained battery"
        );
        // In isolation the second outage would have been fine.
        assert!(s.run(Seconds::from_minutes(1.8)).feasible);
    }

    #[test]
    fn long_gap_restores_the_battery() {
        let trace = OutageTrace::new(vec![
            Outage {
                start: Seconds::ZERO,
                duration: Seconds::from_minutes(1.8),
            },
            Outage {
                start: Seconds::from_hours(30.0),
                duration: Seconds::from_minutes(1.8),
            },
        ]);
        let outcome = sim(BackupConfig::no_dg()).run_trace(&trace, Seconds::new(YEAR));
        assert!(outcome.outcomes.iter().all(|o| o.feasible));
    }

    #[test]
    fn yearly_wear_is_negligible() {
        // §2: "issues such as battery wear due to rare outages are less
        // important" — a year of Figure-1 outages costs only a few cycles.
        let mut sampler = dcb_outage::OutageSampler::seeded(5);
        let s = sim(BackupConfig::no_dg());
        let mut worst: f64 = 0.0;
        for trace in sampler.sample_years(50) {
            let outcome = s.run_trace(&trace, Seconds::new(YEAR));
            worst = worst.max(outcome.battery_cycles);
        }
        assert!(worst < 15.0, "worst yearly cycles {worst}");
    }

    #[test]
    fn trace_outcomes_are_exactly_the_trajectory_outcomes() {
        let trace = OutageTrace::new(vec![
            Outage {
                start: Seconds::ZERO,
                duration: Seconds::from_minutes(1.8),
            },
            Outage {
                start: Seconds::from_minutes(12.0),
                duration: Seconds::from_minutes(1.8),
            },
            Outage {
                start: Seconds::from_hours(40.0),
                duration: Seconds::from_minutes(30.0),
            },
        ]);
        let s = sim(BackupConfig::no_dg());
        let (outcome, trajectories) = s.run_trace_trajectories(&trace, Seconds::new(YEAR));
        assert_eq!(outcome.outcomes.len(), trajectories.len());
        for (o, t) in outcome.outcomes.iter().zip(&trajectories) {
            assert_eq!(*o, t.outcome, "trace outcome drifted from trajectory");
            // The outcome's integrals reconstruct exactly from segments.
            let served = t.served_seconds();
            assert!(
                (served - o.perf_during_outage.value() * o.outage.value()).abs()
                    < 1e-9 * o.outage.value().max(1.0),
                "served {served} vs outcome"
            );
            assert!((t.downtime_seconds() - o.downtime_during_outage.value()).abs() < 1e-9);
        }
        // And the plain run_trace is the same computation.
        assert_eq!(s.run_trace(&trace, Seconds::new(YEAR)), outcome);
    }

    #[test]
    fn diurnal_trace_resolves_each_outage_at_its_start() {
        // Outages a day and a half apart find a recharged battery, so each
        // replays as an isolated outage at its own hour (the energy and
        // peak accounting alone accumulate across the trace).
        use dcb_workload::LoadProfile;
        let workload =
            Workload::specjbb().with_load_profile(LoadProfile::typical_diurnal(Fraction::new(0.9)));
        let s = OutageSim::new(
            Cluster::rack(workload),
            BackupConfig::no_dg(),
            Technique::ride_through(),
        );
        let outages = [
            Outage {
                start: Seconds::from_hours(8.0),
                duration: Seconds::from_minutes(3.0),
            },
            Outage {
                start: Seconds::from_hours(44.0),
                duration: Seconds::from_minutes(3.0),
            },
        ];
        let outcome = s.run_trace(&OutageTrace::new(outages.to_vec()), Seconds::new(YEAR));
        for (o, outage) in outcome.outcomes.iter().zip(&outages) {
            let isolated = s.run_at(outage.start, outage.duration);
            assert_eq!(o.feasible, isolated.feasible);
            assert_eq!(o.perf_during_outage, isolated.perf_during_outage);
            assert_eq!(o.downtime, isolated.downtime);
        }
        // The 8 am trough rides through; the 8 pm peak does not.
        assert!(outcome.outcomes[0].feasible && !outcome.outcomes[1].feasible);
    }

    #[test]
    fn availability_accounts_downtime() {
        let trace = OutageTrace::new(vec![Outage {
            start: Seconds::from_hours(10.0),
            duration: Seconds::from_minutes(30.0),
        }]);
        let outcome = OutageSim::new(
            Cluster::rack(Workload::specjbb()),
            BackupConfig::min_cost(),
            Technique::crash(),
        )
        .run_trace(&trace, Seconds::new(YEAR));
        assert!(outcome.availability() < Fraction::ONE);
        assert!(
            outcome.nines() > 2.0 && outcome.nines() < 5.0,
            "{}",
            outcome.nines()
        );
        assert_eq!(outcome.state_losses(), 1);
    }
}
