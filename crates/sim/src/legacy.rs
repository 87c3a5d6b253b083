//! The original hand-rolled kernel loop, kept as a bit-identity oracle
//! for the engine-hosted components.
//!
//! This is the event loop that `crates/sim/kernel.rs` contained before
//! the `dcb-engine` extraction: one function owning the calendar (a
//! candidate `Vec` re-built each iteration), the tie-breaking scan, the
//! hard-event window, the located-event searches, the segment commit, and
//! the transition dispatch. The componentized kernel in
//! [`components`](crate::components) must reproduce it exactly — every
//! floating-point operation in the same order — and the differential
//! suite (`tests/componentized.rs`) asserts bit-identical trajectories
//! over the full Table-3 × technique × duration grid. The located
//! searches of a serving cluster are one rule both hosts call
//! ([`OutageSim::locate_serving_events`]); the loop around them is the
//! original. Production callers use
//! [`OutageSim::run`](crate::OutageSim::run); once the oracle has
//! outlived its usefulness this module is the one to delete.

use crate::engine::{Mode, OutageSim, RunState};
use crate::kernel::{trace_dg_milestones, Pending, MAX_EVENTS};
use crate::segment::{Segment, SegmentEnd, Trajectory};
use dcb_engine::locate::first_true;
use dcb_power::BackupSystem;
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{contract, Fraction, Seconds};

impl OutageSim {
    /// Runs the legacy hand-rolled event loop against a fresh backup
    /// system. Oracle counterpart of
    /// [`OutageSim::run_trajectory`](crate::OutageSim::run_trajectory).
    #[must_use]
    pub fn run_trajectory_legacy(&self, outage: Seconds) -> Trajectory {
        let mut backup = self.config().instantiate(self.cluster().peak_power());
        self.run_with_backup_trajectory_legacy(outage, &mut backup)
    }

    /// Runs the legacy hand-rolled event loop against an existing backup
    /// system. Oracle counterpart of
    /// [`OutageSim::run_with_backup_trajectory`](crate::OutageSim::run_with_backup_trajectory).
    ///
    /// # Panics
    ///
    /// Panics if `outage` is negative or non-finite.
    #[must_use]
    pub fn run_with_backup_trajectory_legacy(
        &self,
        outage: Seconds,
        backup: &mut BackupSystem,
    ) -> Trajectory {
        assert!(
            outage.value() >= 0.0 && outage.is_finite(),
            "outage must be finite and non-negative"
        );
        // Root trace event for this scenario plus the DG ramp milestones,
        // which are a pure function of time and can be emitted up front.
        let t_root = if dcb_trace::enabled() {
            let root = dcb_trace::instant(Some(0), None, || dcb_trace::EventKind::OutageStart {
                config: self.config().label().to_owned(),
                technique: self.technique().name().to_owned(),
                outage_us: dcb_trace::micros(outage),
            });
            trace_dg_milestones(backup, outage, root);
            root
        } else {
            None
        };

        let transitions = TransitionTimes::new(*self.cluster().spec());
        let (mode, state_lost) = self.initial_mode(&transitions);
        let mut st = RunState {
            mode,
            state_lost,
            unplanned_crash: false,
            crash_recovery_engaged: false,
            serving_integral: 0.0,
            downtime: Seconds::ZERO,
        };
        let mut segments: Vec<Segment> = Vec::new();
        let mut t = Seconds::ZERO;
        let mut events = 0u32;
        while t < outage {
            events += 1;
            contract!(
                events <= MAX_EVENTS,
                "event budget exceeded at t={t} in mode {:?}",
                st.mode
            );
            if events > MAX_EVENTS {
                break; // modeling-bug backstop; the contract above reports it
            }

            // Instantaneous transitions, in the stepper's per-step order.
            let before = dcb_trace::enabled().then(|| st.mode.name());
            self.apply_instantaneous(&mut st, backup, &transitions, t, outage);
            if let Some(from) = before {
                let to = st.mode.name();
                if to != from {
                    dcb_trace::instant(Some(dcb_trace::micros(t)), t_root, || {
                        dcb_trace::EventKind::TechniqueTransition {
                            from: from.to_owned(),
                            to: to.to_owned(),
                        }
                    });
                }
            }

            // The segment's constant load, and the hard boundary: the next
            // mode-internal timer, or outage end.
            let load = self.supply_load(&st.mode, backup);
            let timer: Option<(Seconds, Pending)> = match &st.mode {
                Mode::Migrating {
                    remaining, pause, ..
                } => Some(if *remaining > *pause {
                    (t + (*remaining - *pause), Pending::Pause)
                } else {
                    (t + *remaining, Pending::TimerDone)
                }),
                Mode::EnteringSleep { remaining, .. }
                | Mode::Saving { remaining, .. }
                | Mode::Recovering { remaining } => Some((t + *remaining, Pending::TimerDone)),
                _ => None,
            };
            // A timer landing exactly on outage end still fires (the
            // stepper progresses the mode within its final step).
            let boundary = match timer {
                Some((at, ev)) if at <= outage => (at, 3u8, ev),
                _ => (outage, 4u8, Pending::End),
            };
            let hi = boundary.0;

            // Candidate events inside (t, hi], tagged with a tie-breaking
            // priority mirroring the stepper's within-step check order.
            let mut cands: Vec<(Seconds, u8, Pending)> = vec![boundary];
            if let Some(ts) = backup.first_shortfall(load, t, hi) {
                cands.push((ts.max(t), 2, Pending::Shortfall));
            }
            let (unthrottle, fallback) =
                self.locate_serving_events(backup, &transitions, &st.mode, load, t, hi, outage);
            if let Some(tu) = unthrottle {
                cands.push((tu, 0, Pending::Unthrottle));
            }
            if let Some(tf) = fallback {
                cands.push((tf, 1, Pending::Fallback));
            }
            if matches!(st.mode, Mode::Crashed) {
                let reboot_load = self.supply_load(
                    &Mode::Recovering {
                        remaining: Seconds::ZERO,
                    },
                    backup,
                );
                if let Some(tr) =
                    first_true(t, hi, |tau| backup.available_power(tau) >= reboot_load)
                {
                    cands.push((tr, 2, Pending::RecoveryReady));
                }
            }

            // Earliest event wins; on a dead-even tie the lower priority
            // number (the check the stepper runs first) does.
            let mut best = cands[0];
            for &c in &cands[1..] {
                if c.0 < best.0 || (c.0 <= best.0 && c.1 < best.1) {
                    best = c;
                }
            }
            let (when, _, what) = best;
            let end = when.min(outage).max(t);

            // Commit the segment: one exact Peukert ramp draw, no steps.
            if end > t {
                let sustained = backup.supply_segment(load, t, end);
                contract!(
                    ((end - t) - sustained).value().abs() < 1e-3,
                    "segment [{t}, {end}] not fully sustained: {sustained}"
                );
                let (rate, down) = self.mode_rates(&st.mode);
                st.serving_integral += rate * (end - t).value();
                if down {
                    st.downtime += end - t;
                }
                let ended_by = match what {
                    Pending::Unthrottle => SegmentEnd::DgCrossover,
                    Pending::Fallback => SegmentEnd::HybridFallback,
                    Pending::Shortfall => match backup.ups() {
                        Some(u) if u.is_depleted() => SegmentEnd::BatteryDepleted,
                        _ => SegmentEnd::SupplyOverload,
                    },
                    Pending::Pause => SegmentEnd::MigrationPause,
                    Pending::TimerDone => SegmentEnd::TimerExpired,
                    Pending::RecoveryReady => SegmentEnd::RecoveryPower,
                    Pending::End => SegmentEnd::OutageEnd,
                };
                segments.push(Segment {
                    start: t,
                    end,
                    load,
                    throughput: rate,
                    in_downtime: down,
                    ended_by,
                });
                if dcb_trace::enabled() {
                    let start_us = dcb_trace::micros(t);
                    let end_us = dcb_trace::micros(end);
                    dcb_trace::complete(start_us, end_us.saturating_sub(start_us), t_root, || {
                        dcb_trace::EventKind::SegmentCommit {
                            end_cause: ended_by.as_str().to_owned(),
                            load_mw: (load.value() * 1e3).round() as u64,
                            throughput_pm: (rate * 1e3).round() as u64,
                            in_downtime: down,
                        }
                    });
                    if ended_by == SegmentEnd::BatteryDepleted {
                        dcb_trace::instant(Some(end_us), t_root, || {
                            dcb_trace::EventKind::BatteryDeplete
                        });
                    }
                }
                // Timers tick down by the committed span.
                let elapsed = end - t;
                match &mut st.mode {
                    Mode::Migrating { remaining, .. }
                    | Mode::EnteringSleep { remaining, .. }
                    | Mode::Saving { remaining, .. }
                    | Mode::Recovering { remaining } => *remaining -= elapsed,
                    _ => {}
                }
            }
            t = end;

            // Fire the event's transition.
            let before = dcb_trace::enabled().then(|| st.mode.name());
            match what {
                Pending::End => {}
                Pending::Pause => {
                    // Pin the timer to the pause length exactly so the
                    // copy→pause flip is not re-found a rounding error away.
                    if let Mode::Migrating {
                        remaining, pause, ..
                    } = &mut st.mode
                    {
                        *remaining = *pause;
                    }
                }
                Pending::TimerDone => {
                    st.mode = match st.mode {
                        Mode::Migrating { after, .. } => Mode::Serving {
                            level: after,
                            share: self.consolidated_share(),
                        },
                        Mode::EnteringSleep { .. } => self.sleep_target(),
                        Mode::Saving { level, .. } => Mode::Hibernated {
                            saved_throttled: level != ThrottleLevel::NONE,
                        },
                        Mode::Recovering { .. } => Mode::Serving {
                            level: ThrottleLevel::NONE,
                            share: Fraction::ONE,
                        },
                        other => other,
                    };
                }
                Pending::Shortfall => self.apply_shortfall(&mut st),
                Pending::Unthrottle => {
                    if let Mode::Serving { share, .. } = st.mode {
                        st.mode = Mode::Serving {
                            level: ThrottleLevel::NONE,
                            share,
                        };
                    }
                }
                Pending::Fallback => {
                    if let Some(fb) = self.technique().fallback() {
                        st.mode = self.fallback_mode(fb, &transitions);
                    }
                }
                Pending::RecoveryReady => {
                    st.crash_recovery_engaged = true;
                    st.mode = Mode::Recovering {
                        remaining: self.expected_recovery(),
                    };
                }
            }
            if let Some(from) = before {
                let to = st.mode.name();
                if to != from {
                    dcb_trace::instant(Some(dcb_trace::micros(t)), t_root, || {
                        dcb_trace::EventKind::TechniqueTransition {
                            from: from.to_owned(),
                            to: to.to_owned(),
                        }
                    });
                }
            }
        }

        self.finish_trajectory(outage, st, backup, &transitions, segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, Technique};
    use dcb_power::BackupConfig;
    use dcb_workload::Workload;

    #[test]
    fn oracle_still_resolves_the_basic_scenarios() {
        let sim = OutageSim::new(
            Cluster::rack(Workload::specjbb()),
            BackupConfig::max_perf(),
            Technique::ride_through(),
        );
        let traj = sim.run_trajectory_legacy(Seconds::from_minutes(120.0));
        assert!(traj.segments.len() <= 4);
        assert!(matches!(
            traj.segments.last().map(|s| s.ended_by),
            Some(SegmentEnd::OutageEnd)
        ));
        assert!(traj.outcome.feasible);
    }
}
