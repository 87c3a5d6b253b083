//! The fixed-step solver, kept as a differential oracle for the
//! event-driven kernel and compiled only into this crate's tests.
//!
//! This is the original solver: advance in fixed steps (sub-second for
//! short outages, a bounded step count for long ones), at each step
//! deciding the cluster's load from its mode, drawing that load from the
//! [`BackupSystem`], progressing transition timers, and accumulating
//! metrics. It is a plain loop over the accumulated time `t += dt` with
//! `dt = step.min(outage - t)`, so the last step takes whatever remainder
//! the accumulated time still owes, and every floating-point operation
//! matches the historical solver. Its results converge on the kernel's as
//! the step shrinks — the property the differential tests
//! (`differential.rs`) assert — which is the only reason it survives.
//! Being `#[cfg(test)]`, it cannot be called from model code: production
//! callers use [`OutageSim::run`](crate::OutageSim::run).

use crate::engine::{Draw, Mode, OutageSim, RunState};
use crate::{Fallback, SimOutcome};
use dcb_power::{BackupSystem, Ups};
use dcb_server::{ThrottleLevel, TransitionTimes};
use dcb_units::{Fraction, Seconds};
use dcb_workload::Workload;

/// The stepper's state: the historical loop's locals.
struct StepWorld<'a> {
    sim: &'a OutageSim,
    backup: &'a mut BackupSystem,
    w: Workload,
    transitions: TransitionTimes,
    outage: Seconds,
    step: Seconds,
    mode: Mode,
    state_lost: bool,
    unplanned_crash: bool,
    crash_recovery_engaged: bool,
    serving_integral: f64,
    downtime: Seconds,
    expected_recovery: Seconds,
    /// Accumulated time: the historical `t += dt` sequence, not a product
    /// grid `k · step`, so every floating-point operation matches the
    /// historical solver.
    t: Seconds,
}

/// Runs one step: `dt = step.min(outage - t)`, the historical loop body
/// verbatim.
fn advance_one(world: &mut StepWorld) {
    let dt = world.step.min(world.outage - world.t);
    // Once a DG has ramped up far enough to carry the *unthrottled*
    // load indefinitely, throttling serves no purpose: restore full
    // speed (the paper throttles only to ride the DG start-up).
    if let Mode::Serving { level, share } = &world.mode {
        if *level != ThrottleLevel::NONE {
            let full = Mode::Serving {
                level: ThrottleLevel::NONE,
                share: *share,
            };
            let full_load = world.sim.supply_load(&full, world.backup);
            if world
                .backup
                .endurance(full_load, world.t)
                .value()
                .is_infinite()
            {
                world.mode = full;
            }
        }
    }
    // Hybrid fallback decision: serving one more step costs `step_cost`
    // of charge; fall back when the battery can no longer afford both the
    // step and the fallback's reserve.
    if let (Mode::Serving { .. }, Some(fb)) = (&world.mode, world.sim.technique().fallback()) {
        let plan = world
            .sim
            .fallback_plan(fb, world.backup, &world.transitions, &world.mode);
        let ups = world.backup.ups();
        let charge = ups.map_or(Fraction::ZERO, Ups::charge);
        let step_cost = ups.map_or(0.0, |ups| {
            Draw::new(world.sim.supply_load(&world.mode, world.backup)).charge(ups.pack(), dt)
        });
        if plan
            .reserve(charge, world.t, world.outage)
            .is_some_and(|reserve| charge.value() <= (reserve + step_cost).min(1.0))
        {
            world.mode = world.sim.fallback_mode(fb, &world.transitions);
        }
    }
    let load = world.sim.supply_load(&world.mode, world.backup);
    let supply = world.backup.supply(load, world.t, dt);
    if !supply.fully_covered() {
        // Credit the portion that was sustained, then crash.
        let sustained = supply.sustained;
        match &world.mode {
            Mode::Serving { level, share } => {
                world.serving_integral += world
                    .w
                    .throughput_at(level.effective_speed(), *share)
                    .value()
                    * sustained.value();
                world.downtime += dt - sustained;
            }
            Mode::Migrating { during, .. } => {
                world.serving_integral += world
                    .w
                    .throughput_at(during.effective_speed(), Fraction::ONE)
                    .value()
                    * sustained.value();
                world.downtime += dt - sustained;
            }
            _ => world.downtime += dt,
        }
        match world.mode {
            Mode::Hibernated { .. } | Mode::Crashed | Mode::NvdimmPersisted => {
                // Zero-load modes cannot actually get here, but be
                // safe: nothing more to lose.
            }
            Mode::Recovering { .. } => {
                world.mode = Mode::Crashed; // power went away mid-reboot
            }
            Mode::Serving { .. }
                if matches!(world.sim.technique().fallback(), Some(Fallback::Nvdimm)) =>
            {
                // The in-DIMM supercapacitors flush state as power
                // collapses: planned, nothing lost.
                world.mode = Mode::NvdimmPersisted;
            }
            _ => {
                // Losing state that was still intact is an
                // unplanned failure of the technique; re-crashing a
                // cluster whose state was already gone (e.g. a
                // battery-powered reboot that ran dry) adds nothing
                // the plan had promised to keep.
                if !world.state_lost {
                    world.unplanned_crash = true;
                }
                world.state_lost = true;
                world.mode = Mode::Crashed;
            }
        }
        world.t += dt;
        return;
    }

    // Power fully supplied: progress the mode.
    match &mut world.mode {
        Mode::Serving { level, share } => {
            world.serving_integral += world
                .w
                .throughput_at(level.effective_speed(), *share)
                .value()
                * dt.value();
        }
        Mode::Migrating {
            after,
            remaining,
            pause,
            during,
        } => {
            if *remaining > *pause {
                world.serving_integral += world
                    .w
                    .throughput_at(during.effective_speed(), Fraction::ONE)
                    .value()
                    * dt.value();
            } else {
                world.downtime += dt; // stop-and-copy pause
            }
            *remaining -= dt;
            if remaining.value() <= 0.0 {
                world.mode = Mode::Serving {
                    level: *after,
                    share: world.sim.consolidated_share(),
                };
            }
        }
        Mode::EnteringSleep { remaining, .. } => {
            world.downtime += dt;
            *remaining -= dt;
            if remaining.value() <= 0.0 {
                world.mode = world.sim.sleep_target();
            }
        }
        Mode::Sleeping => world.downtime += dt,
        Mode::SleepingRemote => {
            // Remote peers keep answering reads from this memory.
            world.serving_integral += world.w.remote_serve_fraction().value() * dt.value();
        }
        Mode::NvdimmPersisted => world.downtime += dt,
        Mode::Saving { remaining, level } => {
            world.downtime += dt;
            *remaining -= dt;
            if remaining.value() <= 0.0 {
                world.mode = Mode::Hibernated {
                    saved_throttled: *level != ThrottleLevel::NONE,
                };
            }
        }
        Mode::Hibernated { .. } => world.downtime += dt,
        Mode::Crashed => {
            world.downtime += dt;
            // A sufficiently ramped DG lets the cluster reboot
            // mid-outage (NoUPS: "DG translates long outages into
            // short ones").
            let reboot_load = world.sim.supply_load(
                &Mode::Recovering {
                    remaining: Seconds::ZERO,
                },
                world.backup,
            );
            if world.backup.available_power(world.t + dt) >= reboot_load {
                world.crash_recovery_engaged = true;
                world.mode = Mode::Recovering {
                    remaining: world.expected_recovery,
                };
            }
        }
        Mode::Recovering { remaining } => {
            world.downtime += dt;
            *remaining -= dt;
            if remaining.value() <= 0.0 {
                world.mode = Mode::Serving {
                    level: ThrottleLevel::NONE,
                    share: Fraction::ONE,
                };
            }
        }
    }
    world.t += dt;
}

impl OutageSim {
    /// Runs the fixed-step solver with an explicit step size — the knob the
    /// differential suite turns to show stepped results converge on the
    /// kernel's as `step → 0`.
    ///
    /// # Panics
    ///
    /// Panics if `outage` is negative or non-finite, or `step` is not
    /// strictly positive.
    #[must_use]
    pub(crate) fn run_with_backup_stepped_at(
        &self,
        outage: Seconds,
        backup: &mut BackupSystem,
        step: Seconds,
    ) -> SimOutcome {
        assert!(
            outage.value() >= 0.0 && outage.is_finite(),
            "outage must be finite and non-negative"
        );
        assert!(step.value() > 0.0, "step must be positive");
        let transitions = TransitionTimes::new(*self.cluster().spec());
        let (mode, state_lost) = self.initial_mode(&transitions);
        let mut world = StepWorld {
            sim: self,
            backup,
            w: *self.cluster().workload(),
            transitions,
            outage,
            step,
            mode,
            state_lost,
            unplanned_crash: false,
            crash_recovery_engaged: false,
            serving_integral: 0.0, // normalized-throughput seconds
            downtime: Seconds::ZERO,
            expected_recovery: self.expected_recovery(),
            t: Seconds::ZERO,
        };

        while world.t < world.outage {
            advance_one(&mut world);
        }

        let StepWorld {
            transitions,
            mode,
            state_lost,
            unplanned_crash,
            crash_recovery_engaged,
            serving_integral,
            downtime,
            ..
        } = world;
        self.assemble(
            outage,
            RunState {
                mode,
                state_lost,
                unplanned_crash,
                crash_recovery_engaged,
                serving_integral,
                downtime,
            },
            backup,
            &transitions,
        )
    }
}
