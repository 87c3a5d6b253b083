//! The composed backup system a datacenter draws from during an outage.

use crate::{DgPhase, DieselGenerator, Ups};
use dcb_battery::{RampDrain, RampFrom};
use dcb_units::{contract, Fraction, Seconds, WattHours, Watts};

/// One span of an outage over which the UPS residual load (requested load
/// minus DG contribution) is affine — the unit of analytic advancement in
/// the event-driven kernel. Spans are split at DG phase boundaries and at
/// the DG-crossover instant, so within a span the residual is either
/// identically (near-)zero or strictly positive and non-increasing.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResidualPhase {
    /// Span start, in outage time.
    pub start: Seconds,
    /// Span end, in outage time.
    pub end: Seconds,
    /// Residual load on the UPS at `start`.
    pub residual_start: Watts,
    /// Residual load on the UPS at `end`.
    pub residual_end: Watts,
}

impl ResidualPhase {
    /// Span length.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Whether the UPS sees no load in this span (DG or nothing covers it),
    /// using the same `1e-9` threshold as [`BackupSystem::supply`].
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.residual_start.value() <= 1e-9
    }
}

/// The affine phases of a DG curve: dead, ramping, full and out of fuel.
const DG_PHASES: usize = 4;

/// Steps after which the residual-phase walk reports a stall: a walk
/// needs at most [`DG_PHASES`], so going past that means a phase
/// boundary failed to advance.
const MAX_WALK_STEPS: u32 = 16;

/// The residual-phase walk of [`BackupSystem::residual_phases`], one DG
/// affine phase per step and without allocating.
#[derive(Debug, Clone)]
struct ResidualWalk {
    dg: Option<DieselGenerator>,
    load: Watts,
    /// Start of the next DG phase to walk.
    t: Seconds,
    to: Seconds,
    /// DG phases walked so far.
    steps: u32,
}

impl ResidualWalk {
    /// Walks the next DG affine phase: the DG's line from its start and
    /// the phase's span, split — when the DG overtakes the load inside it
    /// — into the span up to the crossover and the free rest. A zero load
    /// walks one free span under a dead DG line.
    fn next_phase(&mut self) -> Option<(DgPhase, ResidualPhase, Option<ResidualPhase>)> {
        let start = self.t;
        if start >= self.to {
            return None;
        }
        if self.load.value() <= 0.0 {
            self.t = self.to;
            let whole = ResidualPhase {
                start,
                end: self.to,
                residual_start: Watts::ZERO,
                residual_end: Watts::ZERO,
            };
            return Some((dg_phase(None, start), whole, None));
        }
        if self.steps == MAX_WALK_STEPS {
            contract!(
                false,
                "residual phase walk stalled at {start} before {}",
                self.to
            );
            return None;
        }
        self.steps += 1;
        let dg = dg_phase(self.dg.as_ref(), start);
        let end = dg.until.map_or(self.to, |u| u.min(self.to));
        contract!(
            end > start,
            "DG phase boundary {end} does not advance past {start}"
        );
        let (span, rest) = phase_spans(self.load, start, end, &dg);
        self.t = end;
        Some((dg, span, rest))
    }
}

/// The affine phase of an optional DG's curve containing `at`; without a
/// DG, one dead phase that never ends.
fn dg_phase(dg: Option<&DieselGenerator>, at: Seconds) -> DgPhase {
    dg.map_or(
        DgPhase {
            power: Watts::ZERO,
            slope_w_per_s: 0.0,
            until: None,
        },
        |dg| dg.affine_at(at),
    )
}

/// The spans of a constant `load` over the DG phase `dg` cut to
/// `[start, end)`: one span of affine residual, or — when the DG overtakes
/// the load inside it — the span up to the crossover plus the free rest.
fn phase_spans(
    load: Watts,
    start: Seconds,
    end: Seconds,
    dg: &DgPhase,
) -> (ResidualPhase, Option<ResidualPhase>) {
    let (power, slope) = (dg.power, dg.slope_w_per_s);
    let r_start = (load - power).max(Watts::ZERO);
    let dg_end = power.value() + slope * (end - start).value();
    let r_end_raw = load.value() - dg_end;
    if r_start.value() > 0.0 && r_end_raw < 0.0 && slope > 0.0 {
        // The DG overtakes the load mid-span: split at the crossover so
        // the second half is exactly free.
        let cross = start + Seconds::new((load - power).value() / slope);
        (
            ResidualPhase {
                start,
                end: cross,
                residual_start: r_start,
                residual_end: Watts::ZERO,
            },
            Some(ResidualPhase {
                start: cross,
                end,
                residual_start: Watts::ZERO,
                residual_end: Watts::ZERO,
            }),
        )
    } else {
        (
            ResidualPhase {
                start,
                end,
                residual_start: r_start,
                residual_end: Watts::new(r_end_raw.max(0.0)),
            },
            None,
        )
    }
}

/// The result of asking the backup system to carry `requested` watts for
/// `interval` seconds at some point during an outage.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Supply {
    /// The load that was requested.
    pub requested: Watts,
    /// The interval requested.
    pub interval: Seconds,
    /// Portion sourced from the diesel generator (for the sustained time).
    pub from_dg: Watts,
    /// Portion sourced from the UPS battery (for the sustained time).
    pub from_ups: Watts,
    /// How long within `interval` the full load was actually carried.
    /// Shorter than `interval` when the battery ran dry or the load exceeded
    /// total capacity (then zero).
    pub sustained: Seconds,
}

impl Supply {
    /// Whether the full load was carried for the whole interval.
    #[must_use]
    pub fn fully_covered(&self) -> bool {
        self.sustained >= self.interval
    }

    /// The instantaneous shortfall (requested minus sourced) during the
    /// sustained window.
    #[must_use]
    pub fn shortfall(&self) -> Watts {
        (self.requested - self.from_dg - self.from_ups).max(Watts::ZERO)
    }
}

/// A stateful backup system: optional DG bank plus optional UPS.
///
/// During an outage the DG covers as much of the load as its ramp allows
/// and the UPS battery carries the remainder — the gradual load-step
/// transfer of §3. Peak draw and energy are tracked for post-hoc capacity
/// accounting.
///
/// ```
/// use dcb_power::BackupConfig;
/// use dcb_units::{Seconds, Watts};
///
/// let mut sys = BackupConfig::no_dg().instantiate(Watts::new(10_000.0));
/// let supply = sys.supply(Watts::new(8_000.0), Seconds::ZERO, Seconds::new(60.0));
/// assert!(supply.fully_covered());
/// assert_eq!(supply.from_ups, Watts::new(8_000.0));
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackupSystem {
    dg: Option<DieselGenerator>,
    ups: Option<Ups>,
    peak_drawn: Watts,
    energy_drawn: WattHours,
}

impl BackupSystem {
    /// Composes a system from its parts.
    #[must_use]
    pub fn new(dg: Option<DieselGenerator>, ups: Option<Ups>) -> Self {
        Self {
            dg,
            ups,
            peak_drawn: Watts::ZERO,
            energy_drawn: WattHours::ZERO,
        }
    }

    /// The diesel generator, if provisioned.
    #[must_use]
    pub fn dg(&self) -> Option<&DieselGenerator> {
        self.dg.as_ref()
    }

    /// The UPS, if provisioned.
    #[must_use]
    pub fn ups(&self) -> Option<&Ups> {
        self.ups.as_ref()
    }

    /// Highest load drawn so far.
    #[must_use]
    pub fn peak_drawn(&self) -> Watts {
        self.peak_drawn
    }

    /// Total backup energy delivered so far.
    #[must_use]
    pub fn energy_drawn(&self) -> WattHours {
        self.energy_drawn
    }

    /// Battery wear so far, in equivalent full cycles (0 without a UPS).
    #[must_use]
    pub fn battery_cycles(&self) -> f64 {
        self.ups.as_ref().map_or(0.0, Ups::equivalent_cycles)
    }

    /// Power the system could deliver at `elapsed` seconds into an outage.
    #[must_use]
    pub fn available_power(&self, elapsed: Seconds) -> Watts {
        let dg = self
            .dg
            .as_ref()
            .map_or(Watts::ZERO, |d| d.available_power(elapsed));
        let ups = self.ups.as_ref().map_or(Watts::ZERO, Ups::available_power);
        dg + ups
    }

    /// How long the system can sustain a constant `load` starting at
    /// `elapsed` seconds into the outage.
    ///
    /// Conservative analytic answer: infinite if the (ramped-up) DG alone
    /// covers the load; otherwise the UPS endurance on the uncovered
    /// portion, unless the DG finishes ramping before the battery dies (in
    /// which case it is infinite too). Zero if the load exceeds total
    /// capacity.
    #[inline]
    #[must_use]
    pub fn endurance(&self, load: Watts, elapsed: Seconds) -> Seconds {
        let charge = self.ups.as_ref().map_or(Fraction::ZERO, Ups::charge);
        self.endurance_plan(load).at(charge, elapsed)
    }

    /// [`Self::endurance`] of a constant `load` at any state of charge and
    /// instant, with nothing solved up front (see
    /// [`EndurancePlan::solved`]).
    #[must_use]
    pub fn endurance_plan(&self, load: Watts) -> EndurancePlan<'_> {
        EndurancePlan {
            system: self,
            load,
            solved: None,
        }
    }

    /// Draws `load` for up to `interval`, `elapsed` seconds into the
    /// outage, sourcing from the DG first (as its ramp allows) and the UPS
    /// battery for the remainder.
    pub fn supply(&mut self, load: Watts, elapsed: Seconds, interval: Seconds) -> Supply {
        if load.value() <= 0.0 || interval.value() <= 0.0 {
            return Supply {
                requested: load.max(Watts::ZERO),
                interval,
                from_dg: Watts::ZERO,
                from_ups: Watts::ZERO,
                sustained: interval,
            };
        }
        // DG availability over the interval is its (monotone) minimum — the
        // start of the interval — so the UPS sees the worst-case residual.
        let dg_power = self
            .dg
            .as_ref()
            .map_or(Watts::ZERO, |d| d.available_power(elapsed));
        let from_dg = load.min(dg_power);
        let residual = load - from_dg;
        let (from_ups, sustained) = if residual.value() <= 1e-9 {
            (Watts::ZERO, interval)
        } else {
            match &mut self.ups {
                Some(ups) => {
                    let outcome = ups.draw(residual, interval);
                    (residual, outcome.sustained)
                }
                None => (Watts::ZERO, Seconds::ZERO),
            }
        };
        let supply = Supply {
            requested: load,
            interval,
            from_dg,
            from_ups,
            sustained,
        };
        if sustained.value() > 0.0 {
            self.peak_drawn = self.peak_drawn.max(load);
            self.energy_drawn += load * sustained;
        }
        supply
    }

    /// Splits `[from, to)` into spans of affine UPS residual for a constant
    /// `load`: one span per DG availability phase, with ramp phases split
    /// again at the instant the DG overtakes the load. Residual within each
    /// span is non-increasing; the only upward jump (fuel exhaustion) lands
    /// exactly on a span boundary.
    #[must_use]
    pub fn residual_phases(&self, load: Watts, from: Seconds, to: Seconds) -> Vec<ResidualPhase> {
        let mut phases = Vec::new();
        let mut walk = self.residual_walk(load, from, to);
        while let Some((_, span, rest)) = walk.next_phase() {
            phases.push(span);
            phases.extend(rest);
        }
        phases
    }

    fn residual_walk(&self, load: Watts, from: Seconds, to: Seconds) -> ResidualWalk {
        ResidualWalk {
            dg: self.dg,
            load,
            t: from,
            to,
            steps: 0,
        }
    }

    /// The first instant in `[from, to)` at which the system stops carrying
    /// a constant `load`, without mutating any state: a span whose residual
    /// exceeds the UPS rating (or has no UPS behind it) fails at its start;
    /// otherwise the battery's closed-form depletion instant. `None` means
    /// the load is carried through `to` — the analytic, mid-outage
    /// generalization of [`Self::endurance`].
    #[must_use]
    pub fn first_shortfall(&self, load: Watts, from: Seconds, to: Seconds) -> Option<Seconds> {
        if load.value() <= 0.0 {
            return None;
        }
        let mut charge = self.ups.as_ref().map_or(0.0, |u| u.charge().value());
        let mut walk = self.residual_walk(load, from, to);
        // The rest of a phase split at the DG crossover is free.
        while let Some((_, ph, _)) = walk.next_phase() {
            if ph.is_free() {
                continue;
            }
            let Some(ups) = &self.ups else {
                return Some(ph.start);
            };
            if ph.residual_start > ups.power_capacity() {
                return Some(ph.start);
            }
            match ups.pack().drain_over_ramp(
                Fraction::new(charge),
                ph.residual_start,
                ph.residual_end,
                ph.duration(),
            ) {
                RampDrain::Depleted(tau) => return Some(ph.start + tau),
                RampDrain::Survived(used) => {
                    charge -= used;
                    charge = charge.max(0.0);
                }
            }
        }
        None
    }

    /// State-of-charge fraction the UPS battery would spend carrying `load`
    /// over `[from, to)`, ignoring depletion — the charge-trajectory probe
    /// behind the kernel's latest-safe-fallback solver. Zero without a UPS.
    /// [`Self::charge_projection`] plans it for every `to` of a window.
    #[must_use]
    pub fn charge_used_for(&self, load: Watts, from: Seconds, to: Seconds) -> f64 {
        let Some(ups) = &self.ups else {
            return 0.0;
        };
        // The empty sum, as `Iterator::sum` starts from.
        let mut used = -0.0;
        let mut walk = self.residual_walk(load, from, to);
        // The rest of a phase split at the DG crossover is free.
        while let Some((_, ph, _)) = walk.next_phase() {
            if !ph.is_free() {
                used +=
                    ups.charge_used_over_ramp(ph.residual_start, ph.residual_end, ph.duration());
            }
        }
        used
    }

    /// [`Self::charge_used_for`] of a constant `load` from `from` to any
    /// instant of the window `(from, hi]`, planned once for a located-event
    /// search (see [`ChargeProjection`]).
    #[must_use]
    pub fn charge_projection(
        &self,
        load: Watts,
        from: Seconds,
        hi: Seconds,
    ) -> ChargeProjection<'_> {
        let mut projection = ChargeProjection {
            system: self,
            load,
            from,
            hi,
            phases: [None; DG_PHASES],
        };
        let Some(ups) = &self.ups else {
            return projection;
        };
        // The empty sum, as in `charge_used_for`.
        let mut used = -0.0;
        let mut walk = self.residual_walk(load, from, hi);
        for slot in &mut projection.phases {
            let Some((dg, first, rest)) = walk.next_phase() else {
                break;
            };
            let ramp =
                (!first.is_free()).then(|| ups.pack().ramp_from(first.residual_start).solved());
            // A phase that ends inside the window, or at the crossover, is
            // charged here once; the phase the window cuts is charged at
            // each evaluation.
            let ends_inside = rest.is_some() || dg.until.is_some_and(|until| until < hi);
            let charge = ramp
                .filter(|_| ends_inside)
                .map(|ramp| ramp.charge_used(first.residual_end, first.duration()));
            *slot = Some(PlannedPhase {
                start: first.start,
                dg,
                used_before: used,
                ramp,
                to_crossover: rest.and(charge),
            });
            if let Some(charge) = charge {
                used += charge;
            }
        }
        projection
    }

    /// A copy of this system with the UPS battery at a given state of
    /// charge — the kernel's what-if probe for future instants.
    #[must_use]
    pub fn with_ups_charge(&self, charge: Fraction) -> Self {
        let mut probe = self.clone();
        if let Some(ups) = probe.ups.take() {
            probe.ups = Some(ups.with_charge(charge));
        }
        probe
    }

    /// Draws a constant `load` over the whole segment `[from, to)` in one
    /// analytic step, draining the battery by the exact Peukert ramp
    /// integrals and accounting peak/energy exactly as the per-step
    /// [`Self::supply`] would in the dt→0 limit. Returns the time sustained
    /// from `from` (equal to `to − from` unless coverage fails mid-way).
    pub fn supply_segment(&mut self, load: Watts, from: Seconds, to: Seconds) -> Seconds {
        let span = to - from;
        if span.value() <= 0.0 {
            return Seconds::ZERO;
        }
        if load.value() <= 0.0 {
            return span;
        }
        let mut sustained = Seconds::ZERO;
        let mut walk = self.residual_walk(load, from, to);
        while let Some((_, ph, rest)) = walk.next_phase() {
            if ph.is_free() {
                sustained += ph.duration();
            } else {
                let Some(ups) = &mut self.ups else {
                    break;
                };
                if ph.residual_start > ups.power_capacity() {
                    break;
                }
                let outcome = ups.draw_ramp(ph.residual_start, ph.residual_end, ph.duration());
                sustained += outcome.sustained;
                if outcome.depleted {
                    break;
                }
            }
            if let Some(rest) = rest {
                sustained += rest.duration();
            }
        }
        contract!(
            sustained.value() >= 0.0 && sustained.value() <= span.value() + 1e-9,
            "segment sustained {sustained} outside [0, {span}]"
        );
        if sustained.value() > 0.0 {
            self.peak_drawn = self.peak_drawn.max(load);
            self.energy_drawn += load * sustained;
        }
        sustained
    }

    /// Restores the system after utility power returns.
    pub fn reset(&mut self) {
        if let Some(ups) = &mut self.ups {
            ups.recharge();
        }
        self.peak_drawn = Watts::ZERO;
        self.energy_drawn = WattHours::ZERO;
    }

    /// Partially recharges the battery while utility power is available —
    /// used between back-to-back outages of a yearly trace. Accounting
    /// (peak/energy) is left untouched so it accumulates across outages.
    pub fn recharge_for(&mut self, duration: Seconds) {
        if let Some(ups) = &mut self.ups {
            ups.recharge_for(duration);
        }
    }
}

/// [`BackupSystem::endurance`] of one constant load, at any state of
/// charge and instant.
///
/// [`BackupSystem::endurance_plan`] solves nothing up front, so one
/// evaluation costs what [`BackupSystem::endurance`] does. [`Self::solved`]
/// solves the pack's Peukert runtime at the UPS residual the load leaves
/// from outage start until any DG fuel runs out, so a located-event search
/// evaluates the rule without a `powf`. Both give the same bits.
#[derive(Debug, Clone, Copy)]
pub struct EndurancePlan<'a> {
    system: &'a BackupSystem,
    load: Watts,
    /// A UPS residual and the pack's full-charge runtime at it.
    solved: Option<(Watts, Seconds)>,
}

impl EndurancePlan<'_> {
    /// This plan with the Peukert runtime of its residual solved once, for
    /// repeated evaluation.
    #[must_use]
    pub fn solved(self) -> Self {
        let solved = match (&self.system.ups, self.ups_load(Seconds::ZERO)) {
            (Some(ups), Some((residual, _))) => Some((residual, ups.pack().runtime_at(residual))),
            _ => None,
        };
        Self { solved, ..self }
    }

    /// How long the system sustains the load from `elapsed` on when the
    /// UPS battery holds `charge` (see [`BackupSystem::endurance`]).
    #[inline]
    #[must_use]
    pub fn at(&self, charge: Fraction, elapsed: Seconds) -> Seconds {
        let Some((residual, gap)) = self.ups_load(elapsed) else {
            return Seconds::new(f64::INFINITY);
        };
        let Some(ups) = &self.system.ups else {
            return Seconds::ZERO;
        };
        let left = ups.runtime_left(residual, charge, || match self.solved {
            Some((at, runtime)) if at.value().to_bits() == residual.value().to_bits() => runtime,
            _ => ups.pack().runtime_at(residual),
        });
        match gap {
            // The UPS outlasts the DG ramp, which then carries the load.
            Some(gap) if left >= gap => Seconds::new(f64::INFINITY),
            _ => left,
        }
    }

    /// What the UPS must carry from `elapsed` on: the residual load and,
    /// when a DG can carry the whole load once ramped, the ramp time left
    /// to bridge. `None` when the load is carried indefinitely (fuel is
    /// assumed sufficient).
    #[inline]
    fn ups_load(&self, elapsed: Seconds) -> Option<(Watts, Option<Seconds>)> {
        let load = self.load;
        if load.value() <= 0.0 {
            return None;
        }
        let dg = self.system.dg.as_ref();
        let dg_full = dg.map_or(Watts::ZERO, DieselGenerator::power_capacity);
        let dg_ready = dg.map_or(Seconds::ZERO, DieselGenerator::transfer_complete);
        if load <= dg_full {
            let gap = (dg_ready - elapsed).max(Seconds::ZERO);
            // During the gap the UPS must carry the DG-uncovered remainder;
            // approximate with the worst case (full load on UPS).
            (!gap.is_zero()).then_some((load, Some(gap)))
        } else {
            let dg_power = dg.map_or(Watts::ZERO, |d| d.available_power(elapsed.max(dg_ready)));
            Some((load - dg_power, None))
        }
    }
}

/// [`BackupSystem::charge_used_for`] of one constant load from a fixed
/// `from` to any instant `τ` of a window `(from, hi]`, planned once.
///
/// Planning walks the residual phases of `[from, hi)` once: it solves the
/// ramp integral from each DG phase's residual ([`RampFrom::solved`]) and
/// charges every phase that ends inside the window, summed in walk order.
/// [`Self::used_to`] then adds the one phase the instant `τ` cuts, from the
/// same walk rule cut at `τ` — so it returns exactly what
/// [`BackupSystem::charge_used_for`]`(load, from, τ)` does, bit for bit,
/// for at most one `powf`.
#[derive(Debug, Clone)]
pub struct ChargeProjection<'a> {
    system: &'a BackupSystem,
    load: Watts,
    from: Seconds,
    hi: Seconds,
    /// The DG phases of `[from, hi)` in walk order; empty without a UPS.
    phases: [Option<PlannedPhase>; DG_PHASES],
}

/// One DG phase of a [`ChargeProjection`] window.
#[derive(Debug, Clone, Copy)]
struct PlannedPhase {
    start: Seconds,
    /// The DG's line from `start`.
    dg: DgPhase,
    /// Charge the spans before `start` use.
    used_before: f64,
    /// The ramp integral from the phase's residual at `start`; `None` when
    /// the phase is free.
    ramp: Option<RampFrom>,
    /// Charge of the span up to the DG crossover, when the window's walk
    /// splits the phase there.
    to_crossover: Option<f64>,
}

impl ChargeProjection<'_> {
    /// State-of-charge fraction the load uses over `[from, tau)`: exactly
    /// [`BackupSystem::charge_used_for`]`(load, from, tau)`.
    #[must_use]
    pub fn used_to(&self, tau: Seconds) -> f64 {
        if self.system.ups.is_none() {
            return 0.0;
        }
        if tau <= self.from {
            // The empty sum, as `Iterator::sum` gives.
            return -0.0;
        }
        // The phase `tau` cuts; past the planned window, walk afresh.
        let Some(ph) = self
            .phases
            .iter()
            .flatten()
            .find(|ph| ph.dg.until.is_none_or(|until| until >= tau))
            .filter(|_| tau <= self.hi)
        else {
            return self.system.charge_used_for(self.load, self.from, tau);
        };
        let Some(ramp) = &ph.ramp else {
            return ph.used_before;
        };
        let (first, rest) = phase_spans(self.load, ph.start, tau, &ph.dg);
        let charge = match (rest, ph.to_crossover) {
            (Some(_), Some(to_crossover)) => to_crossover,
            _ => ramp.charge_used(first.residual_end, first.duration()),
        };
        ph.used_before + charge
    }

    /// The UPS state of charge left at `tau`: the charge at `from` less
    /// [`Self::used_to`], floored at zero.
    #[must_use]
    pub fn charge_at(&self, tau: Seconds) -> Fraction {
        let charge_now = self.system.ups.as_ref().map_or(0.0, |u| u.charge().value());
        Fraction::new((charge_now - self.used_to(tau)).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackupConfig;
    use dcb_battery::Chemistry;
    use proptest::prelude::*;

    fn peak() -> Watts {
        Watts::new(100_000.0)
    }

    #[test]
    fn max_perf_rides_through_dg_start() {
        let mut sys = BackupConfig::max_perf().instantiate(peak());
        // First two minutes: UPS carries (DG ramping), then DG takes over.
        let mut elapsed = Seconds::ZERO;
        let step = Seconds::new(5.0);
        for _ in 0..120 {
            // 10 minutes
            let s = sys.supply(peak(), elapsed, step);
            assert!(s.fully_covered(), "lost power at {elapsed}");
            elapsed += step;
        }
        // After ramp the DG covers everything.
        let late = sys.supply(peak(), elapsed, step);
        assert_eq!(late.from_dg, peak());
        assert_eq!(late.from_ups, Watts::ZERO);
    }

    #[test]
    fn min_cost_supplies_nothing() {
        let mut sys = BackupConfig::min_cost().instantiate(peak());
        let s = sys.supply(Watts::new(1.0), Seconds::ZERO, Seconds::new(1.0));
        assert_eq!(s.sustained, Seconds::ZERO);
        assert_eq!(sys.available_power(Seconds::from_hours(1.0)), Watts::ZERO);
    }

    #[test]
    fn no_dg_runs_out_after_rated_runtime() {
        let mut sys = BackupConfig::no_dg().instantiate(peak());
        // Full load on a 2-minute battery.
        let s = sys.supply(peak(), Seconds::ZERO, Seconds::from_minutes(10.0));
        assert!(!s.fully_covered());
        assert!((s.sustained.to_minutes() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn no_ups_has_gap_then_dg() {
        let mut sys = BackupConfig::no_ups().instantiate(peak());
        let early = sys.supply(peak(), Seconds::new(1.0), Seconds::new(1.0));
        assert_eq!(early.sustained, Seconds::ZERO); // crash window
        let late = sys.supply(peak(), Seconds::from_minutes(3.0), Seconds::new(1.0));
        assert!(late.fully_covered());
    }

    #[test]
    fn endurance_infinite_when_dg_covers() {
        let sys = BackupConfig::max_perf().instantiate(peak());
        assert!(sys.endurance(peak(), Seconds::ZERO).value().is_infinite());
    }

    #[test]
    fn endurance_zero_beyond_capacity() {
        let sys = BackupConfig::small_pups().instantiate(peak());
        // Half-power UPS cannot carry full load at all.
        assert_eq!(sys.endurance(peak(), Seconds::ZERO), Seconds::ZERO);
    }

    #[test]
    fn peukert_stretch_visible_at_low_load() {
        let sys = BackupConfig::no_dg().instantiate(peak());
        // 25% load on the full-power 2-min pack: Peukert gives 12 min.
        let endurance = sys.endurance(peak() * 0.25, Seconds::ZERO);
        assert!(
            (endurance.to_minutes() - 12.0).abs() < 0.1,
            "got {} min",
            endurance.to_minutes()
        );
    }

    #[test]
    fn accounting_tracks_peak_and_energy() {
        let mut sys = BackupConfig::no_dg().instantiate(peak());
        let _ = sys.supply(peak() * 0.5, Seconds::ZERO, Seconds::from_minutes(1.0));
        assert_eq!(sys.peak_drawn(), peak() * 0.5);
        assert!(sys.energy_drawn().value() > 0.0);
        sys.reset();
        assert_eq!(sys.energy_drawn(), WattHours::ZERO);
    }

    #[test]
    fn residual_phases_cover_segment_contiguously() {
        let sys = BackupConfig::max_perf().instantiate(peak());
        let phases = sys.residual_phases(peak(), Seconds::ZERO, Seconds::from_minutes(10.0));
        assert!(phases.len() >= 3, "expected dead/ramp/full split");
        assert_eq!(phases[0].start, Seconds::ZERO);
        assert_eq!(phases.last().unwrap().end, Seconds::from_minutes(10.0));
        for pair in phases.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Once the DG carries the full load the residual is exactly zero.
        assert!(phases.last().unwrap().is_free());
    }

    #[test]
    fn first_shortfall_matches_endurance_from_zero() {
        // Battery-only config: analytic shortfall equals the classic
        // endurance answer.
        let sys = BackupConfig::no_dg().instantiate(peak());
        let horizon = Seconds::from_hours(2.0);
        let shortfall = sys
            .first_shortfall(peak(), Seconds::ZERO, horizon)
            .expect("2-min battery must die within 2 h");
        let endurance = sys.endurance(peak(), Seconds::ZERO);
        assert!(
            (shortfall.value() - endurance.value()).abs() < 1e-6,
            "{shortfall} vs {endurance}"
        );
        // Full-backup config never falls short.
        let full = BackupConfig::max_perf().instantiate(peak());
        assert_eq!(full.first_shortfall(peak(), Seconds::ZERO, horizon), None);
    }

    #[test]
    fn no_ups_shortfall_is_immediate_then_covered() {
        let sys = BackupConfig::no_ups().instantiate(peak());
        // From t=0 the gap is uncovered: shortfall at once.
        assert_eq!(
            sys.first_shortfall(peak(), Seconds::ZERO, Seconds::from_hours(1.0)),
            Some(Seconds::ZERO)
        );
        // From t=3min the DG is up: covered forever.
        assert_eq!(
            sys.first_shortfall(peak(), Seconds::from_minutes(3.0), Seconds::from_hours(1.0)),
            None
        );
    }

    #[test]
    fn supply_segment_matches_fine_stepping() {
        // The analytic segment draw must agree with a dt→0 stepped draw on
        // charge, energy, and peak across the DG ramp.
        for config in [
            BackupConfig::max_perf(),
            BackupConfig::no_dg(),
            BackupConfig::dg_small_pups(),
            BackupConfig::small_dg_small_pups(),
        ] {
            let load = peak() * 0.9;
            let horizon = Seconds::from_minutes(6.0);
            let mut analytic = config.instantiate(peak());
            let seg = analytic.supply_segment(load, Seconds::ZERO, horizon);

            let mut stepped = config.instantiate(peak());
            let dt = Seconds::new(0.01);
            let mut t = Seconds::ZERO;
            let mut stepped_sustained = Seconds::ZERO;
            while t < horizon {
                let s = stepped.supply(load, t, dt);
                stepped_sustained += s.sustained;
                if !s.fully_covered() {
                    break;
                }
                t += dt;
            }
            assert!(
                (seg.value() - stepped_sustained.value()).abs() < 1.0,
                "{}: analytic {seg} vs stepped {stepped_sustained}",
                config.label()
            );
            let (ca, cs) = (
                analytic.ups().map_or(0.0, |u| u.charge().value()),
                stepped.ups().map_or(0.0, |u| u.charge().value()),
            );
            assert!(
                (ca - cs).abs() < 0.01,
                "{}: charge {ca} vs {cs}",
                config.label()
            );
            assert!(
                (analytic.energy_drawn().value() - stepped.energy_drawn().value()).abs()
                    < stepped.energy_drawn().value().max(1.0) * 0.01,
                "{}: energy {} vs {}",
                config.label(),
                analytic.energy_drawn(),
                stepped.energy_drawn()
            );
        }
    }

    #[test]
    fn charge_used_probe_matches_committed_draw() {
        let sys = BackupConfig::max_perf().instantiate(peak());
        let load = peak() * 0.8;
        let predicted = sys.charge_used_for(load, Seconds::ZERO, Seconds::from_minutes(2.0));
        let mut committed = sys.clone();
        let _ = committed.supply_segment(load, Seconds::ZERO, Seconds::from_minutes(2.0));
        let spent = 1.0 - committed.ups().unwrap().charge().value();
        assert!((predicted - spent).abs() < 1e-9, "{predicted} vs {spent}");
        // Probe clones don't mutate the original.
        assert_eq!(sys.ups().unwrap().charge().value(), 1.0);
        let probe = sys.with_ups_charge(dcb_units::Fraction::new(0.5));
        assert!((probe.ups().unwrap().charge().value() - 0.5).abs() < 1e-12);
        assert_eq!(sys.ups().unwrap().charge().value(), 1.0);
    }

    /// Systems a planned projection or endurance must agree with the
    /// direct walk on: a full DG (ramp from 25 s to 120 s) with a full and
    /// with a half-power UPS, no DG, no UPS, a full DG whose 60 s of fuel
    /// run out mid-ramp (at 85 s), and a 60 % DG whose ten minutes of fuel
    /// run out at 625 s.
    fn planning_systems() -> [BackupSystem; 6] {
        let half_ups = || Some(Ups::new(peak() * 0.5, Seconds::from_minutes(15.0)));
        [
            BackupConfig::max_perf().instantiate(peak()),
            BackupConfig::dg_small_pups().instantiate(peak()),
            BackupConfig::no_dg().instantiate(peak()),
            BackupConfig::no_ups().instantiate(peak()),
            BackupSystem::new(
                Some(DieselGenerator::new(peak()).with_fuel_runtime(Seconds::new(60.0))),
                half_ups(),
            ),
            BackupSystem::new(
                Some(DieselGenerator::new(peak() * 0.6).with_fuel_runtime(Seconds::new(600.0))),
                half_ups(),
            ),
        ]
    }

    /// The instant the walk over `[from, ..)` splits a ramp phase at the
    /// DG crossover, if it does.
    fn walk_crossover(sys: &BackupSystem, load: Watts, from: Seconds) -> Option<Seconds> {
        let mut walk = sys.residual_walk(load, from, Seconds::from_hours(1.0));
        while let Some((_, first, rest)) = walk.next_phase() {
            if rest.is_some() {
                return Some(first.end);
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn projection_is_charge_used_for_bit_for_bit(
            system in 0usize..6,
            frac in -0.1f64..1.3,
            charge in 0.0f64..=1.0,
            pin in 0usize..8,
            start in 0.0f64..700.0,
            cut in 0.0f64..1.0,
            width in 0.0f64..900.0,
        ) {
            // A projection planned for (from, hi] and evaluated at τ gives
            // the bits of one planned exactly to τ and of the direct walk:
            // at random instants, and pinned to the DG start (25 s), the
            // end of the ramp (120 s), the crossover the walk splits at,
            // the DG's own crossover instant and the 625-s fuel-out.
            let sys = planning_systems()[system].with_ups_charge(Fraction::new(charge));
            // Loads below 5 % of peak are zero: the free walk.
            let load = if frac < 0.05 { Watts::ZERO } else { peak() * frac };
            let pinned = match pin {
                0 => Some(Seconds::new(25.0)),
                1 => Some(Seconds::new(120.0)),
                2 => walk_crossover(&sys, load, Seconds::ZERO),
                3 => sys.dg().and_then(|dg| dg.crossover_time(load)),
                4 => Some(Seconds::new(625.0)),
                _ => None,
            };
            let (from, tau, hi) = match pinned {
                Some(tau) => (tau * cut, tau, tau + Seconds::new(width)),
                None => {
                    let from = Seconds::new(start);
                    (from, from + Seconds::new(width * cut), from + Seconds::new(width))
                }
            };
            let direct = sys.charge_used_for(load, from, tau);
            let window = sys.charge_projection(load, from, hi).used_to(tau);
            let exact = sys.charge_projection(load, from, tau).used_to(tau);
            prop_assert_eq!(window.to_bits(), direct.to_bits(), "window {window} vs walk {direct}");
            prop_assert_eq!(exact.to_bits(), direct.to_bits(), "exact {exact} vs walk {direct}");
            // A crossover pinned from a window that starts inside the ramp.
            if let Some(cross) = walk_crossover(&sys, load, from) {
                let direct = sys.charge_used_for(load, from, cross);
                let window = sys.charge_projection(load, from, hi.max(cross)).used_to(cross);
                prop_assert_eq!(window.to_bits(), direct.to_bits(), "crossover {cross}");
            }
        }

        #[test]
        fn solved_endurance_is_endurance_bit_for_bit(
            system in 0usize..6,
            frac in -0.1f64..1.3,
            charge in 0.0f64..=1.0,
            elapsed in 0.0f64..900.0,
        ) {
            let sys = planning_systems()[system].with_ups_charge(Fraction::new(charge));
            let load = peak() * frac;
            let elapsed = Seconds::new(elapsed);
            let direct = sys.endurance(load, elapsed);
            let solved = sys
                .endurance_plan(load)
                .solved()
                .at(Fraction::new(charge), elapsed);
            prop_assert_eq!(solved.value().to_bits(), direct.value().to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The premise of the kernel's DG-less search skips (DESIGN.md §9):
        /// without a DG, the power a system can deliver does not move with
        /// τ, and every positive load's endurance is finite at any charge
        /// and instant, so neither the crash-recovery nor the unthrottle
        /// predicate can flip during an outage. `ups` 0 is the system with
        /// neither a DG nor a UPS.
        #[test]
        fn without_a_dg_power_is_flat_and_endurance_finite(
            ups in 0usize..5,
            rating in 1.0f64..2.0e6,
            minutes in 0.0f64..240.0,
            drawn in 0.0f64..1.5,
            draw_minutes in 0.0f64..240.0,
            load_exp in 0.0f64..=1.0,
            charge in 0.0f64..=1.0,
            tau in 0.0f64..1.0e7,
        ) {
            let chemistry = Chemistry::ALL[ups % Chemistry::ALL.len()];
            let ups = (ups > 0).then(|| {
                Ups::with_chemistry(Watts::new(rating), Seconds::from_minutes(minutes), chemistry)
            });
            let mut sys = BackupSystem::new(None, ups);
            let _ = sys.supply(
                Watts::new(rating * drawn),
                Seconds::ZERO,
                Seconds::from_minutes(draw_minutes),
            );
            let power = sys.available_power(Seconds::ZERO).value().to_bits();
            for at in [tau, 25.0, 120.0, 85.0, f64::MAX] {
                let at = sys.available_power(Seconds::new(at)).value().to_bits();
                prop_assert_eq!(at, power);
            }
            // Loads from 1 W to ten times the rating, log-uniformly.
            let load = Watts::new((10.0 * rating).powf(load_exp));
            let plan = sys.endurance_plan(load);
            for at in [0.0, tau] {
                let (charge, at) = (Fraction::new(charge), Seconds::new(at));
                let direct = plan.at(charge, at);
                let solved = plan.solved().at(charge, at);
                prop_assert!(direct.is_finite(), "{direct} at load {load}");
                prop_assert!(solved.is_finite(), "{solved} at load {load}");
            }
        }
    }

    proptest! {
        #[test]
        fn analytic_shortfall_brackets_stepped_shortfall(
            frac in 0.3f64..1.2,
            start_charge in 0.05f64..=1.0,
            minutes in 0.5f64..30.0,
        ) {
            // first_shortfall (no mutation) must predict exactly where a
            // committed supply_segment stops sustaining.
            let load = peak() * frac;
            let horizon = Seconds::from_minutes(minutes);
            let sys = BackupConfig::dg_small_pups()
                .instantiate(peak())
                .with_ups_charge(dcb_units::Fraction::new(start_charge));
            let predicted = sys.first_shortfall(load, Seconds::ZERO, horizon);
            let mut committed = sys.clone();
            let sustained = committed.supply_segment(load, Seconds::ZERO, horizon);
            match predicted {
                None => prop_assert!((sustained.value() - horizon.value()).abs() < 1e-6),
                Some(at) => prop_assert!(
                    (sustained.value() - at.value()).abs() < 1e-6,
                    "predicted shortfall {} but sustained {}",
                    at,
                    sustained
                ),
            }
        }

        #[test]
        fn supply_never_oversources(
            frac in 0.0f64..1.5,
            elapsed in 0.0f64..600.0,
            dt in 0.1f64..600.0,
        ) {
            let mut sys = BackupConfig::max_perf().instantiate(peak());
            let load = peak() * frac;
            let s = sys.supply(load, Seconds::new(elapsed), Seconds::new(dt));
            prop_assert!(s.from_dg + s.from_ups <= load + Watts::new(1e-6));
            prop_assert!(s.sustained <= s.interval + Seconds::new(1e-9));
        }
    }
}
