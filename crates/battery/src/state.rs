//! Stateful battery discharge under time-varying load.

use crate::{PackSpec, RampDrain};
use dcb_units::{contract, Fraction, Seconds, WattHours, Watts};

/// A battery with a state of charge, dischargeable step by step.
///
/// Depletion is *rate dependent*: at load `P` the fraction of charge consumed
/// per second is `1 / t(P)` where `t(P)` is the Peukert runtime of the pack
/// at that load. Under a constant load this integrates to exactly the pack's
/// [`PackSpec::runtime_at`]; under a varying load it captures the paper's
/// key effect that dropping to a low-power state mid-outage stretches the
/// remaining charge disproportionately.
///
/// ```
/// use dcb_battery::{Battery, PackSpec};
/// use dcb_units::{Seconds, Watts};
///
/// let mut battery = Battery::full(PackSpec::figure3_reference());
/// // Run 5 of the 10 rated minutes at full load...
/// battery.draw(Watts::new(4000.0), Seconds::from_minutes(5.0));
/// // ...then the rest at quarter load: half the charge stretches to 30 min.
/// let left = battery.remaining_runtime_at(Watts::new(1000.0));
/// assert!((left.to_minutes() - 30.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Battery {
    spec: PackSpec,
    charge: Fraction,
    /// Cumulative discharge throughput, in equivalent full cycles.
    cycles: f64,
}

/// The result of drawing from a [`Battery`] for one interval.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DrawOutcome {
    /// How long the battery actually sustained the load within the requested
    /// interval. Equal to the interval unless the battery ran dry.
    pub sustained: Seconds,
    /// Whether the battery was exhausted during the interval.
    pub depleted: bool,
    /// Energy delivered to the load during the sustained portion.
    pub energy_delivered: WattHours,
}

impl Battery {
    /// Charge below this is floating-point residue of an exact-boundary
    /// draw, not usable energy: snap it to empty.
    const CHARGE_DUST: f64 = 1e-12;

    /// A fully charged battery of the given pack.
    #[must_use]
    pub fn full(spec: PackSpec) -> Self {
        Self {
            spec,
            charge: Fraction::ONE,
            cycles: 0.0,
        }
    }

    /// A battery at an arbitrary state of charge.
    #[must_use]
    pub fn at_charge(spec: PackSpec, charge: Fraction) -> Self {
        Self {
            spec,
            charge,
            cycles: 0.0,
        }
    }

    /// A copy of this battery at a different state of charge, wear
    /// preserved — a cheap what-if probe for the event kernel's
    /// latest-safe-fallback and depletion solvers.
    #[must_use]
    pub fn with_charge(mut self, charge: Fraction) -> Self {
        self.charge = charge;
        self
    }

    /// The pack specification.
    #[must_use]
    pub fn spec(&self) -> PackSpec {
        self.spec
    }

    /// Current state of charge.
    #[must_use]
    pub fn charge(&self) -> Fraction {
        self.charge
    }

    /// Whether any charge remains.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.charge.is_zero()
    }

    /// How long the remaining charge lasts at a constant `load`.
    #[must_use]
    pub fn remaining_runtime_at(&self, load: Watts) -> Seconds {
        self.spec.runtime_at(load) * self.charge.value()
    }

    /// Cumulative discharge throughput in *equivalent full cycles* — the
    /// standard wear currency. Lead-acid packs reach end of life around
    /// 400–600 full cycles; the paper (§2) argues backup duty is so rare
    /// that wear is a non-issue, and this counter lets analyses verify it:
    /// even an outage-heavy year costs only a handful of cycles.
    #[must_use]
    pub fn equivalent_cycles(&self) -> f64 {
        self.cycles
    }

    /// Fraction of end-of-life cycle budget consumed (lead-acid ≈ 500
    /// equivalent full cycles to the 80 % capacity knee).
    #[must_use]
    pub fn wear_fraction(&self) -> f64 {
        const CYCLES_TO_EOL: f64 = 500.0;
        (self.cycles / CYCLES_TO_EOL).min(1.0)
    }

    /// Draws `load` for up to `interval`, depleting charge at the
    /// rate-dependent Peukert rate.
    ///
    /// If the charge runs out mid-interval the outcome reports the time
    /// actually sustained and `depleted = true`; the battery is left empty.
    /// A zero or negative load sustains the full interval for free.
    #[must_use]
    pub fn draw(&mut self, load: Watts, interval: Seconds) -> DrawOutcome {
        let outcome = self.draw_inner(load, interval);
        // Model contracts: SoC bounds, time budget, energy conservation,
        // and monotone wear (see `dcb_units::contracts`).
        contract!(
            (0.0..=1.0).contains(&self.charge.value()),
            "state of charge left [0,1]: {}",
            self.charge.value()
        );
        contract!(
            outcome.sustained.value() >= 0.0
                && outcome.sustained.value() <= interval.value().max(0.0) + 1e-9,
            "sustained {} exceeds requested interval {interval}",
            outcome.sustained
        );
        let expected = (load.value().max(0.0) * outcome.sustained.value() / 3600.0).max(0.0);
        contract!(
            (outcome.energy_delivered.value() - expected).abs() <= expected.abs() * 1e-9 + 1e-9,
            "energy conservation violated: delivered {} but load x time = {expected} Wh",
            outcome.energy_delivered
        );
        contract!(
            self.cycles >= 0.0,
            "equivalent cycles went negative: {}",
            self.cycles
        );
        outcome
    }

    fn draw_inner(&mut self, load: Watts, interval: Seconds) -> DrawOutcome {
        if interval.value() <= 0.0 {
            return DrawOutcome {
                sustained: Seconds::ZERO,
                depleted: self.is_empty(),
                energy_delivered: WattHours::ZERO,
            };
        }
        if load.value() <= 0.0 {
            return DrawOutcome {
                sustained: interval,
                depleted: false,
                energy_delivered: WattHours::ZERO,
            };
        }
        let full_runtime = self.spec.runtime_at(load);
        let endurance = full_runtime * self.charge.value();
        if endurance >= interval {
            let used = if full_runtime.value().is_finite() && full_runtime.value() > 0.0 {
                interval.value() / full_runtime.value()
            } else {
                0.0
            };
            self.charge = Fraction::new(self.charge.value() - used);
            self.cycles += used;
            DrawOutcome {
                sustained: interval,
                depleted: false,
                energy_delivered: load * interval,
            }
        } else {
            self.cycles += self.charge.value();
            self.charge = Fraction::ZERO;
            DrawOutcome {
                sustained: endurance,
                depleted: true,
                energy_delivered: load * endurance,
            }
        }
    }

    /// Draws a load ramping linearly from `start_load` to `end_load` over
    /// `interval`, depleting charge by the exact Peukert integral
    /// ([`PackSpec::charge_used_over_ramp`]).
    ///
    /// With `start_load == end_load` this is numerically identical to
    /// [`Self::draw`]; with a genuine ramp it advances the battery across a
    /// whole DG-ramp segment in one closed-form step — the primitive the
    /// event-driven simulation kernel is built on. On depletion the outcome
    /// reports the exact mid-ramp instant the charge ran out.
    #[must_use]
    pub fn draw_ramp(
        &mut self,
        start_load: Watts,
        end_load: Watts,
        interval: Seconds,
    ) -> DrawOutcome {
        let outcome = self.draw_ramp_inner(start_load, end_load, interval);
        contract!(
            (0.0..=1.0).contains(&self.charge.value()),
            "state of charge left [0,1]: {}",
            self.charge.value()
        );
        contract!(
            outcome.sustained.value() >= 0.0
                && outcome.sustained.value() <= interval.value().max(0.0) + 1e-9,
            "sustained {} exceeds requested interval {interval}",
            outcome.sustained
        );
        // Energy conservation along the sustained part of the ramp: the
        // delivered energy must equal the trapezoid under the load line.
        let s = if interval.value() > 0.0 {
            (end_load.value() - start_load.value()) / interval.value()
        } else {
            0.0
        };
        let p_end = (start_load.value() + s * outcome.sustained.value()).max(0.0);
        let expected =
            0.5 * (start_load.value().max(0.0) + p_end) * outcome.sustained.value() / 3600.0;
        contract!(
            (outcome.energy_delivered.value() - expected).abs() <= expected.abs() * 1e-6 + 1e-6,
            "ramp energy conservation violated: delivered {} but trapezoid = {expected} Wh",
            outcome.energy_delivered
        );
        contract!(
            self.cycles >= 0.0,
            "equivalent cycles went negative: {}",
            self.cycles
        );
        outcome
    }

    fn draw_ramp_inner(
        &mut self,
        start_load: Watts,
        end_load: Watts,
        interval: Seconds,
    ) -> DrawOutcome {
        if interval.value() <= 0.0 {
            return DrawOutcome {
                sustained: Seconds::ZERO,
                depleted: self.is_empty(),
                energy_delivered: WattHours::ZERO,
            };
        }
        let p0 = Watts::new(start_load.value().max(0.0));
        let p1 = Watts::new(end_load.value().max(0.0));
        if p0.value() <= 0.0 && p1.value() <= 0.0 {
            return DrawOutcome {
                sustained: interval,
                depleted: false,
                energy_delivered: WattHours::ZERO,
            };
        }
        let trapezoid = |end: Watts, over: Seconds| -> WattHours {
            Watts::new(0.5 * (p0.value() + end.value())) * over
        };
        match self.spec.drain_over_ramp(self.charge, p0, p1, interval) {
            RampDrain::Survived(used) => {
                // A draw that lands exactly on the depletion boundary
                // leaves floating-point dust, not charge: snap it to empty
                // so `is_empty` (and everything gated on it, like UPS
                // available power) agrees with the analytic depletion time.
                let left = self.charge.value() - used;
                self.charge = if left < Self::CHARGE_DUST {
                    dcb_telemetry::counter!("battery.dust_snaps").incr();
                    dcb_trace::instant(None, None, || dcb_trace::EventKind::DustSnap);
                    Fraction::ZERO
                } else {
                    Fraction::new(left)
                };
                self.cycles += used;
                DrawOutcome {
                    sustained: interval,
                    depleted: false,
                    energy_delivered: trapezoid(p1, interval),
                }
            }
            RampDrain::Depleted(tau) => {
                let slope = (p1.value() - p0.value()) / interval.value();
                let p_tau = Watts::new(p0.value() + slope * tau.value());
                self.cycles += self.charge.value();
                self.charge = Fraction::ZERO;
                DrawOutcome {
                    sustained: tau,
                    depleted: true,
                    energy_delivered: trapezoid(p_tau, tau),
                }
            }
        }
    }

    /// Restores the battery to full charge (utility back, recharge done).
    pub fn recharge(&mut self) {
        self.charge = Fraction::ONE;
    }

    /// Recharges for `duration` at the chemistry's safe charging rate.
    ///
    /// Charging is modeled as linear in time up to full; a lead-acid pack
    /// needs ~10 h from empty, so an outage arriving an hour after the last
    /// one finds only ~10 % of the spent charge restored.
    pub fn recharge_for(&mut self, duration: Seconds) {
        if duration.value() <= 0.0 {
            return;
        }
        let full = self.spec.chemistry().recharge_time();
        let gained = if full.value() <= 0.0 {
            1.0
        } else {
            duration.value() / full.value()
        };
        self.charge = Fraction::new(self.charge.value() + gained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn full_reference() -> Battery {
        Battery::full(PackSpec::figure3_reference())
    }

    #[test]
    fn constant_load_matches_pack_runtime() {
        let mut b = full_reference();
        let outcome = b.draw(Watts::new(4000.0), Seconds::from_hours(10.0));
        assert!(outcome.depleted);
        assert!((outcome.sustained.to_minutes() - 10.0).abs() < 1e-9);
        assert!(b.is_empty());
    }

    #[test]
    fn stepping_down_load_stretches_charge() {
        let mut b = full_reference();
        let first = b.draw(Watts::new(4000.0), Seconds::from_minutes(5.0));
        assert!(!first.depleted);
        assert!((b.charge().value() - 0.5).abs() < 1e-12);
        let second = b.draw(Watts::new(1000.0), Seconds::from_hours(10.0));
        assert!(second.depleted);
        assert!((second.sustained.to_minutes() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn zero_load_draws_nothing() {
        let mut b = full_reference();
        let outcome = b.draw(Watts::ZERO, Seconds::from_hours(100.0));
        assert!(!outcome.depleted);
        assert_eq!(b.charge(), Fraction::ONE);
        assert_eq!(outcome.energy_delivered, WattHours::ZERO);
    }

    #[test]
    fn recharge_restores_full() {
        let mut b = full_reference();
        let _ = b.draw(Watts::new(4000.0), Seconds::from_minutes(9.0));
        b.recharge();
        assert_eq!(b.charge(), Fraction::ONE);
    }

    #[test]
    fn partial_recharge_is_linear_in_time() {
        let mut b = full_reference();
        let _ = b.draw(Watts::new(4000.0), Seconds::from_minutes(20.0));
        assert!(b.is_empty());
        // Lead-acid: 10 h to full, so 1 h restores 10%.
        b.recharge_for(Seconds::from_hours(1.0));
        assert!((b.charge().value() - 0.1).abs() < 1e-9);
        b.recharge_for(Seconds::from_hours(20.0));
        assert_eq!(b.charge(), Fraction::ONE);
    }

    #[test]
    fn lithium_recharges_faster() {
        use crate::Chemistry;
        let spec = PackSpec::new(
            Watts::new(4000.0),
            Seconds::from_minutes(10.0),
            Chemistry::LithiumIon,
        );
        let mut li = Battery::at_charge(spec, Fraction::ZERO);
        li.recharge_for(Seconds::from_hours(1.0));
        assert!((li.charge().value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wear_counts_equivalent_cycles() {
        let mut b = full_reference();
        // Full drain = one equivalent cycle.
        let _ = b.draw(Watts::new(4000.0), Seconds::from_hours(1.0));
        assert!((b.equivalent_cycles() - 1.0).abs() < 1e-9);
        b.recharge();
        let _ = b.draw(Watts::new(4000.0), Seconds::from_minutes(5.0));
        assert!((b.equivalent_cycles() - 1.5).abs() < 1e-9);
        assert!((b.wear_fraction() - 1.5 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn a_year_of_outages_barely_wears_the_pack() {
        // §2: "issues such as battery wear due to rare outages are less
        // important". Even six full-depth outages a year stay under 2% of
        // the cycle budget.
        let mut b = full_reference();
        for _ in 0..6 {
            let _ = b.draw(Watts::new(4000.0), Seconds::from_hours(1.0));
            b.recharge();
        }
        assert!(b.wear_fraction() < 0.02, "wear {}", b.wear_fraction());
    }

    #[test]
    fn empty_battery_sustains_nothing() {
        let mut b = Battery::at_charge(PackSpec::figure3_reference(), Fraction::ZERO);
        let outcome = b.draw(Watts::new(100.0), Seconds::new(10.0));
        assert!(outcome.depleted);
        assert_eq!(outcome.sustained, Seconds::ZERO);
    }

    #[test]
    fn ramp_draw_depletes_mid_ramp() {
        // Half charge under a load ramping 0 -> 4 kW over 20 min dies
        // somewhere strictly inside the ramp.
        let mut b = Battery::at_charge(PackSpec::figure3_reference(), Fraction::new(0.25));
        let outcome = b.draw_ramp(Watts::ZERO, Watts::new(4000.0), Seconds::from_minutes(20.0));
        assert!(outcome.depleted);
        assert!(outcome.sustained.value() > 0.0);
        assert!(outcome.sustained < Seconds::from_minutes(20.0));
        assert!(b.is_empty());
    }

    #[test]
    fn with_charge_probe_leaves_original_untouched() {
        let b = full_reference();
        let probe = b.with_charge(Fraction::new(0.25));
        assert!((probe.charge().value() - 0.25).abs() < 1e-12);
        assert_eq!(b.charge(), Fraction::ONE);
        assert!((probe.equivalent_cycles() - b.equivalent_cycles()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn flat_ramp_draw_matches_constant_draw(
            load in 1.0f64..6000.0,
            minutes in 0.01f64..40.0,
            start in 0.01f64..=1.0,
        ) {
            let spec = PackSpec::figure3_reference();
            let load = Watts::new(load);
            let d = Seconds::from_minutes(minutes);
            let mut flat = Battery::at_charge(spec, Fraction::new(start));
            let mut ramp = Battery::at_charge(spec, Fraction::new(start));
            let a = flat.draw(load, d);
            let b = ramp.draw_ramp(load, load, d);
            prop_assert_eq!(a.depleted, b.depleted);
            prop_assert!((a.sustained.value() - b.sustained.value()).abs() < 1e-6);
            prop_assert!((flat.charge().value() - ramp.charge().value()).abs() < 1e-9);
            prop_assert!(
                (a.energy_delivered.value() - b.energy_delivered.value()).abs()
                    < 1e-6 * a.energy_delivered.value().max(1.0)
            );
        }

        #[test]
        fn split_ramp_draw_composes(
            p0 in 0.0f64..5000.0,
            p1 in 0.0f64..5000.0,
            minutes in 0.1f64..30.0,
            cut in 0.05f64..0.95,
        ) {
            // Drawing a ramp in two pieces leaves the same charge as one
            // piece, provided neither leg depletes.
            let spec = PackSpec::figure3_reference();
            let (p0, p1) = (Watts::new(p0), Watts::new(p1));
            let d = Seconds::from_minutes(minutes);
            let mut whole = Battery::full(spec);
            let w = whole.draw_ramp(p0, p1, d);
            prop_assume!(!w.depleted);
            let mut split = Battery::full(spec);
            let c = Seconds::new(cut * d.value());
            let pc = Watts::new(p0.value() + (p1.value() - p0.value()) * cut);
            let _ = split.draw_ramp(p0, pc, c);
            let _ = split.draw_ramp(pc, p1, Seconds::new(d.value() - c.value()));
            prop_assert!((whole.charge().value() - split.charge().value()).abs() < 1e-9);
        }

        #[test]
        fn draw_never_overcommits(
            load in 1.0f64..8000.0,
            minutes in 0.01f64..600.0,
            start in 0.0f64..=1.0,
        ) {
            let mut b = Battery::at_charge(PackSpec::figure3_reference(), Fraction::new(start));
            let before = b.remaining_runtime_at(Watts::new(load));
            let outcome = b.draw(Watts::new(load), Seconds::from_minutes(minutes));
            // Sustained time never exceeds either the request or the endurance.
            prop_assert!(outcome.sustained <= Seconds::from_minutes(minutes) + Seconds::new(1e-9));
            prop_assert!(outcome.sustained <= before + Seconds::new(1e-6));
            // Charge never goes negative.
            prop_assert!(b.charge().value() >= 0.0);
        }

        #[test]
        fn split_draw_equals_single_draw(
            load in 1.0f64..4000.0,
            half_minutes in 0.01f64..4.0,
        ) {
            // Drawing twice for t/2 leaves the same charge as once for t.
            let load = Watts::new(load);
            let half = Seconds::from_minutes(half_minutes);
            let mut split = full_reference();
            let _ = split.draw(load, half);
            let _ = split.draw(load, half);
            let mut single = full_reference();
            let _ = single.draw(load, half * 2.0);
            prop_assert!((split.charge().value() - single.charge().value()).abs() < 1e-9);
        }
    }
}
