//! Battery pack specifications and the Peukert runtime law.

use crate::Chemistry;
use dcb_units::{contract, Fraction, Seconds, WattHours, Watts};

/// The static specification of a battery pack: rated power, runtime at rated
/// power, and chemistry.
///
/// The paper parameterizes UPS batteries exactly this way — a peak power
/// capacity plus an energy capacity expressed as *runtime* (Table 2 reports
/// "UPS runtime" in minutes; Table 3's `LargeEUPS` is "30 min"). The
/// `rated_runtime` here is the runtime at 100 % load, so the pack's nominal
/// energy is `rated_power × rated_runtime`.
///
/// ```
/// use dcb_battery::{Chemistry, PackSpec};
/// use dcb_units::{Watts, Seconds};
///
/// let pack = PackSpec::new(Watts::new(4000.0), Seconds::from_minutes(10.0), Chemistry::LeadAcid);
/// // Nominal (100%-load) energy of the Figure 3 pack is 0.66 kWh.
/// assert!((pack.nominal_energy().value() - 666.7).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PackSpec {
    rated_power: Watts,
    rated_runtime: Seconds,
    chemistry: Chemistry,
}

impl PackSpec {
    /// Creates a pack rated to deliver `rated_power` for `rated_runtime`.
    ///
    /// # Panics
    ///
    /// Panics if `rated_power` or `rated_runtime` is negative, or if
    /// `rated_runtime` is not finite.
    #[must_use]
    pub fn new(rated_power: Watts, rated_runtime: Seconds, chemistry: Chemistry) -> Self {
        assert!(rated_power.value() >= 0.0, "rated power must be >= 0");
        assert!(
            rated_runtime.value() >= 0.0 && rated_runtime.is_finite(),
            "rated runtime must be finite and >= 0"
        );
        Self {
            rated_power,
            rated_runtime,
            chemistry,
        }
    }

    /// The Figure 3 pack: 4 kW lead-acid, 10 minutes at rated load.
    #[must_use]
    pub fn figure3_reference() -> Self {
        Self::new(
            Watts::new(4000.0),
            Seconds::from_minutes(10.0),
            Chemistry::LeadAcid,
        )
    }

    /// Rated (peak) power.
    #[must_use]
    pub fn rated_power(self) -> Watts {
        self.rated_power
    }

    /// Runtime at rated power.
    #[must_use]
    pub fn rated_runtime(self) -> Seconds {
        self.rated_runtime
    }

    /// The chemistry.
    #[must_use]
    pub fn chemistry(self) -> Chemistry {
        self.chemistry
    }

    /// Nominal energy: what the pack delivers when drained at rated power.
    ///
    /// This is the "UPSEnergyCapacity" that enters the paper's cost model
    /// (Equation 2): power × runtime.
    #[must_use]
    pub fn nominal_energy(self) -> WattHours {
        self.rated_power * self.rated_runtime
    }

    /// Runtime at a constant `load`, per Peukert's law:
    ///
    /// `t(P) = rated_runtime × (rated_power / P)^k`.
    ///
    /// Reproduces Figure 3's anchors for the reference pack: 10 min at
    /// 4 kW, 60 min at 1 kW. Loads above rated power extrapolate along the
    /// same law (runtime *below* rated runtime); enforcing the power
    /// capacity limit is the UPS's job, not the cell model's.
    ///
    /// Returns an infinite runtime at zero load and zero runtime for a pack
    /// with zero rated power or runtime.
    #[must_use]
    pub fn runtime_at(self, load: Watts) -> Seconds {
        if self.rated_power.value() <= 0.0 || self.rated_runtime.value() <= 0.0 {
            return Seconds::ZERO;
        }
        if load.value() <= 0.0 {
            return Seconds::new(f64::INFINITY);
        }
        let ratio = self.rated_power.value() / load.value();
        let runtime = self.rated_runtime * ratio.powf(self.chemistry.peukert_exponent());
        contract!(
            runtime.value() >= 0.0,
            "Peukert runtime must be non-negative, got {runtime} at load {load}"
        );
        runtime
    }

    /// Energy actually delivered when drained at a constant `load`:
    /// `P × t(P)`. Monotonically decreasing in load for `k > 1` — the
    /// Figure 3 pack delivers 1 kWh at 25 % load but only 0.66 kWh at full
    /// load.
    #[must_use]
    pub fn energy_delivered_at(self, load: Watts) -> WattHours {
        if load.value() <= 0.0 {
            return WattHours::ZERO;
        }
        let energy = load * self.runtime_at(load);
        contract!(
            energy.value() >= 0.0,
            "delivered energy must be non-negative, got {energy} at load {load}"
        );
        energy
    }

    /// Instantaneous discharge rate at a constant `load`, in state-of-charge
    /// fraction per second: `1 / runtime_at(load)`.
    ///
    /// Zero at zero/negative load; infinite for a zero-capacity pack under
    /// any positive load.
    #[must_use]
    pub fn drain_rate(self, load: Watts) -> f64 {
        if load.value() <= 0.0 {
            return 0.0;
        }
        let runtime = self.runtime_at(load);
        if runtime.value() <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / runtime.value()
    }

    /// `rated_power^k × rated_runtime` — the denominator of the Peukert
    /// drain rate `P^k / (P_r^k · t_r)`. `None` for a zero-capacity pack.
    fn peukert_denominator(self) -> Option<f64> {
        if self.rated_power.value() <= 0.0 || self.rated_runtime.value() <= 0.0 {
            return None;
        }
        let k = self.chemistry.peukert_exponent();
        Some(self.rated_power.value().powf(k) * self.rated_runtime.value())
    }

    /// State-of-charge fraction consumed by a load ramping linearly from
    /// `start_load` to `end_load` over `duration` — the exact integral of
    /// the Peukert drain rate over an affine load:
    ///
    /// `∫₀^d (P₀ + s·t)^k dt / (P_r^k · t_r)
    ///   = (P₁^{k+1} − P₀^{k+1}) / (s · (k+1) · P_r^k · t_r)`.
    ///
    /// Negative loads are clamped to zero (they draw nothing); a
    /// zero-capacity pack returns infinity under any positive load. This is
    /// the closed form that lets the event-driven simulation kernel advance
    /// a battery across a whole DG-ramp segment in one step; see
    /// [`RampFrom`] for the same integral planned for one start load.
    #[must_use]
    pub fn charge_used_over_ramp(
        self,
        start_load: Watts,
        end_load: Watts,
        duration: Seconds,
    ) -> f64 {
        self.ramp_from(start_load).charge_used(end_load, duration)
    }

    /// The ramp integral of [`Self::charge_used_over_ramp`] from a fixed
    /// `start_load`, with nothing solved up front (see
    /// [`RampFrom::solved`]).
    #[must_use]
    pub fn ramp_from(self, start_load: Watts) -> RampFrom {
        RampFrom {
            spec: self,
            p0: start_load.value().max(0.0),
            solved: None,
        }
    }

    /// The instant within `duration` at which `charge` state-of-charge runs
    /// out under a load ramping linearly from `start_load` to `end_load`,
    /// or `None` if the charge outlasts the whole ramp.
    ///
    /// Inverts [`Self::charge_used_over_ramp`]: solves
    /// `P(τ)^{k+1} = P₀^{k+1} + charge · s · (k+1) · P_r^k · t_r` for τ.
    /// Depletion strictly at `duration` counts as surviving (`None`),
    /// matching [`crate::Battery::draw`]'s `endurance >= interval` test.
    #[must_use]
    pub fn depletion_time_over_ramp(
        self,
        charge: Fraction,
        start_load: Watts,
        end_load: Watts,
        duration: Seconds,
    ) -> Option<Seconds> {
        match self.drain_over_ramp(charge, start_load, end_load, duration) {
            RampDrain::Depleted(tau) => Some(tau),
            RampDrain::Survived(_) => None,
        }
    }

    /// What a load ramp does to `charge`: the depletion instant of
    /// [`Self::depletion_time_over_ramp`], or — when the charge outlasts
    /// the ramp — the [`Self::charge_used_over_ramp`] it spends, which the
    /// depletion test has already integrated.
    #[must_use]
    pub fn drain_over_ramp(
        self,
        charge: Fraction,
        start_load: Watts,
        end_load: Watts,
        duration: Seconds,
    ) -> RampDrain {
        let charge = charge.value();
        let d = duration.value();
        if d <= 0.0 {
            return RampDrain::Survived(0.0);
        }
        let p0 = start_load.value().max(0.0);
        let p1 = end_load.value().max(0.0);
        if p0 <= 0.0 && p1 <= 0.0 {
            return RampDrain::Survived(0.0);
        }
        if self.peukert_denominator().is_none() {
            // No capacity at all: the pack dies the instant load appears.
            return RampDrain::Depleted(Seconds::ZERO);
        }
        let total = self.charge_used_over_ramp(start_load, end_load, duration);
        if charge >= total {
            return RampDrain::Survived(total);
        }
        let k = self.chemistry.peukert_exponent();
        let tau = if (p1 - p0).abs() <= 1e-9 * p0.max(p1).max(1.0) {
            let mid = 0.5 * (p0 + p1);
            charge / self.drain_rate(Watts::new(mid))
        } else {
            // Solved here, not above: a survivor never needs it.
            let Some(denom) = self.peukert_denominator() else {
                return RampDrain::Depleted(Seconds::ZERO);
            };
            let s = (p1 - p0) / d;
            let target = p0.powf(k + 1.0) + charge * s * (k + 1.0) * denom;
            // `charge < total` bounds target within [p_min, p_max]^{k+1},
            // so the root is real; clamp tiny negatives from rounding.
            let p_tau = target.max(0.0).powf(1.0 / (k + 1.0));
            (p_tau - p0) / s
        };
        let tau = tau.clamp(0.0, d);
        contract!(
            (0.0..=d).contains(&tau),
            "depletion time {tau} outside ramp duration {duration}"
        );
        RampDrain::Depleted(Seconds::new(tau))
    }

    /// Scales the pack's rated power, keeping the rated runtime — models
    /// composing more strings of the same cells in parallel.
    #[must_use]
    pub fn scale_power(self, factor: f64) -> Self {
        Self::new(
            self.rated_power * factor,
            self.rated_runtime,
            self.chemistry,
        )
    }

    /// Returns a pack with additional energy modules so that its runtime at
    /// rated power becomes `runtime` (the paper's "Additional battery
    /// modules can be added to this base capacity").
    #[must_use]
    pub fn with_rated_runtime(self, runtime: Seconds) -> Self {
        Self::new(self.rated_power, runtime, self.chemistry)
    }
}

/// What a load ramp does to a state of charge
/// ([`PackSpec::drain_over_ramp`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RampDrain {
    /// The charge runs out this far into the ramp.
    Depleted(Seconds),
    /// The charge outlasts the ramp, which spends this state-of-charge
    /// fraction.
    Survived(f64),
}

/// The Peukert ramp integral of [`PackSpec::charge_used_over_ramp`] from
/// one fixed start load, to any end load and duration.
///
/// [`PackSpec::ramp_from`] solves nothing up front, so one evaluation
/// costs what the direct integral does. [`Self::solved`] solves the powers
/// that depend only on the pack and the start load — the Peukert
/// denominator `P_r^k · t_r`, `P₀^{k+1}`, and the `k`-th power of a flat
/// ramp's midpoint load — so each later evaluation costs at most the end
/// load's `powf`, and none along a flat ramp. Both give the same bits: the
/// solved powers are the very operations the evaluation would run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampFrom {
    spec: PackSpec,
    /// The start load, clamped to zero.
    p0: f64,
    solved: Option<SolvedRamp>,
}

/// The start-load powers [`RampFrom::solved`] computes once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SolvedRamp {
    /// `P_r^k · t_r`, `None` for a zero-capacity pack.
    denom: Option<f64>,
    /// `P₀^{k+1}`.
    p0_k1: f64,
    /// The midpoint load of a flat ramp from `P₀`, and its `k`-th power.
    flat_mid: f64,
    flat_mid_k: f64,
}

impl RampFrom {
    /// This integral with the start load's powers solved once, for
    /// repeated evaluation.
    #[must_use]
    pub fn solved(self) -> Self {
        let k = self.spec.chemistry.peukert_exponent();
        let flat_mid = 0.5 * (self.p0 + self.p0);
        Self {
            solved: Some(SolvedRamp {
                denom: self.spec.peukert_denominator(),
                p0_k1: self.p0.powf(k + 1.0),
                flat_mid,
                flat_mid_k: flat_mid.powf(k),
            }),
            ..self
        }
    }

    /// State-of-charge fraction a ramp from the start load to `end_load`
    /// over `duration` consumes.
    #[inline]
    #[must_use]
    pub fn charge_used(&self, end_load: Watts, duration: Seconds) -> f64 {
        let d = duration.value();
        if d <= 0.0 {
            return 0.0;
        }
        let p0 = self.p0;
        let p1 = end_load.value().max(0.0);
        if p0 <= 0.0 && p1 <= 0.0 {
            return 0.0;
        }
        let denom = match self.solved {
            Some(solved) => solved.denom,
            None => self.spec.peukert_denominator(),
        };
        let Some(denom) = denom else {
            return f64::INFINITY;
        };
        let k = self.spec.chemistry.peukert_exponent();
        // Near-constant ramps hit catastrophic cancellation in the closed
        // form; integrate at the midpoint load instead.
        let used = if (p1 - p0).abs() <= 1e-9 * p0.max(p1).max(1.0) {
            let mid = 0.5 * (p0 + p1);
            let mid_k = match self.solved {
                Some(solved) if mid.to_bits() == solved.flat_mid.to_bits() => solved.flat_mid_k,
                _ => mid.powf(k),
            };
            d * mid_k / denom
        } else {
            let s = (p1 - p0) / d;
            let p0_k1 = self
                .solved
                .map_or_else(|| p0.powf(k + 1.0), |solved| solved.p0_k1);
            (p1.powf(k + 1.0) - p0_k1) / (s * (k + 1.0) * denom)
        };
        contract!(
            used >= 0.0,
            "ramp charge use must be non-negative, got {used} for {}->{end_load} over {duration}",
            Watts::new(p0)
        );
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference() -> PackSpec {
        PackSpec::figure3_reference()
    }

    #[test]
    fn figure3_anchor_full_load() {
        let t = reference().runtime_at(Watts::new(4000.0));
        assert!((t.to_minutes() - 10.0).abs() < 1e-9);
        let e = reference().energy_delivered_at(Watts::new(4000.0));
        assert!(
            (e.value() - 666.666).abs() < 1.0,
            "expected ~0.66 kWh, got {e}"
        );
    }

    #[test]
    fn figure3_anchor_quarter_load() {
        let t = reference().runtime_at(Watts::new(1000.0));
        assert!((t.to_minutes() - 60.0).abs() < 1e-6);
        let e = reference().energy_delivered_at(Watts::new(1000.0));
        assert!((e.value() - 1000.0).abs() < 1e-6, "expected 1 kWh, got {e}");
    }

    #[test]
    fn zero_load_runs_forever() {
        assert!(reference().runtime_at(Watts::ZERO).value().is_infinite());
        assert_eq!(
            reference().energy_delivered_at(Watts::ZERO),
            WattHours::ZERO
        );
    }

    #[test]
    fn zero_capacity_pack_has_no_runtime() {
        let dead = PackSpec::new(Watts::ZERO, Seconds::ZERO, Chemistry::LeadAcid);
        assert_eq!(dead.runtime_at(Watts::new(100.0)), Seconds::ZERO);
    }

    #[test]
    fn lithium_flatter_than_lead_acid() {
        let la = reference();
        let li = PackSpec::new(la.rated_power(), la.rated_runtime(), Chemistry::LithiumIon);
        // At quarter load, lead-acid gains relatively more runtime.
        let quarter = Watts::new(1000.0);
        assert!(la.runtime_at(quarter) > li.runtime_at(quarter));
        // At rated load they agree by construction.
        assert_eq!(
            la.runtime_at(Watts::new(4000.0)),
            li.runtime_at(Watts::new(4000.0))
        );
    }

    #[test]
    fn overload_extrapolates_below_rated_runtime() {
        let t = reference().runtime_at(Watts::new(8000.0));
        assert!(t < reference().rated_runtime());
        assert!(t.value() > 0.0);
    }

    #[test]
    fn drain_rate_inverts_runtime() {
        let pack = reference();
        let load = Watts::new(2000.0);
        let rate = pack.drain_rate(load);
        assert!((rate * pack.runtime_at(load).value() - 1.0).abs() < 1e-12);
        assert_eq!(pack.drain_rate(Watts::ZERO), 0.0);
    }

    #[test]
    fn flat_ramp_matches_constant_drain() {
        let pack = reference();
        let load = Watts::new(3000.0);
        let d = Seconds::from_minutes(2.0);
        let ramp = pack.charge_used_over_ramp(load, load, d);
        let flat = d.value() * pack.drain_rate(load);
        assert!((ramp - flat).abs() < 1e-12, "{ramp} vs {flat}");
    }

    #[test]
    fn ramp_use_between_endpoint_constants() {
        // Convexity of P^k (k > 1) puts the ramp integral between the
        // constant-load bounds at the endpoints.
        let pack = reference();
        let d = Seconds::new(95.0);
        let (lo, hi) = (Watts::new(500.0), Watts::new(4000.0));
        let ramp = pack.charge_used_over_ramp(lo, hi, d);
        assert!(ramp > d.value() * pack.drain_rate(lo));
        assert!(ramp < d.value() * pack.drain_rate(hi));
    }

    #[test]
    fn zero_capacity_pack_ramp_behaviour() {
        let dead = PackSpec::new(Watts::ZERO, Seconds::ZERO, Chemistry::LeadAcid);
        let d = Seconds::new(10.0);
        assert!(dead
            .charge_used_over_ramp(Watts::new(1.0), Watts::new(2.0), d)
            .is_infinite());
        assert_eq!(
            dead.depletion_time_over_ramp(Fraction::new(1.0), Watts::new(1.0), Watts::new(2.0), d),
            Some(Seconds::ZERO)
        );
        assert_eq!(dead.charge_used_over_ramp(Watts::ZERO, Watts::ZERO, d), 0.0);
    }

    #[test]
    fn depletion_time_matches_constant_runtime() {
        let pack = reference();
        let load = Watts::new(4000.0);
        // Full charge at rated load depletes exactly at rated runtime; ask
        // over a longer window and the solver should pinpoint it.
        let tau = pack
            .depletion_time_over_ramp(Fraction::new(1.0), load, load, Seconds::from_hours(1.0))
            .expect("must deplete within the hour");
        assert!((tau.to_minutes() - 10.0).abs() < 1e-9);
        // Exactly at the boundary counts as surviving.
        assert!(pack
            .depletion_time_over_ramp(Fraction::new(1.0), load, load, pack.runtime_at(load))
            .is_none());
    }

    proptest! {
        #[test]
        fn ramp_charge_composes_over_splits(
            p0 in 0.0f64..5000.0,
            p1 in 0.0f64..5000.0,
            d in 1.0f64..3600.0,
            cut in 0.05f64..0.95,
        ) {
            // Integrating [0,d] equals integrating [0,c] + [c,d] along the
            // same affine load.
            let pack = reference();
            let (p0, p1) = (Watts::new(p0), Watts::new(p1));
            let whole = pack.charge_used_over_ramp(p0, p1, Seconds::new(d));
            let c = cut * d;
            let pc = Watts::new(p0.value() + (p1.value() - p0.value()) * cut);
            let first = pack.charge_used_over_ramp(p0, pc, Seconds::new(c));
            let second = pack.charge_used_over_ramp(pc, p1, Seconds::new(d - c));
            prop_assert!(
                (whole - (first + second)).abs() < 1e-9 * whole.max(1e-12),
                "{whole} vs {first} + {second}"
            );
        }

        #[test]
        fn depletion_inverts_charge_used(
            p0 in 10.0f64..5000.0,
            p1 in 10.0f64..5000.0,
            d in 1.0f64..3600.0,
            frac in 0.05f64..0.95,
        ) {
            // charge_used_over_ramp(0..τ) == c whenever
            // depletion_time_over_ramp(c) == τ.
            let pack = reference();
            let (p0, p1) = (Watts::new(p0), Watts::new(p1));
            let d = Seconds::new(d);
            let total = pack.charge_used_over_ramp(p0, p1, d);
            let c = frac * total.min(1.0);
            prop_assume!(c < total);
            let tau = pack.depletion_time_over_ramp(Fraction::new(c), p0, p1, d)
                .expect("charge below total use must deplete");
            let s = (p1.value() - p0.value()) / d.value();
            let p_tau = Watts::new(p0.value() + s * tau.value());
            let used = pack.charge_used_over_ramp(p0, p_tau, tau);
            prop_assert!((used - c).abs() < 1e-9, "used {used} target {c}");
        }

        #[test]
        fn solved_ramp_is_the_direct_integral_bit_for_bit(
            dead in 0usize..8,
            p0 in -100.0f64..5000.0,
            p1 in 0.0f64..5000.0,
            shape in 0usize..3,
            rel in -2e-9f64..2e-9,
            d in 0.0f64..3600.0,
        ) {
            // Flat, near-flat (inside the midpoint rule's tolerance) and
            // genuine ramps, on the reference pack and a dead one.
            let pack = if dead == 0 {
                PackSpec::new(Watts::ZERO, Seconds::ZERO, Chemistry::LeadAcid)
            } else {
                reference()
            };
            let end = match shape {
                0 => p0,
                1 => p0 * (1.0 + rel),
                _ => p1,
            };
            let (p0, end, d) = (Watts::new(p0), Watts::new(end), Seconds::new(d));
            let direct = pack.charge_used_over_ramp(p0, end, d);
            let solved = pack.ramp_from(p0).solved().charge_used(end, d);
            prop_assert_eq!(solved.to_bits(), direct.to_bits(), "solved {solved} vs {direct}");
        }

        #[test]
        fn drain_is_the_depletion_time_or_the_integral(
            p0 in -100.0f64..5000.0,
            p1 in -100.0f64..5000.0,
            d in 0.0f64..3600.0,
            charge in 0.0f64..=1.0,
        ) {
            let pack = reference();
            let (p0, p1, d) = (Watts::new(p0), Watts::new(p1), Seconds::new(d));
            let charge = Fraction::new(charge);
            let depletion = pack.depletion_time_over_ramp(charge, p0, p1, d);
            match pack.drain_over_ramp(charge, p0, p1, d) {
                RampDrain::Depleted(tau) => prop_assert_eq!(Some(tau), depletion),
                RampDrain::Survived(used) => {
                    prop_assert_eq!(depletion, None);
                    let direct = pack.charge_used_over_ramp(p0, p1, d);
                    prop_assert_eq!(used.to_bits(), direct.to_bits());
                }
            }
        }

        #[test]
        fn runtime_monotone_decreasing_in_load(
            lo in 1.0f64..4000.0,
            extra in 0.1f64..4000.0,
        ) {
            let pack = reference();
            let t_lo = pack.runtime_at(Watts::new(lo));
            let t_hi = pack.runtime_at(Watts::new(lo + extra));
            prop_assert!(t_hi <= t_lo);
        }

        #[test]
        fn energy_delivered_monotone_decreasing_in_load(
            lo in 1.0f64..4000.0,
            extra in 0.1f64..4000.0,
        ) {
            // Peukert k > 1 implies higher loads deliver *less* total energy.
            let pack = reference();
            let e_lo = pack.energy_delivered_at(Watts::new(lo));
            let e_hi = pack.energy_delivered_at(Watts::new(lo + extra));
            prop_assert!(e_hi <= e_lo + WattHours::new(1e-9));
        }

        #[test]
        fn scale_power_scales_nominal_energy(f in 0.1f64..10.0) {
            let pack = reference();
            let scaled = pack.scale_power(f);
            let expected = pack.nominal_energy().value() * f;
            prop_assert!((scaled.nominal_energy().value() - expected).abs() < 1e-6);
        }
    }
}
