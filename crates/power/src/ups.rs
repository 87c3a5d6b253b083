//! Offline UPS units with Peukert batteries.

use dcb_battery::{Battery, Chemistry, PackSpec};
use dcb_units::{contract, Fraction, Seconds, WattHours, Watts};

/// A rack-level offline UPS: power electronics rated for a peak load plus a
/// battery pack.
///
/// Offline (parallel) placement is today's preference "to avoid
/// double-conversion inefficiencies" (§3); on a utility failure the unit
/// takes ~10 ms to detect and switch, comfortably covered by the ~30 ms of
/// power-supply capacitance, so the switchover is modeled as seamless. The
/// power electronics cap the deliverable power at `power_capacity`
/// regardless of battery charge.
///
/// ```
/// use dcb_power::Ups;
/// use dcb_units::{Seconds, Watts};
///
/// let mut ups = Ups::new(Watts::new(4000.0), Seconds::from_minutes(10.0));
/// let outcome = ups.draw(Watts::new(1000.0), Seconds::from_minutes(30.0));
/// assert_eq!(outcome.sustained, Seconds::from_minutes(30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ups {
    power_capacity: Watts,
    battery: Battery,
}

impl Ups {
    /// Offline-UPS failure detection latency (§3).
    pub const SWITCHOVER: Seconds = Seconds::literal(0.010);

    /// A lead-acid UPS rated for `power_capacity` with `rated_runtime` of
    /// battery at that power.
    #[must_use]
    pub fn new(power_capacity: Watts, rated_runtime: Seconds) -> Self {
        Self::with_chemistry(power_capacity, rated_runtime, Chemistry::LeadAcid)
    }

    /// A UPS with an explicit battery chemistry.
    #[must_use]
    pub fn with_chemistry(
        power_capacity: Watts,
        rated_runtime: Seconds,
        chemistry: Chemistry,
    ) -> Self {
        let pack = PackSpec::new(power_capacity, rated_runtime, chemistry);
        Self {
            power_capacity,
            battery: Battery::full(pack),
        }
    }

    /// Power-electronics rating: the most the UPS can deliver at any
    /// instant.
    #[must_use]
    pub fn power_capacity(&self) -> Watts {
        self.power_capacity
    }

    /// Electronics tare drawn while the unit carries a load: 0.5 % of the
    /// power rating, so near-zero loads do not yield unphysical multi-day
    /// runtimes (the paper reports no tare).
    #[must_use]
    pub fn tare(&self) -> Watts {
        self.power_capacity * 0.005
    }

    /// The battery pack specification.
    #[must_use]
    pub fn pack(&self) -> PackSpec {
        self.battery.spec()
    }

    /// Current battery state of charge.
    #[must_use]
    pub fn charge(&self) -> Fraction {
        self.battery.charge()
    }

    /// Whether the battery is flat.
    #[must_use]
    pub fn is_depleted(&self) -> bool {
        self.battery.is_empty()
    }

    /// Cumulative battery discharge in equivalent full cycles.
    #[must_use]
    pub fn equivalent_cycles(&self) -> f64 {
        self.battery.equivalent_cycles()
    }

    /// Nominal battery energy (at rated discharge).
    #[must_use]
    pub fn nominal_energy(&self) -> WattHours {
        self.battery.spec().nominal_energy()
    }

    /// Power deliverable right now: the electronics rating while charge
    /// remains, zero once the battery is flat.
    #[must_use]
    pub fn available_power(&self) -> Watts {
        if self.is_depleted() {
            Watts::ZERO
        } else {
            self.power_capacity
        }
    }

    /// How long the remaining charge sustains `load` (∞ at zero load, zero
    /// if `load` exceeds the electronics rating).
    #[must_use]
    pub fn remaining_runtime_at(&self, load: Watts) -> Seconds {
        self.runtime_left(load, self.charge(), || self.pack().runtime_at(load))
    }

    /// How long `charge` sustains `load`, given the pack's full-charge
    /// runtime at `load`: zero if `load` exceeds the electronics rating,
    /// in which case `runtime` is never called.
    #[inline]
    pub(crate) fn runtime_left(
        &self,
        load: Watts,
        charge: Fraction,
        runtime: impl FnOnce() -> Seconds,
    ) -> Seconds {
        if load > self.power_capacity {
            return Seconds::ZERO;
        }
        runtime() * charge.value()
    }

    /// Draws `load` for up to `interval` from the battery.
    ///
    /// Loads beyond the electronics rating are refused outright (zero
    /// sustained time): the overload trips the unit rather than browning
    /// out.
    pub fn draw(&mut self, load: Watts, interval: Seconds) -> dcb_battery::DrawOutcome {
        if load > self.power_capacity {
            return dcb_battery::DrawOutcome {
                sustained: Seconds::ZERO,
                depleted: self.is_depleted(),
                energy_delivered: WattHours::ZERO,
            };
        }
        let outcome = self.battery.draw(load, interval);
        // Non-negative draw: a UPS never sources negative time or energy,
        // and never delivers more than its electronics rating allows over
        // the sustained window.
        contract!(
            outcome.sustained.value() >= 0.0 && outcome.energy_delivered.value() >= 0.0,
            "UPS draw produced negative outcome: sustained {}, energy {}",
            outcome.sustained,
            outcome.energy_delivered
        );
        contract!(
            outcome.energy_delivered.value()
                <= self.power_capacity.value() * outcome.sustained.value() / 3600.0 + 1e-9,
            "UPS delivered {} Wh, above rating {} for {}",
            outcome.energy_delivered.value(),
            self.power_capacity,
            outcome.sustained
        );
        outcome
    }

    /// Draws a load ramping linearly from `start_load` to `end_load` over
    /// `interval` — the analytic segment primitive behind the event kernel.
    /// Refused outright (zero sustained time) if the ramp exceeds the
    /// electronics rating at any point, matching [`Self::draw`].
    pub fn draw_ramp(
        &mut self,
        start_load: Watts,
        end_load: Watts,
        interval: Seconds,
    ) -> dcb_battery::DrawOutcome {
        if start_load.max(end_load) > self.power_capacity {
            return dcb_battery::DrawOutcome {
                sustained: Seconds::ZERO,
                depleted: self.is_depleted(),
                energy_delivered: WattHours::ZERO,
            };
        }
        let outcome = self.battery.draw_ramp(start_load, end_load, interval);
        contract!(
            outcome.energy_delivered.value()
                <= self.power_capacity.value() * outcome.sustained.value() / 3600.0 + 1e-9,
            "UPS ramp delivered {} Wh, above rating {} for {}",
            outcome.energy_delivered.value(),
            self.power_capacity,
            outcome.sustained
        );
        outcome
    }

    /// A copy of this UPS with the battery at a given state of charge —
    /// the kernel's what-if probe for future instants.
    #[must_use]
    pub fn with_charge(mut self, charge: Fraction) -> Self {
        self.battery = self.battery.with_charge(charge);
        self
    }

    /// State-of-charge fraction a load ramp would consume, without
    /// mutating the battery (see [`PackSpec::charge_used_over_ramp`]).
    #[must_use]
    pub fn charge_used_over_ramp(
        &self,
        start_load: Watts,
        end_load: Watts,
        duration: Seconds,
    ) -> f64 {
        self.battery
            .spec()
            .charge_used_over_ramp(start_load, end_load, duration)
    }

    /// The instant within `duration` at which the *current* charge dies
    /// under a load ramp, or `None` if it survives (see
    /// [`PackSpec::depletion_time_over_ramp`]). Loads beyond the
    /// electronics rating are the caller's overload problem, not a
    /// depletion instant.
    #[must_use]
    pub fn depletion_time_over_ramp(
        &self,
        start_load: Watts,
        end_load: Watts,
        duration: Seconds,
    ) -> Option<Seconds> {
        self.battery.spec().depletion_time_over_ramp(
            self.battery.charge(),
            start_load,
            end_load,
            duration,
        )
    }

    /// Recharges the battery (utility restored).
    pub fn recharge(&mut self) {
        self.battery.recharge();
    }

    /// Recharges for `duration` at the chemistry's charging rate.
    pub fn recharge_for(&mut self, duration: Seconds) {
        self.battery.recharge_for(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn overload_refused() {
        let mut ups = Ups::new(Watts::new(1000.0), Seconds::from_minutes(2.0));
        let outcome = ups.draw(Watts::new(1500.0), Seconds::new(10.0));
        assert_eq!(outcome.sustained, Seconds::ZERO);
        assert_eq!(ups.remaining_runtime_at(Watts::new(1500.0)), Seconds::ZERO);
    }

    #[test]
    fn partial_load_stretches_runtime() {
        // Peukert effect visible through the UPS facade.
        let ups = Ups::new(Watts::new(4000.0), Seconds::from_minutes(10.0));
        let quarter = ups.remaining_runtime_at(Watts::new(1000.0));
        assert!((quarter.to_minutes() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn depletion_and_recharge() {
        let mut ups = Ups::new(Watts::new(1000.0), Seconds::from_minutes(2.0));
        let outcome = ups.draw(Watts::new(1000.0), Seconds::from_minutes(5.0));
        assert!(outcome.depleted);
        assert_eq!(ups.available_power(), Watts::ZERO);
        ups.recharge();
        assert_eq!(ups.available_power(), Watts::new(1000.0));
    }

    proptest! {
        #[test]
        fn runtime_zero_iff_overloaded(load in 1.0f64..8000.0) {
            let ups = Ups::new(Watts::new(4000.0), Seconds::from_minutes(10.0));
            let runtime = ups.remaining_runtime_at(Watts::new(load));
            if load > 4000.0 {
                prop_assert_eq!(runtime, Seconds::ZERO);
            } else {
                prop_assert!(runtime.value() > 0.0);
            }
        }
    }
}
