//! Typed physical and economic quantities used throughout `dcbackup`.
//!
//! Every quantity in the backup-power provisioning framework — power draw,
//! battery energy, outage durations, capital cost — is a thin newtype over
//! `f64` so that the compiler keeps watts, watt-hours, seconds and dollars
//! from being mixed up (C-NEWTYPE). The types implement the arithmetic that
//! is physically meaningful and nothing more: you can multiply [`Watts`] by
//! [`Seconds`] and get [`WattHours`], but you cannot add [`Watts`] to
//! [`Dollars`].
//!
//! The crate also provides the stable fingerprints memoization keys are
//! built from: [`StableHasher`] (FNV-1a, 128-bit) and the [`StableHash`]
//! trait that spec types implement over their fields.
//!
//! # Examples
//!
//! ```
//! use dcb_units::{Watts, Seconds, WattHours};
//!
//! let server_draw = Watts::new(250.0);
//! let outage = Seconds::from_minutes(30.0);
//! let energy: WattHours = server_draw * outage;
//! assert!((energy.value() - 125.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod quantity;

pub mod contracts;

mod data;
mod energy;
mod fraction;
mod hash;
mod money;
mod power;
mod time;

pub use data::{Gigabytes, MegabytesPerSecond};
pub use energy::{KilowattHours, WattHours};
pub use fraction::Fraction;
pub use hash::{StableHash, StableHasher};
pub use money::{Dollars, DollarsPerKwMin, DollarsPerKwYear, DollarsPerKwhYear, DollarsPerYear};
pub use power::{Kilowatts, Watts};
pub use time::{Minutes, Seconds, Years};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_energy_identity() {
        // 1 kW for one hour is exactly 1 kWh.
        let e = Watts::new(1000.0) * Seconds::from_hours(1.0);
        assert!((KilowattHours::from(e).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_rate_times_capacity() {
        // Table 1 of the paper: $83.3/kW/yr at 10 MW is $0.833M/yr.
        let dg = DollarsPerKwYear::new(83.3);
        let cost = dg * Kilowatts::new(10_000.0);
        assert!((cost.value() - 833_000.0).abs() < 1e-6);
    }

    #[test]
    fn quantities_sum_over_iterators() {
        let total: Watts = [10.0, 20.0, 30.0].map(Watts::new).into_iter().sum();
        assert_eq!(total, Watts::new(60.0));
        let by_ref: Seconds = [Seconds::new(1.0), Seconds::new(2.0)].iter().sum();
        assert_eq!(by_ref, Seconds::new(3.0));
    }

    #[test]
    fn like_quantity_division_is_dimensionless() {
        let ratio: f64 = Watts::new(125.0) / Watts::new(250.0);
        assert_eq!(ratio, 0.5);
    }

    #[test]
    fn clamp_min_max_behave() {
        let w = Watts::new(300.0);
        assert_eq!(w.clamp(Watts::ZERO, Watts::new(250.0)), Watts::new(250.0));
        assert_eq!(w.min(Watts::new(100.0)), Watts::new(100.0));
        assert_eq!(w.max(Watts::new(400.0)), Watts::new(400.0));
        assert_eq!((-w).abs(), w);
    }

    #[test]
    fn fraction_lerp_interpolates() {
        let a = Fraction::new(0.2);
        let b = Fraction::new(0.8);
        assert_eq!(a.lerp(b, Fraction::HALF), Fraction::new(0.5));
        assert_eq!(a.lerp(b, Fraction::ZERO), a);
        assert_eq!(a.lerp(b, Fraction::ONE), b);
    }
}
