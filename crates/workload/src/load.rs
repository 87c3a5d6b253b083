//! Time-varying load profiles.
//!
//! Datacenter load is diurnal: an outage hitting the 3 am trough stresses
//! the backup far less than one at the evening peak. The paper evaluates at
//! a fixed (peak-calibrated) load; this module adds the time dimension the
//! §7 capacity-planning discussion calls for ("Capacity planning could
//! depend on historic data about multiple application requirements").

use dcb_units::{Fraction, Seconds, StableHash, StableHasher};

/// CPU-utilization as a function of time of day.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LoadProfile {
    /// Constant utilization (the paper's evaluation setting).
    Constant(Fraction),
    /// A sinusoidal day: `trough` at the quietest hour, `peak` twelve hours
    /// later.
    Diurnal {
        /// Utilization at the daily minimum.
        trough: Fraction,
        /// Utilization at the daily maximum.
        peak: Fraction,
        /// Hour of day (0–24) at which the peak occurs.
        peak_hour: f64,
    },
}

impl LoadProfile {
    /// Seconds per day.
    const DAY: f64 = 24.0 * 3600.0;

    /// A typical interactive-service day: 45 % at the 4 am trough rising to
    /// the given peak at 8 pm.
    #[must_use]
    pub fn typical_diurnal(peak: Fraction) -> Self {
        Self::Diurnal {
            trough: Fraction::new(peak.value() * 0.45),
            peak,
            peak_hour: 20.0,
        }
    }

    /// Utilization at an absolute time (wraps modulo 24 h).
    #[must_use]
    pub fn utilization_at(&self, t: Seconds) -> Fraction {
        match *self {
            Self::Constant(u) => u,
            Self::Diurnal {
                trough,
                peak,
                peak_hour,
            } => {
                let phase = (t.value() / Self::DAY - peak_hour / 24.0) * std::f64::consts::TAU;
                let level = (phase.cos() + 1.0) / 2.0; // 1 at peak hour, 0 at trough
                Fraction::new(trough.value() + (peak.value() - trough.value()) * level)
            }
        }
    }

    /// The profile's maximum utilization (what backup power must be sized
    /// against).
    #[must_use]
    pub fn peak(&self) -> Fraction {
        match *self {
            Self::Constant(u) => u,
            Self::Diurnal { peak, .. } => peak,
        }
    }

    /// The profile's minimum utilization.
    #[must_use]
    pub fn trough(&self) -> Fraction {
        match *self {
            Self::Constant(u) => u,
            Self::Diurnal { trough, .. } => trough,
        }
    }
}

impl StableHash for LoadProfile {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Constant(utilization) => {
                0u8.stable_hash(hasher);
                utilization.stable_hash(hasher);
            }
            Self::Diurnal {
                trough,
                peak,
                peak_hour,
            } => {
                1u8.stable_hash(hasher);
                trough.stable_hash(hasher);
                peak.stable_hash(hasher);
                peak_hour.stable_hash(hasher);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_profile_is_flat() {
        let p = LoadProfile::Constant(Fraction::new(0.7));
        assert_eq!(p.utilization_at(Seconds::ZERO), Fraction::new(0.7));
        assert_eq!(
            p.utilization_at(Seconds::from_hours(13.0)),
            Fraction::new(0.7)
        );
        assert_eq!(p.peak(), p.trough());
    }

    #[test]
    fn diurnal_peaks_at_peak_hour() {
        let p = LoadProfile::typical_diurnal(Fraction::new(0.9));
        let at_peak = p.utilization_at(Seconds::from_hours(20.0));
        let at_trough = p.utilization_at(Seconds::from_hours(8.0));
        assert!((at_peak.value() - 0.9).abs() < 1e-9);
        assert!((at_trough.value() - 0.405).abs() < 1e-9);
    }

    #[test]
    fn profile_wraps_across_days() {
        let p = LoadProfile::typical_diurnal(Fraction::new(0.8));
        let day1 = p.utilization_at(Seconds::from_hours(20.0));
        let day5 = p.utilization_at(Seconds::from_hours(20.0 + 4.0 * 24.0));
        assert!((day1.value() - day5.value()).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn diurnal_bounded_by_trough_and_peak(hours in 0.0f64..500.0) {
            let p = LoadProfile::typical_diurnal(Fraction::new(0.9));
            let u = p.utilization_at(Seconds::from_hours(hours));
            prop_assert!(u >= p.trough() && u <= p.peak());
        }
    }
}
