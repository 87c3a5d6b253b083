//! UPS placement options and their economics.
//!
//! §3 of the paper: "Figure 2 shows UPS units placed at the rack-level
//! which is popular in today's datacenters (as in Facebook and Microsoft)
//! due to its efficiency and cost advantage over conventional centralized
//! placement", and the authors' tech report additionally evaluates
//! server-level batteries. The three placements differ in conversion
//! efficiency, per-unit cost structure, and the base ("free") battery
//! runtime that comes with the power capacity — this module captures those
//! differences so the cost model and simulator can be re-parameterized per
//! placement.

use dcb_units::{Fraction, Seconds};

/// Where the UPS function lives in the power hierarchy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum UpsPlacement {
    /// Conventional datacenter-level double-conversion (online) UPS rooms.
    Centralized,
    /// Offline UPS shelves in each rack — today's preferred design and the
    /// paper's default.
    #[default]
    RackLevel,
    /// A small battery on each server's 12 V rail (the Google-style
    /// design).
    ServerLevel,
}

impl UpsPlacement {
    /// All placements.
    pub const ALL: [UpsPlacement; 3] = [
        UpsPlacement::Centralized,
        UpsPlacement::RackLevel,
        UpsPlacement::ServerLevel,
    ];

    /// Multiplier on the UPS *power electronics* cost rate relative to the
    /// rack-level baseline. Centralized double-conversion plants cost more
    /// per kW (bigger switchgear, N+1 strings, a conditioned room);
    /// server-level sheds the inverter entirely (DC-coupled).
    #[must_use]
    pub fn power_cost_factor(self) -> f64 {
        match self {
            UpsPlacement::Centralized => 1.4,
            UpsPlacement::RackLevel => 1.0,
            UpsPlacement::ServerLevel => 0.8,
        }
    }

    /// Multiplier on the UPS *battery energy* cost rate. Large central
    /// strings enjoy mild economies of scale; per-server cells pay a
    /// packaging overhead.
    #[must_use]
    pub fn energy_cost_factor(self) -> f64 {
        match self {
            UpsPlacement::Centralized => 0.95,
            UpsPlacement::RackLevel => 1.0,
            UpsPlacement::ServerLevel => 1.15,
        }
    }

    /// Base battery runtime that comes with the power capacity (the
    /// Ragone-plot floor of §3): big central strings carry several minutes;
    /// per-server cells only ~1 minute.
    #[must_use]
    pub fn free_runtime(self) -> Seconds {
        match self {
            UpsPlacement::Centralized => Seconds::from_minutes(4.0),
            UpsPlacement::RackLevel => Seconds::from_minutes(2.0),
            UpsPlacement::ServerLevel => Seconds::from_minutes(1.0),
        }
    }

    /// Power-conversion efficiency during *normal* operation. Online
    /// (centralized) UPSes pay the double-conversion penalty the paper
    /// notes datacenters now avoid; offline designs pass utility power
    /// through.
    #[must_use]
    pub fn normal_efficiency(self) -> Fraction {
        match self {
            UpsPlacement::Centralized => Fraction::new(0.92),
            UpsPlacement::RackLevel => Fraction::new(0.99),
            UpsPlacement::ServerLevel => Fraction::new(0.995),
        }
    }

    /// Failure-detection + switchover latency. Online designs are
    /// seamless; offline designs rely on the ~30 ms PSU ride-through.
    #[must_use]
    pub fn switchover(self) -> Seconds {
        match self {
            UpsPlacement::Centralized => Seconds::ZERO,
            UpsPlacement::RackLevel => Seconds::from_millis(10.0),
            UpsPlacement::ServerLevel => Seconds::from_millis(2.0),
        }
    }
}

impl core::fmt::Display for UpsPlacement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpsPlacement::Centralized => f.write_str("centralized"),
            UpsPlacement::RackLevel => f.write_str("rack-level"),
            UpsPlacement::ServerLevel => f.write_str("server-level"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_level_is_the_neutral_baseline() {
        let p = UpsPlacement::RackLevel;
        assert_eq!(p.power_cost_factor(), 1.0);
        assert_eq!(p.energy_cost_factor(), 1.0);
        assert_eq!(p.free_runtime(), Seconds::from_minutes(2.0));
        assert_eq!(UpsPlacement::default(), p);
    }

    #[test]
    fn centralized_pays_double_conversion() {
        // The efficiency gap the paper cites as the reason rack-level won.
        assert!(
            UpsPlacement::Centralized.normal_efficiency()
                < UpsPlacement::RackLevel.normal_efficiency()
        );
        assert!(UpsPlacement::Centralized.power_cost_factor() > 1.0);
    }

    #[test]
    fn offline_switchover_within_psu_ride_through() {
        // §3: the ~10 ms switchover must hide inside the ~30 ms of PSU
        // capacitance.
        let psu_ride_through = Seconds::from_millis(30.0);
        for p in [UpsPlacement::RackLevel, UpsPlacement::ServerLevel] {
            assert!(p.switchover() < psu_ride_through);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(UpsPlacement::Centralized.to_string(), "centralized");
        assert_eq!(UpsPlacement::ServerLevel.to_string(), "server-level");
    }
}
