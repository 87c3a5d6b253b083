//! Backup provisioning configurations (the paper's Table 3).

use crate::{BackupSystem, DieselGenerator, Ups};
use core::fmt;
use dcb_battery::Chemistry;
use dcb_units::{Fraction, Seconds, StableHash, StableHasher, Watts};

/// A backup-infrastructure provisioning choice: how much DG power, UPS
/// power, and UPS battery energy to buy, as fractions of the datacenter's
/// peak need.
///
/// The nine named configurations of Table 3 are provided as constructors;
/// arbitrary points in the design space come from [`BackupConfig::custom`].
/// UPS energy is expressed the way the paper (and UPS vendors) express it:
/// as *runtime at the UPS's rated power*. Any UPS with nonzero power
/// implicitly carries at least the base "free" energy capacity
/// ([`BackupConfig::FREE_RUNTIME`], Table 1).
///
/// ```
/// use dcb_power::BackupConfig;
///
/// let table3 = BackupConfig::table3();
/// assert_eq!(table3.len(), 9);
/// assert_eq!(table3[0].label(), "MaxPerf");
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackupConfig {
    label: String,
    dg_power: Fraction,
    ups_power: Fraction,
    ups_runtime: Seconds,
    chemistry: Chemistry,
}

impl BackupConfig {
    /// Base battery runtime that comes "for free" with the power capacity
    /// (Table 1: FreeRunTime = 2 min).
    pub const FREE_RUNTIME: Seconds = Seconds::literal(120.0);

    /// Creates an arbitrary configuration.
    ///
    /// The UPS runtime is clamped up to [`Self::FREE_RUNTIME`] whenever UPS
    /// power is provisioned (the Ragone-plot floor of §3), and forced to
    /// zero when it is not.
    #[must_use]
    pub fn custom(
        label: impl Into<String>,
        dg_power: Fraction,
        ups_power: Fraction,
        ups_runtime: Seconds,
    ) -> Self {
        let ups_runtime = if ups_power.is_zero() {
            Seconds::ZERO
        } else {
            ups_runtime.max(Self::FREE_RUNTIME)
        };
        Self {
            label: label.into(),
            dg_power,
            ups_power,
            ups_runtime,
            chemistry: Chemistry::LeadAcid,
        }
    }

    /// Today's practice: full DG + full UPS, batteries sized only to ride
    /// the DG transfer (~2 min). Normalized cost 1.00.
    #[must_use]
    pub fn max_perf() -> Self {
        Self::custom("MaxPerf", Fraction::ONE, Fraction::ONE, Self::FREE_RUNTIME)
    }

    /// No backup at all: the datacenter goes dark on every outage.
    /// Normalized cost 0.00.
    #[must_use]
    pub fn min_cost() -> Self {
        Self::custom("MinCost", Fraction::ZERO, Fraction::ZERO, Seconds::ZERO)
    }

    /// Eliminate the DG, keep a full-power UPS with base energy.
    /// Normalized cost 0.38.
    #[must_use]
    pub fn no_dg() -> Self {
        Self::custom("NoDG", Fraction::ZERO, Fraction::ONE, Self::FREE_RUNTIME)
    }

    /// Keep the DG, drop the UPS (servers crash during the DG start).
    /// Normalized cost 0.63.
    #[must_use]
    pub fn no_ups() -> Self {
        Self::custom("NoUPS", Fraction::ONE, Fraction::ZERO, Seconds::ZERO)
    }

    /// Full DG + half-power UPS. Normalized cost 0.81.
    #[must_use]
    pub fn dg_small_pups() -> Self {
        Self::custom(
            "DG-SmallPUPS",
            Fraction::ONE,
            Fraction::HALF,
            Self::FREE_RUNTIME,
        )
    }

    /// Half DG + half-power UPS. Normalized cost 0.50.
    #[must_use]
    pub fn small_dg_small_pups() -> Self {
        Self::custom(
            "SmallDG-SmallPUPS",
            Fraction::HALF,
            Fraction::HALF,
            Self::FREE_RUNTIME,
        )
    }

    /// Half-power UPS only. Normalized cost 0.19.
    #[must_use]
    pub fn small_pups() -> Self {
        Self::custom(
            "SmallPUPS",
            Fraction::ZERO,
            Fraction::HALF,
            Self::FREE_RUNTIME,
        )
    }

    /// Full-power UPS with 30 minutes of battery, no DG. Normalized cost
    /// 0.55.
    #[must_use]
    pub fn large_e_ups() -> Self {
        Self::custom(
            "LargeEUPS",
            Fraction::ZERO,
            Fraction::ONE,
            Seconds::from_minutes(30.0),
        )
    }

    /// Half-power UPS with 62 minutes of battery, no DG — same cost as
    /// [`Self::no_dg`] (0.38) trading power for runtime.
    #[must_use]
    pub fn small_p_large_e_ups() -> Self {
        Self::custom(
            "SmallP-LargeEUPS",
            Fraction::ZERO,
            Fraction::HALF,
            Seconds::from_minutes(62.0),
        )
    }

    /// All nine Table 3 configurations, in the table's order.
    #[must_use]
    pub fn table3() -> Vec<BackupConfig> {
        vec![
            Self::max_perf(),
            Self::min_cost(),
            Self::no_dg(),
            Self::no_ups(),
            Self::dg_small_pups(),
            Self::small_dg_small_pups(),
            Self::small_pups(),
            Self::large_e_ups(),
            Self::small_p_large_e_ups(),
        ]
    }

    /// The configuration's display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// DG power capacity as a fraction of datacenter peak.
    #[must_use]
    pub fn dg_power(&self) -> Fraction {
        self.dg_power
    }

    /// UPS power capacity as a fraction of datacenter peak.
    #[must_use]
    pub fn ups_power(&self) -> Fraction {
        self.ups_power
    }

    /// UPS battery runtime at rated UPS power.
    #[must_use]
    pub fn ups_runtime(&self) -> Seconds {
        self.ups_runtime
    }

    /// The battery chemistry.
    #[must_use]
    pub fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    /// Switches the battery chemistry (the §7 Li-ion ablation).
    #[must_use]
    pub fn with_chemistry(mut self, chemistry: Chemistry) -> Self {
        self.chemistry = chemistry;
        self
    }

    /// Relabels the configuration.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Whether any backup source is provisioned.
    #[must_use]
    pub fn has_backup(&self) -> bool {
        !self.dg_power.is_zero() || !self.ups_power.is_zero()
    }

    /// Builds the physical backup system for a datacenter with peak power
    /// `dc_peak`.
    #[must_use]
    pub fn instantiate(&self, dc_peak: Watts) -> BackupSystem {
        let dg = (!self.dg_power.is_zero())
            .then(|| DieselGenerator::new(dc_peak * self.dg_power.value()));
        let ups = (!self.ups_power.is_zero()).then(|| {
            Ups::with_chemistry(
                dc_peak * self.ups_power.value(),
                self.ups_runtime,
                self.chemistry,
            )
        });
        BackupSystem::new(dg, ups)
    }
}

impl StableHash for BackupConfig {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            label,
            dg_power,
            ups_power,
            ups_runtime,
            chemistry,
        } = self;
        label.stable_hash(hasher);
        dg_power.stable_hash(hasher);
        ups_power.stable_hash(hasher);
        ups_runtime.stable_hash(hasher);
        chemistry.stable_hash(hasher);
    }
}

impl fmt::Display for BackupConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (DG {:.0}%, UPS {:.0}% × {:.0} min)",
            self.label,
            self.dg_power.to_percent(),
            self.ups_power.to_percent(),
            self.ups_runtime.to_minutes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_rows() {
        let cfgs = BackupConfig::table3();
        let max_perf = &cfgs[0];
        assert_eq!(max_perf.dg_power(), Fraction::ONE);
        assert_eq!(max_perf.ups_runtime(), Seconds::from_minutes(2.0));
        let min_cost = &cfgs[1];
        assert!(!min_cost.has_backup());
        assert_eq!(min_cost.ups_runtime(), Seconds::ZERO);
        let small_p_large_e = &cfgs[8];
        assert_eq!(small_p_large_e.ups_power(), Fraction::HALF);
        assert_eq!(small_p_large_e.ups_runtime(), Seconds::from_minutes(62.0));
    }

    #[test]
    fn free_runtime_floor_applied() {
        let c = BackupConfig::custom(
            "tiny",
            Fraction::ZERO,
            Fraction::HALF,
            Seconds::from_minutes(0.5),
        );
        assert_eq!(c.ups_runtime(), BackupConfig::FREE_RUNTIME);
    }

    #[test]
    fn zero_power_ups_has_zero_runtime() {
        let c = BackupConfig::custom(
            "none",
            Fraction::ONE,
            Fraction::ZERO,
            Seconds::from_minutes(30.0),
        );
        assert_eq!(c.ups_runtime(), Seconds::ZERO);
    }

    #[test]
    fn instantiate_builds_expected_components() {
        let dc_peak = Watts::new(1_000_000.0);
        let system = BackupConfig::no_dg().instantiate(dc_peak);
        assert!(system.dg().is_none());
        assert_eq!(system.ups().unwrap().power_capacity(), dc_peak);

        let system = BackupConfig::no_ups().instantiate(dc_peak);
        assert!(system.ups().is_none());
        assert_eq!(system.dg().unwrap().power_capacity(), dc_peak);

        let system = BackupConfig::min_cost().instantiate(dc_peak);
        assert!(system.dg().is_none() && system.ups().is_none());
    }

    #[test]
    fn display_is_informative() {
        let s = BackupConfig::large_e_ups().to_string();
        assert!(s.contains("LargeEUPS") && s.contains("30 min"), "{s}");
    }
}
