//! Dual-use batteries: peak shaving versus backup readiness.
//!
//! The related work the paper builds on (§2) underprovisions the *normal*
//! power infrastructure and shaves peaks from stored energy
//! \[9, 27, 29, 34, 63\]; the paper underprovisions the *backup*. An
//! operator who does both from the same rack batteries faces a conflict the
//! paper's conclusion points at as future work: every joule spent shaving
//! the evening peak is a joule the backup does not have if the outage
//! arrives right then. This module simulates a diurnal day of peak shaving
//! over a [`dcb_battery::Battery`] and reports the battery's
//! *backup-readiness profile* — state of charge by hour — plus the fraction
//! of the day the charge would be too low to ride a target outage.

use dcb_battery::Battery;
use dcb_power::BackupConfig;
use dcb_sim::Cluster;
use dcb_units::{Fraction, Seconds, WattHours, Watts};

/// A peak-shaving policy: the utility feed is provisioned below the
/// cluster's peak draw and the battery supplies the excess.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeakShaving {
    /// Provisioned utility power as a fraction of the cluster's *peak
    /// load* (not nameplate): 1.0 disables shaving.
    pub utility_cap: Fraction,
}

/// The outcome of one simulated day of dual-use operation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DualUseDay {
    /// Energy the battery supplied for shaving over the day.
    pub shaved_energy: WattHours,
    /// Lowest state of charge reached.
    pub min_charge: Fraction,
    /// State of charge sampled hourly (24 samples, hour 0 first).
    pub hourly_charge: Vec<Fraction>,
    /// Fraction of the day during which the charge was below
    /// `readiness_threshold`.
    pub unready_fraction: Fraction,
    /// The charge threshold used for readiness.
    pub readiness_threshold: Fraction,
    /// Battery wear over the day, in equivalent full cycles.
    pub cycles: f64,
}

impl PeakShaving {
    /// Creates a policy.
    #[must_use]
    pub fn new(utility_cap: Fraction) -> Self {
        Self { utility_cap }
    }

    /// Simulates one day (1-minute steps) of a diurnal cluster shaving
    /// peaks from the backup battery of `config`, and evaluates readiness
    /// against riding an outage of `target_outage` at the instantaneous
    /// load (the charge fraction that ride-through would need).
    ///
    /// The cluster's workload must carry a [`dcb_workload::LoadProfile`]
    /// for the day to have any shape; a constant profile either never or
    /// always shaves.
    ///
    /// # Panics
    ///
    /// Panics if `config` provisions no UPS.
    #[must_use]
    pub fn simulate_day(
        &self,
        cluster: &Cluster,
        config: &BackupConfig,
        target_outage: Seconds,
    ) -> DualUseDay {
        let system = config.instantiate(cluster.peak_power());
        #[expect(
            clippy::expect_used,
            reason = "precondition documented under `# Panics`"
        )]
        let ups = system.ups().expect("dual-use analysis needs a UPS");
        let pack = ups.pack();
        let mut battery = Battery::full(pack);

        let spec = cluster.spec();
        let n = f64::from(cluster.size());
        // Each minute's load, evaluated once for the peak and the day.
        let loads: Vec<Watts> = (0..24 * 60)
            .map(|m| {
                let t = Seconds::from_minutes(f64::from(m));
                spec.active_power(
                    dcb_server::ThrottleLevel::NONE,
                    cluster.workload().utilization_at(t),
                ) * n
            })
            .collect();
        // Peak load over the day defines the utility cap in watts.
        let peak_load = loads.iter().copied().fold(Watts::ZERO, Watts::max);
        let cap = peak_load * self.utility_cap.value();

        // Readiness: the charge needed to carry the peak load for the
        // target outage, per the pack's Peukert runtime.
        let full_runtime = pack.runtime_at(peak_load);
        let readiness_threshold = if full_runtime.value().is_finite() && full_runtime.value() > 0.0
        {
            Fraction::new(target_outage.value() / full_runtime.value())
        } else {
            Fraction::ONE
        };

        let step = Seconds::from_minutes(1.0);
        let mut shaved = WattHours::ZERO;
        let mut min_charge = Fraction::ONE;
        let mut hourly = Vec::with_capacity(24);
        let mut unready_minutes = 0u32;
        for (minute, &load) in loads.iter().enumerate() {
            if minute % 60 == 0 {
                hourly.push(battery.charge());
            }
            if load > cap {
                let outcome = battery.draw(load - cap, step);
                shaved += outcome.energy_delivered;
            } else {
                battery.recharge_for(step);
            }
            min_charge = min_charge.min(battery.charge());
            if battery.charge() < readiness_threshold {
                unready_minutes += 1;
            }
        }
        DualUseDay {
            shaved_energy: shaved,
            min_charge,
            hourly_charge: hourly,
            unready_fraction: Fraction::new(f64::from(unready_minutes) / (24.0 * 60.0)),
            readiness_threshold,
            cycles: battery.equivalent_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::{LoadProfile, Workload};

    fn diurnal_cluster() -> Cluster {
        let workload = Workload::web_search()
            .with_load_profile(LoadProfile::typical_diurnal(Fraction::new(0.9)));
        Cluster::rack(workload)
    }

    #[test]
    fn no_cap_means_always_ready() {
        let day = PeakShaving::new(Fraction::ONE).simulate_day(
            &diurnal_cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_minutes(5.0),
        );
        assert_eq!(day.shaved_energy, WattHours::ZERO);
        assert_eq!(day.min_charge, Fraction::ONE);
        assert_eq!(day.unready_fraction, Fraction::ZERO);
        assert_eq!(day.hourly_charge.len(), 24);
        assert_eq!(day.cycles, 0.0);
    }

    #[test]
    fn deeper_caps_shave_more_and_drain_deeper() {
        let cluster = diurnal_cluster();
        let config = BackupConfig::large_e_ups();
        let outage = Seconds::from_minutes(5.0);
        let mild = PeakShaving::new(Fraction::new(0.95)).simulate_day(&cluster, &config, outage);
        let deep = PeakShaving::new(Fraction::new(0.85)).simulate_day(&cluster, &config, outage);
        assert!(deep.shaved_energy > mild.shaved_energy);
        assert!(deep.min_charge <= mild.min_charge);
        assert!(deep.cycles > mild.cycles);
    }

    #[test]
    fn aggressive_shaving_on_a_small_battery_breaks_readiness() {
        // A 2-minute pack asked to shave 15% of peak spends part of the day
        // below the charge needed to ride even a 5-minute outage — the
        // dual-use conflict, quantified.
        let day = PeakShaving::new(Fraction::new(0.85)).simulate_day(
            &diurnal_cluster(),
            &BackupConfig::no_dg(),
            Seconds::from_minutes(5.0),
        );
        assert!(
            day.unready_fraction.value() > 0.05,
            "unready {:?}",
            day.unready_fraction
        );
        // While a 30-minute pack shrugs it off.
        let big = PeakShaving::new(Fraction::new(0.85)).simulate_day(
            &diurnal_cluster(),
            &BackupConfig::large_e_ups(),
            Seconds::from_minutes(5.0),
        );
        assert!(big.unready_fraction < day.unready_fraction);
    }

    #[test]
    fn daily_shaving_wear_dwarfs_backup_wear() {
        // The paper's §2 wear asymmetry, quantified from the other side:
        // daily shaving cycles the battery every single day, while backup
        // duty costs a few cycles a year.
        let day = PeakShaving::new(Fraction::new(0.9)).simulate_day(
            &diurnal_cluster(),
            &BackupConfig::no_dg(),
            Seconds::from_minutes(5.0),
        );
        let yearly_shaving_cycles = day.cycles * 365.0;
        assert!(
            yearly_shaving_cycles > 50.0,
            "shaving only {yearly_shaving_cycles:.1} cycles/yr"
        );
    }

    #[test]
    #[should_panic(expected = "needs a UPS")]
    fn no_ups_rejected() {
        let _ = PeakShaving::new(Fraction::new(0.9)).simulate_day(
            &diurnal_cluster(),
            &BackupConfig::min_cost(),
            Seconds::from_minutes(5.0),
        );
    }
}
