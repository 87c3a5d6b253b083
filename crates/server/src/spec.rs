//! Server hardware specification and the calibrated power model.

use crate::states::ThrottleLevel;
use dcb_units::{
    Fraction, Gigabytes, MegabytesPerSecond, Seconds, StableHash, StableHasher, Watts,
};

/// Static description of a server: its power envelope, memory, and I/O
/// bandwidths.
///
/// [`ServerSpec::paper_testbed`] reproduces the machine of §6: 12 cores,
/// 64 GB DRAM, 1 Gbps NIC, 80 W idle, 250 W peak.
///
/// ```
/// use dcb_server::ServerSpec;
/// let s = ServerSpec::paper_testbed();
/// assert_eq!(s.idle_power().value(), 80.0);
/// assert_eq!(s.peak_power().value(), 250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerSpec {
    idle_power: Watts,
    peak_power: Watts,
    sleep_power: Watts,
    memory: Gigabytes,
    disk_write: MegabytesPerSecond,
    disk_read: MegabytesPerSecond,
    nic: MegabytesPerSecond,
    boot_time: Seconds,
}

impl ServerSpec {
    /// The paper's measured sleep draw: "around 5W per server" in S3 with
    /// DRAM in self-refresh (§6.2).
    pub const SLEEP_POWER: Watts = Watts::literal(5.0);

    /// Inherent power-supply capacitance ride-through after a failure
    /// (~30 ms, §3) — long enough to cover the ~10 ms offline-UPS switch.
    pub const PSU_RIDE_THROUGH: Seconds = Seconds::literal(0.030);

    /// The §6 testbed server.
    #[must_use]
    pub fn paper_testbed() -> Self {
        Self {
            idle_power: Watts::new(80.0),
            peak_power: Watts::new(250.0),
            sleep_power: Self::SLEEP_POWER,
            memory: Gigabytes::new(64.0),
            // Calibrated so Specjbb's 18 GB hibernation takes the paper's
            // measured 230 s to save and 157 s to resume (Table 8).
            disk_write: MegabytesPerSecond::new(80.0),
            disk_read: MegabytesPerSecond::new(120.0),
            nic: MegabytesPerSecond::from_gigabits_per_second(1.0),
            // "server restart time ~2 mins" (§6.2, Web-search recovery).
            boot_time: Seconds::new(120.0),
        }
    }

    /// Builder-style override of the idle/peak power envelope.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= idle <= peak`.
    #[must_use]
    pub fn with_power_envelope(mut self, idle: Watts, peak: Watts) -> Self {
        assert!(
            idle.value() >= 0.0 && peak >= idle,
            "need 0 <= idle <= peak"
        );
        self.idle_power = idle;
        self.peak_power = peak;
        self
    }

    /// Builder-style override of the installed memory.
    #[must_use]
    pub fn with_memory(mut self, memory: Gigabytes) -> Self {
        self.memory = memory;
        self
    }

    /// Builder-style override of disk bandwidths.
    #[must_use]
    pub fn with_disk(mut self, write: MegabytesPerSecond, read: MegabytesPerSecond) -> Self {
        self.disk_write = write;
        self.disk_read = read;
        self
    }

    /// Idle (active but unutilized) power.
    #[must_use]
    pub fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// Peak power at full utilization, unthrottled.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.peak_power
    }

    /// Power in S3 sleep.
    #[must_use]
    pub fn sleep_power(&self) -> Watts {
        self.sleep_power
    }

    /// Installed DRAM.
    #[must_use]
    pub fn memory(&self) -> Gigabytes {
        self.memory
    }

    /// Sequential disk write bandwidth (hibernation save path).
    #[must_use]
    pub fn disk_write(&self) -> MegabytesPerSecond {
        self.disk_write
    }

    /// Sequential disk read bandwidth (hibernation resume path).
    #[must_use]
    pub fn disk_read(&self) -> MegabytesPerSecond {
        self.disk_read
    }

    /// Network bandwidth (migration path).
    #[must_use]
    pub fn nic(&self) -> MegabytesPerSecond {
        self.nic
    }

    /// Platform boot time after power-off.
    #[must_use]
    pub fn boot_time(&self) -> Seconds {
        self.boot_time
    }

    /// Power drawn while active at `throttle` with CPU `utilization`:
    ///
    /// `idle + (peak − idle) × utilization × dynamic_power_factor(throttle)`.
    #[must_use]
    pub fn active_power(&self, throttle: ThrottleLevel, utilization: Fraction) -> Watts {
        let dynamic = self.peak_power - self.idle_power;
        self.idle_power + dynamic * (utilization.value() * throttle.dynamic_power_factor())
    }

    /// The lowest sustained active power reachable through throttling alone
    /// (full utilization at the deepest DVFS state, no clock gating —
    /// gating also destroys performance, so "low power mode" in the paper's
    /// '-L' techniques means the deepest P-state).
    #[must_use]
    pub fn min_throttled_power(&self) -> Watts {
        self.active_power(
            ThrottleLevel {
                p: crate::PState::slowest(),
                t: crate::TState::full(),
            },
            Fraction::ONE,
        )
    }
}

impl StableHash for ServerSpec {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            idle_power,
            peak_power,
            sleep_power,
            memory,
            disk_write,
            disk_read,
            nic,
            boot_time,
        } = self;
        idle_power.stable_hash(hasher);
        peak_power.stable_hash(hasher);
        sleep_power.stable_hash(hasher);
        memory.stable_hash(hasher);
        disk_write.stable_hash(hasher);
        disk_read.stable_hash(hasher);
        nic.stable_hash(hasher);
        boot_time.stable_hash(hasher);
    }
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PState, TState};
    use proptest::prelude::*;

    fn digest(spec: &ServerSpec) -> u128 {
        let mut hasher = StableHasher::new();
        spec.stable_hash(&mut hasher);
        hasher.finish()
    }

    /// Fields no public builder sets alone are nudged directly here.
    #[test]
    fn every_field_moves_the_stable_hash() {
        let nudges: [fn(&mut ServerSpec); 8] = [
            |s| s.idle_power = Watts::new(81.0),
            |s| s.peak_power = Watts::new(251.0),
            |s| s.sleep_power = Watts::new(6.0),
            |s| s.memory = Gigabytes::new(65.0),
            |s| s.disk_write = MegabytesPerSecond::new(81.0),
            |s| s.disk_read = MegabytesPerSecond::new(121.0),
            |s| s.nic = MegabytesPerSecond::new(126.0),
            |s| s.boot_time = Seconds::new(121.0),
        ];
        let base = ServerSpec::paper_testbed();
        let mut seen = vec![digest(&base)];
        for (field, nudge) in nudges.iter().enumerate() {
            let mut spec = base;
            nudge(&mut spec);
            let d = digest(&spec);
            assert!(!seen.contains(&d), "field {field} does not move the hash");
            seen.push(d);
        }
    }

    #[test]
    fn envelope_endpoints() {
        let s = ServerSpec::paper_testbed();
        assert_eq!(
            s.active_power(ThrottleLevel::NONE, Fraction::ONE),
            s.peak_power()
        );
        assert_eq!(
            s.active_power(ThrottleLevel::NONE, Fraction::ZERO),
            s.idle_power()
        );
    }

    #[test]
    fn sleep_is_tiny() {
        assert!(ServerSpec::paper_testbed().sleep_power().value() <= 6.0);
    }

    #[test]
    fn half_power_reachable_by_dvfs() {
        // Table 8: the '-L' variants run at ~0.5 of peak power. The deepest
        // P-state at full utilization must land near or below half peak.
        let s = ServerSpec::paper_testbed();
        let frac = s.min_throttled_power() / s.peak_power();
        assert!(frac < 0.55, "deepest DVFS gives {frac} of peak");
    }

    #[test]
    fn throttled_power_between_idle_and_peak() {
        let s = ServerSpec::paper_testbed();
        for level in ThrottleLevel::all() {
            let p = s.active_power(level, Fraction::ONE);
            assert!(p >= s.idle_power() && p <= s.peak_power());
        }
    }

    #[test]
    fn builder_overrides() {
        let s = ServerSpec::paper_testbed()
            .with_power_envelope(Watts::new(60.0), Watts::new(300.0))
            .with_memory(Gigabytes::new(128.0));
        assert_eq!(s.idle_power().value(), 60.0);
        assert_eq!(s.memory().value(), 128.0);
    }

    #[test]
    #[should_panic(expected = "idle <= peak")]
    fn inverted_envelope_rejected() {
        let _ =
            ServerSpec::paper_testbed().with_power_envelope(Watts::new(300.0), Watts::new(100.0));
    }

    proptest! {
        #[test]
        fn power_monotone_in_utilization(
            u1 in 0.0f64..=1.0,
            u2 in 0.0f64..=1.0,
            p in 0u8..7,
            t in 0u8..8,
        ) {
            let s = ServerSpec::paper_testbed();
            let level = ThrottleLevel { p: PState::new(p), t: TState::new(t) };
            let (lo, hi) = if u1 < u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(
                s.active_power(level, Fraction::new(lo))
                    <= s.active_power(level, Fraction::new(hi))
            );
        }

        #[test]
        fn deeper_pstate_never_costs_more(u in 0.0f64..=1.0, p in 0u8..6) {
            let s = ServerSpec::paper_testbed();
            let shallow = ThrottleLevel { p: PState::new(p), t: TState::full() };
            let deep = ThrottleLevel { p: PState::new(p + 1), t: TState::full() };
            prop_assert!(
                s.active_power(deep, Fraction::new(u))
                    <= s.active_power(shallow, Fraction::new(u))
            );
        }
    }
}
