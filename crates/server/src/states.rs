//! Processor throttling states and the server power-state machine.

use core::fmt;
use dcb_units::{Fraction, StableHash, StableHasher};

/// A voltage/frequency P-state (index 0 is full speed).
///
/// The paper's testbed exposes 7 P-states; we model their frequency as a
/// linear ladder from 100 % down to 40 % of nominal, the usual span of
/// server DVFS ranges.
///
/// ```
/// use dcb_server::PState;
/// assert_eq!(PState::full().frequency().value(), 1.0);
/// assert_eq!(PState::slowest().frequency().value(), 0.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct PState(u8);

impl PState {
    /// Number of P-states on the paper's testbed.
    pub const COUNT: u8 = 7;
    /// Frequency fraction of the deepest P-state.
    pub const MIN_FREQUENCY: f64 = 0.4;
    /// Exponent relating frequency to dynamic power under DVFS (frequency
    /// and voltage scale together, so dynamic power falls superlinearly).
    pub const POWER_EXPONENT: f64 = 2.2;

    /// The P-state at `index` (0 = fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= PState::COUNT`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < Self::COUNT, "P-state index out of range");
        Self(index)
    }

    /// Full-speed P0.
    #[must_use]
    pub fn full() -> Self {
        Self(0)
    }

    /// The deepest (slowest) P-state.
    #[must_use]
    pub fn slowest() -> Self {
        Self(Self::COUNT - 1)
    }

    /// All P-states, fastest first.
    pub fn all() -> impl Iterator<Item = Self> {
        (0..Self::COUNT).map(Self)
    }

    /// The state's index (0 = fastest).
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Core frequency as a fraction of nominal.
    #[must_use]
    pub fn frequency(self) -> Fraction {
        let step = (1.0 - Self::MIN_FREQUENCY) / f64::from(Self::COUNT - 1);
        Fraction::new(1.0 - step * f64::from(self.0))
    }

    /// Dynamic-power multiplier of this state relative to P0.
    #[must_use]
    pub fn dynamic_power_factor(self) -> f64 {
        self.frequency().value().powf(Self::POWER_EXPONENT)
    }
}

/// A clock-throttling T-state (index 0 is no throttling).
///
/// T-states gate the clock for a duty-cycle fraction; both performance and
/// dynamic power scale linearly with the duty cycle.
///
/// ```
/// use dcb_server::TState;
/// assert_eq!(TState::new(0).duty_cycle().value(), 1.0);
/// assert_eq!(TState::new(7).duty_cycle().value(), 0.125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TState(u8);

impl TState {
    /// Number of T-states on the paper's testbed.
    pub const COUNT: u8 = 8;

    /// The T-state at `index` (0 = no gating).
    ///
    /// # Panics
    ///
    /// Panics if `index >= TState::COUNT`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < Self::COUNT, "T-state index out of range");
        Self(index)
    }

    /// No clock gating.
    #[must_use]
    pub fn full() -> Self {
        Self(0)
    }

    /// All T-states, full duty first.
    pub fn all() -> impl Iterator<Item = Self> {
        (0..Self::COUNT).map(Self)
    }

    /// The state's index.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Fraction of cycles the clock runs.
    #[must_use]
    pub fn duty_cycle(self) -> Fraction {
        Fraction::new(1.0 - f64::from(self.0) / f64::from(Self::COUNT))
    }
}

/// A combined DVFS + duty-cycle operating point.
///
/// The outage-handling techniques think in terms of a *throttle level*; the
/// discrete P/T states quantize it. `effective_speed` is the CPU speed seen
/// by the workload, `dynamic_power_factor` the corresponding scaling of
/// dynamic power.
///
/// ```
/// use dcb_server::ThrottleLevel;
/// // Find the deepest level that still delivers >= 50% CPU speed.
/// let level = ThrottleLevel::cheapest_with_speed(0.5);
/// assert!(level.effective_speed().value() >= 0.5);
/// assert!(level.dynamic_power_factor() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ThrottleLevel {
    /// DVFS state.
    pub p: PState,
    /// Clock-gating state.
    pub t: TState,
}

impl ThrottleLevel {
    /// No throttling: P0, T0.
    pub const NONE: Self = Self {
        p: PState(0),
        t: TState(0),
    };

    /// The deepest throttle: slowest P-state, deepest T-state.
    #[must_use]
    pub fn deepest() -> Self {
        Self {
            p: PState::slowest(),
            t: TState::new(TState::COUNT - 1),
        }
    }

    /// All `(P, T)` combinations.
    pub fn all() -> impl Iterator<Item = Self> {
        PState::all().flat_map(|p| TState::all().map(move |t| Self { p, t }))
    }

    /// CPU speed delivered to the workload, as a fraction of nominal.
    #[must_use]
    pub fn effective_speed(self) -> Fraction {
        Fraction::new(self.p.frequency().value() * self.t.duty_cycle().value())
    }

    /// Dynamic-power multiplier relative to unthrottled operation.
    #[must_use]
    pub fn dynamic_power_factor(self) -> f64 {
        self.p.dynamic_power_factor() * self.t.duty_cycle().value()
    }

    /// The most power-frugal level whose effective speed is at least
    /// `min_speed` (clamped to `[0, 1]`). Falls back to [`Self::NONE`] when
    /// `min_speed` is 1 or higher.
    #[must_use]
    pub fn cheapest_with_speed(min_speed: f64) -> Self {
        let min_speed = min_speed.clamp(0.0, 1.0);
        Self::all()
            .filter(|l| l.effective_speed().value() + 1e-12 >= min_speed)
            .min_by(|a, b| {
                a.dynamic_power_factor()
                    .total_cmp(&b.dynamic_power_factor())
            })
            .unwrap_or(Self::NONE)
    }
}

impl StableHash for ThrottleLevel {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            p: PState(p),
            t: TState(t),
        } = self;
        p.stable_hash(hasher);
        t.stable_hash(hasher);
    }
}

impl Default for ThrottleLevel {
    fn default() -> Self {
        Self::NONE
    }
}

impl fmt::Display for ThrottleLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}/T{}", self.p.index(), self.t.index())
    }
}

/// The server's operational power state.
///
/// The states correspond to the mechanisms of §5: active execution
/// (optionally throttled), S3 suspend-to-RAM ("Sleep"), suspend-to-disk
/// ("Hibernation"), and a full power-off; plus the transitional states the
/// simulator needs (saving, resuming, booting).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PowerState {
    /// Executing the workload at some throttle level.
    Active(ThrottleLevel),
    /// Suspending to RAM (brief; CPU flushing context).
    EnteringSleep,
    /// S3: DRAM in self-refresh, everything else off (~5 W).
    Sleeping,
    /// Writing memory state to local disk, optionally throttled.
    SavingToDisk(ThrottleLevel),
    /// Suspend-to-disk complete; drawing no power.
    Hibernated,
    /// Off without saving anything (crash or deliberate shutdown).
    Off,
    /// Waking from S3 (fast: caches reload).
    ResumingFromSleep,
    /// Reading the hibernation image back from disk.
    ResumingFromDisk,
    /// Full platform boot after a shutdown or crash.
    Booting,
}

impl PowerState {
    /// Active and unthrottled.
    #[must_use]
    pub fn active_full() -> Self {
        Self::Active(ThrottleLevel::NONE)
    }

    /// Active at the given throttle.
    #[must_use]
    pub fn active(level: ThrottleLevel) -> Self {
        Self::Active(level)
    }

    /// Whether the workload makes forward progress in this state.
    #[must_use]
    pub fn is_serving(&self) -> bool {
        matches!(self, Self::Active(_))
    }

    /// Whether volatile (DRAM) state survives this state.
    ///
    /// Active, sleeping, and the save/resume transitions keep DRAM powered;
    /// hibernated state survives on disk; `Off` and `Booting` imply the
    /// volatile state is gone unless it was previously persisted.
    #[must_use]
    pub fn preserves_memory(&self) -> bool {
        !matches!(self, Self::Off | Self::Booting)
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Active(l) if *l == ThrottleLevel::NONE => f.write_str("active"),
            Self::Active(l) => write!(f, "active@{l}"),
            Self::EnteringSleep => f.write_str("entering-sleep"),
            Self::Sleeping => f.write_str("sleeping"),
            Self::SavingToDisk(l) if *l == ThrottleLevel::NONE => f.write_str("saving-to-disk"),
            Self::SavingToDisk(l) => write!(f, "saving-to-disk@{l}"),
            Self::Hibernated => f.write_str("hibernated"),
            Self::Off => f.write_str("off"),
            Self::ResumingFromSleep => f.write_str("resuming-from-sleep"),
            Self::ResumingFromDisk => f.write_str("resuming-from-disk"),
            Self::Booting => f.write_str("booting"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pstate_ladder_endpoints() {
        assert_eq!(PState::full().frequency().value(), 1.0);
        assert!((PState::slowest().frequency().value() - 0.4).abs() < 1e-12);
        assert_eq!(PState::all().count(), 7);
    }

    #[test]
    fn tstate_ladder_endpoints() {
        assert_eq!(TState::full().duty_cycle().value(), 1.0);
        assert!((TState::new(7).duty_cycle().value() - 0.125).abs() < 1e-12);
        assert_eq!(TState::all().count(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pstate_bounds_checked() {
        let _ = PState::new(7);
    }

    #[test]
    fn dvfs_power_falls_faster_than_speed() {
        for p in PState::all().skip(1) {
            assert!(p.dynamic_power_factor() < p.frequency().value());
        }
    }

    #[test]
    fn throttle_level_count() {
        assert_eq!(ThrottleLevel::all().count(), 56);
    }

    #[test]
    fn cheapest_with_full_speed_is_unthrottled() {
        assert_eq!(ThrottleLevel::cheapest_with_speed(1.0), ThrottleLevel::NONE);
    }

    #[test]
    fn serving_and_memory_flags() {
        assert!(PowerState::active_full().is_serving());
        assert!(!PowerState::Sleeping.is_serving());
        assert!(PowerState::Sleeping.preserves_memory());
        assert!(!PowerState::Off.preserves_memory());
        assert!(PowerState::Hibernated.preserves_memory());
    }

    proptest! {
        #[test]
        fn cheapest_with_speed_honors_floor(s in 0.0f64..=1.0) {
            let level = ThrottleLevel::cheapest_with_speed(s);
            prop_assert!(level.effective_speed().value() + 1e-9 >= s);
        }

        #[test]
        fn effective_speed_bounds(p in 0u8..7, t in 0u8..8) {
            let level = ThrottleLevel { p: PState::new(p), t: TState::new(t) };
            let speed = level.effective_speed().value();
            prop_assert!(speed > 0.0 && speed <= 1.0);
            prop_assert!(level.dynamic_power_factor() <= 1.0);
        }
    }
}
