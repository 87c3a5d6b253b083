//! Processor throttling states: P-states, T-states and their combination.

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
/// use dcb_server::{PState, TState, ThrottleLevel};
/// // The deepest P-state at full duty: 40 % of the speed for about 13 %
/// // of the dynamic power.
/// let level = ThrottleLevel { p: PState::slowest(), t: TState::full() };
/// assert_eq!(level.effective_speed().value(), 0.4);
/// assert!(level.dynamic_power_factor() < 0.14);
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

    proptest! {
        #[test]
        fn effective_speed_bounds(p in 0u8..7, t in 0u8..8) {
            let level = ThrottleLevel { p: PState::new(p), t: TState::new(t) };
            let speed = level.effective_speed().value();
            prop_assert!(speed > 0.0 && speed <= 1.0);
            prop_assert!(level.dynamic_power_factor() <= 1.0);
        }
    }
}
