//! Dimensionless fractions clamped to `[0, 1]`.

use core::fmt;

/// A dimensionless value guaranteed to lie in `[0, 1]`.
///
/// Used for normalized performance, load levels, capacity fractions (the
/// "0.5" in configurations like `SmallDG-SmallPUPS`, Table 3), CPU stall
/// fractions and utilization.
///
/// ```
/// use dcb_units::Fraction;
/// let half = Fraction::new(0.5);
/// assert_eq!(half.complement().value(), 0.5);
/// assert_eq!((half * half).value(), 0.25);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct Fraction(f64);

impl Fraction {
    /// Zero.
    pub const ZERO: Self = Self(0.0);
    /// One.
    pub const ONE: Self = Self(1.0);
    /// One half.
    pub const HALF: Self = Self(0.5);

    /// Creates a fraction, clamping into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "Fraction cannot be NaN");
        Self(value.clamp(0.0, 1.0))
    }

    /// Creates a fraction without clamping.
    ///
    /// Returns `None` if `value` is outside `[0, 1]` or NaN.
    #[must_use]
    pub fn checked(value: f64) -> Option<Self> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            None
        } else {
            Some(Self(value))
        }
    }

    /// Creates a fraction from a percentage (e.g. `25.0` → `0.25`).
    #[must_use]
    pub fn from_percent(percent: f64) -> Self {
        Self::new(percent / 100.0)
    }

    /// The raw value in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value expressed as a percentage.
    #[must_use]
    pub fn to_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// `1 - self`.
    #[must_use]
    pub fn complement(self) -> Self {
        Self(1.0 - self.0)
    }

    /// The smaller of two fractions.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// The larger of two fractions.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Returns `true` if exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        // dcb-audit: allow(float-cmp, exact zero sentinel test)
        self.0 == 0.0
    }

    /// Total ordering over the underlying value ([`f64::total_cmp`]).
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[must_use]
    pub fn lerp(self, other: Self, t: Self) -> Self {
        Self(self.0 + (other.0 - self.0) * t.0)
    }
}

/// Product of fractions stays in `[0, 1]`.
impl core::ops::Mul for Fraction {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl core::ops::Mul<f64> for Fraction {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl core::ops::Mul<Fraction> for f64 {
    type Output = f64;
    fn mul(self, rhs: Fraction) -> f64 {
        self * rhs.0
    }
}

impl From<Fraction> for f64 {
    fn from(f: Fraction) -> f64 {
        f.0
    }
}

impl crate::StableHash for Fraction {
    fn stable_hash(&self, hasher: &mut crate::StableHasher) {
        let Self(value) = self;
        value.stable_hash(hasher);
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*}%", precision, self.to_percent())
        } else {
            write!(f, "{}%", self.to_percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamping() {
        assert_eq!(Fraction::new(1.5), Fraction::ONE);
        assert_eq!(Fraction::new(-0.5), Fraction::ZERO);
    }

    #[test]
    fn checked_rejects_out_of_range() {
        assert!(Fraction::checked(1.001).is_none());
        assert!(Fraction::checked(-0.001).is_none());
        assert_eq!(Fraction::checked(0.4), Some(Fraction::new(0.4)));
    }

    #[test]
    fn percent_round_trip() {
        assert_eq!(Fraction::from_percent(25.0).to_percent(), 25.0);
    }

    proptest! {
        #[test]
        fn always_in_unit_interval(v in -10.0f64..10.0) {
            let f = Fraction::new(v);
            prop_assert!((0.0..=1.0).contains(&f.value()));
        }

        #[test]
        fn complement_involution(v in 0.0f64..=1.0) {
            let f = Fraction::new(v);
            prop_assert!((f.complement().complement().value() - v).abs() < 1e-15);
        }

        #[test]
        fn product_closed(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = Fraction::new(a) * Fraction::new(b);
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }
    }
}
