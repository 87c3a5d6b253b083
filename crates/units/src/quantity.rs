//! Internal macro for defining `f64`-backed quantity newtypes.

/// Defines a quantity newtype with the arithmetic shared by all quantities:
/// addition and subtraction with itself, scaling by `f64`, division by
/// itself (yielding a dimensionless `f64`), ordering, `Display` with a unit
/// suffix, a [`crate::StableHash`] fingerprint, and serde support.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal
    ) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            PartialOrd,
            Default,
            serde::Serialize,
            serde::Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN; quantities must always be ordered.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " cannot be NaN"));
                Self(value)
            }

            /// Creates a quantity in `const` context from a literal value.
            ///
            /// Unlike [`Self::new`] this cannot reject NaN, so reserve it
            /// for compile-time constants.
            #[must_use]
            pub const fn literal(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw numeric value in the quantity's base unit.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity to `[lo, hi]`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the value is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                // dcb-audit: allow(float-cmp, exact zero sentinel test)
                self.0 == 0.0
            }

            /// Total ordering over the underlying value
            /// ([`f64::total_cmp`]); lets callers sort or take extrema
            /// without a fallible `partial_cmp` unwrap.
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }

            /// Returns `true` if the value is strictly positive.
            #[must_use]
            pub fn is_positive(self) -> bool {
                self.0 > 0.0
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl crate::StableHash for $name {
            fn stable_hash(&self, hasher: &mut crate::StableHasher) {
                let Self(value) = self;
                value.stable_hash(hasher);
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}
