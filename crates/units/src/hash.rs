//! Stable 128-bit fingerprints for memoization keys.
//!
//! A fingerprint is FNV-1a (128-bit) over a *typed encoding*: every spec
//! type that feeds a cache key implements [`StableHash`] next to its
//! definition, destructuring all of its fields (no `..`), so adding a field
//! fails to compile until the field is hashed. The encoding is
//! unambiguous by construction:
//!
//! * floats absorb their IEEE-754 bit pattern ([`StableHasher::write_f64`]),
//!   so `-0.0` and `0.0` differ; every NaN absorbs one canonical pattern;
//! * integers absorb their little-endian bytes at their own width;
//! * strings absorb their UTF-8 bytes plus a `0xFF` terminator (a byte
//!   UTF-8 never contains);
//! * enums and `Option`s absorb a one-byte tag before their payload.
//!
//! Two values therefore share a fingerprint exactly when they are equal
//! field for field, with floats compared by bit pattern and all NaNs
//! alike. That is the grouping a derived `Debug` rendering gives too
//! (shortest round-trip floats print `-0.0` and print every NaN as
//! `NaN`), at a fraction of the cost. 128 bits keep the accidental
//! collision probability negligible (≈ 2⁻⁶⁴ even for billions of keys),
//! so fingerprints serve directly as cache keys.
//!
//! [`std::hash::Hash`] is the wrong tool here twice over: the quantity
//! newtypes deliberately lack it (they wrap `f64`), and its byte stream is
//! not promised stable across toolchains, while these fingerprints are
//! pinned by golden tests.

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// An incremental FNV-1a (128-bit) hasher with a stable byte encoding.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a string's UTF-8 bytes plus a terminator (so `("ab", "c")`
    /// and `("a", "bc")` hash differently).
    pub fn write_str(&mut self, value: &str) {
        self.write_bytes(value.as_bytes());
        self.write_bytes(&[0xFF]);
    }

    /// Absorbs an unsigned integer, little-endian.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a float via its IEEE-754 bit pattern (so `-0.0` and `0.0`
    /// hash differently, and `NaN` payloads are respected).
    // dcb-audit: allow(unit-flow, the hash substrate absorbs raw bits; dimensions are erased on purpose)
    pub fn write_f64(&mut self, value: f64) {
        self.write_bytes(&value.to_bits().to_le_bytes());
    }

    /// The accumulated digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A value with a stable, typed fingerprint encoding (see the module
/// docs for the rules every implementation follows).
pub trait StableHash {
    /// Feeds this value's encoding into `hasher`.
    fn stable_hash(&self, hasher: &mut StableHasher);
}

impl StableHash for f64 {
    /// The bit pattern, with every NaN folded onto [`f64::NAN`]'s.
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_f64(if self.is_nan() { f64::NAN } else { *self });
    }
}

impl StableHash for u8 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_bytes(&[*self]);
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_bytes(&self.to_le_bytes());
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u64(*self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        u8::from(*self).stable_hash(hasher);
    }
}

impl StableHash for str {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(self);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            None => 0u8.stable_hash(hasher),
            Some(value) => {
                1u8.stable_hash(hasher);
                value.stable_hash(hasher);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest<T: StableHash + ?Sized>(value: &T) -> u128 {
        let mut hasher = StableHasher::new();
        value.stable_hash(&mut hasher);
        hasher.finish()
    }

    fn digest_strs(parts: &[&str]) -> u128 {
        let mut hasher = StableHasher::new();
        for part in parts {
            part.stable_hash(&mut hasher);
        }
        hasher.finish()
    }

    #[test]
    fn digests_are_stable_across_hashers() {
        assert_eq!(digest(&Some(1.5f64)), digest(&Some(1.5f64)));
        assert_eq!(digest_strs(&["config"]), digest_strs(&["config"]));
    }

    #[test]
    fn field_boundaries_matter() {
        assert_ne!(digest_strs(&["ab", "c"]), digest_strs(&["a", "bc"]));
        assert_ne!(digest(&Some(0u8)), digest(&None::<u8>));
        assert_ne!(digest(&true), digest(&false));
    }

    #[test]
    fn nearby_floats_differ() {
        assert_ne!(digest(&1.0f64), digest(&(1.0f64 + f64::EPSILON)));
        assert_ne!(digest(&-0.0f64), digest(&0.0f64));
        let mut neg = StableHasher::new();
        neg.write_f64(-0.0);
        let mut pos = StableHasher::new();
        pos.write_f64(0.0);
        assert_ne!(neg.finish(), pos.finish());
    }

    #[test]
    fn every_nan_hashes_alike_as_debug_prints_them() {
        let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(payload.is_nan());
        assert_eq!(format!("{payload:?}"), format!("{:?}", -f64::NAN));
        assert_eq!(digest(&payload), digest(&f64::NAN));
        assert_eq!(digest(&-f64::NAN), digest(&f64::NAN));
    }

    #[test]
    fn integers_hash_at_their_own_width() {
        let mut wide = StableHasher::new();
        wide.write_u64(7);
        assert_eq!(digest(&7u64), wide.finish());
        let mut narrow = StableHasher::new();
        narrow.write_bytes(&7u32.to_le_bytes());
        assert_eq!(digest(&7u32), narrow.finish());
    }

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(StableHasher::new().finish(), FNV128_OFFSET);
    }

    #[test]
    fn writes_keep_their_fnv_bytes() {
        // FNV-1a over "a" then the 0xFF terminator, computed by hand.
        let mut by_hand = FNV128_OFFSET;
        for byte in [b'a', 0xFF] {
            by_hand ^= u128::from(byte);
            by_hand = by_hand.wrapping_mul(FNV128_PRIME);
        }
        let mut hasher = StableHasher::new();
        hasher.write_str("a");
        assert_eq!(hasher.finish(), by_hand);
    }
}
