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
//! A hasher absorbs its writes one after another, and its state after a
//! prefix of them is all the rest of the digest depends on. A clone saved
//! after a prefix that many digests share resumes from there and finishes
//! at the digest one hasher fed every write would give:
//! `dcb_fleet::ClusterKey` saves the state after a cluster's encoding,
//! most of a scenario digest's bytes, and resumes it for every point on
//! that cluster.
//!
//! FNV-1a spends one 128-bit multiply per byte. A key that never leaves
//! the process (the topology resolver's sibling merges and job dedup) can
//! use [`StableHasher::words`] instead: the same typed encoding, absorbed
//! one 64-bit word per multiply. Each write becomes one or more words,
//! every word tagged with the write's byte length, so the word stream
//! still tells every sequence of writes apart: it groups values exactly
//! as FNV-1a does, at a different value. Published digests (scenario
//! keys, topology digests, golden constants) stay FNV-1a.
//!
//! [`std::hash::Hash`] is the wrong tool here twice over: the quantity
//! newtypes deliberately lack it (they wrap `f64`), and its byte stream is
//! not promised stable across toolchains, while these fingerprints are
//! pinned by golden tests.

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
/// The word-wise mixer's multiplier: odd, so the multiply is a bijection,
/// and dense, so one multiply carries each input bit to many output bits
/// (PCG's 128-bit LCG multiplier).
const WORD_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// How a [`StableHasher`] absorbs its encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Absorb {
    /// FNV-1a, one byte per multiply: the published fingerprints.
    Bytes,
    /// One length-tagged 64-bit word per multiply: in-process keys.
    Words,
}

/// An incremental FNV-1a (128-bit) hasher with a stable byte encoding, or
/// (from [`StableHasher::words`]) a word-wise hasher over the same
/// encoding.
///
/// In either mode, an integer or float write absorbs the same as
/// [`StableHasher::write_bytes`] over its little-endian bytes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
    absorb: Absorb,
}

impl StableHasher {
    /// A fresh FNV-1a hasher at the offset basis.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
            absorb: Absorb::Bytes,
        }
    }

    /// A fresh word-wise hasher: the same typed encoding, absorbed one
    /// 64-bit word per multiply.
    ///
    /// A write of `n` bytes becomes `max(1, ⌈n/8⌉)` little-endian words
    /// (the last zero-padded), each tagged with `n`, so a `u8` tag and the
    /// same byte inside a `u64` stay apart and no write is ever absorbed
    /// as nothing. Each word is XORed into the state with its tag above
    /// it, multiplied by an odd constant, and the high half folded into
    /// the low half; every step is a bijection, so two streams that differ
    /// in one word never collide. Two values share a key exactly when
    /// they share an FNV-1a fingerprint (up to accidental collisions of
    /// either), but the key's value is not FNV-1a: use it only for
    /// grouping inside one process, never for a digest that is printed,
    /// stored or pinned.
    #[must_use]
    #[inline]
    pub fn words() -> Self {
        Self {
            state: FNV128_OFFSET,
            absorb: Absorb::Words,
        }
    }

    /// Absorbs one word of a write of `len` bytes.
    #[inline]
    fn absorb_word(&mut self, word: u64, len: u64) {
        let mixed =
            (self.state ^ (u128::from(len) << 64 | u128::from(word))).wrapping_mul(WORD_MULTIPLIER);
        self.state = mixed ^ (mixed >> 64);
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        match self.absorb {
            Absorb::Bytes => {
                for &byte in bytes {
                    self.state ^= u128::from(byte);
                    self.state = self.state.wrapping_mul(FNV128_PRIME);
                }
            }
            Absorb::Words => {
                let len = bytes.len() as u64;
                let mut chunks = bytes.chunks_exact(8);
                for chunk in &mut chunks {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    self.absorb_word(u64::from_le_bytes(word), len);
                }
                let rest = chunks.remainder();
                if !rest.is_empty() || bytes.is_empty() {
                    let mut word = [0u8; 8];
                    word[..rest.len()].copy_from_slice(rest);
                    self.absorb_word(u64::from_le_bytes(word), len);
                }
            }
        }
    }

    /// Absorbs a string's UTF-8 bytes plus a terminator (so `("ab", "c")`
    /// and `("a", "bc")` hash differently). The word-wise hasher needs no
    /// terminator: its words carry the string's length.
    #[inline]
    pub fn write_str(&mut self, value: &str) {
        self.write_bytes(value.as_bytes());
        if self.absorb == Absorb::Bytes {
            self.write_bytes(&[0xFF]);
        }
    }

    /// Absorbs one byte.
    #[inline]
    fn write_u8(&mut self, value: u8) {
        match self.absorb {
            Absorb::Bytes => self.write_bytes(&[value]),
            Absorb::Words => self.absorb_word(u64::from(value), 1),
        }
    }

    /// Absorbs a 32-bit unsigned integer, little-endian.
    #[inline]
    fn write_u32(&mut self, value: u32) {
        match self.absorb {
            Absorb::Bytes => self.write_bytes(&value.to_le_bytes()),
            Absorb::Words => self.absorb_word(u64::from(value), 4),
        }
    }

    /// Absorbs an unsigned integer, little-endian.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        match self.absorb {
            Absorb::Bytes => self.write_bytes(&value.to_le_bytes()),
            Absorb::Words => self.absorb_word(value, 8),
        }
    }

    /// Absorbs a float via its IEEE-754 bit pattern (so `-0.0` and `0.0`
    /// hash differently, and `NaN` payloads are respected).
    #[inline]
    // dcb-audit: allow(unit-flow, the hash substrate absorbs raw bits; dimensions are erased on purpose)
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The accumulated digest.
    #[must_use]
    #[inline]
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
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_f64(if self.is_nan() { f64::NAN } else { *self });
    }
}

impl StableHash for u8 {
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u8(*self);
    }
}

impl StableHash for u32 {
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u32(*self);
    }
}

impl StableHash for u64 {
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u64(*self);
    }
}

impl StableHash for bool {
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        u8::from(*self).stable_hash(hasher);
    }
}

impl StableHash for str {
    #[inline]
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(self);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    #[inline]
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

    type NewHasher = fn() -> StableHasher;

    /// Both hashers: every grouping property must hold for each.
    const HASHERS: [(&str, NewHasher); 2] =
        [("fnv", StableHasher::new), ("words", StableHasher::words)];

    fn digest_with<T: StableHash + ?Sized>(new: NewHasher, value: &T) -> u128 {
        let mut hasher = new();
        value.stable_hash(&mut hasher);
        hasher.finish()
    }

    fn digest<T: StableHash + ?Sized>(value: &T) -> u128 {
        digest_with(StableHasher::new, value)
    }

    fn digest_strs(new: NewHasher, parts: &[&str]) -> u128 {
        let mut hasher = new();
        for part in parts {
            part.stable_hash(&mut hasher);
        }
        hasher.finish()
    }

    #[test]
    fn digests_are_stable_across_hashers() {
        for (_, new) in HASHERS {
            assert_eq!(
                digest_with(new, &Some(1.5f64)),
                digest_with(new, &Some(1.5f64))
            );
            assert_eq!(digest_strs(new, &["config"]), digest_strs(new, &["config"]));
        }
    }

    #[test]
    fn field_boundaries_matter() {
        for (name, new) in HASHERS {
            assert_ne!(
                digest_strs(new, &["ab", "c"]),
                digest_strs(new, &["a", "bc"]),
                "{name}"
            );
            assert_ne!(
                digest_strs(new, &["", "a"]),
                digest_strs(new, &["a", ""]),
                "{name}"
            );
            assert_ne!(
                digest_with(new, &Some(0u8)),
                digest_with(new, &None::<u8>),
                "{name}"
            );
            assert_ne!(digest_with(new, &true), digest_with(new, &false), "{name}");
        }
    }

    #[test]
    fn nearby_floats_differ() {
        for (name, new) in HASHERS {
            assert_ne!(
                digest_with(new, &1.0f64),
                digest_with(new, &(1.0f64 + f64::EPSILON)),
                "{name}"
            );
            assert_ne!(
                digest_with(new, &-0.0f64),
                digest_with(new, &0.0f64),
                "{name}"
            );
            let mut neg = new();
            neg.write_f64(-0.0);
            let mut pos = new();
            pos.write_f64(0.0);
            assert_ne!(neg.finish(), pos.finish(), "{name}");
        }
    }

    #[test]
    fn every_nan_hashes_alike_as_debug_prints_them() {
        let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(payload.is_nan());
        assert_eq!(format!("{payload:?}"), format!("{:?}", -f64::NAN));
        for (name, new) in HASHERS {
            let nan = digest_with(new, &f64::NAN);
            assert_eq!(digest_with(new, &payload), nan, "{name}");
            assert_eq!(digest_with(new, &-f64::NAN), nan, "{name}");
        }
    }

    #[test]
    fn integers_hash_at_their_own_width() {
        for (name, new) in HASHERS {
            let mut wide = new();
            wide.write_bytes(&7u64.to_le_bytes());
            assert_eq!(digest_with(new, &7u64), wide.finish(), "{name}");
            let mut narrow = new();
            narrow.write_bytes(&7u32.to_le_bytes());
            assert_eq!(digest_with(new, &7u32), narrow.finish(), "{name}");
            let mut byte = new();
            byte.write_bytes(&[7]);
            assert_eq!(digest_with(new, &7u8), byte.finish(), "{name}");
        }
    }

    #[test]
    fn a_tag_differs_from_the_same_byte_in_a_wider_integer() {
        for (name, new) in HASHERS {
            let tag = digest_with(new, &7u8);
            assert_ne!(tag, digest_with(new, &7u32), "{name}");
            assert_ne!(tag, digest_with(new, &7u64), "{name}");
            assert_ne!(digest_with(new, &7u32), digest_with(new, &7u64), "{name}");
        }
    }

    #[test]
    fn words_absorb_every_write() {
        // An empty write is a word of its own, and a long string's last
        // partial word still counts.
        let mut empty = StableHasher::words();
        empty.write_bytes(&[]);
        assert_ne!(empty.finish(), StableHasher::words().finish());
        let long = |tail: &str| digest_with(StableHasher::words, &format!("0123456789{tail}")[..]);
        assert_ne!(long("a"), long("b"));
        assert_ne!(long(""), long("\0"));
    }

    #[test]
    fn words_keep_one_word_differences_apart() {
        // Each absorbing step is a bijection, so streams that differ in
        // one word never collide.
        let mut keys: Vec<u128> = (0..4096u64)
            .map(|i| {
                let mut hasher = StableHasher::words();
                hasher.write_u64(1);
                hasher.write_u64(i << 52);
                hasher.write_u64(2);
                hasher.finish()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4096);
    }

    #[test]
    fn words_are_not_fnv() {
        assert_ne!(digest_with(StableHasher::words, "config"), digest("config"));
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
