//! A small FxHash-style hasher.
//!
//! The default `std` hasher (SipHash 1-3) is collision-resistant but slow
//! for the short integer/string keys that dominate relational workloads.
//! Hash joins and set-semantics deduplication are the hot loops of a
//! fixpoint engine, so we implement the Firefox/rustc "Fx" multiply-rotate
//! hash locally (~30 lines) rather than pulling in an external crate.
//! HashDoS is not a concern for an embedded, trusted-input engine.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx hash (64-bit golden-ratio-ish).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rotate-multiply-xor hasher used throughout the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.add_to_hash(u64::from_le_bytes(*word));
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
            // Mix in the length so that `"a\0"` and `"a"` differ.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hash a single hashable value with the Fx hasher (convenience for tests
/// and for index bucketing).
pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_eq!(hash_one(&"abc"), hash_one(&"abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&"a"), hash_one(&"b"));
    }

    #[test]
    fn distinguishes_trailing_bytes() {
        assert_ne!(hash_one(&[1u8, 0u8][..]), hash_one(&[1u8][..]));
    }

    #[test]
    fn map_and_set_work() {
        let mut map: FxHashMap<&str, i32> = FxHashMap::default();
        map.insert("x", 1);
        map.insert("y", 2);
        assert_eq!(map.get("x"), Some(&1));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(7);
        assert!(set.contains(&7));
        assert!(!set.contains(&8));
    }

    #[test]
    fn long_byte_streams() {
        let a: Vec<u8> = (0..64).collect();
        let mut b = a.clone();
        b[63] = 0;
        assert_ne!(hash_one(&a[..]), hash_one(&b[..]));
    }
}
