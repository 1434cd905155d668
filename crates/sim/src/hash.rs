//! A small deterministic hasher for hot-path maps keyed by plain
//! integers.
//!
//! [`FxHasher`] is the multiply-rotate word hash of the Firefox and rustc
//! hash tables: one rotate, one xor and one multiply per word written. It
//! is not DoS-resistant, which a simulator keyed by its own node and link
//! ids does not need, and it carries no random seed, so a map's layout is
//! the same on every run. Iteration order must still never reach an
//! export: walk keys in sorted order there, as with any hash map.
//!
//! # Example
//!
//! ```
//! use ecoscale_sim::hash::FxHashMap;
//!
//! let mut m: FxHashMap<(usize, usize), u32> = FxHashMap::default();
//! m.insert((3, 7), 1);
//! assert_eq!(m.get(&(3, 7)), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The odd multiplier of rustc's `FxHasher` (from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash_of((3usize, 7usize)), hash_of((3usize, 7usize)));
        assert_ne!(hash_of((3usize, 7usize)), hash_of((7usize, 3usize)));
        let mut seen: Vec<u64> = (0..64usize)
            .flat_map(|a| (0..64usize).map(move |b| hash_of((a, b))))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn map_round_trips_entries() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i * 0x1_0000_0001, i);
        }
        assert!((0..1000).all(|i| m[&(i * 0x1_0000_0001)] == i));
    }
}
