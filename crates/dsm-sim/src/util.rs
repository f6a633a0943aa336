//! The workspace's fast hasher for integer-keyed maps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiplicative hasher for `u64` keys (line addresses, ids).
///
/// Simulation state is keyed almost entirely by line addresses; SipHash is
/// needless overhead on this hot path and HashDoS is not a concern for a
/// simulator, so we use a Fibonacci-multiplication mix instead.
#[derive(Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely used): fold bytes in u64 chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // 2^64 / golden ratio, the classic Fibonacci hashing constant.
        self.0 = (self.0 ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// HashMap keyed by u64-like values using [`U64Hasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<U64Hasher>>;

/// HashSet of u64-like values using [`U64Hasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<U64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 977, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 977)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hasher_distinguishes_values() {
        let mut h1 = U64Hasher::default();
        h1.write_u64(1);
        let mut h2 = U64Hasher::default();
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
