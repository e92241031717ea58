//! A fast, deterministic hasher for interior hash maps, and FNV-1a,
//! the digest behind stream seeds, capture keys and every pinned hash.
//!
//! `std`'s default SipHash is DoS-resistant but costs real time on the
//! simulator's hottest maps (directory state, in-flight transactions),
//! whose keys are line addresses we generate ourselves — there is no
//! untrusted input to defend against. This is the Fx multiply-rotate
//! scheme (as used by rustc): a few ALU ops per word, identical results
//! on every host, and no per-process seed, so map *behavior* (though
//! never observable iteration order — see the callers) is reproducible.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over native words; see module docs.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FNV-1a (64-bit) fed a piece at a time: [`Fnv1a::u64`] eats a word
/// as its eight little-endian bytes, so a digest of words is the same
/// on every host.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let h = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(h(0xdead_beef), h(0xdead_beef));
        assert_ne!(h(1), h(2));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let word = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            Fnv1a::default().u64(word).finish(),
            fnv1a(&word.to_le_bytes())
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 0x9e37_79b9, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 0x9e37_79b9)), Some(&i));
        }
    }
}
