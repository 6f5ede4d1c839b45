//! The checker's hasher for maps keyed by small VM ids.
//!
//! Every key the checker stores is a handful of integers the VM minted
//! itself (thread, slot, generation, method/field/pin/object ids), so the
//! keys are not attacker-chosen hash-flooding input and std's SipHash buys
//! nothing but cost on every language transition. [`IdHasher`] folds each
//! integer with one rotate, xor and multiply, and is deterministic across
//! runs (no random seed).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by VM ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-spread bits (the golden-ratio family).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes by
        // the low bits, so bring the well-mixed high bits down.
        self.hash.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash_of((3u16, 7u32, 1u32)), hash_of((3u16, 7u32, 1u32)));
        // Neighbouring slots and generations land in different low bits,
        // which is what the table indexes by.
        let mut low: Vec<u64> = (0..64u32)
            .map(|s| hash_of((0u16, s, 1u32)) & 0xff)
            .collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 40, "only {} distinct low bytes", low.len());
        assert_ne!(hash_of((0u16, 1u32, 2u32)), hash_of((0u16, 2u32, 1u32)));
    }

    #[test]
    fn byte_writes_fold_every_byte() {
        let mut a = IdHasher::default();
        a.write(b"abcdefghi");
        let mut b = IdHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
