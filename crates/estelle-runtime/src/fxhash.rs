//! A fast non-cryptographic streaming hasher (FxHash-style multiply-xor).
//!
//! The trace analyzer hashes whole machine states on every node under the
//! visited-set extension, and the heap hashes chunks of cells to maintain
//! its cached content digests. SipHash's security margin would be pure
//! overhead in both places.

use std::hash::Hasher;

#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

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
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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
    use std::hash::Hash;

    fn digest<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(digest(&42u64), digest(&42u64));
        assert_eq!(digest(&"hello"), digest(&"hello"));
        assert_eq!(digest(&vec![1u32, 2, 3]), digest(&vec![1u32, 2, 3]));
    }

    #[test]
    fn different_values_hash_different() {
        assert_ne!(digest(&1u64), digest(&2u64));
        assert_ne!(digest(&"ab"), digest(&"ba"));
        // Length is mixed into the trailing partial word.
        assert_ne!(digest(&[0u8; 3][..]), digest(&[0u8; 4][..]));
    }
}
