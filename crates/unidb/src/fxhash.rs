//! A tiny, fast, non-cryptographic hasher for executor and statistics
//! hot paths.
//!
//! The standard library's default hasher (SipHash) is keyed and
//! DoS-resistant but costs tens of nanoseconds per value — far too slow
//! for a hash join probing a million rows or an NDV sketch observing
//! every inserted datum. This is the classic "Fx" multiply-rotate hash
//! used by rustc: one rotate, one xor, one multiply per word. It is
//! deterministic across runs and platforms (inputs are folded
//! little-endian), so the executor's key table (hash join, GROUP BY,
//! DISTINCT) is laid out identically on every run.
//!
//! Hashing a [`crate::datum::Datum`] goes through its ordinary `Hash`
//! impl, so the engine-wide invariant that `Int(3)` and `Float(3.0)`
//! hash alike (both fold the f64 bit pattern) is preserved automatically.

use std::hash::{Hash, Hasher};

/// Multiplier from FxHash (the golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Streaming Fx hasher state.
#[derive(Debug, Clone, Default)]
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
    /// Finalize with an xor-shift-multiply avalanche. The Fx multiply
    /// only propagates entropy *upward*, so raw state has weak low bits —
    /// fatal here, because the executor's key table picks a bucket with
    /// the low bits, and `Datum` hashes numbers as f64 bit patterns whose
    /// low mantissa bits are all zero for small integers (the common
    /// join-key case).
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            rest = tail;
        }
        if let Some((chunk, tail)) = rest.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            rest = tail;
        }
        if let Some((chunk, tail)) = rest.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*chunk)));
            rest = tail;
        }
        if let [b] = rest {
            self.add(u64::from(*b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hash one value to a `u64` with the Fx hasher.
#[inline]
pub fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_ne!(hash_one(&42u64), hash_one(&43u64));
        // Byte-slice path covers every chunk width (8 + 4 + 2 + 1).
        let long = b"fifteen bytes!!";
        assert_eq!(hash_one(&long[..]), hash_one(&long[..]));
        assert_ne!(hash_one(&long[..]), hash_one(&long[..14]));
    }

    #[test]
    fn int_and_float_datums_hash_alike() {
        // The join key contract: `1 = 1.0` is true under SQL comparison,
        // so the hash table must put them in the same bucket.
        assert_eq!(hash_one(&Datum::Int(3)), hash_one(&Datum::Float(3.0)));
        assert_ne!(hash_one(&Datum::Int(3)), hash_one(&Datum::Int(4)));
    }

    #[test]
    fn the_avalanche_spreads_keys_over_the_low_bits() {
        // The key table picks a bucket with the hash's low bits. Datum
        // hashes numbers as f64 bit patterns, whose low mantissa bits are
        // zero for small integers, so without the finalizer these sets
        // would crowd into a few buckets. 25 000 uniform keys over 65 536
        // buckets fill ~20 800 of them, with chains of at most ~5.
        const BUCKETS: usize = 1 << 16;
        let sets: [(&str, Vec<Datum>); 4] = [
            ("INT i", (0..25_000).map(Datum::Int).collect()),
            ("INT i * 1000", (0..25_000).map(|i| Datum::Int(i * 1000)).collect()),
            ("FLOAT i / 4", (0..25_000).map(|i| Datum::Float(i as f64 / 4.0)).collect()),
            ("TEXT k{i}", (0..25_000).map(|i| Datum::Text(format!("k{i}"))).collect()),
        ];
        for (name, keys) in sets {
            let mut chains = vec![0u32; BUCKETS];
            for k in &keys {
                chains[hash_one(k) as usize & (BUCKETS - 1)] += 1;
            }
            let used = chains.iter().filter(|&&c| c > 0).count();
            let longest = chains.iter().max().copied().unwrap_or(0);
            assert!(used >= 20_000, "{name}: {used} buckets used");
            assert!(longest <= 8, "{name}: a chain of {longest}");
        }
    }

    #[test]
    fn slice_and_vec_of_datums_hash_alike() {
        // A multi-column key hashes by its values alone, whether it is
        // held as a row slice (DISTINCT) or gathered into a `Vec`.
        let key = vec![Datum::Int(7), Datum::Text("g".into())];
        assert_eq!(hash_one(&key), hash_one(key.as_slice()));
    }
}
