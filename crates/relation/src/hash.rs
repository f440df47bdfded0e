//! The tuple plane's one hasher, and the container aliases that use it.
//!
//! Keys here are a few machine words (a tuple of arity ≤ 4, a node id, an
//! interned name), so a multiply per word replaces std's SipHash. The
//! producer is trusted (docs/ROBUSTNESS.md): hash flooding is out of scope.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed through [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildWordHasher>;
/// A `HashSet` keyed through [`WordHasher`].
pub type FastSet<K> = HashSet<K, BuildWordHasher>;
/// A set of tuples: row sets, deltas.
pub type TupleSet = FastSet<crate::Tuple>;
/// A map keyed by tuple: windows, runs, counts.
pub type TupleMap<V> = FastMap<crate::Tuple, V>;

/// Word-at-a-time multiplicative hasher: `h ← (h + word) · K`, `K` odd.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

macro_rules! write_word {
    ($($name:ident: $ty:ty),*) => {$(
        #[inline]
        fn $name(&mut self, w: $ty) {
            self.0 = self.0.wrapping_add(w as u64).wrapping_mul(0xf135_7aea_2e62_a9c5);
        }
    )*};
}

impl Hasher for WordHasher {
    write_word!(write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize);
    write_word!(write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64, write_isize: isize);

    /// Byte strings (and, by default, the 128-bit widths): eight bytes to
    /// a word, then the length, so a trailing zero byte still counts.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_usize(bytes.len());
    }

    /// hashbrown takes the bucket from the *low* bits, and a product's low
    /// bits depend only on the key's low bits: without this rotation keys
    /// that differ only above bit 20 all land in one bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`WordHasher`]s from a seed drawn once per process, so iteration
/// order differs between processes (an order leak into output shows as a
/// byte-diff) and agrees between containers within one.
#[derive(Clone, Copy, Debug)]
pub struct BuildWordHasher(u64);

impl Default for BuildWordHasher {
    fn default() -> BuildWordHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        let draw = || std::collections::hash_map::RandomState::new().hash_one(0u8);
        BuildWordHasher(*SEED.get_or_init(draw))
    }
}

impl BuildHasher for BuildWordHasher {
    type Hasher = WordHasher;
    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Symbol, Tuple, Value};
    use std::hash::Hash;

    /// Largest bucket, in multiples of the mean, when `keys` are spread
    /// over `2^bits` buckets by the low bits of `finish()` — where
    /// hashbrown looks. Counts only, so it repeats exactly for a seed.
    fn worst_bucket<K: Hash>(seed: u64, keys: &[K], bits: u32) -> f64 {
        let mut buckets = vec![0u32; 1 << bits];
        for k in keys {
            let low = BuildWordHasher(seed).hash_one(k) & ((1 << bits) - 1);
            buckets[low as usize] += 1;
        }
        let mean = (keys.len() as f64 / buckets.len() as f64).max(1.0);
        f64::from(*buckets.iter().max().expect("non-empty")) / mean
    }

    fn assert_spread<K: Hash>(what: &str, keys: &[K]) {
        for seed in [0, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            for bits in [12, 16] {
                let worst = worst_bucket(seed, keys, bits);
                assert!(
                    worst <= 4.0,
                    "{what}: seed {seed:#x}, low {bits} bits: {worst}x the mean"
                );
            }
        }
    }

    #[test]
    fn strided_integers_spread_over_the_low_bits() {
        for shift in [0, 8, 20, 32] {
            let raw: Vec<i64> = (0..1i64 << 16).map(|i| i << shift).collect();
            assert_spread(&format!("i << {shift}"), &raw);
            let rows: Vec<Tuple> = raw.iter().map(|&i| tuple![7, i]).collect();
            assert_spread(&format!("(7, i << {shift})"), &rows);
        }
    }

    #[test]
    fn resident_rows_and_one_column_differences_spread() {
        // `check-resident`'s row shape: strings interned in arrival order
        // (ids chosen here, not interned — other tests intern in parallel).
        let rows: Vec<Tuple> = (0..1i64 << 16)
            .map(|i| tuple![Value::Str(Symbol::with_id(1000 + i as u32)), i])
            .collect();
        assert_spread("(Str(symbol_i), Int(i))", &rows);
        for col in 0..4 {
            let rows: Vec<Tuple> = (0..1i64 << 16)
                .map(|i| {
                    (0..4)
                        .map(|c| Value::Int(if c == col { i } else { 42 }))
                        .collect()
                })
                .collect();
            assert_spread(&format!("arity 4, column {col} varies"), &rows);
        }
    }

    #[test]
    fn a_bare_multiply_would_fail_these_checks() {
        // The finalizer is what the spread tests pin: the un-rotated state
        // of `(7, i << 20)` keys agrees on its low 20 bits.
        let low_bits: std::collections::BTreeSet<u64> = (0..1u64 << 10)
            .map(|i| {
                let mut h = BuildWordHasher(1).build_hasher();
                tuple![7, (i << 20) as i64].hash(&mut h);
                h.0 & 0xfff
            })
            .collect();
        assert_eq!(low_bits.len(), 1);
    }

    #[test]
    fn every_width_feeds_the_state_and_bytes_are_length_delimited() {
        let one = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = BuildWordHasher(3).build_hasher();
            f(&mut h);
            h.finish()
        };
        let empty = one(&|_| {});
        assert_ne!(one(&|h| h.write_u8(1)), empty);
        assert_ne!(one(&|h| h.write_i16(1)), empty);
        assert_ne!(one(&|h| h.write_u128(1 << 64)), one(&|h| h.write_u128(0)));
        assert_ne!(one(&|h| h.write_u128(1)), one(&|h| h.write_u64(1)));
        assert_ne!(one(&|h| h.write(b"ab")), one(&|h| h.write(b"ab\0")));
        assert_ne!(
            one(&|h| h.write(b"12345678")),
            one(&|h| h.write(b"123456789"))
        );
    }

    #[test]
    fn the_seed_is_drawn_once_per_process() {
        assert_eq!(BuildWordHasher::default().0, BuildWordHasher::default().0);
    }
}
