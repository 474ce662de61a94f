//! A vendored Fx-style hasher for simulator-internal maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! lookup — pure overhead for a simulator whose keys are small integers
//! it generated itself. This module vendors the multiply-rotate hash
//! popularized by Firefox and rustc (`FxHasher`): one rotate, one xor,
//! and one multiply per word. No external dependency, no `unsafe`.
//!
//! It also holds [`splitmix64`], the one integer mixer that spreads
//! trace addresses, serve ring points and arrival schedules.
//!
//! Determinism note: `FxHasher` has no random per-process seed, so map
//! iteration order is stable across runs *of the same binary*. The
//! simulator still must not let iteration order leak into results (that
//! invariant is owned by the call sites and locked by the determinism
//! and stats-parity tests); the stable seed just makes any such bug
//! reproducible instead of flaky.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`]. Drop-in for `std::HashMap` via
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Builds [`FxHasher`]s; the `BuildHasher` for [`FxHashMap`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The odd constant from the original Firefox implementation:
/// `u64::from_str_radix("1000000000000000000000000000000110011001010100101011001110110111", 2)`
/// — chosen so multiplication diffuses bits across the word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher: `hash = (hash.rotl(5) ^ word) * SEED`
/// per input word. Suitable only for keys the simulator itself generates
/// (no attacker-controlled input ever reaches these maps).
#[derive(Clone, Copy, Debug, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(buf.len() as u64 ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The SplitMix64 state increment (2^64 divided by the golden ratio).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output for state `x`: `x + γ` through the splitmix64
/// finalizer (Steele, Lea & Flood, OOPSLA 2014). A bijection on `u64`
/// that sends nearby inputs far apart.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineAddr, PageNum};

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<PageNum, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(PageNum::new(i), i as u32 * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&PageNum::new(i)), Some(&(i as u32 * 3)));
        }
        assert_eq!(m.remove(&PageNum::new(7)), Some(21));
        assert_eq!(m.get(&PageNum::new(7)), None);
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Not a collision-resistance claim — just a smoke test that the
        // mixer actually mixes for the key shapes the simulator uses.
        let mut s = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            s.insert(h.finish());
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn hash_is_deterministic() {
        let one = |l: LineAddr| {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(&l, &mut h);
            h.finish()
        };
        assert_eq!(one(LineAddr::new(42)), one(LineAddr::new(42)));
        assert_ne!(one(LineAddr::new(42)), one(LineAddr::new(43)));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(SPLITMIX64_GAMMA), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn partial_words_feed_the_mixer() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
