//! Set-associative cache structures for the PIPM simulator.
//!
//! One generic structure, [`SetAssoc`], backs every tagged hardware
//! structure in the system: L1 data caches and LLCs (keyed by
//! [`LineAddr`]), the PIPM local/global remapping caches (keyed by
//! [`PageNum`]), and the CXL device coherence directory (keyed by
//! [`LineAddr`]). Each entry carries caller-defined metadata `M`
//! (coherence state, dirty bit, remapping entry, …). Replacement is LRU.
//!
//! # Layout
//!
//! Each set is one vector of `(key, metadata, last_use)` payloads; a
//! probe compares keys in place, and a set's occupancy is its vector's
//! length. The vectors are allocated on a set's first insert, so a
//! large, mostly-empty structure (the 512 Ki-lane CXL device directory)
//! costs one empty `Vec` header per set until hosts actually cache
//! lines there. Recency rides in the payload tuple: probes only need it
//! on a hit, when the payload is loaded anyway.
//!
//! # Example
//!
//! ```
//! use pipm_cache::SetAssoc;
//! use pipm_types::LineAddr;
//!
//! // 4 sets × 2 ways, bool metadata (a dirty bit).
//! let mut c: SetAssoc<LineAddr, bool> = SetAssoc::new(4, 2);
//! assert!(c.insert(LineAddr::new(0), false).is_none());
//! assert!(c.insert(LineAddr::new(4), false).is_none()); // same set, 2nd way
//! *c.lookup(LineAddr::new(0)).unwrap() = true;          // touch + dirty
//! // Inserting a third line into the set evicts the LRU way (line 4).
//! let victim = c.insert(LineAddr::new(8), false).unwrap();
//! assert_eq!(victim.0, LineAddr::new(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pipm_types::{LineAddr, PageNum};

/// Keys that can index a set-associative structure.
///
/// This trait is sealed in spirit: it is implemented for the address types
/// used by the simulator ([`LineAddr`], [`PageNum`], and `u64`).
///
/// `as_index` only picks the set; probes compare the keys themselves.
pub trait CacheKey: Copy + Eq + std::fmt::Debug {
    /// A stable integer projection of the key, used for set selection.
    fn as_index(self) -> u64;
}

impl CacheKey for LineAddr {
    #[inline]
    fn as_index(self) -> u64 {
        self.raw()
    }
}

impl CacheKey for PageNum {
    #[inline]
    fn as_index(self) -> u64 {
        self.raw()
    }
}

impl CacheKey for u64 {
    #[inline]
    fn as_index(self) -> u64 {
        self
    }
}

/// Hit/miss/eviction counters for a cache structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions that displaced a valid entry.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, LRU-replaced tag structure with per-entry metadata.
#[derive(Clone, Debug)]
pub struct SetAssoc<K, M> {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (the common geometry), so
    /// the per-access set index is a mask instead of a hardware divide;
    /// `u64::MAX` sentinel otherwise (fall back to `%`).
    set_mask: u64,
    /// Per-set `(key, metadata, last_use)` payloads. A set's occupancy is
    /// its vector's length; payload storage is allocated lazily on first
    /// insert (large, mostly-empty structures — the CXL device directory
    /// is 512 Ki ways — would otherwise pay tens of thousands of upfront
    /// allocations per simulated system).
    entries: Vec<Vec<(K, M, u64)>>,
    tick: u64,
    stats: CacheStats,
}

impl<K: CacheKey, M> SetAssoc<K, M> {
    /// Creates a structure with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be nonzero");
        sets.checked_mul(ways).expect("cache geometry overflow");
        SetAssoc {
            sets,
            ways,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
            entries: (0..sets).map(|_| Vec::new()).collect(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of valid entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Whether the structure holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Vec::is_empty)
    }

    #[inline]
    fn set_of(&self, idx: u64) -> usize {
        if self.set_mask != u64::MAX {
            (idx & self.set_mask) as usize
        } else {
            (idx % self.sets as u64) as usize
        }
    }

    /// Returns `key`'s lane in `set`, scanning the payloads in place.
    #[inline]
    fn find_lane(&self, set: usize, key: K) -> Option<usize> {
        self.entries[set].iter().position(|e| e.0 == key)
    }

    /// Looks up `key`, updating recency and hit/miss statistics. Returns a
    /// mutable reference to the metadata on a hit.
    #[inline]
    pub fn lookup(&mut self, key: K) -> Option<&mut M> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key.as_index());
        match self.find_lane(set, key) {
            Some(i) => {
                self.stats.hits += 1;
                let e = &mut self.entries[set][i];
                e.2 = tick;
                Some(&mut e.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Reads `key` without updating recency or statistics.
    #[inline]
    pub fn peek(&self, key: K) -> Option<&M> {
        let set = self.set_of(key.as_index());
        self.find_lane(set, key).map(|i| &self.entries[set][i].1)
    }

    /// Mutates `key`'s metadata without updating recency or statistics.
    #[inline]
    pub fn peek_mut(&mut self, key: K) -> Option<&mut M> {
        let set = self.set_of(key.as_index());
        self.find_lane(set, key)
            .map(|i| &mut self.entries[set][i].1)
    }

    /// Inserts `key` with `meta`, returning the evicted `(key, meta)` if the
    /// set was full. If `key` is already present its metadata is replaced
    /// (and nothing is evicted).
    pub fn insert(&mut self, key: K, meta: M) -> Option<(K, M)> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key.as_index());
        let ways = self.ways;
        if let Some(i) = self.find_lane(set, key) {
            let e = &mut self.entries[set][i];
            e.1 = meta;
            e.2 = tick;
            return None;
        }
        let len = self.entries[set].len();
        if len < ways {
            if self.entries[set].capacity() == 0 {
                self.entries[set].reserve_exact(ways);
            }
            self.entries[set].push((key, meta, tick));
            return None;
        }
        // Evict LRU: a forward first-minimum scan over the set's recency
        // values. Strict `<` keeps the lowest lane on ties, matching
        // `min_by_key` semantics (ties cannot occur anyway: each tick
        // touches exactly one entry).
        let mut victim = 0;
        let mut oldest = self.entries[set][0].2;
        for (i, e) in self.entries[set].iter().enumerate().skip(1) {
            if e.2 < oldest {
                oldest = e.2;
                victim = i;
            }
        }
        let old = self.entries[set].swap_remove(victim);
        self.entries[set].push((key, meta, tick));
        self.stats.evictions += 1;
        Some((old.0, old.1))
    }

    /// Removes lane `i` of `set` (`swap_remove` order).
    fn remove_lane(&mut self, set: usize, i: usize) -> (K, M) {
        let e = self.entries[set].swap_remove(i);
        (e.0, e.1)
    }

    /// Removes `key`, returning its metadata if present.
    pub fn invalidate(&mut self, key: K) -> Option<M> {
        let set = self.set_of(key.as_index());
        let i = self.find_lane(set, key)?;
        Some(self.remove_lane(set, i).1)
    }

    /// Iterates over all `(key, meta)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &M)> {
        self.entries
            .iter()
            .flat_map(|s| s.iter().map(|(k, m, _)| (k, m)))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Seeds the statistics counters, e.g. to carry accumulated hit/miss
    /// counts across a structural rebuild (cache resizing mid-run).
    pub fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_miss_counting() {
        let mut c: SetAssoc<u64, ()> = SetAssoc::new(2, 2);
        assert!(c.lookup(1).is_none());
        c.insert(1, ());
        assert!(c.lookup(1).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 3);
        c.insert(10, 0);
        c.insert(20, 0);
        c.insert(30, 0);
        c.lookup(10); // 20 is now LRU
        let (victim, _) = c.insert(40, 0).unwrap();
        assert_eq!(victim, 20);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        c.insert(1, 100);
        assert!(c.insert(1, 200).is_none());
        assert_eq!(*c.peek(1).unwrap(), 200);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(4, 2);
        c.insert(5, 7);
        assert_eq!(c.invalidate(5), Some(7));
        assert_eq!(c.invalidate(5), None);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_key_does_not_false_hit() {
        // A key whose projection is zero must miss until actually
        // inserted, and lanes past a set's occupancy must never match.
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(2, 4);
        assert!(c.lookup(0).is_none());
        assert!(c.peek(0).is_none());
        c.insert(2, 1); // same set as 0 under the power-of-two mask
        assert!(c.peek(0).is_none());
        c.insert(0, 9);
        assert_eq!(*c.peek(0).unwrap(), 9);
    }

    #[test]
    fn capacity_respected() {
        let mut c: SetAssoc<u64, ()> = SetAssoc::new(8, 4);
        for k in 0..1000u64 {
            c.insert(k, ());
        }
        assert!(c.len() <= c.capacity());
        assert_eq!(c.capacity(), 32);
    }

    proptest! {
        /// The structure never exceeds capacity, and a just-inserted key is
        /// always present immediately afterwards.
        #[test]
        fn prop_insert_then_found(keys in proptest::collection::vec(0u64..512, 1..200)) {
            let mut c: SetAssoc<u64, u64> = SetAssoc::new(4, 2);
            for (i, k) in keys.iter().enumerate() {
                c.insert(*k, i as u64);
                prop_assert!(c.peek(*k).is_some());
                prop_assert!(c.len() <= c.capacity());
            }
        }

        /// LRU within a set: the victim is never the most recently used key.
        #[test]
        fn prop_victim_not_mru(keys in proptest::collection::vec(0u64..64, 2..100)) {
            let mut c: SetAssoc<u64, ()> = SetAssoc::new(1, 4);
            let mut last_inserted = None;
            for k in keys {
                if let Some((victim, _)) = c.insert(k, ()) {
                    prop_assert_ne!(Some(victim), last_inserted);
                }
                last_inserted = Some(k);
            }
        }

        /// Under arbitrary interleaved insert/invalidate/lookup traffic, a
        /// shadow model over a plain Vec must agree on every probe.
        #[test]
        fn prop_matches_shadow_model(ops in proptest::collection::vec((0u8..4, 0u64..48), 1..300)) {
            let mut c: SetAssoc<u64, u64> = SetAssoc::new(2, 3);
            // Shadow: per-set Vec<(key, meta, last_use)> replicating the
            // original pointer-chasing implementation verbatim.
            let mut shadow: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); 2];
            let mut tick = 0u64;
            for (op, key) in ops {
                let set = (key & 1) as usize;
                match op {
                    0 => {
                        tick += 1;
                        let evicted = c.insert(key, key * 10);
                        let slot = &mut shadow[set];
                        let expect = if let Some(e) = slot.iter_mut().find(|e| e.0 == key) {
                            e.1 = key * 10;
                            e.2 = tick;
                            None
                        } else if slot.len() < 3 {
                            slot.push((key, key * 10, tick));
                            None
                        } else {
                            let v = slot.iter().enumerate()
                                .min_by_key(|(_, e)| e.2).map(|(i, _)| i).unwrap();
                            let victim = slot.swap_remove(v);
                            slot.push((key, key * 10, tick));
                            Some((victim.0, victim.1))
                        };
                        prop_assert_eq!(evicted, expect);
                    }
                    1 => {
                        tick += 1;
                        let hit = c.lookup(key).map(|m| *m);
                        let expect = shadow[set].iter_mut().find(|e| e.0 == key)
                            .map(|e| { e.2 = tick; e.1 });
                        prop_assert_eq!(hit, expect);
                    }
                    2 => {
                        let got = c.invalidate(key);
                        let expect = shadow[set].iter().position(|e| e.0 == key)
                            .map(|i| shadow[set].swap_remove(i).1);
                        prop_assert_eq!(got, expect);
                    }
                    _ => {
                        let got = c.peek(key).copied();
                        let expect = shadow[set].iter().find(|e| e.0 == key).map(|e| e.1);
                        prop_assert_eq!(got, expect);
                    }
                }
            }
        }
    }
}
