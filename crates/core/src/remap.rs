//! PIPM's two-level remapping structures (paper §4.2, §4.4, Figure 7).
//!
//! * The **global remapping table** lives in CXL DRAM: one entry per
//!   CXL-DSM page holding a 5-bit current host ID, a 5-bit candidate host
//!   ID, and a 6-bit majority-vote counter (2 bytes/entry). A 16 KB 8-way
//!   **global remapping cache** on the CXL device fronts it (4-cycle RT),
//!   tagged at 64 B table-line granularity (32 entries per fill).
//! * Each host's **local remapping table** lives in its local DRAM as a
//!   two-level radix table: one entry per partially migrated page holding
//!   a 28-bit local PFN and a 4-bit local counter (4 bytes/entry), plus a
//!   64-bit per-line migrated bitmap held with the page's in-memory bits.
//!   A 1 MB 8-way **local remapping cache** on the host's root complex
//!   fronts it (8-cycle RT).
//!
//! The caches here model *presence* (hit/miss) for timing; the backing
//! tables are exact. Timing is charged by the caller from the
//! [`LookupResult`]s.

use pipm_cache::SetAssoc;
use pipm_types::{Cycle, HostId, PageNum, PageTable, PipmConfig};

/// Result of a remapping-cache access: how long the lookup took and
/// whether it missed (requiring a DRAM table walk, already included in the
/// latency decision made by the caller).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupResult {
    /// Structure latency in cycles (cache hit latency; the caller adds the
    /// DRAM walk on a miss).
    pub latency: Cycle,
    /// Whether the lookup hit in the on-die cache.
    pub cache_hit: bool,
}

/// One global remapping table entry (2 bytes in hardware).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GlobalEntry {
    /// Host currently holding a partial migration of this page, if any.
    pub current_host: Option<HostId>,
    /// Majority-vote candidate host.
    pub candidate: Option<HostId>,
    /// 6-bit majority-vote counter.
    pub counter: u8,
}

/// Global remapping table entries per 64-byte DRAM line (2 B/entry): a
/// table walk fetches one line, so the cache fills 32 neighboring entries
/// at once.
const GLOBAL_ENTRIES_PER_LINE: u64 = 32;

/// The global remapping table plus its on-die cache.
///
/// The table is a dense [`PageTable`]: shared pages are a contiguous
/// range from page zero, so every hot-path read is a direct index
/// instead of a hash lookup.
#[derive(Clone, Debug)]
pub struct GlobalRemap {
    table: PageTable<GlobalEntry>,
    cache: SetAssoc<PageNum, ()>,
    hit_latency: Cycle,
    counter_max: u8,
}

impl GlobalRemap {
    /// Creates the table with the configured cache geometry. A cache size
    /// of `u64::MAX` (or anything yielding ≥ 2²⁴ lines) models the
    /// "infinite cache" point of Figure 17.
    ///
    /// The cache is tagged at 64-byte table-line granularity (32 entries
    /// per line), matching what one device-DRAM walk fetches: spatially
    /// close pages share a fill, which is why the paper's 16 KB cache
    /// reaches ≈99.8 % of infinite while 1 KB (16 lines) thrashes.
    pub fn new(cfg: &PipmConfig) -> Self {
        let lines = (cfg.global_remap_cache_bytes / (2 * GLOBAL_ENTRIES_PER_LINE)).clamp(8, 1 << 24)
            as usize;
        let ways = cfg.global_remap_cache_ways.min(lines);
        GlobalRemap {
            table: PageTable::new(),
            cache: SetAssoc::new((lines / ways).max(1), ways),
            hit_latency: cfg.global_remap_cache_latency,
            counter_max: cfg.global_counter_max,
        }
    }

    /// Performs the cache lookup for `page`, filling on miss. The
    /// returned latency covers only the on-die cache access; on a miss
    /// (`cache_hit == false`) the caller must additionally charge the
    /// 2 B/entry table walk against CXL DRAM — the device cannot route
    /// the request until the entry is known. The walk's line fill covers
    /// `page`'s 31 table-line neighbors too.
    pub fn lookup(&mut self, page: PageNum) -> LookupResult {
        let line = PageNum::new(page.raw() / GLOBAL_ENTRIES_PER_LINE);
        let hit = self.cache.lookup(line).is_some();
        if !hit {
            self.cache.insert(line, ());
        }
        LookupResult {
            latency: self.hit_latency,
            cache_hit: hit,
        }
    }

    /// Reads the entry for `page` (zero entry if never touched).
    pub fn entry(&self, page: PageNum) -> GlobalEntry {
        self.table.get(page).copied().unwrap_or_default()
    }

    /// Applies one Boyer–Moore vote from `host`; returns `true` when the
    /// counter reaches `threshold` while `host` is the candidate (the
    /// partial-migration trigger, Figure 7 ②). Saturates at the 6-bit max.
    pub fn vote(&mut self, page: PageNum, host: HostId, threshold: u8) -> bool {
        let max = self.counter_max;
        let e = self.table.get_or_insert_with(page, GlobalEntry::default);
        if e.counter == 0 || e.candidate.is_none() {
            e.candidate = Some(host);
            e.counter = 1;
        } else if e.candidate == Some(host) {
            e.counter = (e.counter + 1).min(max);
        } else {
            e.counter -= 1;
        }
        e.candidate == Some(host) && e.counter >= threshold
    }

    /// Marks `page` as partially migrated to `host` and resets the vote.
    pub fn set_current(&mut self, page: PageNum, host: HostId) {
        let e = self.table.get_or_insert_with(page, GlobalEntry::default);
        e.current_host = Some(host);
        e.counter = 0;
        e.candidate = None;
    }

    /// Clears the migration (revocation, Figure 7 ⑥).
    pub fn clear_current(&mut self, page: PageNum) {
        if let Some(e) = self.table.get_mut(page) {
            e.current_host = None;
            e.counter = 0;
            e.candidate = None;
        }
    }

    /// Host a page is currently migrated to, if any.
    pub fn current(&self, page: PageNum) -> Option<HostId> {
        self.table.get(page).and_then(|e| e.current_host)
    }

    /// Iterates every page currently marked migrated (`current_host` set),
    /// in ascending page order. Used by the inline invariant checks to
    /// verify global ↔ local table agreement.
    pub fn migrated_pages(&self) -> impl Iterator<Item = (PageNum, HostId)> + '_ {
        self.table
            .iter()
            .filter_map(|(p, e)| e.current_host.map(|h| (p, h)))
    }

    /// Cache hit/miss statistics.
    pub fn cache_stats(&self) -> pipm_cache::CacheStats {
        self.cache.stats()
    }

    /// Rebuilds the on-die cache with the geometry from `cfg`, keeping
    /// the in-memory table (votes, current owners) intact. The new cache
    /// starts cold — resizing hardware mid-run cannot preserve tags —
    /// while accumulated hit/miss statistics carry over so end-of-run
    /// accounting stays monotone. Checkpointed sweeps use this to apply a
    /// `global_remap_cache_bytes` delta to a warmed simulator.
    pub fn reconfigure_cache(&mut self, cfg: &PipmConfig) {
        let lines = (cfg.global_remap_cache_bytes / (2 * GLOBAL_ENTRIES_PER_LINE)).clamp(8, 1 << 24)
            as usize;
        let ways = cfg.global_remap_cache_ways.min(lines);
        let stats = self.cache.stats();
        self.cache = SetAssoc::new((lines / ways).max(1), ways);
        self.cache.set_stats(stats);
        self.hit_latency = cfg.global_remap_cache_latency;
    }
}

/// One local remapping table entry (4 bytes in hardware, plus the per-line
/// in-memory bits that hardware keeps in DRAM ECC space — modelled here as
/// a 64-bit bitmap).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocalEntry {
    /// 28-bit local PFN the page's migrated lines live at.
    pub local_pfn: u32,
    /// 4-bit local counter (initialized to the migration threshold).
    pub counter: u8,
    /// Per-line migrated bitmap (the in-memory bits of this page's lines).
    pub line_bits: u64,
}

impl LocalEntry {
    /// Number of lines currently migrated into local memory.
    pub fn migrated_lines(&self) -> u32 {
        self.line_bits.count_ones()
    }

    /// Whether line `idx` (0..64) is migrated.
    pub fn line_migrated(&self, idx: usize) -> bool {
        self.line_bits & (1 << idx) != 0
    }
}

/// A host's local remapping table plus its on-die (root-complex) cache.
///
/// Like [`GlobalRemap`], the backing table is a dense [`PageTable`]
/// indexed directly by shared page number.
#[derive(Clone, Debug)]
pub struct LocalRemap {
    table: PageTable<LocalEntry>,
    cache: SetAssoc<PageNum, ()>,
    hit_latency: Cycle,
    counter_max: u8,
    next_pfn: u32,
    free_pfns: Vec<u32>,
    capacity_pages: usize,
    peak_pages: u64,
    peak_lines: u64,
    lines_resident: u64,
}

impl LocalRemap {
    /// Creates the table with the configured cache geometry and a local
    /// memory capacity of `capacity_pages` migrated pages.
    pub fn new(cfg: &PipmConfig, capacity_pages: usize) -> Self {
        let entries = (cfg.local_remap_cache_bytes / 4).clamp(8, 1 << 26) as usize;
        let ways = cfg.local_remap_cache_ways.min(entries);
        LocalRemap {
            table: PageTable::new(),
            cache: SetAssoc::new((entries / ways).max(1), ways),
            hit_latency: cfg.local_remap_cache_latency,
            counter_max: cfg.local_counter_max,
            next_pfn: 0,
            free_pfns: Vec::new(),
            capacity_pages,
            peak_pages: 0,
            peak_lines: 0,
            lines_resident: 0,
        }
    }

    /// Performs the cache lookup for `page`, filling on miss.
    pub fn lookup(&mut self, page: PageNum) -> LookupResult {
        let hit = self.cache.lookup(page).is_some();
        if !hit {
            self.cache.insert(page, ());
        }
        LookupResult {
            latency: self.hit_latency,
            cache_hit: hit,
        }
    }

    /// The entry for `page`, if partially migrated here.
    pub fn entry(&self, page: PageNum) -> Option<&LocalEntry> {
        self.table.get(page)
    }

    /// Iterates every local entry (pages partially migrated to this host),
    /// in ascending page order. Used by the inline invariant checks.
    pub fn pages(&self) -> impl Iterator<Item = (PageNum, &LocalEntry)> + '_ {
        self.table.iter()
    }

    /// Number of pages with local entries.
    pub fn resident_pages(&self) -> usize {
        self.table.len()
    }

    /// Whether a new partial migration can be initiated (capacity).
    pub fn has_capacity(&self) -> bool {
        self.table.len() < self.capacity_pages
    }

    /// Initiates partial migration of `page` here (Figure 7 ③): allocates
    /// a local PFN and installs the entry with `counter = threshold`.
    /// Returns `false` (and does nothing) if at capacity or already
    /// present.
    pub fn initiate(&mut self, page: PageNum, threshold: u8) -> bool {
        if !self.has_capacity() || self.table.contains(page) {
            return false;
        }
        let pfn = self.free_pfns.pop().unwrap_or_else(|| {
            let p = self.next_pfn;
            self.next_pfn += 1;
            p
        });
        self.table.insert(
            page,
            LocalEntry {
                local_pfn: pfn,
                counter: threshold,
                line_bits: 0,
            },
        );
        self.peak_pages = self.peak_pages.max(self.table.len() as u64);
        true
    }

    /// Records a local access to a partially migrated page (increments the
    /// local counter, saturating at the 4-bit max).
    pub fn local_access(&mut self, page: PageNum) {
        let max = self.counter_max;
        if let Some(e) = self.table.get_mut(page) {
            e.counter = (e.counter + 1).min(max);
        }
    }

    /// Records an inter-host access to a partially migrated page
    /// (decrements the local counter). Returns `true` when the counter
    /// reaches zero — the revocation trigger (Figure 7 ⑥).
    pub fn interhost_access(&mut self, page: PageNum) -> bool {
        if let Some(e) = self.table.get_mut(page) {
            e.counter = e.counter.saturating_sub(1);
            e.counter == 0
        } else {
            false
        }
    }

    /// Sets line `idx`'s migrated bit (incremental migration).
    pub fn set_line(&mut self, page: PageNum, idx: usize) {
        if let Some(e) = self.table.get_mut(page) {
            if e.line_bits & (1 << idx) == 0 {
                e.line_bits |= 1 << idx;
                self.lines_resident += 1;
                self.peak_lines = self.peak_lines.max(self.lines_resident);
            }
        }
    }

    /// Clears line `idx`'s migrated bit (migration back to CXL).
    pub fn clear_line(&mut self, page: PageNum, idx: usize) {
        if let Some(e) = self.table.get_mut(page) {
            if e.line_bits & (1 << idx) != 0 {
                e.line_bits &= !(1 << idx);
                self.lines_resident -= 1;
            }
        }
    }

    /// Removes the entry (revocation), returning it. Frees the PFN.
    pub fn revoke(&mut self, page: PageNum) -> Option<LocalEntry> {
        let e = self.table.remove(page)?;
        self.free_pfns.push(e.local_pfn);
        self.lines_resident -= u64::from(e.migrated_lines());
        self.cache.invalidate(page);
        Some(e)
    }

    /// Peak pages ever resident (Fig. 13 `PIPM-page`).
    pub fn peak_pages(&self) -> u64 {
        self.peak_pages
    }

    /// Peak lines ever resident (Fig. 13 `PIPM-line`).
    pub fn peak_lines(&self) -> u64 {
        self.peak_lines
    }

    /// Cache hit/miss statistics.
    pub fn cache_stats(&self) -> pipm_cache::CacheStats {
        self.cache.stats()
    }

    /// Rebuilds the on-die cache with the geometry from `cfg`, keeping
    /// the remapping table (entries, in-memory bits, PFN allocator, peaks)
    /// intact. The new cache starts cold; hit/miss statistics carry over.
    /// Checkpointed sweeps use this to apply a `local_remap_cache_bytes`
    /// delta to a warmed simulator.
    pub fn reconfigure_cache(&mut self, cfg: &PipmConfig) {
        let entries = (cfg.local_remap_cache_bytes / 4).clamp(8, 1 << 26) as usize;
        let ways = cfg.local_remap_cache_ways.min(entries);
        let stats = self.cache.stats();
        self.cache = SetAssoc::new((entries / ways).max(1), ways);
        self.cache.set_stats(stats);
        self.hit_latency = cfg.local_remap_cache_latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PipmConfig {
        PipmConfig::default()
    }

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    #[test]
    fn boyer_moore_vote() {
        let mut g = GlobalRemap::new(&cfg());
        // 8 votes from the same host cross the default threshold.
        for i in 0..7 {
            assert!(!g.vote(p(1), h(0), 8), "vote {i} must not trigger");
        }
        assert!(g.vote(p(1), h(0), 8));
    }

    #[test]
    fn contested_votes_cancel() {
        let mut g = GlobalRemap::new(&cfg());
        for _ in 0..100 {
            assert!(!g.vote(p(1), h(0), 8));
            assert!(!g.vote(p(1), h(1), 8));
        }
        // Candidate flips when the counter hits zero.
        let e = g.entry(p(1));
        assert!(e.counter <= 1);
    }

    #[test]
    fn counter_saturates_at_six_bits() {
        let mut g = GlobalRemap::new(&cfg());
        for _ in 0..200 {
            g.vote(p(2), h(0), 200); // threshold unreachable
        }
        assert_eq!(g.entry(p(2)).counter, 63);
    }

    #[test]
    fn current_host_lifecycle() {
        let mut g = GlobalRemap::new(&cfg());
        assert_eq!(g.current(p(3)), None);
        g.set_current(p(3), h(2));
        assert_eq!(g.current(p(3)), Some(h(2)));
        assert_eq!(g.entry(p(3)).counter, 0);
        g.clear_current(p(3));
        assert_eq!(g.current(p(3)), None);
    }

    #[test]
    fn global_cache_hits_after_fill() {
        let mut g = GlobalRemap::new(&cfg());
        assert!(!g.lookup(p(9)).cache_hit);
        assert!(g.lookup(p(9)).cache_hit);
        assert_eq!(g.lookup(p(9)).latency, 4);
    }

    #[test]
    fn global_cache_fills_whole_table_lines() {
        // One walk fetches a 64 B line of 32 two-byte entries, so table-line
        // neighbors hit without their own walk — and the next line misses.
        let mut g = GlobalRemap::new(&cfg());
        assert!(!g.lookup(p(64)).cache_hit);
        assert!(g.lookup(p(65)).cache_hit);
        assert!(g.lookup(p(95)).cache_hit);
        assert!(!g.lookup(p(96)).cache_hit, "next table line must miss");
    }

    #[test]
    fn local_initiate_and_bits() {
        let mut l = LocalRemap::new(&cfg(), 100);
        assert!(l.initiate(p(1), 8));
        assert!(!l.initiate(p(1), 8), "double initiation rejected");
        l.set_line(p(1), 5);
        l.set_line(p(1), 5); // idempotent
        assert_eq!(l.entry(p(1)).unwrap().migrated_lines(), 1);
        assert!(l.entry(p(1)).unwrap().line_migrated(5));
        l.clear_line(p(1), 5);
        assert_eq!(l.entry(p(1)).unwrap().migrated_lines(), 0);
    }

    #[test]
    fn local_counter_drives_revocation() {
        let mut l = LocalRemap::new(&cfg(), 100);
        l.initiate(p(1), 2);
        assert!(!l.interhost_access(p(1)));
        assert!(l.interhost_access(p(1)), "counter hit zero");
        let e = l.revoke(p(1)).unwrap();
        assert_eq!(e.counter, 0);
        assert!(l.entry(p(1)).is_none());
    }

    #[test]
    fn local_counter_saturates_at_four_bits() {
        let mut l = LocalRemap::new(&cfg(), 100);
        l.initiate(p(1), 8);
        for _ in 0..100 {
            l.local_access(p(1));
        }
        assert_eq!(l.entry(p(1)).unwrap().counter, 15);
    }

    #[test]
    fn capacity_blocks_initiation() {
        let mut l = LocalRemap::new(&cfg(), 2);
        assert!(l.initiate(p(1), 8));
        assert!(l.initiate(p(2), 8));
        assert!(!l.initiate(p(3), 8));
        l.revoke(p(1));
        assert!(l.initiate(p(3), 8), "revocation frees capacity");
    }

    #[test]
    fn pfn_reuse_after_revoke() {
        let mut l = LocalRemap::new(&cfg(), 10);
        l.initiate(p(1), 8);
        let pfn = l.entry(p(1)).unwrap().local_pfn;
        l.revoke(p(1));
        l.initiate(p(2), 8);
        assert_eq!(l.entry(p(2)).unwrap().local_pfn, pfn);
    }

    #[test]
    fn footprint_peaks_track_history() {
        let mut l = LocalRemap::new(&cfg(), 10);
        l.initiate(p(1), 8);
        l.set_line(p(1), 0);
        l.set_line(p(1), 1);
        l.revoke(p(1));
        assert_eq!(l.peak_pages(), 1);
        assert_eq!(l.peak_lines(), 2);
        assert_eq!(l.resident_pages(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        proptest! {
            // Insert/lookup/evict round-trip: an arbitrary op sequence
            // keeps the table in lock-step with a naive model — entries,
            // per-line bits, resident counts, and PFN uniqueness.
            #[test]
            fn prop_local_table_round_trip(
                ops in proptest::collection::vec((0u64..4, 0u64..32, 0u64..64), 1..60)
            ) {
                let mut l = LocalRemap::new(&cfg(), 16);
                let mut model: HashMap<u64, u64> = HashMap::new(); // page -> bits
                for (op, page, idx) in ops {
                    let pg = p(page);
                    match op {
                        0 => {
                            let want = model.len() < 16 && !model.contains_key(&page);
                            prop_assert_eq!(l.initiate(pg, 8), want);
                            if want {
                                model.insert(page, 0);
                            }
                        }
                        1 => {
                            l.set_line(pg, idx as usize);
                            if let Some(b) = model.get_mut(&page) {
                                *b |= 1 << idx;
                            }
                        }
                        2 => {
                            l.clear_line(pg, idx as usize);
                            if let Some(b) = model.get_mut(&page) {
                                *b &= !(1 << idx);
                            }
                        }
                        _ => {
                            let e = l.revoke(pg);
                            prop_assert_eq!(e.is_some(), model.remove(&page).is_some());
                        }
                    }
                    prop_assert_eq!(l.resident_pages(), model.len());
                    let mut pfns = HashSet::new();
                    for (pg2, bits) in &model {
                        let e = l.entry(p(*pg2)).unwrap();
                        prop_assert_eq!(e.line_bits, *bits);
                        prop_assert!(pfns.insert(e.local_pfn), "PFN aliased across pages");
                    }
                    prop_assert_eq!(
                        l.pages().count(),
                        model.len(),
                        "pages() iterator disagrees with the model"
                    );
                }
            }

            // 32-entry line-granular fill (PR 1): one table walk fills a
            // whole 64 B table line, so all 32 neighbors hit and the next
            // table line still misses.
            #[test]
            fn prop_global_cache_fills_table_lines(base in 0u64..10_000, off in 1u64..32) {
                let mut g = GlobalRemap::new(&cfg());
                let first = base * 32;
                prop_assert!(!g.lookup(p(first)).cache_hit);
                prop_assert!(g.lookup(p(first + off)).cache_hit);
                prop_assert!(g.lookup(p(first)).cache_hit);
                prop_assert!(!g.lookup(p(first + 32)).cache_hit);
            }

            // No-alias across hosts: driving per-host local tables under
            // the global table's single-owner discipline (vote → initiate
            // → set_current; interhost → revoke → clear_current) never
            // yields two hosts holding entries for the same page.
            #[test]
            fn prop_no_alias_across_hosts(
                ops in proptest::collection::vec((0u64..2, 0u64..3, 0u64..8), 1..80)
            ) {
                let c = cfg();
                let mut g = GlobalRemap::new(&c);
                let mut locals: Vec<LocalRemap> =
                    (0..3).map(|_| LocalRemap::new(&c, 4)).collect();
                for (op, host, page) in ops {
                    let hid = h(host as usize);
                    let pg = p(page);
                    if op == 0 {
                        // The System's migration discipline: vote, and only
                        // claim the page when initiation succeeds locally.
                        if g.current(pg).is_none()
                            && g.vote(pg, hid, 2)
                            && locals[host as usize].initiate(pg, 2)
                        {
                            g.set_current(pg, hid);
                        }
                    } else if let Some(owner) = g.current(pg) {
                        // Inter-host access decrements the owner's counter;
                        // zero triggers revocation.
                        if owner != hid && locals[owner.index()].interhost_access(pg) {
                            locals[owner.index()].revoke(pg);
                            g.clear_current(pg);
                        }
                    }
                    for pg2 in 0..8u64 {
                        let holders: Vec<usize> = (0..3)
                            .filter(|&i| locals[i].entry(p(pg2)).is_some())
                            .collect();
                        match g.current(p(pg2)) {
                            Some(owner) => prop_assert_eq!(holders, vec![owner.index()]),
                            None => prop_assert!(holders.is_empty()),
                        }
                    }
                }
            }
        }
    }
}
