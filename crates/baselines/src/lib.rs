//! Baseline page-migration schemes for multi-host CXL-DSM.
//!
//! Implements the comparison points of the paper's evaluation (§5.1.3):
//!
//! * [`NomadPolicy`] — recency-based hotness (Nomad, OSDI '24): pages
//!   re-accessed across consecutive intervals are promoted; asynchronous
//!   transactional migration lowers the initiator overhead.
//! * [`MemtisPolicy`] — frequency-based hotness (Memtis, SOSP '23):
//!   per-page access counters with exponential decay; the globally hottest
//!   pages of each host are promoted up to the per-interval budget.
//! * [`HememPolicy`] — frequency-threshold hotness (HeMem, SOSP '21):
//!   pages crossing a fixed per-interval access-count threshold are
//!   promoted; pages idle for several intervals are demoted.
//! * [`OsSkewPolicy`] — the ablation that drives the conventional kernel
//!   migration mechanism with PIPM's majority-vote policy at page
//!   granularity.
//! * [`HwStaticMap`] — the Intel-Flat-Mode-like ablation: a fixed,
//!   uniform, page-interleaved mapping from CXL-DSM onto the hosts' local
//!   memories, used with PIPM's incremental hardware mechanism.
//!
//! All four OS policies implement [`HotnessPolicy`]; the system simulator
//! in `pipm-core` calls [`HotnessPolicy::record_access`] on every
//! shared-data LLC miss (standing in for the fault/PEBS sampling the real
//! systems use) and [`HotnessPolicy::end_interval`] at each migration
//! interval, then applies the returned promotions/demotions with the
//! kernel cost model of the paper (§5.1.4). Policies decide; the one
//! [`Residency`] the simulator owns records where each moved page lives.
//!
//! # Example
//!
//! ```
//! use pipm_baselines::{HememPolicy, HotnessPolicy, Residency};
//! use pipm_types::{HostId, PageNum};
//!
//! let mut p = HememPolicy::new(4, 8);
//! let mut residency = Residency::new(4, 1024);
//! let h = HostId::new(1);
//! for _ in 0..10 {
//!     p.record_access(h, PageNum::new(7), false, None);
//! }
//! let out = p.end_interval(&mut residency);
//! assert_eq!(out.promotions, vec![(PageNum::new(7), h)]);
//! assert_eq!(residency.home(PageNum::new(7)), Some(h));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hemem;
mod hwstatic;
mod memtis;
mod nomad;
mod osskew;

pub use hemem::HememPolicy;
pub use hwstatic::HwStaticMap;
pub use memtis::MemtisPolicy;
pub use nomad::NomadPolicy;
pub use osskew::OsSkewPolicy;

use pipm_types::{HostId, PageNum, PageTable, SchemeKind};

/// Promotions and demotions decided at an interval boundary.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IntervalOutcome {
    /// Pages to migrate from CXL memory into a host's local memory.
    pub promotions: Vec<(PageNum, HostId)>,
    /// Pages to migrate back from a host's local memory to CXL memory.
    pub demotions: Vec<(PageNum, HostId)>,
}

impl IntervalOutcome {
    /// Whether nothing was decided.
    pub fn is_empty(&self) -> bool {
        self.promotions.is_empty() && self.demotions.is_empty()
    }
}

/// A page-hotness policy driving the kernel migration mechanism.
///
/// Implementations decide which pages move and record each move in the
/// [`Residency`] they are handed, which enforces the per-host capacity;
/// they respect the per-interval budget themselves.
pub trait HotnessPolicy: std::fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Which scheme this policy realizes.
    fn scheme(&self) -> SchemeKind;

    /// Records a shared-data access observed by the OS on `host`.
    /// `resident_at` is the page's current location (`None` = CXL memory),
    /// letting recency/frequency structures treat already-migrated pages
    /// appropriately.
    fn record_access(
        &mut self,
        host: HostId,
        page: PageNum,
        is_write: bool,
        resident_at: Option<HostId>,
    );

    /// Closes the current interval: records its moves in `residency` and
    /// returns them.
    fn end_interval(&mut self, residency: &mut Residency) -> IntervalOutcome;

    /// Sets the promotion budget (pages) available for the *next*
    /// interval — the kernel migration bandwidth the mechanism grants.
    fn set_interval_budget(&mut self, pages: usize);

    /// Deep-copies the policy, preserving all hotness state. Checkpointing
    /// (`pipm-core`'s snapshot/fork machinery) relies on this to clone a
    /// warmed simulator mid-run.
    fn box_clone(&self) -> Box<dyn HotnessPolicy>;
}

impl Clone for Box<dyn HotnessPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Where every kernel-migrated page lives: the one record the hotness
/// policies decide against and the simulator serves accesses from.
///
/// Policies change it only inside [`HotnessPolicy::end_interval`], which
/// closes the interval here and returns its moves. Those moves are
/// order-free by construction: a page promoted and then evicted within
/// one interval cancels its promotion rather than adding a demotion, so
/// every demotion names the page's home at the start of the interval,
/// and applying every demotion before every promotion moves exactly the
/// recorded pages. Each host holds at most its capacity; a promotion
/// beyond it evicts the host's least recently touched page.
#[derive(Clone, Debug)]
pub struct Residency {
    capacity_pages: usize,
    /// Page → (host whose local memory holds it, last interval that host
    /// touched it). Dense: shared pages are contiguous from page zero.
    homes: PageTable<(HostId, u64)>,
    /// Per host: pages resident now.
    resident: Vec<usize>,
    /// Per host: most pages resident at the end of any interval.
    peak: Vec<usize>,
    interval: u64,
    /// Moves decided in the current interval.
    moves: IntervalOutcome,
}

impl Residency {
    /// An empty record for `hosts` hosts whose local memories hold
    /// `capacity_pages` pages each (at least one: a promotion always
    /// lands).
    pub fn new(hosts: usize, capacity_pages: usize) -> Self {
        Residency {
            capacity_pages: capacity_pages.max(1),
            homes: PageTable::new(),
            resident: vec![0; hosts],
            peak: vec![0; hosts],
            interval: 0,
            moves: IntervalOutcome::default(),
        }
    }

    /// The host whose local memory holds `page` (`None` = CXL memory).
    #[inline]
    pub fn home(&self, page: PageNum) -> Option<HostId> {
        self.homes.get(page).map(|&(host, _)| host)
    }

    /// Records an access to `page` by its home host: the page is not
    /// idle this interval. Pages in CXL memory are ignored.
    #[inline]
    pub fn touch(&mut self, page: PageNum) {
        if let Some((_, t)) = self.homes.get_mut(page) {
            *t = self.interval;
        }
    }

    /// Most pages resident at `host` at the end of any interval.
    pub fn peak(&self, host: HostId) -> usize {
        self.peak[host.index()]
    }

    /// Closes the interval: records each host's peak and returns the
    /// moves decided since the last close.
    pub(crate) fn end_interval(&mut self) -> IntervalOutcome {
        for (peak, &n) in self.peak.iter_mut().zip(&self.resident) {
            *peak = (*peak).max(n);
        }
        self.interval += 1;
        std::mem::take(&mut self.moves)
    }

    /// Promotes `page`, which must be in CXL memory, to `host`, then
    /// evicts `host`'s least recently touched other pages (ties by page
    /// number) down to capacity. Returns the evicted pages.
    pub(crate) fn promote(&mut self, host: HostId, page: PageNum) -> Vec<PageNum> {
        debug_assert!(self.home(page).is_none(), "{page} is already resident");
        self.homes.insert(page, (host, self.interval));
        self.resident[host.index()] += 1;
        self.moves.promotions.push((page, host));
        let mut evicted = Vec::new();
        while self.resident[host.index()] > self.capacity_pages {
            let victim = self
                .homes
                .iter()
                .filter(|&(p, &(h, _))| h == host && p != page)
                .min_by_key(|&(p, &(_, t))| (t, p))
                .map(|(p, _)| p)
                .expect("a host over capacity holds another page");
            self.remove(host, victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Promotes `host`'s candidates hottest first (ties by page number),
    /// skipping pages resident anywhere, until `budget` pages moved.
    pub(crate) fn promote_hottest(
        &mut self,
        host: HostId,
        mut candidates: Vec<(PageNum, u32)>,
        budget: usize,
    ) {
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut promoted = 0;
        for (page, _) in candidates {
            if promoted >= budget {
                break;
            }
            if self.home(page).is_some() {
                continue;
            }
            self.promote(host, page);
            promoted += 1;
        }
    }

    /// Demotes `page` if it is resident at `host`; returns whether it was.
    pub(crate) fn demote(&mut self, host: HostId, page: PageNum) -> bool {
        let here = self.home(page) == Some(host);
        if here {
            self.remove(host, page);
        }
        here
    }

    /// Demotes, in page order, every page at `host` last touched at least
    /// `idle_intervals` intervals ago. None before `idle_intervals`
    /// intervals have passed: no page can have been idle that long.
    pub(crate) fn demote_idle(&mut self, host: HostId, idle_intervals: u64) {
        let Some(cutoff) = self.interval.checked_sub(idle_intervals) else {
            return;
        };
        let idle: Vec<PageNum> = self
            .homes
            .iter()
            .filter(|&(_, &(h, t))| h == host && t <= cutoff)
            .map(|(p, _)| p)
            .collect();
        for page in idle {
            self.remove(host, page);
        }
    }

    /// Takes `page` out of `host`'s local memory: cancels its promotion
    /// if it was promoted this interval, else records its demotion.
    fn remove(&mut self, host: HostId, page: PageNum) {
        self.homes.remove(page);
        self.resident[host.index()] -= 1;
        match self.moves.promotions.iter().position(|&(p, _)| p == page) {
            Some(i) => {
                self.moves.promotions.remove(i);
            }
            None => self.moves.demotions.push((page, host)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::PipmConfig;
    use proptest::prelude::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    #[test]
    fn residency_capacity_enforced() {
        let mut r = Residency::new(2, 2);
        assert!(r.promote(h(0), p(1)).is_empty());
        assert!(r.promote(h(0), p(2)).is_empty());
        r.end_interval();
        r.touch(p(1));
        // Page 2 was coldest.
        assert_eq!(r.promote(h(0), p(3)), vec![p(2)]);
        assert_eq!(r.home(p(2)), None);
        let out = r.end_interval();
        assert_eq!(out.promotions, vec![(p(3), h(0))]);
        assert_eq!(out.demotions, vec![(p(2), h(0))]);
        assert_eq!(r.peak(h(0)), 2);
        assert_eq!(r.peak(h(1)), 0);
    }

    #[test]
    fn eviction_within_the_interval_cancels_the_promotion() {
        let mut r = Residency::new(1, 1);
        r.promote(h(0), p(4));
        assert_eq!(r.promote(h(0), p(5)), vec![p(4)]);
        let out = r.end_interval();
        assert_eq!(out.promotions, vec![(p(5), h(0))]);
        assert!(out.demotions.is_empty(), "{out:?}");
        assert_eq!(r.peak(h(0)), 1);
    }

    #[test]
    fn residency_location() {
        let mut r = Residency::new(3, 8);
        r.promote(h(2), p(9));
        assert_eq!(r.home(p(9)), Some(h(2)));
        assert_eq!(r.home(p(1)), None);
        r.end_interval();
        assert!(!r.demote(h(1), p(9)), "page 9 lives at host 2");
        assert!(r.demote(h(2), p(9)));
        assert_eq!(r.home(p(9)), None);
        assert_eq!(r.end_interval().demotions, vec![(p(9), h(2))]);
    }

    #[test]
    fn idle_pages_by_interval() {
        let mut r = Residency::new(1, 8);
        r.promote(h(0), p(1));
        r.demote_idle(h(0), 1);
        r.end_interval();
        r.end_interval();
        r.promote(h(0), p(2));
        r.demote_idle(h(0), 1);
        let out = r.end_interval();
        assert_eq!(out.promotions, vec![(p(2), h(0))]);
        assert_eq!(out.demotions, vec![(p(1), h(0))]);
    }

    const HOSTS: usize = 3;
    const PAGES: u64 = 24;
    const CAPACITY: usize = 3;

    fn policies() -> Vec<Box<dyn HotnessPolicy>> {
        vec![
            Box::new(NomadPolicy::new(HOSTS, 1_000)),
            Box::new(MemtisPolicy::new(HOSTS, 1_000)),
            Box::new(HememPolicy::new(HOSTS, 2)),
            Box::new(OsSkewPolicy::new(
                &PipmConfig {
                    migration_threshold: 2,
                    ..PipmConfig::default()
                },
                1_000,
            )),
        ]
    }

    proptest! {
        /// Every policy, fed a random multi-host access stream the way
        /// the simulator feeds it, returns outcomes that applied
        /// demotions first move exactly the recorded pages, and never
        /// fills a host beyond its capacity.
        #[test]
        fn outcomes_are_order_free_and_within_capacity(
            ops in proptest::collection::vec((0usize..HOSTS, 0u64..PAGES, 0u8..8), 1..400),
        ) {
            for mut policy in policies() {
                let mut r = Residency::new(HOSTS, CAPACITY);
                let mut applied: Vec<Option<HostId>> = vec![None; PAGES as usize];
                for &(host, page, roll) in &ops {
                    let (host, page) = (h(host), p(page));
                    let home = r.home(page);
                    policy.record_access(host, page, roll % 2 == 1, home);
                    if home == Some(host) {
                        r.touch(page);
                    }
                    if roll != 0 {
                        continue;
                    }
                    let out = policy.end_interval(&mut r);
                    for &(page, host) in &out.demotions {
                        prop_assert!(
                            !out.promotions.contains(&(page, host)),
                            "{}: {page} promoted to and demoted from {host}",
                            policy.name()
                        );
                        let slot = &mut applied[page.raw() as usize];
                        prop_assert_eq!(*slot, Some(host), "{}: demoted {page} is not at {host}", policy.name());
                        *slot = None;
                    }
                    for &(page, host) in &out.promotions {
                        let slot = &mut applied[page.raw() as usize];
                        prop_assert_eq!(*slot, None, "{}: promoted {page} is resident", policy.name());
                        *slot = Some(host);
                    }
                    for (i, &home) in applied.iter().enumerate() {
                        prop_assert_eq!(home, r.home(p(i as u64)), "{}: page {i}", policy.name());
                    }
                    for hi in 0..HOSTS {
                        let held = applied.iter().filter(|&&a| a == Some(h(hi))).count();
                        prop_assert!(held <= CAPACITY, "{}: host {hi} holds {held}", policy.name());
                        prop_assert!(r.peak(h(hi)) <= CAPACITY);
                    }
                }
            }
        }
    }
}
