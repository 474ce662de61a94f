//! Memtis: frequency-based hotness with exponential decay.

use crate::{HotnessPolicy, IntervalOutcome, Residency};
use pipm_types::FxHashMap;
use pipm_types::{HostId, PageNum, SchemeKind};

/// Frequency-based policy in the style of Memtis (SOSP '23): per-page
/// access counters halved at every interval (the cooling mechanism); each
/// host promotes its hottest non-resident pages — those with counter at or
/// above [`HOT_THRESHOLD`] — up to the per-interval budget, hottest first,
/// and demotes resident pages whose counter cooled to zero.
///
/// [`HOT_THRESHOLD`]: MemtisPolicy::HOT_THRESHOLD
#[derive(Clone, Debug)]
pub struct MemtisPolicy {
    budget: usize,
    /// Per host: decayed per-page access counters.
    counters: Vec<FxHashMap<PageNum, u32>>,
}

impl MemtisPolicy {
    /// Minimum (decayed) counter value for a page to be considered hot.
    pub const HOT_THRESHOLD: u32 = 4;

    /// Creates the policy for `hosts` hosts with a per-interval promotion
    /// `budget`.
    pub fn new(hosts: usize, budget: usize) -> Self {
        MemtisPolicy {
            budget,
            counters: vec![FxHashMap::default(); hosts],
        }
    }

    /// Current (decayed) counter for a page at a host, for tests and
    /// diagnostics.
    pub fn counter(&self, host: HostId, page: PageNum) -> u32 {
        self.counters[host.index()].get(&page).copied().unwrap_or(0)
    }
}

impl HotnessPolicy for MemtisPolicy {
    fn name(&self) -> &'static str {
        "Memtis"
    }

    fn scheme(&self) -> SchemeKind {
        SchemeKind::Memtis
    }

    fn record_access(
        &mut self,
        host: HostId,
        page: PageNum,
        _is_write: bool,
        _resident_at: Option<HostId>,
    ) {
        *self.counters[host.index()].entry(page).or_insert(0) += 1;
    }

    fn set_interval_budget(&mut self, pages: usize) {
        self.budget = pages;
    }

    fn box_clone(&self) -> Box<dyn HotnessPolicy> {
        Box::new(self.clone())
    }

    fn end_interval(&mut self, residency: &mut Residency) -> IntervalOutcome {
        for hi in 0..self.counters.len() {
            let host = HostId::new(hi);
            let cand: Vec<(PageNum, u32)> = self.counters[hi]
                .iter()
                .filter(|(_, &c)| c >= Self::HOT_THRESHOLD)
                .map(|(&p, &c)| (p, c))
                .collect();
            residency.promote_hottest(host, cand, self.budget);
            // Cool counters and demote fully cooled resident pages.
            let mut cooled_out: Vec<PageNum> = Vec::new();
            self.counters[hi].retain(|&p, c| {
                *c /= 2;
                if *c == 0 {
                    cooled_out.push(p);
                    false
                } else {
                    true
                }
            });
            cooled_out.sort_unstable(); // decouple from hash-map order
            for page in cooled_out {
                residency.demote(host, page);
            }
        }
        residency.end_interval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    #[test]
    fn hot_pages_promoted_hottest_first() {
        let mut m = MemtisPolicy::new(1, 1);
        let mut r = Residency::new(1, 100);
        for _ in 0..10 {
            m.record_access(h(0), p(1), false, None);
        }
        for _ in 0..20 {
            m.record_access(h(0), p(2), false, None);
        }
        let out = m.end_interval(&mut r);
        assert_eq!(out.promotions, vec![(p(2), h(0))]);
    }

    #[test]
    fn cold_pages_not_promoted() {
        let mut m = MemtisPolicy::new(1, 10);
        let mut r = Residency::new(1, 100);
        m.record_access(h(0), p(1), false, None); // below threshold
        let out = m.end_interval(&mut r);
        assert!(out.promotions.is_empty());
    }

    #[test]
    fn counters_decay() {
        let mut m = MemtisPolicy::new(1, 0);
        let mut r = Residency::new(1, 100);
        for _ in 0..16 {
            m.record_access(h(0), p(1), false, None);
        }
        m.end_interval(&mut r);
        assert_eq!(m.counter(h(0), p(1)), 8);
        m.end_interval(&mut r);
        assert_eq!(m.counter(h(0), p(1)), 4);
    }

    #[test]
    fn cooled_resident_pages_are_demoted() {
        let mut m = MemtisPolicy::new(1, 10);
        let mut r = Residency::new(1, 100);
        for _ in 0..8 {
            m.record_access(h(0), p(1), false, None);
        }
        let out = m.end_interval(&mut r);
        assert_eq!(out.promotions.len(), 1);
        // 8 → 4 → 2 → 1 → 0: demoted on the interval the counter hits 0.
        let mut demoted = false;
        for _ in 0..5 {
            if m.end_interval(&mut r).demotions.contains(&(p(1), h(0))) {
                demoted = true;
            }
        }
        assert!(demoted);
    }

    #[test]
    fn two_hosts_race_first_wins() {
        let mut m = MemtisPolicy::new(2, 10);
        let mut r = Residency::new(2, 100);
        for _ in 0..10 {
            m.record_access(h(0), p(7), false, None);
            m.record_access(h(1), p(7), false, None);
        }
        let out = m.end_interval(&mut r);
        // Only one host gets the page even though both see it as hot —
        // single-host reasoning with no global coordination.
        assert_eq!(out.promotions.len(), 1);
    }
}
