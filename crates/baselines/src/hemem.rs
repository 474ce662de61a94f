//! HeMem: fixed-threshold frequency hotness.

use crate::{HotnessPolicy, IntervalOutcome, Residency};
use pipm_types::FxHashMap;
use pipm_types::{HostId, PageNum, SchemeKind};

/// Frequency-threshold policy in the style of HeMem (SOSP '21): a page
/// whose access count within one interval reaches the construction-time
/// threshold is promoted; resident pages idle for
/// [`IDLE_DEMOTE_INTERVALS`] intervals are demoted. Counters reset every
/// interval (no decay memory, unlike Memtis).
///
/// [`IDLE_DEMOTE_INTERVALS`]: HememPolicy::IDLE_DEMOTE_INTERVALS
#[derive(Clone, Debug)]
pub struct HememPolicy {
    threshold: u32,
    budget: usize,
    counters: Vec<FxHashMap<PageNum, u32>>,
}

impl HememPolicy {
    /// Intervals a resident page may stay idle before demotion.
    pub const IDLE_DEMOTE_INTERVALS: u64 = 4;
    /// Default per-interval hot threshold (accesses).
    pub const DEFAULT_THRESHOLD: u32 = 8;

    /// Creates the policy for `hosts` hosts with the given per-interval
    /// `threshold`.
    pub fn new(hosts: usize, threshold: u32) -> Self {
        HememPolicy {
            threshold,
            budget: usize::MAX,
            counters: vec![FxHashMap::default(); hosts],
        }
    }

    /// Limits promotions per host per interval.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }
}

impl HotnessPolicy for HememPolicy {
    fn name(&self) -> &'static str {
        "HeMem"
    }

    fn scheme(&self) -> SchemeKind {
        SchemeKind::Hemem
    }

    fn record_access(
        &mut self,
        host: HostId,
        page: PageNum,
        _is_write: bool,
        resident_at: Option<HostId>,
    ) {
        if resident_at == Some(host) {
            return;
        }
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
                .filter(|(_, &c)| c >= self.threshold)
                .map(|(&p, &c)| (p, c))
                .collect();
            residency.promote_hottest(host, cand, self.budget);
            residency.demote_idle(host, Self::IDLE_DEMOTE_INTERVALS);
            self.counters[hi].clear();
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
    fn threshold_gates_promotion() {
        let mut hm = HememPolicy::new(1, 8);
        let mut r = Residency::new(1, 100);
        for _ in 0..7 {
            hm.record_access(h(0), p(1), false, None);
        }
        assert!(hm.end_interval(&mut r).promotions.is_empty());
        for _ in 0..8 {
            hm.record_access(h(0), p(1), false, None);
        }
        assert_eq!(hm.end_interval(&mut r).promotions, vec![(p(1), h(0))]);
    }

    #[test]
    fn counters_reset_each_interval() {
        let mut hm = HememPolicy::new(1, 8);
        let mut r = Residency::new(1, 100);
        for _ in 0..7 {
            hm.record_access(h(0), p(1), false, None);
        }
        hm.end_interval(&mut r);
        // 7 more in the next interval: still below threshold (no carry).
        for _ in 0..7 {
            hm.record_access(h(0), p(1), false, None);
        }
        assert!(hm.end_interval(&mut r).promotions.is_empty());
    }

    #[test]
    fn budget_respected() {
        let mut hm = HememPolicy::new(1, 1).with_budget(3);
        let mut r = Residency::new(1, 100);
        for i in 0..10 {
            for _ in 0..5 {
                hm.record_access(h(0), p(i), false, None);
            }
        }
        assert_eq!(hm.end_interval(&mut r).promotions.len(), 3);
    }

    #[test]
    fn first_interval_promotion_is_not_demoted_with_it() {
        let mut hm = HememPolicy::new(1, 1);
        let mut r = Residency::new(1, 100);
        hm.record_access(h(0), p(1), false, None);
        let out = hm.end_interval(&mut r);
        assert_eq!(out.promotions, vec![(p(1), h(0))]);
        assert!(out.demotions.is_empty(), "{out:?}");
    }

    #[test]
    fn local_touches_keep_page_resident() {
        let mut hm = HememPolicy::new(1, 1);
        let mut r = Residency::new(1, 100);
        hm.record_access(h(0), p(1), false, None);
        hm.end_interval(&mut r);
        // resident now; keep touching it as resident.
        for _ in 0..HememPolicy::IDLE_DEMOTE_INTERVALS + 2 {
            hm.record_access(h(0), p(1), false, Some(h(0)));
            r.touch(p(1));
            let out = hm.end_interval(&mut r);
            assert!(!out.demotions.contains(&(p(1), h(0))));
        }
    }
}
