//! Nomad: recency-based hotness with asynchronous transactional migration.

use crate::{HotnessPolicy, IntervalOutcome, Residency};
use pipm_types::FxHashMap;
use pipm_types::{HostId, PageNum, SchemeKind};

/// Recency-based policy in the style of Nomad (OSDI '24) and the kernel's
/// transparent page placement: a page accessed in two consecutive intervals
/// by the same host is considered hot and promoted. Pages idle for
/// [`IDLE_DEMOTE_INTERVALS`] intervals are demoted.
///
/// Each host runs its own instance of the heuristic over the accesses it
/// observes — single-host reasoning, exactly the property the paper shows
/// breaks down in multi-host CXL-DSM.
///
/// [`IDLE_DEMOTE_INTERVALS`]: NomadPolicy::IDLE_DEMOTE_INTERVALS
#[derive(Clone, Debug)]
pub struct NomadPolicy {
    budget: usize,
    /// Per host: pages seen this interval → access count.
    current: Vec<FxHashMap<PageNum, u32>>,
    /// Per host: pages seen last interval.
    previous: Vec<FxHashMap<PageNum, u32>>,
}

impl NomadPolicy {
    /// Intervals a resident page may stay idle before demotion.
    pub const IDLE_DEMOTE_INTERVALS: u64 = 4;

    /// Creates the policy for `hosts` hosts with a per-interval promotion
    /// `budget`.
    pub fn new(hosts: usize, budget: usize) -> Self {
        NomadPolicy {
            budget,
            current: vec![FxHashMap::default(); hosts],
            previous: vec![FxHashMap::default(); hosts],
        }
    }
}

impl HotnessPolicy for NomadPolicy {
    fn name(&self) -> &'static str {
        "Nomad"
    }

    fn scheme(&self) -> SchemeKind {
        SchemeKind::Nomad
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
        *self.current[host.index()].entry(page).or_insert(0) += 1;
    }

    fn set_interval_budget(&mut self, pages: usize) {
        self.budget = pages;
    }

    fn box_clone(&self) -> Box<dyn HotnessPolicy> {
        Box::new(self.clone())
    }

    fn end_interval(&mut self, residency: &mut Residency) -> IntervalOutcome {
        for hi in 0..self.current.len() {
            let host = HostId::new(hi);
            // Candidates: touched this interval AND last interval (recency
            // across intervals). Single-host reasoning: pages already
            // local somewhere are skipped (no stealing), with no view of
            // other hosts' access intensity.
            let cand: Vec<(PageNum, u32)> = self.current[hi]
                .iter()
                .filter(|(p, _)| self.previous[hi].contains_key(p))
                .map(|(&p, &c)| (p, c))
                .collect();
            residency.promote_hottest(host, cand, self.budget);
            residency.demote_idle(host, Self::IDLE_DEMOTE_INTERVALS);
        }
        for hi in 0..self.current.len() {
            self.previous[hi] = std::mem::take(&mut self.current[hi]);
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
    fn promotes_only_after_two_intervals() {
        let mut n = NomadPolicy::new(2, 10);
        let mut r = Residency::new(2, 100);
        n.record_access(h(0), p(1), false, None);
        let out = n.end_interval(&mut r);
        assert!(out.promotions.is_empty(), "one interval is not enough");
        n.record_access(h(0), p(1), false, None);
        let out = n.end_interval(&mut r);
        assert_eq!(out.promotions, vec![(p(1), h(0))]);
    }

    #[test]
    fn budget_limits_promotions() {
        let mut n = NomadPolicy::new(1, 2);
        let mut r = Residency::new(1, 100);
        for iv in 0..2 {
            for i in 0..10 {
                n.record_access(h(0), p(i), false, None);
            }
            if iv == 0 {
                n.end_interval(&mut r);
            }
        }
        let out = n.end_interval(&mut r);
        assert_eq!(out.promotions.len(), 2);
    }

    #[test]
    fn no_stealing_between_hosts() {
        let mut n = NomadPolicy::new(2, 10);
        let mut r = Residency::new(2, 100);
        n.record_access(h(0), p(5), false, None);
        n.end_interval(&mut r);
        n.record_access(h(0), p(5), false, None);
        let out = n.end_interval(&mut r);
        assert_eq!(out.promotions, vec![(p(5), h(0))]);
        // Host 1 also hammers the page but cannot steal it.
        n.record_access(h(1), p(5), false, Some(h(0)));
        n.end_interval(&mut r);
        n.record_access(h(1), p(5), false, Some(h(0)));
        let out = n.end_interval(&mut r);
        assert!(out.promotions.is_empty());
    }

    #[test]
    fn idle_pages_get_demoted() {
        let mut n = NomadPolicy::new(1, 10);
        let mut r = Residency::new(1, 100);
        n.record_access(h(0), p(3), false, None);
        n.end_interval(&mut r);
        n.record_access(h(0), p(3), false, None);
        let out = n.end_interval(&mut r);
        assert_eq!(out.promotions.len(), 1);
        // Never touch it again: after the idle horizon it is demoted.
        let mut demoted = false;
        for _ in 0..=NomadPolicy::IDLE_DEMOTE_INTERVALS + 1 {
            let out = n.end_interval(&mut r);
            if out.demotions.contains(&(p(3), h(0))) {
                demoted = true;
            }
        }
        assert!(demoted);
    }
}
