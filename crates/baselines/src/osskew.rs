//! OS-skew: PIPM's majority-vote policy driving kernel page migration.

use crate::{HotnessPolicy, IntervalOutcome, Residency};
use pipm_types::FxHashMap;
use pipm_types::{HostId, PageNum, PipmConfig, SchemeKind};

/// Boyer–Moore state for one page.
#[derive(Clone, Copy, Debug, Default)]
struct Vote {
    candidate: u8,
    counter: u8,
}

/// The OS-skew ablation (paper §5.1.3): the PIPM majority-vote migration
/// policy applied at page granularity, but executed by the conventional
/// kernel migration mechanism at interval boundaries.
///
/// Unlike the per-host heuristics, the vote aggregates accesses *across*
/// hosts (as PIPM's global remapping table does), so it avoids promoting
/// pages that other hosts access heavily — but it still pays whole-page
/// transfer and page-table/TLB management costs.
#[derive(Clone, Debug)]
pub struct OsSkewPolicy {
    threshold: u8,
    budget: usize,
    votes: FxHashMap<PageNum, Vote>,
    /// Pages whose vote crossed the threshold this interval, with winner.
    pending: Vec<(PageNum, HostId)>,
    /// Resident pages' post-migration vote (local counter analogue):
    /// decremented by inter-host accesses, incremented by owner accesses.
    resident_counter: FxHashMap<PageNum, u8>,
    local_counter_max: u8,
    global_counter_max: u8,
}

impl OsSkewPolicy {
    /// Creates the policy with PIPM's migration threshold (paper: 8) and
    /// counter widths, so the page-granularity vote saturates where
    /// PIPM's remapping tables do.
    pub fn new(cfg: &PipmConfig, budget: usize) -> Self {
        OsSkewPolicy {
            threshold: cfg.migration_threshold,
            budget,
            votes: FxHashMap::default(),
            pending: Vec::new(),
            resident_counter: FxHashMap::default(),
            local_counter_max: cfg.local_counter_max,
            global_counter_max: cfg.global_counter_max,
        }
    }
}

impl HotnessPolicy for OsSkewPolicy {
    fn name(&self) -> &'static str {
        "OS-skew"
    }

    fn scheme(&self) -> SchemeKind {
        SchemeKind::OsSkew
    }

    fn record_access(
        &mut self,
        host: HostId,
        page: PageNum,
        _is_write: bool,
        resident_at: Option<HostId>,
    ) {
        match resident_at {
            Some(owner) => {
                // Post-migration: owner accesses strengthen the residency,
                // other hosts' accesses weaken it (the local-counter rule).
                let c = self.resident_counter.entry(page).or_insert(self.threshold);
                if owner == host {
                    *c = (*c + 1).min(self.local_counter_max);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
            None => {
                let v = self.votes.entry(page).or_default();
                if v.counter == 0 {
                    v.candidate = host.index() as u8;
                    v.counter = 1;
                } else if v.candidate == host.index() as u8 {
                    v.counter = (v.counter + 1).min(self.global_counter_max);
                } else {
                    v.counter -= 1;
                }
                if v.counter >= self.threshold {
                    self.pending.push((page, host));
                    v.counter = 0;
                }
            }
        }
    }

    fn set_interval_budget(&mut self, pages: usize) {
        self.budget = pages;
    }

    fn box_clone(&self) -> Box<dyn HotnessPolicy> {
        Box::new(self.clone())
    }

    fn end_interval(&mut self, residency: &mut Residency) -> IntervalOutcome {
        let mut promoted = 0;
        for (page, host) in std::mem::take(&mut self.pending) {
            if promoted >= self.budget {
                break;
            }
            if residency.home(page).is_some() {
                continue;
            }
            for victim in residency.promote(host, page) {
                self.resident_counter.remove(&victim);
            }
            self.resident_counter.insert(page, self.threshold);
            promoted += 1;
        }
        // Revoke pages whose residency vote collapsed (in page order, so
        // hash-map iteration order cannot perturb the timing sequence).
        let mut revoke: Vec<PageNum> = self
            .resident_counter
            .iter()
            .filter(|(_, &c)| c == 0)
            .map(|(&p, _)| p)
            .collect();
        revoke.sort_unstable();
        for page in revoke {
            if let Some(owner) = residency.home(page) {
                residency.demote(owner, page);
            }
            self.resident_counter.remove(&page);
            self.votes.remove(&page);
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

    fn policy(threshold: u8) -> OsSkewPolicy {
        let cfg = PipmConfig {
            migration_threshold: threshold,
            ..PipmConfig::default()
        };
        OsSkewPolicy::new(&cfg, 100)
    }

    #[test]
    fn majority_required_for_promotion() {
        let mut o = policy(4);
        let mut r = Residency::new(2, 100);
        // Alternating accesses never build a majority.
        for _ in 0..20 {
            o.record_access(h(0), p(1), false, None);
            o.record_access(h(1), p(1), false, None);
        }
        assert!(o.end_interval(&mut r).promotions.is_empty());
        // A clear majority does.
        for _ in 0..8 {
            o.record_access(h(0), p(2), false, None);
        }
        assert_eq!(o.end_interval(&mut r).promotions, vec![(p(2), h(0))]);
    }

    #[test]
    fn vote_saturates_at_the_configured_global_counter() {
        // A 2-bit global counter can never reach threshold 4.
        let cfg = PipmConfig {
            migration_threshold: 4,
            global_counter_max: 3,
            ..PipmConfig::default()
        };
        let mut o = OsSkewPolicy::new(&cfg, 100);
        let mut r = Residency::new(2, 100);
        for _ in 0..8 {
            o.record_access(h(0), p(2), false, None);
        }
        assert!(o.end_interval(&mut r).promotions.is_empty());
    }

    #[test]
    fn contested_page_avoided_even_when_hot_for_everyone() {
        let mut o = policy(8);
        let mut r = Residency::new(4, 100);
        // All four hosts hammer the page equally — a per-host frequency
        // policy would promote it; the vote never fires.
        for _ in 0..100 {
            for i in 0..4 {
                o.record_access(h(i), p(9), false, None);
            }
        }
        assert!(o.end_interval(&mut r).promotions.is_empty());
    }

    #[test]
    fn interhost_pressure_revokes_residency() {
        let mut o = policy(4);
        let mut r = Residency::new(2, 100);
        for _ in 0..4 {
            o.record_access(h(0), p(3), false, None);
        }
        let out = o.end_interval(&mut r);
        assert_eq!(out.promotions.len(), 1);
        // Now host 1 hammers it inter-host: counter drains, page demoted.
        for _ in 0..8 {
            o.record_access(h(1), p(3), false, Some(h(0)));
        }
        let out = o.end_interval(&mut r);
        assert!(out.demotions.contains(&(p(3), h(0))));
    }

    #[test]
    fn owner_accesses_sustain_residency() {
        let mut o = policy(4);
        let mut r = Residency::new(2, 100);
        for _ in 0..4 {
            o.record_access(h(0), p(3), false, None);
        }
        o.end_interval(&mut r);
        for _ in 0..10 {
            o.record_access(h(0), p(3), false, Some(h(0)));
            o.record_access(h(1), p(3), false, Some(h(0)));
            let out = o.end_interval(&mut r);
            assert!(
                !out.demotions.contains(&(p(3), h(0))),
                "balanced pressure with owner majority must not revoke"
            );
        }
    }
}
