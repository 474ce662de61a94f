//! Post-hoc classification of page migrations as beneficial or harmful
//! (the paper's Figure 5 metric, §3.2.1).
//!
//! A promotion is **harmful** if it increased overall execution time: the
//! extra latency other hosts paid on their (now non-cacheable, four-hop)
//! accesses to the migrated page, plus the migration cost itself, exceeds
//! the latency the owning host saved on its local accesses.

use pipm_types::{Cycle, FxHashMap, PageNum, SystemConfig};

/// One promotion's post-migration accesses, by its owner and by others.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    own_accesses: u64,
    other_accesses: u64,
}

/// Tracks every promotion's post-migration access mix and classifies it at
/// demotion (or end of run).
#[derive(Clone, Debug)]
pub struct HarmTracker {
    active: FxHashMap<PageNum, Tally>,
    /// Estimated local DRAM access latency (cycles).
    lat_local: f64,
    /// Estimated CXL memory access latency (cycles).
    lat_cxl: f64,
    /// Estimated inter-host (4-hop, non-cacheable) access latency (cycles).
    lat_inter: f64,
    /// Amortized migration cost per page (cycles).
    mig_cost: f64,
    harmful: u64,
    evaluated: u64,
}

impl HarmTracker {
    /// Builds the tracker with latency estimates derived from the system
    /// configuration (unloaded latencies; contention is deliberately
    /// excluded so the classification is stable across schemes).
    pub fn new(cfg: &SystemConfig) -> Self {
        let dram = 240.0; // ~60 ns unloaded DDR5 row miss at 4 GHz
        let link = cfg.link_latency() as f64;
        let dir = cfg.directory.access_latency() as f64;
        let init = cfg.migration_cost.initiator_cycles_per_page as f64;
        // 4 KB over the per-direction link bandwidth.
        let transfer = 4096.0 * pipm_types::CPU_GHZ / cfg.cxl.link_gbps;
        HarmTracker {
            active: FxHashMap::default(),
            lat_local: dram,
            lat_cxl: 2.0 * link + dir + dram,
            lat_inter: 4.0 * link + dir + 24.0 + dram,
            mig_cost: init + transfer,
            harmful: 0,
            evaluated: 0,
        }
    }

    /// Records a promotion of `page`.
    pub fn on_promote(&mut self, page: PageNum) {
        self.active.insert(page, Tally::default());
    }

    /// Records a post-migration access to `page`, by the host it was
    /// promoted to if `by_owner`.
    pub fn on_access(&mut self, page: PageNum, by_owner: bool) {
        if let Some(r) = self.active.get_mut(&page) {
            if by_owner {
                r.own_accesses += 1;
            } else {
                r.other_accesses += 1;
            }
        }
    }

    /// Ends the residency of `page` (demotion) and classifies it.
    pub fn on_demote(&mut self, page: PageNum) {
        if let Some(r) = self.active.remove(&page) {
            self.evaluate(r);
        }
    }

    fn evaluate(&mut self, r: Tally) {
        let benefit = r.own_accesses as f64 * (self.lat_cxl - self.lat_local);
        let harm = r.other_accesses as f64 * (self.lat_inter - self.lat_cxl) + self.mig_cost;
        self.evaluated += 1;
        if harm > benefit {
            self.harmful += 1;
        }
    }

    /// Classifies every still-active residency (end of run).
    pub fn finish(&mut self) {
        let remaining: Vec<Tally> = self.active.drain().map(|(_, r)| r).collect();
        for r in remaining {
            self.evaluate(r);
        }
    }

    /// Promotions classified so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Promotions classified harmful so far.
    pub fn harmful(&self) -> u64 {
        self.harmful
    }

    /// Cycle cost assumed per migrated page.
    pub fn migration_cost(&self) -> Cycle {
        self.mig_cost as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HarmTracker {
        HarmTracker::new(&SystemConfig::default())
    }

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    #[test]
    fn latency_ordering_sane() {
        let t = tracker();
        let (l, c, i) = (t.lat_local, t.lat_cxl, t.lat_inter);
        assert!(l < c && c < i, "local < cxl < inter-host must hold");
        // CXL should be roughly 2-3× local (paper §1).
        assert!(c / l > 1.8 && c / l < 5.0, "cxl/local = {}", c / l);
    }

    #[test]
    fn owner_heavy_residency_is_beneficial() {
        let mut t = tracker();
        t.on_promote(p(1));
        for _ in 0..10_000 {
            t.on_access(p(1), true);
        }
        t.on_demote(p(1));
        assert_eq!(t.evaluated(), 1);
        assert_eq!(t.harmful(), 0);
    }

    #[test]
    fn contested_residency_is_harmful() {
        let mut t = tracker();
        t.on_promote(p(1));
        for _ in 0..100 {
            t.on_access(p(1), true);
            t.on_access(p(1), false);
            t.on_access(p(1), false);
        }
        t.on_demote(p(1));
        assert_eq!(t.harmful(), 1);
    }

    #[test]
    fn untouched_residency_is_harmful_by_cost() {
        let mut t = tracker();
        t.on_promote(p(1));
        t.on_demote(p(1));
        // No benefit, nonzero migration cost → harmful.
        assert_eq!(t.harmful(), 1);
    }

    #[test]
    fn finish_classifies_remaining() {
        let mut t = tracker();
        t.on_promote(p(1));
        t.on_promote(p(2));
        for _ in 0..10_000 {
            t.on_access(p(1), true);
        }
        t.finish();
        assert_eq!(t.evaluated(), 2);
        assert_eq!(t.harmful(), 1); // p(2) never earned its cost
    }

    #[test]
    fn accesses_to_unknown_pages_ignored() {
        let mut t = tracker();
        t.on_access(p(9), true);
        t.on_demote(p(9));
        assert_eq!(t.evaluated(), 0);
    }
}
