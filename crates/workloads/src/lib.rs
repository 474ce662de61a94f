//! Synthetic workload trace generators for the PIPM evaluation.
//!
//! The paper drives its simulator with Pin traces of thirteen large
//! memory-intensive workloads (Table 1: six GAPBS graph kernels, XSBench,
//! four PARSEC applications, and the Silo TPC-C / YCSB databases). Those
//! traces and their 8–48 GB footprints are not reproducible here, so this
//! crate provides **seeded, deterministic generators** that model the
//! properties the migration experiments actually exercise (DESIGN.md §4):
//!
//! * per-host access skew (each host's threads favour their partition of
//!   the shared data),
//! * a *globally hot* region touched by all hosts (graph boundaries, hot
//!   database keys) — the source of harmful migrations,
//! * spatial locality within pages (sequential runs of lines),
//! * temporal hotness that drifts over phases,
//! * read/write mix and compute density per workload, and
//! * footprints scaled by 1/256 from the paper (48 GB → 192 MB, floored
//!   at 48 MB) so they still dwarf the 32 MB of aggregate LLC.
//!
//! # Example
//!
//! ```
//! use pipm_workloads::{Workload, WorkloadParams};
//! use pipm_cpu::AccessStream;
//! use pipm_types::SystemConfig;
//!
//! let mut cfg = SystemConfig::default();
//! let params = WorkloadParams::quick(7);
//! let mut streams = Workload::Pr.streams(&mut cfg, &params);
//! assert_eq!(streams.len(), cfg.total_cores());
//! let rec = streams[0].next_record().unwrap();
//! let _ = rec.addr;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
mod spec;
mod stream;
mod zipf;

pub use fuzz::{FuzzPattern, FuzzSpec};
pub use spec::{Workload, WorkloadParams};
use stream::SyntheticStream;

use pipm_cpu::AccessStream;
use pipm_types::{CoreId, HostId, SystemConfig};

impl Workload {
    /// Builds one trace stream per core for this workload.
    ///
    /// Sets `cfg.shared_bytes` to the workload's scaled footprint (the
    /// shared region must match the generator's layout) and returns
    /// `cfg.total_cores()` streams in flattened core order.
    pub fn streams(
        self,
        cfg: &mut SystemConfig,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn AccessStream>> {
        let spec = self.spec();
        cfg.shared_bytes = spec.footprint_bytes;
        let mut out: Vec<Box<dyn AccessStream>> = Vec::with_capacity(cfg.total_cores());
        for host in 0..cfg.hosts {
            for core in 0..cfg.cores_per_host {
                let id = CoreId::new(HostId::new(host), core);
                let salt =
                    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + id.flat(cfg.cores_per_host) as u64);
                out.push(Box::new(SyntheticStream::new(
                    spec.clone(),
                    cfg,
                    id,
                    params.refs_per_core,
                    params.seed.wrapping_add(salt),
                )));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(
        w: Workload,
        refs: u64,
        seed: u64,
    ) -> (SystemConfig, Vec<Vec<pipm_cpu::TraceRecord>>) {
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: refs,
            seed,
        };
        let streams = w.streams(&mut cfg, &params);
        let out = streams
            .into_iter()
            .map(|mut s| {
                let mut v = Vec::new();
                while let Some(r) = s.next_record() {
                    v.push(r);
                }
                v
            })
            .collect();
        (cfg, out)
    }

    #[test]
    fn stream_lengths_match_request() {
        let (_, traces) = collect(Workload::Bfs, 1000, 1);
        assert_eq!(traces.len(), 16);
        for t in &traces {
            assert_eq!(t.len(), 1000);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = collect(Workload::Ycsb, 2000, 42);
        let (_, b) = collect(Workload::Ycsb, 2000, 42);
        assert_eq!(a, b);
        let (_, c) = collect(Workload::Ycsb, 2000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_in_bounds() {
        for w in Workload::ALL {
            let (cfg, traces) = collect(w, 2000, 3);
            for (i, t) in traces.iter().enumerate() {
                for r in t {
                    if r.addr.is_shared(&cfg) {
                        assert!(r.addr.raw() < cfg.shared_bytes, "{w:?} shared OOB");
                    } else {
                        let host = HostId::new(i / cfg.cores_per_host);
                        assert_eq!(
                            r.addr.home_host(&cfg),
                            Some(host),
                            "{w:?} private access must target own host"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn write_fraction_approximates_spec() {
        for w in [Workload::Tc, Workload::Tpcc, Workload::Canneal] {
            let spec = w.spec();
            let (_, traces) = collect(w, 20_000, 9);
            let total: usize = traces.iter().map(Vec::len).sum();
            let writes: usize = traces
                .iter()
                .flat_map(|t| t.iter())
                .filter(|r| r.is_write)
                .count();
            let frac = writes as f64 / total as f64;
            assert!(
                (frac - spec.write_fraction).abs() < 0.05,
                "{w:?}: write fraction {frac} vs spec {}",
                spec.write_fraction
            );
        }
    }

    #[test]
    fn graph_workloads_have_host_affinity() {
        let (cfg, traces) = collect(Workload::Pr, 30_000, 5);
        let part = cfg.shared_bytes / cfg.hosts as u64;
        // Host 0's cores should touch partition 0 far more than others.
        let mut own = 0u64;
        let mut shared_total = 0u64;
        for t in &traces[0..cfg.cores_per_host] {
            for r in t {
                if r.addr.is_shared(&cfg) {
                    shared_total += 1;
                    if r.addr.raw() / part == 0 {
                        own += 1;
                    }
                }
            }
        }
        let frac = own as f64 / shared_total as f64;
        assert!(frac > 0.7, "affinity too weak: {frac}");
    }

    #[test]
    fn db_workloads_have_weak_affinity() {
        let (cfg, traces) = collect(Workload::Ycsb, 30_000, 5);
        let part = cfg.shared_bytes / cfg.hosts as u64;
        let mut own = 0u64;
        let mut shared_total = 0u64;
        for t in &traces[0..cfg.cores_per_host] {
            for r in t {
                if r.addr.is_shared(&cfg) {
                    shared_total += 1;
                    if r.addr.raw() / part == 0 {
                        own += 1;
                    }
                }
            }
        }
        let frac = own as f64 / shared_total as f64;
        assert!(
            frac < 0.92,
            "YCSB affinity should be weaker than graph kernels: {frac}"
        );
        // And weaker than PR's (the strongest graph kernel's) affinity.
        let (cfg2, traces2) = collect(Workload::Pr, 30_000, 5);
        let part2 = cfg2.shared_bytes / cfg2.hosts as u64;
        let mut own2 = 0u64;
        let mut tot2 = 0u64;
        for t in &traces2[0..cfg2.cores_per_host] {
            for r in t {
                if r.addr.is_shared(&cfg2) {
                    tot2 += 1;
                    if r.addr.raw() / part2 == 0 {
                        own2 += 1;
                    }
                }
            }
        }
        assert!(frac < own2 as f64 / tot2 as f64);
    }

    #[test]
    fn footprints_exceed_llc() {
        let cfg = SystemConfig::default();
        let total_llc: u64 = cfg.host_llc_bytes() * cfg.hosts as u64;
        for w in Workload::ALL {
            assert!(
                w.spec().footprint_bytes > total_llc,
                "{w:?} footprint must exceed aggregate LLC"
            );
        }
    }

    #[test]
    fn table1_metadata() {
        assert_eq!(Workload::ALL.len(), 13);
        assert_eq!(Workload::Sssp.suite(), "GAPBS");
        assert_eq!(Workload::Sssp.paper_footprint_gb(), 48);
        assert_eq!(Workload::Xsbench.suite(), "XSBench");
        assert_eq!(Workload::Tpcc.suite(), "Silo");
        for w in Workload::ALL {
            assert!(!w.label().is_empty());
            assert!(w.paper_footprint_gb() > 0);
        }
    }

    #[test]
    fn labels_parse_back() {
        for w in Workload::ALL {
            assert_eq!(w.label().parse::<Workload>().unwrap(), w);
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn spatial_locality_present_in_streaming_workloads() {
        let (_, traces) = collect(Workload::Streamcluster, 10_000, 11);
        // Count consecutive shared accesses that fall in the same page.
        let t = &traces[0];
        let mut same_page = 0;
        let mut pairs = 0;
        for w in t.windows(2) {
            pairs += 1;
            if w[0].addr.page() == w[1].addr.page() {
                same_page += 1;
            }
        }
        let frac = same_page as f64 / pairs as f64;
        assert!(
            frac > 0.3,
            "streaming workload should revisit pages: {frac}"
        );
    }

    #[test]
    fn private_accesses_exist_and_are_small_footprint() {
        let (cfg, traces) = collect(Workload::Bodytrack, 20_000, 13);
        let mut private = 0usize;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for r in &traces[0] {
            if !r.addr.is_shared(&cfg) {
                private += 1;
                min = min.min(r.addr.raw());
                max = max.max(r.addr.raw());
            }
        }
        assert!(private > 0, "bodytrack must have private accesses");
        assert!(max - min < 8 << 20, "private working set should be small");
    }
}
