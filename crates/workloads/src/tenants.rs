//! Multi-tenant workload mixes: several workloads co-resident on one
//! rack, each confined to its own slice of the shared CXL address space
//! while contending for the same device links and DRAM banks.
//!
//! A [`TenantMix`] interleaves tenants across the cores of every host
//! (core `c` runs tenant `c % tenants.len()`), sizes the shared region to
//! the sum of the tenant footprints, and rebases each tenant's shared
//! accesses into a disjoint window. Private (per-core) traffic is
//! untouched — it already lives far above the shared region.

use crate::spec::{Workload, WorkloadParams};
use crate::stream::SyntheticStream;
use pipm_cpu::{AccessStream, TraceRecord};
use pipm_types::{Addr, CoreId, HostId, SystemConfig};

/// A set of workloads sharing one rack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TenantMix {
    /// The co-resident workloads, in tenant order. Tenant `t` owns the
    /// shared-address window starting at the sum of the preceding
    /// tenants' footprints.
    pub tenants: Vec<Workload>,
}

impl TenantMix {
    /// A mix from a list of workloads.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<Workload>) -> Self {
        assert!(!tenants.is_empty(), "tenant mix needs at least one tenant");
        TenantMix { tenants }
    }

    /// The canonical two-tenant mix used by the rack-scale experiments:
    /// a graph kernel (strong affinity) next to a database (weak
    /// affinity, hot keys).
    pub fn graph_plus_db() -> Self {
        TenantMix::new(vec![Workload::Pr, Workload::Ycsb])
    }

    /// Byte offset of tenant `t`'s shared window.
    fn window_base(&self, t: usize) -> u64 {
        self.tenants[..t]
            .iter()
            .map(|w| w.spec().footprint_bytes)
            .sum()
    }

    /// Total shared footprint across all tenants.
    pub fn total_footprint(&self) -> u64 {
        self.window_base(self.tenants.len())
    }

    /// Builds one stream per core, mirroring [`Workload::streams`]: sets
    /// `cfg.shared_bytes` to the combined footprint and returns
    /// `cfg.total_cores()` streams in flattened core order. Core `c` of
    /// every host runs tenant `c % tenants.len()`.
    pub fn streams(
        &self,
        cfg: &mut SystemConfig,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn AccessStream>> {
        cfg.shared_bytes = self.total_footprint();
        let mut out: Vec<Box<dyn AccessStream>> = Vec::with_capacity(cfg.total_cores());
        for host in 0..cfg.hosts {
            for core in 0..cfg.cores_per_host {
                let t = core % self.tenants.len();
                let spec = self.tenants[t].spec();
                // The inner generator lays out its partitions within the
                // tenant's own footprint; give it a config whose shared
                // region is exactly that window.
                let mut tenant_cfg = cfg.clone();
                tenant_cfg.shared_bytes = spec.footprint_bytes;
                let id = CoreId::new(HostId::new(host), core);
                let salt =
                    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + id.flat(cfg.cores_per_host) as u64);
                // Decorrelate tenants so two tenants running the same
                // workload kind don't mirror each other.
                let seed = params
                    .seed
                    .wrapping_add(salt)
                    .wrapping_add(0x2545_f491_4f6c_dd1du64.wrapping_mul(t as u64 + 1));
                let limit = spec.footprint_bytes;
                let inner = SyntheticStream::new(spec, &tenant_cfg, id, params.refs_per_core, seed);
                out.push(Box::new(TenantStream {
                    inner,
                    shared_limit: limit,
                    base: self.window_base(t),
                }));
            }
        }
        out
    }
}

/// A tenant's stream rebased into its shared-address window.
///
/// Wraps a [`SyntheticStream`] generated against the tenant's own
/// footprint and adds `base` to every shared address. Private addresses
/// (≥ the per-host private base, far above any shared footprint) pass
/// through unchanged.
#[derive(Clone, Debug)]
pub struct TenantStream {
    inner: SyntheticStream,
    shared_limit: u64,
    base: u64,
}

impl TenantStream {
    fn rebase(&self, mut r: TraceRecord) -> TraceRecord {
        let raw = r.addr.raw();
        if raw < self.shared_limit {
            r.addr = Addr::new(self.base + raw);
        }
        r
    }
}

impl AccessStream for TenantStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.inner.next_record().map(|r| self.rebase(r))
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        Some(Box::new(self.clone()))
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut dyn AccessStream) -> Vec<TraceRecord> {
        let mut v = Vec::new();
        while let Some(r) = s.next_record() {
            v.push(r);
        }
        v
    }

    #[test]
    fn windows_are_disjoint_and_in_bounds() {
        let mix = TenantMix::graph_plus_db();
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 4000,
            seed: 11,
        };
        let streams = mix.streams(&mut cfg, &params);
        assert_eq!(cfg.shared_bytes, mix.total_footprint());
        let w0 = mix.tenants[0].spec().footprint_bytes;
        for (c, mut s) in streams.into_iter().enumerate() {
            let t = (c % cfg.cores_per_host) % mix.tenants.len();
            for r in drain(s.as_mut()) {
                if r.addr.is_shared(&cfg) {
                    let raw = r.addr.raw();
                    assert!(raw < cfg.shared_bytes);
                    if t == 0 {
                        assert!(raw < w0, "tenant 0 escaped its window");
                    } else {
                        assert!(raw >= w0, "tenant 1 escaped its window");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mix = TenantMix::graph_plus_db();
        let collect = || {
            let mut cfg = SystemConfig::default();
            let params = WorkloadParams {
                refs_per_core: 1500,
                seed: 4,
            };
            let mut streams = mix.streams(&mut cfg, &params);
            drain(streams[1].as_mut())
        };
        let a = collect();
        assert_eq!(a.len(), 1500);
        assert_eq!(a, collect());
    }

    #[test]
    fn same_kind_tenants_decorrelate() {
        let mix = TenantMix::new(vec![Workload::Ycsb, Workload::Ycsb]);
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 500,
            seed: 2,
        };
        let mut streams = mix.streams(&mut cfg, &params);
        let w0 = mix.tenants[0].spec().footprint_bytes;
        let a: Vec<u64> = drain(streams[0].as_mut())
            .iter()
            .filter(|r| r.addr.is_shared(&cfg))
            .map(|r| r.addr.raw())
            .collect();
        let b: Vec<u64> = drain(streams[1].as_mut())
            .iter()
            .filter(|r| r.addr.is_shared(&cfg))
            .map(|r| r.addr.raw() - w0)
            .collect();
        assert_ne!(a, b, "two YCSB tenants must not mirror each other");
    }
}
