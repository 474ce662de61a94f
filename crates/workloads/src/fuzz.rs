//! Seeded multi-host trace fuzzer for the differential correctness harness.
//!
//! A [`FuzzSpec`] is a small, fully-integer description of an adversarial
//! multi-host trace. It is built from plain unsigned draws (so the
//! proptest shim can shrink it dimension by dimension) and lowered onto
//! the same synthetic-stream generator the workloads use, which keeps the
//! fuzzer deterministic per seed and bit-identical across worker counts.
//!
//! Three access patterns target the protocol paths where migration bugs
//! live:
//!
//! * [`FuzzPattern::SharingHeavy`] — little host affinity, a hot region
//!   hammered (and written) by every host: exercises the device
//!   directory, invalidation fan-out, and SWMR under contention.
//! * [`FuzzPattern::MigrationThrash`] — strong but rapidly rotating
//!   per-host affinity over a footprint far beyond the local remap
//!   capacity: exercises migration initiation, partial fills, eviction
//!   of migrated pages, and remap/global-table agreement.
//! * [`FuzzPattern::RevocationStorm`] — pages migrate under write
//!   affinity, then every other host storms them with interhost
//!   accesses: exercises the majority vote, counter decay, revocation
//!   flush, and the remap-cache recall path.

use crate::spec::{Spec, Workload, WorkloadParams};
use crate::stream::SyntheticStream;
use pipm_cpu::AccessStream;
use pipm_types::{CoreId, HostId, SystemConfig, PAGE_SIZE};
use std::fmt;

/// Adversarial access pattern shapes for the trace fuzzer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuzzPattern {
    /// All hosts read and write a common hot set; weak affinity.
    SharingHeavy,
    /// Strong affinity with fast phase rotation over a large footprint,
    /// forcing continuous migration and eviction of migrated pages.
    MigrationThrash,
    /// Migrated pages are stormed by remote hosts, driving the majority
    /// vote against the owner and forcing revocations.
    RevocationStorm,
}

impl FuzzPattern {
    /// All patterns, in a stable order.
    pub const ALL: [FuzzPattern; 3] = [
        FuzzPattern::SharingHeavy,
        FuzzPattern::MigrationThrash,
        FuzzPattern::RevocationStorm,
    ];

    /// Maps an arbitrary draw onto a pattern (used by shrinkable
    /// integer-tuple strategies; shrinking the draw toward 0 shrinks
    /// toward `SharingHeavy`).
    pub fn from_index(i: u64) -> FuzzPattern {
        FuzzPattern::ALL[(i % FuzzPattern::ALL.len() as u64) as usize]
    }

    /// Short label for test output and regression files.
    pub fn label(self) -> &'static str {
        match self {
            FuzzPattern::SharingHeavy => "sharing-heavy",
            FuzzPattern::MigrationThrash => "migration-thrash",
            FuzzPattern::RevocationStorm => "revocation-storm",
        }
    }
}

impl fmt::Display for FuzzPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully-integer fuzzed trace description.
///
/// Every field is already clamped to a valid range by
/// [`FuzzSpec::from_draw`], so a `FuzzSpec` can always be lowered to
/// streams without panicking. The integer representation keeps the spec
/// trivially shrinkable and printable for regression reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FuzzSpec {
    /// Which adversarial shape to generate.
    pub pattern: FuzzPattern,
    /// Shared footprint, in pages *per host partition* (1..=256).
    pub pages_per_host: u64,
    /// Store fraction in percent (0..=60).
    pub write_pct: u64,
    /// Probability (percent, 0..=80) of targeting the globally hot
    /// region shared by every host.
    pub hot_pct: u64,
    /// Master seed; per-core streams derive distinct sub-seeds.
    pub seed: u64,
    /// Memory references generated per core.
    pub refs_per_core: u64,
}

impl FuzzSpec {
    /// Builds a valid spec from arbitrary unsigned draws, clamping each
    /// dimension into its legal range. Designed as the `map` target of a
    /// shrinkable integer-tuple strategy: every draw maps to a runnable
    /// spec, and shrinking any component toward 0 yields a simpler one.
    pub fn from_draw(
        pattern: u64,
        pages_per_host: u64,
        write_pct: u64,
        hot_pct: u64,
        seed: u64,
        refs_per_core: u64,
    ) -> FuzzSpec {
        FuzzSpec {
            pattern: FuzzPattern::from_index(pattern),
            // Small footprints maximise contention; SyntheticStream needs
            // at least one page (64 lines) per host partition.
            pages_per_host: pages_per_host.clamp(1, 256),
            write_pct: write_pct.clamp(0, 60),
            hot_pct: hot_pct.clamp(0, 80),
            seed,
            // Enough references to cross several invariant epochs per
            // core, bounded so a single fuzz case stays fast.
            refs_per_core: refs_per_core.clamp(2_000, 60_000),
        }
    }

    /// The workload parameters this spec runs under.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams {
            refs_per_core: self.refs_per_core,
            seed: self.seed,
        }
    }

    /// Lowers the fuzz description onto a behavioural [`Spec`].
    ///
    /// Starts from the YCSB spec (the weakest-affinity Table 1 workload)
    /// and overrides the knobs each pattern stresses.
    pub(crate) fn to_spec(self, cfg: &SystemConfig) -> Spec {
        let footprint = self.pages_per_host * PAGE_SIZE * cfg.hosts as u64;
        let write_fraction = self.write_pct as f64 / 100.0;
        let global_hot_prob = self.hot_pct as f64 / 100.0;
        let base = Spec {
            footprint_bytes: footprint,
            write_fraction,
            global_hot_prob,
            // Keep the hot set small and recurring so every host collides
            // on the same lines.
            global_hot_bytes: (footprint / 16).max(PAGE_SIZE),
            // The harness fuzzes the shared-memory protocol; keep private
            // traffic present (it shares the caches) but minor.
            private_fraction: 0.1,
            private_bytes: 64 << 10,
            zipf_theta: None,
            index_prob: 0.0,
            line_repeats: 2,
            nonmem_mean: 4,
            ..Workload::Ycsb.spec()
        };
        match self.pattern {
            FuzzPattern::SharingHeavy => Spec {
                affinity: 0.25,
                write_affinity: 0.2,
                // At least a quarter of shared traffic hits the common
                // hot region even if the draw asked for less.
                global_hot_prob: global_hot_prob.max(0.25),
                run_lines: 2,
                hot_fraction: 0.5,
                hot_prob: 0.7,
                scan_fraction: 0.5,
                phase_refs: 20_000,
                ..base
            },
            FuzzPattern::MigrationThrash => Spec {
                affinity: 0.9,
                write_affinity: 0.95,
                // Rotate the hot window every few thousand references so
                // freshly migrated pages go cold and get evicted while
                // new ones migrate in.
                phase_refs: 2_000,
                hot_fraction: 0.1,
                hot_prob: 0.9,
                run_lines: 8,
                scan_fraction: 0.1,
                ..base
            },
            FuzzPattern::RevocationStorm => Spec {
                // Writes pull pages home (driving migration), while the
                // dominant read mix storms other hosts' partitions and
                // the hot region, flipping the majority vote.
                affinity: 0.15,
                write_affinity: 0.95,
                global_hot_prob: global_hot_prob.max(0.3),
                run_lines: 4,
                hot_fraction: 0.3,
                hot_prob: 0.8,
                scan_fraction: 0.3,
                phase_refs: 8_000,
                ..base
            },
        }
    }

    /// The system configuration fuzz traces are meant to run under: the
    /// experiment-scale geometry with the LLC shrunk further (64 KiB per
    /// core, 256 KiB per host). Fuzz traces are short — a few thousand
    /// references per core — so under the full Table 2 caches (or even
    /// experiment scale) they never fill the LLC and no line is ever
    /// evicted, which would leave PIPM's eviction-driven paths
    /// (incremental migration cases ①/④, sector migration, revocation
    /// flush of cached dirty lines) completely unexercised. The small
    /// LLC guarantees eviction pressure within a short trace.
    pub fn base_config() -> SystemConfig {
        let mut cfg = SystemConfig::experiment_scale();
        cfg.llc_per_core.capacity_bytes = 64 << 10;
        cfg
    }

    /// Builds one trace stream per core, mirroring
    /// [`Workload::streams`]: sets `cfg.shared_bytes` to the fuzzed
    /// footprint and returns `cfg.total_cores()` streams in flattened
    /// core order with the same per-core seed derivation.
    pub fn streams(&self, cfg: &mut SystemConfig) -> Vec<Box<dyn AccessStream>> {
        let spec = self.to_spec(cfg);
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
                    self.refs_per_core,
                    self.seed.wrapping_add(salt),
                )));
            }
        }
        out
    }
}

impl fmt::Display for FuzzSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/pages{}/w{}/hot{}/seed{:#x}/refs{}",
            self.pattern,
            self.pages_per_host,
            self.write_pct,
            self.hot_pct,
            self.seed,
            self.refs_per_core
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_draw_clamps_every_dimension() {
        let s = FuzzSpec::from_draw(u64::MAX, u64::MAX, u64::MAX, u64::MAX, 7, u64::MAX);
        assert_eq!(s.pattern, FuzzPattern::from_index(u64::MAX));
        assert_eq!(s.pages_per_host, 256);
        assert_eq!(s.write_pct, 60);
        assert_eq!(s.hot_pct, 80);
        assert_eq!(s.refs_per_core, 60_000);
        let t = FuzzSpec::from_draw(0, 0, 0, 0, 0, 0);
        assert_eq!(t.pattern, FuzzPattern::SharingHeavy);
        assert_eq!(t.pages_per_host, 1);
        assert_eq!(t.refs_per_core, 2_000);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = FuzzSpec::from_draw(1, 8, 30, 40, 0xfee1, 3_000);
        let collect = |spec: &FuzzSpec| {
            let mut cfg = SystemConfig::default();
            spec.streams(&mut cfg)
                .into_iter()
                .map(|mut s| {
                    let mut v = Vec::new();
                    while let Some(r) = s.next_record() {
                        v.push(r);
                    }
                    v
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(&spec), collect(&spec));
        let other = FuzzSpec {
            seed: 0xfee2,
            ..spec
        };
        assert_ne!(collect(&spec), collect(&other));
    }

    proptest! {
        // Every draw lowers to runnable streams whose shared addresses
        // stay inside the fuzzed footprint.
        #[test]
        fn any_draw_is_runnable(
            pat in 0u64..16,
            pages in 0u64..100_000,
            wr in 0u64..200,
            hot in 0u64..200,
            seed in 0u64..u64::MAX,
        ) {
            let spec = FuzzSpec::from_draw(pat, pages, wr, hot, seed, 0);
            let mut cfg = SystemConfig::default();
            let mut streams = spec.streams(&mut cfg);
            prop_assert_eq!(streams.len(), cfg.total_cores());
            let mut n = 0u64;
            while let Some(r) = streams[0].next_record() {
                if r.addr.is_shared(&cfg) {
                    prop_assert!(r.addr.raw() < cfg.shared_bytes);
                }
                n += 1;
                if n == 500 {
                    break;
                }
            }
            prop_assert_eq!(n, 500);
        }
    }
}
