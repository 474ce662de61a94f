//! # PIPM: Partial and Incremental Page Migration for multi-host CXL-DSM
//!
//! A full reproduction of the PIPM system (ASPLOS '26): a hardware
//! mechanism that transparently migrates *individual cache lines* of hot
//! pages from CXL disaggregated shared memory into a host's local DRAM —
//! partially (only the lines that host actually uses) and incrementally
//! (riding on ordinary cache fills and evictions, with no bulk copies) —
//! while keeping the data coherently accessible to every other host.
//!
//! This crate provides:
//!
//! * [`remap`] — the global/local remapping tables and their on-die
//!   caches, including the Boyer–Moore majority-vote migration policy
//!   (paper §4.2, §4.4);
//! * [`harm`] — the harmful-migration classifier behind Figure 5;
//! * [`System`] — a deterministic, trace-driven, multi-host full-system
//!   timing simulator implementing Native CXL-DSM, four kernel-migration
//!   baselines (Nomad, Memtis, HeMem, OS-skew), HW-static (Intel Flat
//!   Mode analogue), PIPM itself, and the Local-only upper bound;
//! * [`run_one`] / [`run_schemes`] — one-call experiment runners;
//! * [`job_key`] and [`Runner`] — the content address of a job (a full
//!   run or a checkpointed sweep point) and the one path that computes
//!   it, shared by the figure harness and the `pipm-serve` daemon.
//!
//! The pure PIPM coherence protocol specification (states ME and I′,
//! transition cases ①–⑥) lives in [`pipm_coherence::proto`] and is
//! verified exhaustively by the `pipm-mcheck` model checker.
//!
//! # Quickstart
//!
//! ```
//! use pipm_core::run_one;
//! use pipm_types::{SchemeKind, SystemConfig};
//! use pipm_workloads::{Workload, WorkloadParams};
//!
//! let params = WorkloadParams { refs_per_core: 3_000, seed: 7 };
//! let native = run_one(Workload::Pr, SchemeKind::Native, SystemConfig::default(), &params);
//! let pipm = run_one(Workload::Pr, SchemeKind::Pipm, SystemConfig::default(), &params);
//! // PIPM converts remote CXL accesses into local DRAM hits.
//! assert!(pipm.local_hit_rate() >= native.local_hit_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod harm;
mod oracle;
pub mod remap;
mod runner;
mod system;

pub use cache::{
    fingerprint64, job_key, sweep_prefix, RunCache, RunCacheStats, MODEL_VERSION,
    SWEEP_WARMUP_FRACTION,
};
pub use harm::HarmTracker;
pub use oracle::OracleViolation;
pub use remap::{GlobalEntry, GlobalRemap, LocalEntry, LocalRemap, LookupResult};
pub use runner::{
    effective_workers, par_map, resume_one, run_one, run_one_with_delta, run_prefix_one,
    run_schemes, run_spec_one, RunResult, Runner, RunnerStats, SpecRunResult,
};
pub use system::{CfgDelta, Checkpoint, HarnessReport, System};

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::{AccessClass, SchemeKind, SystemConfig};
    use pipm_workloads::{Workload, WorkloadParams};

    fn quick_params() -> WorkloadParams {
        WorkloadParams {
            refs_per_core: 30_000,
            seed: 11,
        }
    }

    /// The experiment-scale hierarchy (DESIGN.md §4): cache capacities are
    /// scaled with the 1/256 footprint scaling so short runs exercise LLC
    /// evictions and data placement, as the paper's full-scale runs do.
    fn small_cfg() -> SystemConfig {
        SystemConfig::experiment_scale()
    }

    #[test]
    fn native_run_produces_remote_traffic() {
        let r = run_one(
            Workload::Pr,
            SchemeKind::Native,
            SystemConfig::default(),
            &quick_params(),
        );
        assert!(r.stats.class_total(AccessClass::CxlDram) > 0);
        assert_eq!(
            r.stats.class_total(AccessClass::LocalShared),
            0,
            "native never serves shared data locally"
        );
    }

    #[test]
    fn ideal_run_is_all_local() {
        let r = run_one(
            Workload::Pr,
            SchemeKind::LocalOnly,
            SystemConfig::default(),
            &quick_params(),
        );
        assert_eq!(r.stats.class_total(AccessClass::CxlDram), 0);
        assert_eq!(r.stats.class_total(AccessClass::InterHost), 0);
        assert!(r.stats.class_total(AccessClass::LocalShared) > 0);
    }

    #[test]
    fn pipm_migrates_lines_and_hits_locally() {
        let r = run_one(Workload::Pr, SchemeKind::Pipm, small_cfg(), &quick_params());
        assert!(r.stats.migration.pages_promoted > 0, "vote must fire");
        assert!(
            r.stats.migration.lines_migrated_in > 0,
            "incremental migration"
        );
        assert!(
            r.stats.class_total(AccessClass::LocalShared) > 0,
            "migrated lines must serve locally"
        );
    }

    #[test]
    fn pipm_faster_than_native_on_high_affinity_workload() {
        // Needs PIPM's steady state: short traces are dominated by cold
        // global-remap-cache misses, each of which now stalls on the
        // device-DRAM table walk (the Fig. 17 cost).
        let params = WorkloadParams {
            refs_per_core: 120_000,
            seed: 5,
        };
        let native = run_one(Workload::Pr, SchemeKind::Native, small_cfg(), &params);
        let pipm = run_one(Workload::Pr, SchemeKind::Pipm, small_cfg(), &params);
        let speedup = pipm.speedup_over(&native);
        assert!(speedup > 1.0, "PIPM speedup over native was {speedup:.3}");
    }

    #[test]
    fn ideal_is_upper_bound() {
        let params = quick_params();
        let ideal = run_one(
            Workload::Bfs,
            SchemeKind::LocalOnly,
            SystemConfig::default(),
            &params,
        );
        let native = run_one(
            Workload::Bfs,
            SchemeKind::Native,
            SystemConfig::default(),
            &params,
        );
        let pipm = run_one(
            Workload::Bfs,
            SchemeKind::Pipm,
            SystemConfig::default(),
            &params,
        );
        assert!(ideal.exec_cycles() <= native.exec_cycles());
        assert!(ideal.exec_cycles() <= pipm.exec_cycles());
    }

    #[test]
    fn kernel_scheme_migrates_and_tracks_harm() {
        let r = run_one(
            Workload::Bfs,
            SchemeKind::Memtis,
            small_cfg(),
            &quick_params(),
        );
        assert!(r.stats.migration.pages_promoted > 0, "memtis must promote");
        assert!(r.stats.total_mgmt_stall() > 0, "kernel costs charged");
    }

    #[test]
    fn kernel_scheme_produces_interhost_accesses() {
        let r = run_one(
            Workload::Ycsb,
            SchemeKind::Memtis,
            small_cfg(),
            &quick_params(),
        );
        assert!(
            r.stats.class_total(AccessClass::InterHost) > 0,
            "migrated pages accessed by other hosts must go inter-host"
        );
    }

    #[test]
    fn hw_static_uses_quarter_mapping() {
        let r = run_one(
            Workload::Pr,
            SchemeKind::HwStatic,
            small_cfg(),
            &quick_params(),
        );
        assert!(r.stats.migration.lines_migrated_in > 0);
        let local = r.local_hit_rate();
        assert!(
            local < 0.6,
            "static interleaving cannot adapt; local rate was {local:.2}"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let a = run_one(
            Workload::Tpcc,
            SchemeKind::Pipm,
            small_cfg(),
            &quick_params(),
        );
        let b = run_one(
            Workload::Tpcc,
            SchemeKind::Pipm,
            small_cfg(),
            &quick_params(),
        );
        assert_eq!(a.exec_cycles(), b.exec_cycles());
        assert_eq!(
            a.stats.migration.lines_migrated_in,
            b.stats.migration.lines_migrated_in
        );
    }

    #[test]
    fn remap_cache_stats_collected_for_pipm() {
        let r = run_one(
            Workload::Sssp,
            SchemeKind::Pipm,
            small_cfg(),
            &quick_params(),
        );
        assert!(r.stats.local_remap_hits + r.stats.local_remap_misses > 0);
        assert!(r.stats.global_remap_hits + r.stats.global_remap_misses > 0);
    }

    #[test]
    fn consistency_holds_under_directory_pressure() {
        // Failure injection: a tiny device directory forces recalls; the
        // cross-structure invariants must still hold at the end.
        let mut cfg = small_cfg();
        cfg.directory.sets_per_slice = 16;
        cfg.directory.slices = 1;
        cfg.directory.ways = 4;
        let params = WorkloadParams {
            refs_per_core: 20_000,
            seed: 13,
        };
        for scheme in [SchemeKind::Native, SchemeKind::Pipm] {
            let mut wcfg = cfg.clone();
            let streams = Workload::Bfs.streams(&mut wcfg, &params);
            let mut sys = System::new(wcfg, scheme);
            let stats = sys.run(streams, params.refs_per_core);
            assert!(stats.directory_recalls > 0, "{scheme}: recalls expected");
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn consistency_holds_after_normal_runs() {
        let params = WorkloadParams {
            refs_per_core: 15_000,
            seed: 4,
        };
        for scheme in [SchemeKind::Pipm, SchemeKind::Memtis, SchemeKind::HwStatic] {
            let mut cfg = small_cfg();
            let streams = Workload::Canneal.streams(&mut cfg, &params);
            let mut sys = System::new(cfg, scheme);
            let _ = sys.run(streams, params.refs_per_core);
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn sector_migration_pulls_neighbours() {
        let params = WorkloadParams {
            refs_per_core: 20_000,
            seed: 8,
        };
        let mut cfg1 = small_cfg();
        cfg1.pipm.sector_lines = 1;
        let base = run_one(Workload::Pr, SchemeKind::Pipm, cfg1, &params);
        let mut cfg4 = small_cfg();
        cfg4.pipm.sector_lines = 4;
        let sect = run_one(Workload::Pr, SchemeKind::Pipm, cfg4, &params);
        assert!(
            sect.stats.migration.lines_migrated_in > base.stats.migration.lines_migrated_in,
            "sector migration must move more lines ({} vs {})",
            sect.stats.migration.lines_migrated_in,
            base.stats.migration.lines_migrated_in
        );
        assert!(
            sect.stats.migration.transfer_bytes > base.stats.migration.transfer_bytes,
            "sector migration pays data transfers"
        );
    }

    #[test]
    fn run_schemes_convenience() {
        let rs = run_schemes(
            Workload::Canneal,
            &[SchemeKind::Native, SchemeKind::Pipm],
            &SystemConfig::default(),
            &WorkloadParams {
                refs_per_core: 5_000,
                seed: 2,
            },
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].scheme, SchemeKind::Native);
        assert_eq!(rs[1].scheme, SchemeKind::Pipm);
    }
}
