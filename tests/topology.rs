//! Rack-scale topology + multi-tenant phased workloads: end-to-end
//! integration locks.
//!
//! Three contracts (DESIGN.md "Rack-scale topology & multi-tenant
//! workloads"):
//!
//! 1. Multi-device and switched topologies actually route traffic —
//!    every device plane sees messages, and a switched graph accrues
//!    switch hops — under every scheme.
//! 2. Phased and multi-tenant workload streams are deterministic: same
//!    seed ⇒ bit-identical `SystemStats`, independent of worker fan-out.
//! 3. Both compose with checkpoint/fork: a forked warm prefix resumes to
//!    statistics bit-identical to an uninterrupted run.

use pipm_core::System;
use pipm_types::{SchemeKind, SystemConfig, SystemStats, TopologySpec};
use pipm_workloads::{PhasedWorkload, TenantMix, Workload, WorkloadParams};

const REFS_PER_CORE: u64 = 5_000;
const SEED: u64 = 23;

fn params() -> WorkloadParams {
    WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    }
}

fn run_with_topology(w: Workload, scheme: SchemeKind, topo: TopologySpec) -> SystemStats {
    let mut cfg = SystemConfig::default();
    cfg.apply_topology(topo);
    let streams = w.streams(&mut cfg, &params());
    System::new(cfg, scheme).run(streams, REFS_PER_CORE)
}

#[test]
fn multi_device_topology_spreads_traffic_across_planes() {
    for &scheme in SchemeKind::ALL.iter() {
        let stats = run_with_topology(Workload::Bfs, scheme, TopologySpec::multi_headed(4, 2));
        assert_eq!(stats.fabric.device_messages.len(), 2, "{scheme:?}");
        assert_eq!(stats.fabric.switch_hops, 0, "{scheme:?}: direct attach");
        if scheme == SchemeKind::LocalOnly {
            // The local-only bound never leaves the host — no fabric
            // traffic at all is the correct answer.
            assert!(stats.fabric.device_messages.iter().all(|&m| m == 0));
            continue;
        }
        // Pages interleave across devices, so with thousands of shared
        // references both planes must carry traffic.
        assert!(
            stats.fabric.device_messages.iter().all(|&m| m > 0),
            "{scheme:?}: every device plane should see messages, got {:?}",
            stats.fabric.device_messages
        );
        assert!(
            stats.fabric.device_bytes.iter().all(|&b| b > 0),
            "{scheme:?}"
        );
    }
}

#[test]
fn switched_topology_accrues_switch_hops() {
    // Acceptance lock: a 2-device + 1-switch rack produces nonzero
    // inter-device hop counts (every host→device message crosses the
    // switch) and still distributes traffic to both devices.
    for &scheme in &[SchemeKind::Native, SchemeKind::Memtis, SchemeKind::Pipm] {
        let stats = run_with_topology(Workload::Ycsb, scheme, TopologySpec::switched(4, 2, 30.0));
        assert!(
            stats.fabric.switch_hops > 0,
            "{scheme:?}: switched topology must count hops"
        );
        assert!(
            stats.fabric.device_messages.iter().all(|&m| m > 0),
            "{scheme:?}: {:?}",
            stats.fabric.device_messages
        );
    }
}

#[test]
fn switched_latency_slows_execution() {
    // The switch's forward latency is on every fabric round trip, so the
    // same workload must take strictly longer than on a direct-attached
    // rack with the same link parameters.
    let direct = run_with_topology(
        Workload::Bfs,
        SchemeKind::Native,
        TopologySpec::multi_headed(4, 2),
    );
    let switched = run_with_topology(
        Workload::Bfs,
        SchemeKind::Native,
        TopologySpec::switched(4, 2, 200.0),
    );
    assert!(
        switched.exec_cycles() > direct.exec_cycles(),
        "switch forward latency must cost cycles: direct={} switched={}",
        direct.exec_cycles(),
        switched.exec_cycles()
    );
}

#[test]
fn multi_device_runs_are_deterministic() {
    let run = || {
        run_with_topology(
            Workload::Bfs,
            SchemeKind::Pipm,
            TopologySpec::multi_headed(4, 2),
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identically");
}

// ── Phased workloads ────────────────────────────────────────────────

fn run_phased(scheme: SchemeKind, topo: TopologySpec) -> SystemStats {
    let mut cfg = SystemConfig::default();
    cfg.apply_topology(topo);
    let streams = PhasedWorkload::standard(Workload::Pr).streams(&mut cfg, &params());
    System::new(cfg, scheme).run(streams, REFS_PER_CORE)
}

#[test]
fn phased_runs_are_deterministic() {
    let base = run_phased(SchemeKind::Pipm, TopologySpec::single_device(4));
    let again = run_phased(SchemeKind::Pipm, TopologySpec::single_device(4));
    assert_eq!(base, again, "same seed must reproduce bit-identically");
}

#[test]
fn phased_checkpoint_fork_matches_uninterrupted_run() {
    let topo = TopologySpec::multi_headed(4, 2);
    let uninterrupted = run_phased(SchemeKind::Pipm, topo.clone());

    let mut cfg = SystemConfig::default();
    cfg.apply_topology(topo);
    let streams = PhasedWorkload::standard(Workload::Pr).streams(&mut cfg, &params());
    let prefix = (cfg.warmup_fraction * (REFS_PER_CORE * cfg.total_cores() as u64) as f64) as u64;
    let ckpt = System::new(cfg, SchemeKind::Pipm).run_prefix(streams, REFS_PER_CORE, prefix);
    let fork = ckpt.clone();
    assert_eq!(
        ckpt.resume(),
        uninterrupted,
        "checkpoint round-trip must be invisible for phased streams"
    );
    assert_eq!(
        fork.resume(),
        uninterrupted,
        "a forked checkpoint must resume identically"
    );
}

// ── Multi-tenant mixes ──────────────────────────────────────────────

fn run_tenants(scheme: SchemeKind, topo: TopologySpec) -> SystemStats {
    let mut cfg = SystemConfig::default();
    cfg.apply_topology(topo);
    let streams = TenantMix::graph_plus_db().streams(&mut cfg, &params());
    System::new(cfg, scheme).run(streams, REFS_PER_CORE)
}

#[test]
fn tenant_mix_runs_deterministically_on_a_rack() {
    let topo = TopologySpec::switched(4, 2, 25.0);
    let a = run_tenants(SchemeKind::Pipm, topo.clone());
    let b = run_tenants(SchemeKind::Pipm, topo);
    assert_eq!(a, b, "tenant mixes must be deterministic");
    assert!(a.fabric.switch_hops > 0);
    assert!(a.fabric.device_messages.iter().all(|&m| m > 0));
}

#[test]
fn tenant_checkpoint_fork_matches_uninterrupted_run() {
    let uninterrupted = run_tenants(SchemeKind::Memtis, TopologySpec::single_device(4));

    let mut cfg = SystemConfig::default();
    cfg.apply_topology(TopologySpec::single_device(4));
    let streams = TenantMix::graph_plus_db().streams(&mut cfg, &params());
    let prefix = (cfg.warmup_fraction * (REFS_PER_CORE * cfg.total_cores() as u64) as f64) as u64;
    let ckpt = System::new(cfg, SchemeKind::Memtis).run_prefix(streams, REFS_PER_CORE, prefix);
    let fork = ckpt.clone();
    assert_eq!(ckpt.resume(), uninterrupted);
    assert_eq!(fork.resume(), uninterrupted);
}
