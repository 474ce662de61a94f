//! Rack-scale topology: end-to-end integration locks.
//!
//! Three contracts (DESIGN.md "Rack-scale topology"):
//!
//! 1. Multi-device and switched topologies actually route traffic —
//!    every device plane sees messages, and a switched graph accrues
//!    switch hops — under every scheme; the switch's forward latency
//!    costs cycles.
//! 2. Rack runs are deterministic: same seed ⇒ bit-identical
//!    `SystemStats`.
//! 3. Racks compose with checkpoint/fork: on a multi-device and on a
//!    switched rack, a warm prefix and a cloned fork of it each resume
//!    to statistics bit-identical to an uninterrupted run, and a fork
//!    resumed under a link delta matches the unforked delta'd run.
//!
//! Every rack has the default four hosts.

use pipm_core::{CfgDelta, System};
use pipm_types::{SchemeKind, SystemConfig, SystemStats, TopologySpec};
use pipm_workloads::{Workload, WorkloadParams};

const REFS_PER_CORE: u64 = 5_000;
const SEED: u64 = 23;

fn params() -> WorkloadParams {
    WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    }
}

fn rack(topology: TopologySpec) -> SystemConfig {
    SystemConfig {
        topology,
        ..SystemConfig::default()
    }
}

fn run_with_topology(w: Workload, scheme: SchemeKind, topo: TopologySpec) -> SystemStats {
    let mut cfg = rack(topo);
    let streams = w.streams(&mut cfg, &params());
    System::new(cfg, scheme).run(streams, REFS_PER_CORE)
}

#[test]
fn multi_device_topology_spreads_traffic_across_planes() {
    for &scheme in SchemeKind::ALL.iter() {
        let stats = run_with_topology(Workload::Bfs, scheme, TopologySpec::multi_headed(2));
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
        let stats = run_with_topology(Workload::Ycsb, scheme, TopologySpec::switched(2, 30.0));
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
        TopologySpec::multi_headed(2),
    );
    let switched = run_with_topology(
        Workload::Bfs,
        SchemeKind::Native,
        TopologySpec::switched(2, 200.0),
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
            TopologySpec::multi_headed(2),
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identically");
}

/// Runs `w` under `scheme` on `topo` three ways — uninterrupted, as a
/// warm prefix resumed in place, and as a cloned fork of that prefix —
/// and asserts all three yield bit-identical statistics. A second fork
/// resumes under a link delta and must match [`System::run_with_delta`].
///
/// `tests/checkpoint.rs` forks on the single-device rack only; these
/// cover a multi-device plane split and a switched fabric.
fn assert_checkpoint_fork_matches(w: Workload, scheme: SchemeKind, topo: TopologySpec) {
    let uninterrupted = run_with_topology(w, scheme, topo);

    let mut cfg = rack(topo);
    let streams = w.streams(&mut cfg, &params());
    let prefix = (cfg.warmup_fraction * (REFS_PER_CORE * cfg.total_cores() as u64) as f64) as u64;
    let delta = CfgDelta {
        link_latency_ns: Some(100.0),
        link_gbps: Some(4.0),
        ..CfgDelta::default()
    };
    let delta_reference = {
        let mut cfg = cfg.clone();
        let streams = w.streams(&mut cfg, &params());
        System::new(cfg, scheme).run_with_delta(streams, REFS_PER_CORE, prefix, &delta)
    };
    let ckpt = System::new(cfg, scheme).run_prefix(streams, REFS_PER_CORE, prefix);
    let fork = ckpt.clone();
    let delta_fork = ckpt.clone();
    assert_eq!(
        ckpt.resume(),
        uninterrupted,
        "{w:?}/{scheme:?}: checkpoint round-trip must be invisible"
    );
    assert_eq!(
        fork.resume(),
        uninterrupted,
        "{w:?}/{scheme:?}: a forked checkpoint must resume identically"
    );
    let delta_resumed = delta_fork.resume_with(&delta);
    assert_ne!(
        delta_resumed, uninterrupted,
        "{w:?}/{scheme:?}: the link delta must change the run"
    );
    assert_eq!(
        delta_resumed, delta_reference,
        "{w:?}/{scheme:?}: a fork resumed under a link delta must match the unforked run"
    );
}

#[test]
fn phased_checkpoint_fork_matches_uninterrupted_run() {
    // Multi-device rack under PIPM, whose partial/incremental migration
    // state (remap tables, votes) must survive the checkpoint.
    assert_checkpoint_fork_matches(
        Workload::Pr,
        SchemeKind::Pipm,
        TopologySpec::multi_headed(2),
    );
}

#[test]
fn tenant_checkpoint_fork_matches_uninterrupted_run() {
    // Switched rack under Memtis, whose sampled hotness state must
    // survive the checkpoint.
    assert_checkpoint_fork_matches(
        Workload::Ycsb,
        SchemeKind::Memtis,
        TopologySpec::switched(2, 25.0),
    );
}
