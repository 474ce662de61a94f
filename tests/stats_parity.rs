//! Golden stats-parity lock for the hot-path data-structure swap.
//!
//! The flat page/line tables and hasher swap (PR 4) must be *behavior
//! preserving*: every simulated cycle, access classification, and
//! migration counter has to come out bit-identical to the hash-map
//! implementation they replaced. These tests pin a fingerprint of the
//! full [`SystemStats`] for a small Fig. 10-style job under all eight
//! schemes (captured from the pre-swap simulator) and assert the current
//! code still produces exactly those statistics — serially and across
//! `par_map` worker counts (the `PIPM_WORKERS` fan-out path).

use pipm_core::{par_map, run_one, RunResult};
use pipm_types::{SchemeKind, SystemConfig, SystemStats};
use pipm_workloads::{Workload, WorkloadParams};

/// FNV-1a over a canonical little-endian encoding of every counter in
/// [`SystemStats`]. Field order is fixed by this function, so the
/// fingerprint is stable as long as the statistics themselves are.
fn fingerprint(stats: &SystemStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    put(stats.cores.len() as u64);
    for c in &stats.cores {
        put(c.instructions);
        put(c.cycles);
        put(c.mem_refs);
        for v in c.class_count {
            put(v);
        }
        for v in c.class_latency {
            put(v);
        }
        for v in c.class_stall {
            put(v);
        }
        put(c.mgmt_stall);
        put(c.transfer_stall);
    }
    let m = &stats.migration;
    put(m.pages_promoted);
    put(m.pages_demoted);
    put(m.lines_migrated_in);
    put(m.lines_migrated_back);
    put(m.transfer_bytes);
    put(m.harmful_promotions);
    put(m.evaluated_promotions);
    for &v in &m.peak_resident_pages {
        put(v);
    }
    for &v in &m.peak_resident_lines {
        put(v);
    }
    put(stats.local_remap_hits);
    put(stats.local_remap_misses);
    put(stats.global_remap_hits);
    put(stats.global_remap_misses);
    put(stats.directory_recalls);
    h
}

const REFS_PER_CORE: u64 = 20_000;
const SEED: u64 = 7;

/// The parity matrix: one graph workload and one database workload under
/// every scheme — together they exercise the native directory path, the
/// kernel promotion/demotion machinery, PIPM's two-level remap tables,
/// and HW-static's swap-on-access.
const WORKLOADS: [Workload; 2] = [Workload::Bfs, Workload::Ycsb];

/// Golden fingerprints captured from the pre-swap simulator (commit
/// e49a82c), in `WORKLOADS` × `SchemeKind::ALL` order. Regenerate with
/// `cargo test -q -p pipm-integration-tests --release --test stats_parity \
/// -- --ignored --nocapture` only when simulation behavior is
/// *intentionally* changed.
const GOLDEN: [(Workload, SchemeKind, u64); 16] = [
    (Workload::Bfs, SchemeKind::Native, 0xdb3f67f4b208b98e),
    (Workload::Bfs, SchemeKind::Nomad, 0x69bd9cc1c07993ee),
    (Workload::Bfs, SchemeKind::Memtis, 0x4d650bf4cb557ae6),
    (Workload::Bfs, SchemeKind::Hemem, 0x4d650bf4cb557ae6),
    (Workload::Bfs, SchemeKind::OsSkew, 0x14269e096c9d66b2),
    (Workload::Bfs, SchemeKind::HwStatic, 0x82b5df7377cf82bd),
    (Workload::Bfs, SchemeKind::Pipm, 0x81874eaa3aa8f629),
    (Workload::Bfs, SchemeKind::LocalOnly, 0x2016e902f6fca027),
    (Workload::Ycsb, SchemeKind::Native, 0x54e49dd68dcad74f),
    (Workload::Ycsb, SchemeKind::Nomad, 0x7f33772db4ebae9d),
    (Workload::Ycsb, SchemeKind::Memtis, 0x1c078f4de87ae292),
    (Workload::Ycsb, SchemeKind::Hemem, 0x1c078f4de87ae292),
    (Workload::Ycsb, SchemeKind::OsSkew, 0x8ec0d660842c0a52),
    (Workload::Ycsb, SchemeKind::HwStatic, 0xff51f60d6a72240a),
    (Workload::Ycsb, SchemeKind::Pipm, 0xca81ba165e1515bd),
    (Workload::Ycsb, SchemeKind::LocalOnly, 0xa327122b07484555),
];

fn jobs() -> Vec<(Workload, SchemeKind, SystemConfig, WorkloadParams)> {
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    WORKLOADS
        .iter()
        .flat_map(|&w| {
            SchemeKind::ALL
                .iter()
                .map(move |&s| (w, s, SystemConfig::experiment_scale(), params))
        })
        .collect()
}

#[test]
fn golden_fingerprints_all_schemes() {
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    for (w, s, want) in GOLDEN {
        let r = run_one(w, s, SystemConfig::experiment_scale(), &params);
        assert_eq!(
            fingerprint(&r.stats),
            want,
            "{w} under {s}: SystemStats diverged from the pre-swap golden \
             (the data-structure swap must be behavior-preserving)"
        );
    }
}

#[test]
fn parity_across_worker_counts() {
    // The same matrix through par_map at every PIPM_WORKERS setting the
    // harness uses: 1 (serial path), 2, and 8 (more threads than jobs per
    // scheme). All must be bit-identical to serial run_one.
    let jobs = jobs();
    let serial: Vec<RunResult> = jobs
        .iter()
        .map(|(w, s, cfg, p)| run_one(*w, *s, cfg.clone(), p))
        .collect();
    for workers in [1usize, 2, 8] {
        let par = par_map(&jobs, workers, |(w, s, cfg, p)| {
            run_one(*w, *s, cfg.clone(), p)
        });
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(
                a.stats, b.stats,
                "{} {}: workers={workers} diverged from serial",
                a.workload, a.scheme
            );
        }
    }
}

#[test]
fn golden_fingerprints_with_explicit_single_device_topology() {
    // A declared single-device topology must be indistinguishable from
    // the implicit default: the `Topology` engine's one-plane fast path
    // has to reproduce the committed goldens bit-for-bit.
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    for (w, s, want) in GOLDEN {
        let mut cfg = SystemConfig::experiment_scale();
        let hosts = cfg.hosts;
        cfg.apply_topology(pipm_types::TopologySpec::single_device(hosts));
        let r = run_one(w, s, cfg, &params);
        assert_eq!(
            fingerprint(&r.stats),
            want,
            "{w} under {s}: explicit single-device topology diverged from \
             the default-fabric golden"
        );
    }
}

/// Regenerates the golden table. Ignored: run manually when simulation
/// behavior changes intentionally, then paste the output into `GOLDEN`.
#[test]
#[ignore]
fn print_golden_fingerprints() {
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    for w in WORKLOADS {
        for s in SchemeKind::ALL {
            let r = run_one(w, s, SystemConfig::experiment_scale(), &params);
            println!(
                "    (Workload::{w:?}, SchemeKind::{s:?}, {:#018x}),",
                fingerprint(&r.stats)
            );
        }
    }
}
