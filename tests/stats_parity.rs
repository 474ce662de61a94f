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
//!
//! A second table, [`GOLDEN_PATHS`], locks the paths those default-config
//! jobs never reach — the switched fabric, sector migration and device
//! directory recalls — and asserts that each variant really takes its
//! path, so a refactor of the miss, eviction and recall code cannot drift
//! unnoticed there either.
//!
//! A third table, [`GOLDEN_KERNEL`], locks kernel page migration where
//! it actually demotes: the [`GOLDEN`] jobs promote a few dozen pages and
//! never demote one, so a short interval and an 8-page local capacity
//! drive idle demotions, capacity evictions and a full local memory.

use pipm_core::{par_map, run_one, RunResult, MODEL_VERSION};
use pipm_types::{SchemeKind, SystemConfig, SystemStats};
use pipm_workloads::{Workload, WorkloadParams};

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Feeds a canonical encoding of every core, migration, remap and
/// directory counter in [`SystemStats`] into `h`. Field order is fixed by
/// this function, so a fingerprint is stable as long as the statistics
/// themselves are.
fn hash_stats(h: &mut Fnv, stats: &SystemStats) {
    h.put(stats.cores.len() as u64);
    for c in &stats.cores {
        h.put(c.instructions);
        h.put(c.cycles);
        h.put(c.mem_refs);
        for v in c.class_count {
            h.put(v);
        }
        for v in c.class_latency {
            h.put(v);
        }
        for v in c.class_stall {
            h.put(v);
        }
        h.put(c.mgmt_stall);
        h.put(c.transfer_stall);
    }
    let m = &stats.migration;
    h.put(m.pages_promoted);
    h.put(m.pages_demoted);
    h.put(m.lines_migrated_in);
    h.put(m.lines_migrated_back);
    h.put(m.transfer_bytes);
    h.put(m.harmful_promotions);
    h.put(m.evaluated_promotions);
    for &v in &m.peak_resident_pages {
        h.put(v);
    }
    for &v in &m.peak_resident_lines {
        h.put(v);
    }
    h.put(stats.local_remap_hits);
    h.put(stats.local_remap_misses);
    h.put(stats.global_remap_hits);
    h.put(stats.global_remap_misses);
    h.put(stats.directory_recalls);
}

/// The fingerprint behind [`GOLDEN`]: every counter except the fabric's.
fn fingerprint(stats: &SystemStats) -> u64 {
    let mut h = Fnv::new();
    hash_stats(&mut h, stats);
    h.0
}

/// The fingerprint behind [`GOLDEN_PATHS`]: [`fingerprint`]'s counters
/// plus the fabric's switch hops and per-device traffic.
fn fingerprint_with_fabric(stats: &SystemStats) -> u64 {
    let mut h = Fnv::new();
    hash_stats(&mut h, stats);
    h.put(stats.fabric.switch_hops);
    for &v in &stats.fabric.device_messages {
        h.put(v);
    }
    for &v in &stats.fabric.device_bytes {
        h.put(v);
    }
    h.0
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
        let cfg = SystemConfig {
            topology: pipm_types::TopologySpec::multi_headed(1),
            ..SystemConfig::experiment_scale()
        };
        let r = run_one(w, s, cfg, &params);
        assert_eq!(
            fingerprint(&r.stats),
            want,
            "{w} under {s}: explicit single-device topology diverged from \
             the default-fabric golden"
        );
    }
}

/// A configuration that drives a path the default configuration never
/// reaches: with `experiment_scale()` every [`GOLDEN`] job runs without a
/// directory recall, a switch hop, a sector neighbour or PIPM migration
/// queueing, so those paths need their own lock.
#[derive(Clone, Copy, Debug)]
enum PathVariant {
    /// Four hosts behind one switch reaching two devices.
    Switched,
    /// PIPM pulls three spatial neighbours with every migrated line.
    Sector4,
    /// A 64-entry device directory that recalls under capacity pressure.
    TinyDirectory,
}

const PATH_VARIANTS: [PathVariant; 3] = [
    PathVariant::Switched,
    PathVariant::Sector4,
    PathVariant::TinyDirectory,
];

/// The schemes [`GOLDEN_PATHS`] covers: the native directory, kernel
/// migration, PIPM and HW-static's swap-on-access.
const PATH_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Native,
    SchemeKind::Nomad,
    SchemeKind::Pipm,
    SchemeKind::HwStatic,
];

fn variant_config(v: PathVariant) -> SystemConfig {
    let mut cfg = SystemConfig::experiment_scale();
    match v {
        PathVariant::Switched => {
            cfg.topology = pipm_types::TopologySpec::switched(2, 30.0);
        }
        PathVariant::Sector4 => cfg.pipm.sector_lines = 4,
        PathVariant::TinyDirectory => {
            cfg.directory.sets_per_slice = 16;
            cfg.directory.slices = 1;
            cfg.directory.ways = 4;
        }
    }
    cfg
}

/// One path variant's golden fingerprints, in `WORKLOADS` × `PATH_SCHEMES`
/// order.
type PathTable = [(Workload, SchemeKind, u64); 8];

/// Golden [`fingerprint_with_fabric`] values for the path variants,
/// captured before the miss, eviction and recall paths were folded into
/// one helper per protocol step. Regenerate with `cargo test -q -p
/// pipm-integration-tests --release --test stats_parity -- --ignored
/// --nocapture` only when simulation behavior is *intentionally* changed.
const GOLDEN_PATHS: [(PathVariant, &PathTable); 3] = [
    (PathVariant::Switched, &GOLDEN_SWITCHED),
    (PathVariant::Sector4, &GOLDEN_SECTOR4),
    (PathVariant::TinyDirectory, &GOLDEN_TINY_DIRECTORY),
];

const GOLDEN_SWITCHED: PathTable = [
    (Workload::Bfs, SchemeKind::Native, 0x1db37dfc2e31bc53),
    (Workload::Bfs, SchemeKind::Nomad, 0xc22ca958abe41d36),
    (Workload::Bfs, SchemeKind::Pipm, 0x7665ada74aaf6b22),
    (Workload::Bfs, SchemeKind::HwStatic, 0xd7f54cccd5a46c55),
    (Workload::Ycsb, SchemeKind::Native, 0xf4ad370fa7e689d2),
    (Workload::Ycsb, SchemeKind::Nomad, 0x9558dda51b97ce56),
    (Workload::Ycsb, SchemeKind::Pipm, 0x2864811a4547d056),
    (Workload::Ycsb, SchemeKind::HwStatic, 0xc55f3edc134f10bb),
];

const GOLDEN_SECTOR4: PathTable = [
    (Workload::Bfs, SchemeKind::Native, 0xdbcce9905df2b895),
    (Workload::Bfs, SchemeKind::Nomad, 0x5e5ea71458b20e26),
    (Workload::Bfs, SchemeKind::Pipm, 0x388edf11a3539fc7),
    (Workload::Bfs, SchemeKind::HwStatic, 0x5ce188b80b743675),
    (Workload::Ycsb, SchemeKind::Native, 0x2b7534adad52f704),
    (Workload::Ycsb, SchemeKind::Nomad, 0x6c30fe95c452fd6a),
    (Workload::Ycsb, SchemeKind::Pipm, 0x54489ac5b061740b),
    (Workload::Ycsb, SchemeKind::HwStatic, 0x3081a222ed5843f9),
];

const GOLDEN_TINY_DIRECTORY: PathTable = [
    (Workload::Bfs, SchemeKind::Native, 0xbada3900a4f331b3),
    (Workload::Bfs, SchemeKind::Nomad, 0x4802e26e04c048ff),
    (Workload::Bfs, SchemeKind::Pipm, 0x7654869aba42e479),
    (Workload::Bfs, SchemeKind::HwStatic, 0x722d9eace7625bd3),
    (Workload::Ycsb, SchemeKind::Native, 0x744bd7d1d69f0038),
    (Workload::Ycsb, SchemeKind::Nomad, 0xb0690045f369eabb),
    (Workload::Ycsb, SchemeKind::Pipm, 0x4e703dec44e237a0),
    (Workload::Ycsb, SchemeKind::HwStatic, 0x95bcc3a14e3d8b74),
];

#[test]
fn golden_fingerprints_rare_paths() {
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    for (v, table) in GOLDEN_PATHS {
        for &(w, s, want) in table {
            let stats = run_one(w, s, variant_config(v), &params).stats;
            match v {
                PathVariant::Switched => assert!(
                    stats.fabric.switch_hops > 0,
                    "{w} under {s}: the switched topology never crossed the switch"
                ),
                PathVariant::Sector4 if matches!(s, SchemeKind::Pipm | SchemeKind::HwStatic) => {
                    let single = run_one(w, s, SystemConfig::experiment_scale(), &params).stats;
                    assert!(
                        stats.migration.lines_migrated_in > single.migration.lines_migrated_in,
                        "{w} under {s}: sector_lines = 4 migrated no neighbour"
                    );
                }
                PathVariant::Sector4 => {}
                PathVariant::TinyDirectory => assert!(
                    stats.directory_recalls > 0,
                    "{w} under {s}: the tiny directory never recalled"
                ),
            }
            assert_eq!(
                fingerprint_with_fabric(&stats),
                want,
                "{w} under {s} ({v:?}): SystemStats diverged from the path golden"
            );
        }
    }
}

/// The kernel-migration schemes [`GOLDEN_KERNEL`] covers.
const KERNEL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Nomad,
    SchemeKind::Memtis,
    SchemeKind::Hemem,
    SchemeKind::OsSkew,
];

/// Local capacity of the [`GOLDEN_KERNEL`] jobs: 8 pages per host.
const KERNEL_CAPACITY_BYTES: u64 = 32 << 10;

/// `experiment_scale()` with 50 k-cycle migration intervals and an 8-page
/// local memory, so the kernel schemes demote within 20 k references.
fn kernel_config() -> SystemConfig {
    let mut cfg = SystemConfig::experiment_scale();
    cfg.migration_interval_cycles = 50_000;
    cfg.local_capacity_bytes = KERNEL_CAPACITY_BYTES;
    cfg
}

/// Golden [`fingerprint`] values of the [`kernel_config`] jobs, in
/// `WORKLOADS` × `KERNEL_SCHEMES` order. Regenerate with `cargo test -q -p
/// pipm-integration-tests --release --test stats_parity -- --ignored
/// --nocapture` only when simulation behavior is *intentionally* changed.
const GOLDEN_KERNEL: [(Workload, SchemeKind, u64); 8] = [
    (Workload::Bfs, SchemeKind::Nomad, 0xf4a9a0dabab21f0c),
    (Workload::Bfs, SchemeKind::Memtis, 0x971602e76f3f6d53),
    (Workload::Bfs, SchemeKind::Hemem, 0x3d3557e6154c8299),
    (Workload::Bfs, SchemeKind::OsSkew, 0x26801ecc1010c672),
    (Workload::Ycsb, SchemeKind::Nomad, 0xc19957deb1c3e057),
    (Workload::Ycsb, SchemeKind::Memtis, 0x7697a1aeb92908a3),
    (Workload::Ycsb, SchemeKind::Hemem, 0xd1ae7bc153bd5f90),
    (Workload::Ycsb, SchemeKind::OsSkew, 0x33318b587ea314e2),
];

#[test]
fn golden_fingerprints_kernel_migration() {
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    };
    let capacity_pages = KERNEL_CAPACITY_BYTES / pipm_types::PAGE_SIZE;
    for (w, s, want) in GOLDEN_KERNEL {
        let stats = run_one(w, s, kernel_config(), &params).stats;
        let m = &stats.migration;
        assert!(m.pages_demoted > 0, "{w} under {s}: no page was demoted");
        let peak = m.peak_resident_pages.iter().copied().max().unwrap_or(0);
        if w == Workload::Ycsb && matches!(s, SchemeKind::Nomad | SchemeKind::OsSkew) {
            assert_eq!(
                peak, capacity_pages,
                "{w} under {s}: no host filled its {capacity_pages}-page local memory"
            );
        }
        assert_eq!(
            fingerprint(&stats),
            want,
            "{w} under {s}: SystemStats diverged from the kernel-migration golden"
        );
    }
}

/// FNV-1a over every golden fingerprint, paired with the model version
/// the goldens describe: a golden edit (a change in simulated behaviour)
/// must come with a [`MODEL_VERSION`] bump, so that no cached result of
/// the old model is served as a result of the new one.
const MODEL_GOLDENS: (u32, u64) = (2, 0x29fd_e7a5_c98e_ca4d);

#[test]
fn model_version_changes_with_the_goldens() {
    let mut h = Fnv::new();
    for &(_, _, v) in GOLDEN
        .iter()
        .chain(GOLDEN_PATHS.iter().flat_map(|(_, table)| table.iter()))
        .chain(GOLDEN_KERNEL.iter())
    {
        h.put(v);
    }
    assert_eq!(
        (MODEL_VERSION, h.0),
        MODEL_GOLDENS,
        "a golden fingerprint changed: bump pipm_core::MODEL_VERSION and \
         record the new pair in MODEL_GOLDENS"
    );
}

/// Regenerates the golden tables. Ignored: run manually when simulation
/// behavior changes intentionally, then paste the output into `GOLDEN`,
/// the [`GOLDEN_PATHS`] tables and [`GOLDEN_KERNEL`].
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
    for v in PATH_VARIANTS {
        println!("{v:?}:");
        for w in WORKLOADS {
            for s in PATH_SCHEMES {
                let r = run_one(w, s, variant_config(v), &params);
                println!(
                    "    (Workload::{w:?}, SchemeKind::{s:?}, {:#018x}),",
                    fingerprint_with_fabric(&r.stats)
                );
            }
        }
    }
    println!("Kernel:");
    for w in WORKLOADS {
        for s in KERNEL_SCHEMES {
            let stats = run_one(w, s, kernel_config(), &params).stats;
            println!(
                "    (Workload::{w:?}, SchemeKind::{s:?}, {:#018x}), // demoted {} peak {:?}",
                fingerprint(&stats),
                stats.migration.pages_demoted,
                stats.migration.peak_resident_pages
            );
        }
    }
}
