//! Diagnostics: per-class latency/stall breakdown and shared-resource
//! contention report for one workload under Native, PIPM (with and
//! without migration), and Local-only. Used for model calibration.
//!
//! ```text
//! cargo run --release -p pipm-examples --bin diag -- [WORKLOAD] [REFS] [--full]
//! ```
//! `WORKLOAD` defaults to PR and `REFS` (references per core) to 60 000.
//! `--full` selects the verbatim Table 2 cache sizes instead of the
//! experiment scale. A bad argument prints the usage line and exits 2.

use pipm_core::System;
use pipm_types::{AccessClass, SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};

fn usage() -> ! {
    eprintln!("usage: diag [WORKLOAD] [REFS] [--full]");
    std::process::exit(2);
}

fn main() {
    let mut wl = Workload::Pr;
    let mut refs: u64 = 60_000;
    let mut full = false;
    let mut positional = 0;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
            continue;
        }
        match positional {
            0 => wl = arg.parse().unwrap_or_else(|_| usage()),
            1 => refs = arg.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        positional += 1;
    }
    let params = WorkloadParams {
        refs_per_core: refs,
        seed: 5,
    };
    let mut cfg = SystemConfig::default();
    if !full {
        cfg.l1d.capacity_bytes = 16 << 10;
        cfg.llc_per_core.capacity_bytes = 256 << 10;
    }
    for (scheme, thr) in [
        (SchemeKind::Native, 8),
        (SchemeKind::Pipm, 8),
        (SchemeKind::Pipm, 255),
        (SchemeKind::LocalOnly, 8),
    ] {
        let mut cfg = cfg.clone();
        cfg.pipm.migration_threshold = thr;
        let mut wcfg = cfg.clone();
        let streams = wl.streams(&mut wcfg, &params);
        let mut sys = System::new(wcfg.clone(), scheme);
        let stats = sys.run(streams, params.refs_per_core);
        let r = pipm_core::RunResult {
            workload: wl,
            scheme,
            stats,
            cfg: wcfg,
        };
        println!("{}", sys.contention_report());
        println!(
            "== {scheme} thr={thr} exec={} ipc={:.3}",
            r.exec_cycles(),
            r.stats.aggregate_ipc()
        );
        for c in AccessClass::ALL {
            let n = r.stats.class_total(c);
            let lat: u64 = r
                .stats
                .cores
                .iter()
                .map(|s| s.class_latency[c.index()])
                .sum();
            let stall: u64 = r.stats.cores.iter().map(|s| s.class_stall[c.index()]).sum();
            if n > 0 {
                println!(
                    "  {c:>14}: n={n:>8} mean_lat={:>7.1} stall={stall:>10}",
                    lat as f64 / n as f64
                );
            }
        }
        println!(
            "  promoted={} demoted={} lines_in={} lines_back={} local_hit={:.3}",
            r.stats.migration.pages_promoted,
            r.stats.migration.pages_demoted,
            r.stats.migration.lines_migrated_in,
            r.stats.migration.lines_migrated_back,
            r.local_hit_rate()
        );
        println!(
            "  lremap h/m={}/{} gremap h/m={}/{} recalls={}",
            r.stats.local_remap_hits,
            r.stats.local_remap_misses,
            r.stats.global_remap_hits,
            r.stats.global_remap_misses,
            r.stats.directory_recalls
        );
    }
}
