//! One function per paper table/figure; binaries in `src/bin` are thin
//! wrappers. Output is TSV with the same rows/series the paper plots.

use crate::{geomean, print_table, Harness, Measurement, Point};
use pipm_core::CfgDelta;
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::Workload;

/// Declares each workload's points with `row`, measures every point of
/// the figure in one [`Harness::measure_all`] call, and returns each
/// workload's measurements in `row` order.
fn measure_rows(
    h: &Harness,
    row: impl Fn(Workload) -> Vec<Point>,
) -> Vec<(Workload, Vec<Measurement>)> {
    let points: Vec<Vec<Point>> = h.workloads.iter().map(|&w| row(w)).collect();
    let mut ms = h.measure_all(&points.concat()).into_iter();
    h.workloads
        .iter()
        .zip(&points)
        .map(|(&w, p)| (w, ms.by_ref().take(p.len()).collect()))
        .collect()
}

/// [`measure_rows`] over the default-configuration points of `schemes`.
fn measure_defaults(h: &Harness, schemes: &[SchemeKind]) -> Vec<(Workload, Vec<Measurement>)> {
    measure_rows(h, |w| {
        schemes.iter().map(|&s| Point::default_cfg(w, s)).collect()
    })
}

/// Table 1: the evaluated workloads, their suites, paper footprints, and
/// the scaled footprints the generators use.
pub fn table1(_h: &Harness) {
    let rows: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| {
            vec![
                w.label().to_string(),
                w.description().to_string(),
                w.suite().to_string(),
                format!("{}GB", w.paper_footprint_gb()),
                format!("{}MB", w.scaled_footprint_bytes() >> 20),
            ]
        })
        .collect();
    print_table(
        "Table 1: evaluated workloads",
        &[
            "workload",
            "description",
            "suite",
            "paper_footprint",
            "scaled_footprint",
        ],
        &rows,
    );
}

/// Table 2: the system configuration in force (defaults = paper Table 2;
/// the experiment scale additionally shrinks the caches with the
/// footprints, DESIGN.md §4).
pub fn table2(_h: &Harness) {
    let cfg = SystemConfig::default();
    let exp = SystemConfig::experiment_scale();
    let rows = vec![
        vec![
            "architecture".into(),
            format!("{} hosts × {} cores", cfg.hosts, cfg.cores_per_host),
        ],
        vec![
            "cpu".into(),
            format!(
                "{}-wide OoO, {}-entry ROB, {}-entry LQ, {}-entry SQ, {} MSHRs",
                cfg.core.width,
                cfg.core.rob_entries,
                cfg.core.lq_entries,
                cfg.core.sq_entries,
                cfg.core.mshr_entries
            ),
        ],
        vec![
            "l1d".into(),
            format!(
                "{}KB {}-way, {}-cycle RT (experiment scale: {}KB)",
                cfg.l1d.capacity_bytes >> 10,
                cfg.l1d.ways,
                cfg.l1d.hit_latency,
                exp.l1d.capacity_bytes >> 10
            ),
        ],
        vec![
            "llc".into(),
            format!(
                "{}MB/core {}-way, {}-cycle RT (experiment scale: {}KB/core)",
                cfg.llc_per_core.capacity_bytes >> 20,
                cfg.llc_per_core.ways,
                cfg.llc_per_core.hit_latency,
                exp.llc_per_core.capacity_bytes >> 10
            ),
        ],
        vec![
            "dram".into(),
            format!(
                "DDR5-4800, tRC-tRCD-tCL-tRP {}-{}-{}-{} ns; {} CXL + {} local channel(s)",
                cfg.local_dram.t_rc_ns,
                cfg.local_dram.t_rcd_ns,
                cfg.local_dram.t_cl_ns,
                cfg.local_dram.t_rp_ns,
                cfg.cxl_dram.channels,
                cfg.local_dram.channels
            ),
        ],
        vec![
            "cxl_link".into(),
            format!(
                "{} ns latency, {} GB/s raw per direction ({} B headers ≈ 5 GB/s effective)",
                cfg.cxl.link_latency_ns, cfg.cxl.link_gbps, cfg.cxl.header_bytes
            ),
        ],
        vec![
            "cxl_directory".into(),
            format!(
                "{} sets × {} ways × {} slices, {}-cycle RT @ {} GHz",
                cfg.directory.sets_per_slice,
                cfg.directory.ways,
                cfg.directory.slices,
                cfg.directory.access_cycles_dir_clock,
                cfg.directory.dir_ghz
            ),
        ],
        vec![
            "pipm".into(),
            format!(
                "{}KB global remap cache ({}cy), {}MB local remap cache ({}cy), threshold {}",
                cfg.pipm.global_remap_cache_bytes >> 10,
                cfg.pipm.global_remap_cache_latency,
                cfg.pipm.local_remap_cache_bytes >> 20,
                cfg.pipm.local_remap_cache_latency,
                cfg.pipm.migration_threshold
            ),
        ],
    ];
    print_table(
        "Table 2: system configuration",
        &["parameter", "value"],
        &rows,
    );
}

/// Figure 4: execution-time breakdown for Nomad and Memtis at three
/// migration intervals, normalized to the no-migration (Native) baseline.
/// The paper's 100 ms / 10 ms / 1 ms intervals map to scaled cycle counts
/// with the same ×10 ratios (DESIGN.md §4).
pub fn fig04(h: &Harness) {
    let intervals = [("100ms", 2_500_000u64), ("10ms", 250_000), ("1ms", 25_000)];
    let schemes = [SchemeKind::Nomad, SchemeKind::Memtis];
    // Per workload: Native, then every (scheme, interval) cell.
    let row = |w| {
        std::iter::once(Point::default_cfg(w, SchemeKind::Native))
            .chain(schemes.into_iter().flat_map(|scheme| {
                intervals.into_iter().map(move |(_, cycles)| {
                    let label = if cycles == 250_000 {
                        String::new()
                    } else {
                        format!("interval={cycles}")
                    };
                    Point::full(w, scheme, label, |cfg| {
                        cfg.migration_interval_cycles = cycles;
                    })
                })
            }))
            .collect()
    };
    let mut rows = Vec::new();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); schemes.len() * intervals.len()];
    for (w, ms) in measure_rows(h, row) {
        let native = &ms[0];
        for (si, scheme) in schemes.iter().enumerate() {
            for (ii, (label, _)) in intervals.iter().enumerate() {
                let cell = si * intervals.len() + ii;
                let m = &ms[1 + cell];
                let norm = m.exec_cycles as f64 / native.exec_cycles as f64;
                let mgmt = m.mgmt_stall_sum as f64 / m.cores as f64 / native.exec_cycles as f64;
                let transfer =
                    m.transfer_stall_sum as f64 / m.cores as f64 / native.exec_cycles as f64;
                per_cell[cell].push(norm);
                rows.push(vec![
                    w.label().into(),
                    scheme.label().into(),
                    (*label).into(),
                    format!("{norm:.3}"),
                    format!("{mgmt:.4}"),
                    format!("{transfer:.4}"),
                    format!("{:.3}", norm - mgmt - transfer),
                ]);
            }
        }
    }
    print_table(
        "Figure 4: normalized execution time vs migration interval (components normalized to Native)",
        &["workload", "scheme", "interval", "norm_exec", "mgmt", "transfer", "other"],
        &rows,
    );
    for (si, scheme) in schemes.iter().enumerate() {
        for (ii, (label, _)) in intervals.iter().enumerate() {
            println!(
                "# geomean {} @{label}: {:.3}",
                scheme.label(),
                geomean(&per_cell[si * intervals.len() + ii])
            );
        }
    }
    println!();
}

/// Figure 5: percentage of harmful page migrations for Nomad and Memtis
/// (default interval).
pub fn fig05(h: &Harness) {
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    for (w, ms) in measure_defaults(h, &[SchemeKind::Nomad, SchemeKind::Memtis]) {
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms.iter().enumerate() {
            let frac = m.harmful_fraction();
            per_scheme[i].push(frac);
            row.push(format!("{:.1}%", frac * 100.0));
        }
        rows.push(row);
    }
    print_table(
        "Figure 5: percentage of harmful page migrations",
        &["workload", "Nomad", "Memtis"],
        &rows,
    );
    for (i, s) in ["Nomad", "Memtis"].iter().enumerate() {
        let mean = per_scheme[i].iter().sum::<f64>() / per_scheme[i].len().max(1) as f64;
        println!("# mean {s}: {:.1}%", mean * 100.0);
    }
    println!();
}

/// Native first: every row normalizes to its first measurement.
const FIG10_SCHEMES: [SchemeKind; 8] = [
    SchemeKind::Native,
    SchemeKind::Nomad,
    SchemeKind::Memtis,
    SchemeKind::Hemem,
    SchemeKind::OsSkew,
    SchemeKind::HwStatic,
    SchemeKind::Pipm,
    SchemeKind::LocalOnly,
];

/// Figure 10: end-to-end speedup over Native CXL-DSM for every scheme.
pub fn fig10(h: &Harness) {
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); FIG10_SCHEMES.len()];
    for (w, ms) in measure_defaults(h, &FIG10_SCHEMES) {
        let native = &ms[0];
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms.iter().enumerate() {
            let speedup = native.exec_cycles as f64 / m.exec_cycles.max(1) as f64;
            per_scheme[i].push(speedup);
            row.push(format!("{speedup:.3}"));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("workload")
        .chain(FIG10_SCHEMES.iter().map(|s| s.label()))
        .collect();
    print_table("Figure 10: speedup over Native CXL-DSM", &header, &rows);
    print!("# geomean");
    for (i, s) in FIG10_SCHEMES.iter().enumerate() {
        print!("\t{}={:.3}", s.label(), geomean(&per_scheme[i]));
    }
    println!("\n");
}

/// Figure 11: local memory hit rates (shared-data LLC misses served from
/// the accessing host's local DRAM).
pub fn fig11(h: &Harness) {
    let schemes = [
        SchemeKind::Nomad,
        SchemeKind::Memtis,
        SchemeKind::Hemem,
        SchemeKind::OsSkew,
        SchemeKind::HwStatic,
        SchemeKind::Pipm,
    ];
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (w, ms) in measure_defaults(h, &schemes) {
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms.iter().enumerate() {
            per_scheme[i].push(m.local_hit);
            row.push(format!("{:.1}%", m.local_hit * 100.0));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("workload")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    print_table("Figure 11: local memory hit rates", &header, &rows);
    print!("# mean");
    for (i, s) in schemes.iter().enumerate() {
        let mean = per_scheme[i].iter().sum::<f64>() / per_scheme[i].len().max(1) as f64;
        print!("\t{}={:.1}%", s.label(), mean * 100.0);
    }
    println!("\n");
}

/// Figure 12: stall cycles of inter-host memory accesses, normalized to
/// the Native run's total execution time.
pub fn fig12(h: &Harness) {
    let schemes = [
        SchemeKind::Nomad,
        SchemeKind::Memtis,
        SchemeKind::Hemem,
        SchemeKind::OsSkew,
        SchemeKind::HwStatic,
        SchemeKind::Pipm,
    ];
    let with_native: Vec<SchemeKind> = std::iter::once(SchemeKind::Native).chain(schemes).collect();
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (w, ms) in measure_defaults(h, &with_native) {
        let native = &ms[0];
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms[1..].iter().enumerate() {
            let frac = m.interhost_stall_fraction(native.exec_cycles);
            per_scheme[i].push(frac);
            row.push(format!("{:.2}%", frac * 100.0));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("workload")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    print_table(
        "Figure 12: inter-host stall cycles / Native execution time",
        &header,
        &rows,
    );
    print!("# mean");
    for (i, s) in schemes.iter().enumerate() {
        let mean = per_scheme[i].iter().sum::<f64>() / per_scheme[i].len().max(1) as f64;
        print!("\t{}={:.2}%", s.label(), mean * 100.0);
    }
    println!("\n");
}

/// Figure 13: average per-host local memory footprint as a fraction of the
/// total footprint, including PIPM's page- vs line-granularity split.
/// HW-static's static partition reserves `1/hosts` of the space by
/// construction (reported as the paper does).
pub fn fig13(h: &Harness) {
    // The kernel-migration schemes, then PIPM last.
    let schemes = [
        SchemeKind::Nomad,
        SchemeKind::Hemem,
        SchemeKind::Memtis,
        SchemeKind::OsSkew,
        SchemeKind::Pipm,
    ];
    let mut rows = Vec::new();
    for (w, ms) in measure_defaults(h, &schemes) {
        let (p, kernel) = ms.split_last().expect("PIPM is measured last");
        let mut row = vec![w.label().to_string()];
        for m in kernel {
            row.push(format!("{:.2}%", m.footprint_page * 100.0));
        }
        // HW-static: fixed uniform partition (Intel-Flat-Mode-like).
        row.push("25.00%".into());
        row.push(format!("{:.2}%", p.footprint_page * 100.0));
        row.push(format!("{:.2}%", p.footprint_line * 100.0));
        rows.push(row);
    }
    print_table(
        "Figure 13: per-host local memory footprint / total footprint",
        &[
            "workload",
            "Nomad",
            "HeMem",
            "Memtis",
            "OS-skew",
            "HW-static",
            "PIPM-page",
            "PIPM-line",
        ],
        &rows,
    );
}

/// Figure 14: PIPM speedup over Native under different CXL link latencies
/// (50 ns default, 100 ns switch-attached). A checkpointed sweep: each
/// `(workload, scheme)` simulates one warmed prefix and forks it per
/// latency point, with only the measured tail under the swept latency.
pub fn fig14(h: &Harness) {
    let delta = |ns: f64| CfgDelta {
        link_latency_ns: Some(ns),
        ..CfgDelta::default()
    };
    pipm_over_native_sweep(
        h,
        "Figure 14: PIPM speedup over Native vs CXL link latency",
        "lat",
        &[("50ns", delta(50.0)), ("100ns", delta(100.0))],
    );
}

/// Figure 15: PIPM speedup over Native under different CXL link
/// bandwidths (×8 / ×16 / ×32 lanes → 4 / 8 / 16 GB/s raw). A
/// checkpointed sweep sharing its warmed prefixes with Fig. 14 (same
/// base configuration, so the checkpoint cache serves both).
pub fn fig15(h: &Harness) {
    let delta = |gbps: f64| CfgDelta {
        link_gbps: Some(gbps),
        ..CfgDelta::default()
    };
    pipm_over_native_sweep(
        h,
        "Figure 15: PIPM speedup over Native vs CXL link bandwidth",
        "bw",
        &[
            ("x8", delta(4.0)),
            ("x16", delta(8.0)),
            ("x32", delta(16.0)),
        ],
    );
}

/// Shared Fig. 14/15 driver: PIPM's speedup over Native at each swept
/// point, with the points labelled `{name}={label}`.
fn pipm_over_native_sweep(h: &Harness, title: &str, name: &str, sweep: &[(&str, CfgDelta)]) {
    let row = |w| {
        sweep
            .iter()
            .flat_map(|(label, delta)| {
                [SchemeKind::Native, SchemeKind::Pipm]
                    .map(|s| Point::sweep(w, s, format!("{name}={label}"), *delta))
            })
            .collect()
    };
    let mut rows = Vec::new();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); sweep.len()];
    for (w, ms) in measure_rows(h, row) {
        let mut row = vec![w.label().to_string()];
        for (i, pair) in ms.chunks(2).enumerate() {
            let (native, pipm) = (&pair[0], &pair[1]);
            let speedup = native.exec_cycles as f64 / pipm.exec_cycles.max(1) as f64;
            per_point[i].push(speedup);
            row.push(format!("{speedup:.3}"));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("workload")
        .chain(sweep.iter().map(|(l, _)| *l))
        .collect();
    print_table(title, &header, &rows);
    for (i, (label, _)) in sweep.iter().enumerate() {
        println!("# geomean @{label}: {:.3}", geomean(&per_point[i]));
    }
    println!();
}

/// Figure 16: PIPM performance vs local remapping cache size, normalized
/// to an effectively infinite cache.
pub fn fig16(h: &Harness) {
    let sizes: [(&str, u64); 4] = [
        ("64KB", 64 << 10),
        ("256KB", 256 << 10),
        ("1MB", 1 << 20),
        ("inf", 1 << 40),
    ];
    remap_cache_sweep(
        h,
        "Figure 16: performance vs local remapping cache size",
        &sizes,
        true,
    );
}

/// Figure 17: PIPM performance vs global remapping cache size, normalized
/// to an effectively infinite cache.
pub fn fig17(h: &Harness) {
    let sizes: [(&str, u64); 4] = [
        ("1KB", 1 << 10),
        ("4KB", 4 << 10),
        ("16KB", 16 << 10),
        ("inf", 1 << 40),
    ];
    remap_cache_sweep(
        h,
        "Figure 17: performance vs global remapping cache size",
        &sizes,
        false,
    );
}

/// Shared Fig. 16/17 driver: a checkpointed sweep over remapping-cache
/// sizes (`sizes` includes the effectively-infinite normalization
/// point). All points of both figures — and the threshold sweep — fork
/// the same per-workload PIPM prefix, since the swept parameter only
/// binds in the measured tail.
fn remap_cache_sweep(h: &Harness, title: &str, sizes: &[(&str, u64)], local: bool) {
    let prefix = if local { "l" } else { "g" };
    let delta = |bytes: u64| {
        if local {
            CfgDelta {
                local_remap_cache_bytes: Some(bytes),
                ..CfgDelta::default()
            }
        } else {
            CfgDelta {
                global_remap_cache_bytes: Some(bytes),
                ..CfgDelta::default()
            }
        }
    };
    let row = |w| {
        sizes
            .iter()
            .map(|(label, bytes)| {
                Point::sweep(
                    w,
                    SchemeKind::Pipm,
                    format!("{prefix}rc={label}"),
                    delta(*bytes),
                )
            })
            .collect()
    };
    let inf = sizes
        .iter()
        .position(|(l, _)| *l == "inf")
        .expect("remap cache sweeps include the infinite normalization point");
    let mut rows = Vec::new();
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (w, ms) in measure_rows(h, row) {
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms.iter().enumerate() {
            let rel = ms[inf].exec_cycles as f64 / m.exec_cycles.max(1) as f64;
            per_size[i].push(rel);
            row.push(format!("{rel:.4}"));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("workload")
        .chain(sizes.iter().map(|(l, _)| *l))
        .collect();
    print_table(title, &header, &rows);
    print!("# geomean");
    for (i, (label, _)) in sizes.iter().enumerate() {
        print!("\t{label}={:.4}", geomean(&per_size[i]));
    }
    println!("\n");
}

/// §5.1.4 ablation: PIPM performance across migration thresholds
/// (the paper observes similar performance for thresholds 4–16). A
/// checkpointed sweep forking the same per-workload PIPM prefix as
/// Fig. 16/17; thresholds bind late, in the measured tail only.
pub fn threshold_sweep(h: &Harness) {
    let thresholds = [4u8, 8, 16];
    let delta = |t: u8| CfgDelta {
        migration_threshold: Some(t),
        ..CfgDelta::default()
    };
    let row = |w| {
        thresholds
            .into_iter()
            .map(|t| Point::sweep(w, SchemeKind::Pipm, format!("thr={t}"), delta(t)))
            .collect()
    };
    let base = thresholds
        .iter()
        .position(|&t| t == 8)
        .expect("threshold 8 is swept");
    let mut rows = Vec::new();
    let mut per_thr: Vec<Vec<f64>> = vec![Vec::new(); thresholds.len()];
    for (w, ms) in measure_rows(h, row) {
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms.iter().enumerate() {
            let rel = ms[base].exec_cycles as f64 / m.exec_cycles.max(1) as f64;
            per_thr[i].push(rel);
            row.push(format!("{rel:.3}"));
        }
        rows.push(row);
    }
    print_table(
        "Threshold sweep: PIPM performance vs migration threshold (relative to threshold 8)",
        &["workload", "thr4", "thr8", "thr16"],
        &rows,
    );
    print!("# geomean");
    for (i, t) in thresholds.iter().enumerate() {
        print!("\tthr{t}={:.3}", geomean(&per_thr[i]));
    }
    println!("\n");
}

/// §5.1.4: protocol verification (the Murφ substitute).
pub fn verify_protocol() {
    for hosts in 2..=4 {
        let report = pipm_mcheck::Checker::new(hosts).run();
        println!("{report}");
        assert!(report.is_ok(), "protocol verification failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_figure_looks_up_each_point_once() {
        let mut h = Harness::with_settings(10_000, 7, None, 2);
        h.workloads = vec![Workload::Bfs];
        let counts = |figure: fn(&Harness)| {
            let before = h.counters();
            figure(&h);
            let c = h.counters().since(&before);
            (c.runs, c.cache_hits)
        };
        assert_eq!(counts(fig10), (8, 0), "fig10: 8 schemes, one run each");
        assert_eq!(counts(fig11), (0, 6), "fig11: 6 schemes, one hit each");
        assert_eq!(counts(fig16), (4, 0), "fig16: 4 sizes, one run each");
    }
}
