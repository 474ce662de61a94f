//! One function per paper table/figure; binaries in `src/bin` are thin
//! wrappers. Output is TSV with the same rows/series the paper plots.

use crate::{geomean, print_table, Harness, Measurement, Point};
use pipm_core::CfgDelta;
use pipm_types::{SchemeKind, SystemConfig, TopologySpec};
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

/// One column of a [`ratio_table`]: its header label, then the indices
/// of the reference run and of the measured run within a workload's
/// points.
type Column = (String, usize, usize);

/// Shared driver of every speedup figure: measures each workload's
/// points with `row`, prints per workload and column the reference
/// run's execution time over the measured run's at `digits` decimals,
/// then one `# geomean` line over the workloads.
fn ratio_table(
    h: &Harness,
    title: &str,
    columns: &[Column],
    digits: usize,
    row: impl Fn(Workload) -> Vec<Point>,
) {
    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    let rows: Vec<Vec<String>> = measure_rows(h, row)
        .into_iter()
        .map(|(w, ms)| {
            let cells = columns.iter().zip(&mut per_column).map(|(&(_, r, i), c)| {
                let ratio = ms[r].exec_cycles as f64 / ms[i].exec_cycles.max(1) as f64;
                c.push(ratio);
                format!("{ratio:.digits$}")
            });
            std::iter::once(w.label().to_string())
                .chain(cells)
                .collect()
        })
        .collect();
    let header: Vec<&str> = std::iter::once("workload")
        .chain(columns.iter().map(|(label, ..)| label.as_str()))
        .collect();
    print_table(title, &header, &rows);
    print!("# geomean");
    for ((label, ..), c) in columns.iter().zip(&per_column) {
        print!("\t{label}={:.digits$}", geomean(c));
    }
    println!("\n");
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
    let columns: Vec<Column> = FIG10_SCHEMES
        .iter()
        .enumerate()
        .map(|(i, s)| (s.label().to_string(), 0, i))
        .collect();
    ratio_table(
        h,
        "Figure 10: speedup over Native CXL-DSM",
        &columns,
        3,
        |w| {
            FIG10_SCHEMES
                .iter()
                .map(|&s| Point::default_cfg(w, s))
                .collect()
        },
    );
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
    let columns: Vec<Column> = sweep
        .iter()
        .enumerate()
        .map(|(i, (label, _))| (label.to_string(), 2 * i, 2 * i + 1))
        .collect();
    ratio_table(h, title, &columns, 3, |w| {
        sweep
            .iter()
            .flat_map(|(label, delta)| {
                [SchemeKind::Native, SchemeKind::Pipm]
                    .map(|s| Point::sweep(w, s, format!("{name}={label}"), *delta))
            })
            .collect()
    });
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
/// sizes, normalized to the last, effectively infinite, size. All points
/// of both figures — and the threshold sweep — fork the same
/// per-workload PIPM prefix, since the swept parameter only binds in the
/// measured tail.
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
    let inf = sizes.len() - 1;
    let columns: Vec<Column> = sizes
        .iter()
        .enumerate()
        .map(|(i, (label, _))| (label.to_string(), inf, i))
        .collect();
    ratio_table(h, title, &columns, 4, |w| {
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
    });
}

/// §5.1.4 ablation: PIPM performance across migration thresholds
/// (the paper observes similar performance for thresholds 4–16),
/// relative to the default threshold 8. A checkpointed sweep forking
/// the same per-workload PIPM prefix as Fig. 16/17; thresholds bind
/// late, in the measured tail only.
pub fn threshold_sweep(h: &Harness) {
    let thresholds = [4u8, 8, 16];
    let delta = |t: u8| CfgDelta {
        migration_threshold: Some(t),
        ..CfgDelta::default()
    };
    let columns: Vec<Column> = thresholds
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("thr{t}"), 1, i))
        .collect();
    ratio_table(
        h,
        "Threshold sweep: PIPM performance vs migration threshold (relative to threshold 8)",
        &columns,
        3,
        |w| {
            thresholds
                .into_iter()
                .map(|t| Point::sweep(w, SchemeKind::Pipm, format!("thr={t}"), delta(t)))
                .collect()
        },
    );
}

/// Extension ablation: PIPM's speedup over Native against the sector
/// size (`pipm.sector_lines`), the design-space point between the
/// paper's pure per-line incremental migration (sector = 1) and
/// whole-page transfer. Larger sectors prefetch spatial locality at the
/// cost of extra CXL transfers.
pub fn ablation_sector(h: &Harness) {
    let sectors = [1u32, 2, 4, 8];
    let columns: Vec<Column> = sectors
        .iter()
        .enumerate()
        .map(|(i, sec)| (format!("sector{sec}"), 0, 1 + i))
        .collect();
    ratio_table(
        h,
        "Ablation: PIPM speedup over Native vs sector size (lines per incremental migration)",
        &columns,
        3,
        |w| {
            std::iter::once(Point::default_cfg(w, SchemeKind::Native))
                .chain(sectors.into_iter().map(|sec| {
                    let label = if sec == 1 {
                        String::new()
                    } else {
                        format!("sector={sec}")
                    };
                    Point::full(w, SchemeKind::Pipm, label, |cfg| {
                        cfg.pipm.sector_lines = sec;
                    })
                }))
                .collect()
        },
    );
}

/// Extension (paper §4.5: "as the host count increases, the
/// majority-vote approach continues to suppress performance-degrading
/// migrations"): Memtis' and PIPM's speedup over Native at 2/4/8 hosts
/// with a fixed per-host core count.
pub fn host_scaling(h: &Harness) {
    let shapes = [2, 4, 8].map(|hosts| (format!("{hosts}h"), hosts, 1));
    scaling_table(
        h,
        "Host scaling: speedup over Native at the same host count",
        &shapes,
    );
}

/// Extension: rack-scale device scalability, [`host_scaling`] along the
/// fabric's second axis — the number of multi-headed CXL devices the
/// shared region is interleaved across (1/2/4 devices at 4 and 8
/// hosts). More devices means more aggregate fabric and device-DRAM
/// bandwidth, so the curve shows how much of PIPM's advantage over
/// kernel migration survives when raw bandwidth is no longer scarce.
pub fn rack_scaling(h: &Harness) {
    let shapes: Vec<_> = [4, 8]
        .into_iter()
        .flat_map(|hosts| [1, 2, 4].map(|devs| (format!("{hosts}h{devs}d"), hosts, devs)))
        .collect();
    scaling_table(
        h,
        "Rack scaling: speedup over Native at the same host and device count",
        &shapes,
    );
}

/// Shared host/rack scaling driver: Memtis' and PIPM's speedup over
/// Native at each `(name, hosts, devices)` shape, each normalized to
/// Native on the same shape, in columns `{name}_{scheme}`.
fn scaling_table(h: &Harness, title: &str, shapes: &[(String, usize, usize)]) {
    let schemes = [SchemeKind::Native, SchemeKind::Memtis, SchemeKind::Pipm];
    let columns: Vec<Column> = shapes
        .iter()
        .enumerate()
        .flat_map(|(k, (name, ..))| {
            let native = k * schemes.len();
            schemes
                .iter()
                .enumerate()
                .skip(1)
                .map(move |(i, s)| (format!("{name}_{}", s.label()), native, native + i))
        })
        .collect();
    ratio_table(h, title, &columns, 3, |w| {
        shapes
            .iter()
            .flat_map(|&(_, hosts, devs)| {
                schemes.map(|s| {
                    Point::full(w, s, format!("hosts={hosts},devs={devs}"), |cfg| {
                        cfg.hosts = hosts;
                        cfg.topology = TopologySpec::multi_headed(devs);
                    })
                })
            })
            .collect()
    });
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
        // The 4-host, 1-device points are Fig. 10's, and rack scaling's
        // 8-host, 1-device points are host scaling's.
        assert_eq!(
            counts(host_scaling),
            (6, 3),
            "host_scaling: 3 shapes x 3 schemes"
        );
        assert_eq!(
            counts(rack_scaling),
            (12, 6),
            "rack_scaling: 6 shapes x 3 schemes"
        );
        assert_eq!(
            counts(ablation_sector),
            (3, 2),
            "ablation_sector: Native + 4 sectors"
        );
    }
}
