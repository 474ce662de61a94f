//! Extension: rack-scale device scalability. Extends `host_scaling`
//! along the second axis of the fabric topology: the number of
//! multi-headed CXL devices the shared region is interleaved across
//! (1/2/4 devices at 4 and 8 hosts). More devices means more aggregate
//! fabric and device-DRAM bandwidth, so link-bound schemes gain most;
//! the question the curve answers is how much of PIPM's advantage over
//! kernel migration survives when raw bandwidth is no longer scarce.
//!
//! Capture the table with `PIPM_FIG_CSV_DIR=docs/bench/figures` and
//! chart it with the `report` bin (see EXPERIMENTS.md).
use pipm_bench::{geomean, print_table, Harness, Point};
use pipm_types::{SchemeKind, TopologySpec};

fn main() -> Result<(), String> {
    let h = Harness::from_env()?;
    let host_counts = [4usize, 8];
    let device_counts = [1usize, 2, 4];
    let schemes = [SchemeKind::Memtis, SchemeKind::Pipm];
    // Per workload, host count and device count: Native, then `schemes`.
    let group = 1 + schemes.len();
    let points: Vec<Point> = h
        .workloads
        .iter()
        .flat_map(|&w| {
            host_counts.into_iter().flat_map(move |hosts| {
                device_counts.into_iter().flat_map(move |devs| {
                    std::iter::once(SchemeKind::Native)
                        .chain(schemes)
                        .map(move |s| {
                            Point::full(w, s, format!("hosts={hosts},devs={devs}"), |cfg| {
                                cfg.hosts = hosts;
                                cfg.topology = TopologySpec::multi_headed(devs);
                            })
                        })
                })
            })
        })
        .collect();
    let ms = h.measure_all(&points);
    let cells = host_counts.len() * device_counts.len();
    let mut rows = Vec::new();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells * schemes.len()];
    for (w, ms) in h.workloads.iter().zip(ms.chunks(cells * group)) {
        let mut row = vec![w.label().to_string()];
        for (ci, cell) in ms.chunks(group).enumerate() {
            let native = &cell[0];
            for (si, m) in cell[1..].iter().enumerate() {
                let speedup = native.exec_cycles as f64 / m.exec_cycles.max(1) as f64;
                per_cell[ci * schemes.len() + si].push(speedup);
                row.push(format!("{speedup:.3}"));
            }
        }
        rows.push(row);
    }
    print_table(
        "Rack scaling: speedup over Native at the same host and device count",
        &[
            "workload",
            "4h1d_Memtis",
            "4h1d_PIPM",
            "4h2d_Memtis",
            "4h2d_PIPM",
            "4h4d_Memtis",
            "4h4d_PIPM",
            "8h1d_Memtis",
            "8h1d_PIPM",
            "8h2d_Memtis",
            "8h2d_PIPM",
            "8h4d_Memtis",
            "8h4d_PIPM",
        ],
        &rows,
    );
    print!("# geomean");
    for (hi, hosts) in host_counts.iter().enumerate() {
        for (di, devs) in device_counts.iter().enumerate() {
            for (si, s) in schemes.iter().enumerate() {
                print!(
                    "\t{hosts}h{devs}d_{}={:.3}",
                    s.label(),
                    geomean(&per_cell[(hi * device_counts.len() + di) * schemes.len() + si])
                );
            }
        }
    }
    println!();
    Ok(())
}
