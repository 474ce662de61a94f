//! Extension: host-count scalability (paper §4.5 — "as the host count
//! increases, the majority-vote approach continues to suppress
//! performance-degrading migrations and consistently outperforms prior
//! designs"). Sweeps 2/4/8 hosts at fixed per-host core count.
use pipm_bench::{geomean, print_table, Harness, Point};
use pipm_types::SchemeKind;

fn main() -> Result<(), String> {
    let h = Harness::from_env()?;
    let host_counts = [2usize, 4, 8];
    let schemes = [SchemeKind::Memtis, SchemeKind::Pipm];
    // Per workload and host count: Native, then `schemes`.
    let group = 1 + schemes.len();
    let points: Vec<Point> = h
        .workloads
        .iter()
        .flat_map(|&w| {
            host_counts.into_iter().flat_map(move |hosts| {
                let label = if hosts == 4 {
                    String::new()
                } else {
                    format!("hosts={hosts}")
                };
                std::iter::once(SchemeKind::Native)
                    .chain(schemes)
                    .map(move |s| Point::full(w, s, label.clone(), |cfg| cfg.hosts = hosts))
            })
        })
        .collect();
    let ms = h.measure_all(&points);
    let mut rows = Vec::new();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); host_counts.len() * schemes.len()];
    for (w, ms) in h.workloads.iter().zip(ms.chunks(host_counts.len() * group)) {
        let mut row = vec![w.label().to_string()];
        for (hi, cell) in ms.chunks(group).enumerate() {
            let native = &cell[0];
            for (si, m) in cell[1..].iter().enumerate() {
                let speedup = native.exec_cycles as f64 / m.exec_cycles.max(1) as f64;
                per_cell[hi * schemes.len() + si].push(speedup);
                row.push(format!("{speedup:.3}"));
            }
        }
        rows.push(row);
    }
    print_table(
        "Host scaling: speedup over Native at the same host count",
        &[
            "workload",
            "2h_Memtis",
            "2h_PIPM",
            "4h_Memtis",
            "4h_PIPM",
            "8h_Memtis",
            "8h_PIPM",
        ],
        &rows,
    );
    print!("# geomean");
    for (hi, hosts) in host_counts.iter().enumerate() {
        for (si, s) in schemes.iter().enumerate() {
            print!(
                "\t{hosts}h_{}={:.3}",
                s.label(),
                geomean(&per_cell[hi * schemes.len() + si])
            );
        }
    }
    println!();
    Ok(())
}
