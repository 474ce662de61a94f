//! Extension ablation: sector-granularity incremental migration
//! (`pipm.sector_lines`) — the design-space point between the paper's pure
//! per-line incremental migration (sector = 1) and whole-page transfer.
//! Larger sectors prefetch spatial locality at the cost of extra CXL
//! transfers. See DESIGN.md §3 and EXPERIMENTS.md.
use pipm_bench::{geomean, print_table, Harness, Point};
use pipm_types::SchemeKind;

fn main() -> Result<(), String> {
    let h = Harness::from_env()?;
    let sectors = [1u32, 2, 4, 8];
    // Per workload: Native, then PIPM at each sector size.
    let points: Vec<Point> = h
        .workloads
        .iter()
        .flat_map(|&w| {
            std::iter::once(Point::default_cfg(w, SchemeKind::Native)).chain(
                sectors.into_iter().map(move |sec| {
                    let label = if sec == 1 {
                        String::new()
                    } else {
                        format!("sector={sec}")
                    };
                    Point::full(w, SchemeKind::Pipm, label, |cfg| {
                        cfg.pipm.sector_lines = sec;
                    })
                }),
            )
        })
        .collect();
    let ms = h.measure_all(&points);
    let mut rows = Vec::new();
    let mut per_sector: Vec<Vec<f64>> = vec![Vec::new(); sectors.len()];
    for (w, ms) in h.workloads.iter().zip(ms.chunks(1 + sectors.len())) {
        let native = &ms[0];
        let mut row = vec![w.label().to_string()];
        for (i, m) in ms[1..].iter().enumerate() {
            let speedup = native.exec_cycles as f64 / m.exec_cycles.max(1) as f64;
            per_sector[i].push(speedup);
            row.push(format!("{speedup:.3}"));
        }
        rows.push(row);
    }
    print_table(
        "Ablation: PIPM speedup over Native vs sector size (lines per incremental migration)",
        &["workload", "sector1", "sector2", "sector4", "sector8"],
        &rows,
    );
    print!("# geomean");
    for (i, sec) in sectors.iter().enumerate() {
        print!("\tsector{sec}={:.3}", geomean(&per_sector[i]));
    }
    println!();
    Ok(())
}
