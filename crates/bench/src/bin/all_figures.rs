//! Runs every table/figure harness in sequence. Results are cached in
//! `target/pipm_results_cache.tsv`, so re-runs and per-figure binaries
//! reuse completed simulations. Each figure fans its simulation points
//! out across `PIPM_WORKERS` threads (default: all cores) and reports
//! wall time / run counts on stderr; a per-figure timing table prints at
//! the end.
use pipm_bench::run_figure;

fn main() -> Result<(), String> {
    // Main matrix (Figures 4, 5, 10-13) at the harness scale; sensitivity
    // sweeps (Figures 14-17, threshold) at half scale — every figure is
    // self-normalized, so per-figure scale consistency is what matters.
    let h = pipm_bench::Harness::from_env()?;
    let mut sens = pipm_bench::Harness::from_env()?;
    sens.refs_per_core = (h.refs_per_core / 2).max(10_000);
    eprintln!(
        "[all_figures] refs/core={} (sensitivity {}) workloads={} workers={}",
        h.refs_per_core,
        sens.refs_per_core,
        h.workloads.len(),
        h.workers()
    );
    run_figure(&h, "table1", pipm_bench::figs::table1);
    run_figure(&h, "table2", pipm_bench::figs::table2);
    run_figure(&h, "verify_protocol", |_| {
        pipm_bench::figs::verify_protocol()
    });
    run_figure(&h, "fig10", pipm_bench::figs::fig10);
    run_figure(&h, "fig11", pipm_bench::figs::fig11);
    run_figure(&h, "fig12", pipm_bench::figs::fig12);
    run_figure(&h, "fig13", pipm_bench::figs::fig13);
    run_figure(&h, "fig05", pipm_bench::figs::fig05);
    run_figure(&h, "fig04", pipm_bench::figs::fig04);
    run_figure(&sens, "fig14", pipm_bench::figs::fig14);
    run_figure(&sens, "fig15", pipm_bench::figs::fig15);
    run_figure(&sens, "fig16", pipm_bench::figs::fig16);
    run_figure(&sens, "fig17", pipm_bench::figs::fig17);
    run_figure(&sens, "threshold_sweep", pipm_bench::figs::threshold_sweep);
    eprintln!("[all_figures] main-scale figures:");
    h.print_timing_summary();
    eprintln!("[all_figures] sensitivity figures:");
    sens.print_timing_summary();
    Ok(())
}
