//! Extension: sector-granularity incremental migration. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "ablation_sector", pipm_bench::figs::ablation_sector);
    Ok(())
}
