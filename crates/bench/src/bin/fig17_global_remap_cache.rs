//! Regenerates the paper's fig17 global remap cache output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig17", pipm_bench::figs::fig17);
    Ok(())
}
