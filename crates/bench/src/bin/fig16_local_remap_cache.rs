//! Regenerates the paper's fig16 local remap cache output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig16", pipm_bench::figs::fig16);
    Ok(())
}
