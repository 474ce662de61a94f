//! Regenerates the paper's fig05 harmful output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig05", pipm_bench::figs::fig05);
    Ok(())
}
