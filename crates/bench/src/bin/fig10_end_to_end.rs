//! Regenerates the paper's fig10 end to end output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig10", pipm_bench::figs::fig10);
    Ok(())
}
