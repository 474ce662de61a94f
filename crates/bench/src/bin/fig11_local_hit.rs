//! Regenerates the paper's fig11 local hit output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig11", pipm_bench::figs::fig11);
    Ok(())
}
