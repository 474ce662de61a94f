//! Regenerates the paper's fig12 interhost stalls output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig12", pipm_bench::figs::fig12);
    Ok(())
}
