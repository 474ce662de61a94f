//! Regenerates the paper's fig04 interval breakdown output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig04", pipm_bench::figs::fig04);
    Ok(())
}
