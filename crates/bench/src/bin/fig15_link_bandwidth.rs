//! Regenerates the paper's fig15 link bandwidth output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig15", pipm_bench::figs::fig15);
    Ok(())
}
