//! Regenerates the paper's threshold sweep output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "threshold_sweep", pipm_bench::figs::threshold_sweep);
    Ok(())
}
