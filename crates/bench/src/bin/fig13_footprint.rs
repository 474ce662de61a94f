//! Regenerates the paper's fig13 footprint output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig13", pipm_bench::figs::fig13);
    Ok(())
}
