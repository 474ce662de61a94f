//! Regenerates the paper's fig14 link latency output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "fig14", pipm_bench::figs::fig14);
    Ok(())
}
