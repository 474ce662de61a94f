//! Extension: 2/4/8-host scalability (paper §4.5). See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "host_scaling", pipm_bench::figs::host_scaling);
    Ok(())
}
