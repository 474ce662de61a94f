//! Extension: 4/8 hosts × 1/2/4 CXL devices. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "rack_scaling", pipm_bench::figs::rack_scaling);
    Ok(())
}
