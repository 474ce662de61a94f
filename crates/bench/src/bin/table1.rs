//! Regenerates the paper's table1 output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "table1", pipm_bench::figs::table1);
    Ok(())
}
