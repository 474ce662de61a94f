//! Regenerates the paper's table2 output. See EXPERIMENTS.md.
fn main() -> Result<(), String> {
    let h = pipm_bench::Harness::from_env()?;
    pipm_bench::run_figure(&h, "table2", pipm_bench::figs::table2);
    Ok(())
}
