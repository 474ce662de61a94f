//! `report` — compares two sets of perfbench runs, and regenerates the
//! committed `docs/bench/` charts of captured figure tables.
//!
//! ```text
//! cargo run --release -p pipm-bench --bin report -- ab parent.jsonl change.jsonl
//! cargo run --release -p pipm-bench --bin report -- \
//!     --out docs/bench --figs-dir docs/bench/figures
//! ```
//!
//! `report ab PARENT CHANGE` takes one perfbench result line per run,
//! line i of both files being pair i, and each metric's direction and
//! bound from `BENCHMARK.json` in the current directory; it prints the
//! table of `pipm_bench::report::ab` and writes `ab.csv` and `ab.svg`.
//!
//! Options:
//! * `--out DIR`       output directory (default `docs/bench`)
//! * `--figs-dir DIR`  directory of captured figure CSVs to chart
//!   (default `docs/bench/figures`; missing is fine). Capture tables by
//!   running any figure harness with `PIPM_FIG_CSV_DIR=<dir>`.
//! * `--sweep-log PATH` captured `pipm-client bench --sweep` output to
//!   chart as the serving-layer saturation curve (default
//!   `docs/bench/serve_sweep.log`; missing is fine).
//!
//! Output is a pure function of the inputs — rerunning over the same
//! files rewrites byte-identical artifacts, so the generated charts
//! are committed and reviewed like code. A bad argument exits 2, an
//! unreadable or malformed input 1.

use pipm_bench::report::{self, ReportFile};
use std::path::Path;

const USAGE: &str = "usage: report [--out DIR] [--figs-dir DIR] [--sweep-log PATH]
       report ab PARENT.jsonl CHANGE.jsonl [--out DIR]";

struct Args {
    ab: Option<[String; 2]>,
    out_dir: String,
    figs_dir: String,
    sweep_log: String,
}

fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let ab = args.first().is_some_and(|a| a == "ab");
    let mut parsed = Args {
        ab: None,
        out_dir: "docs/bench".into(),
        figs_dir: "docs/bench/figures".into(),
        sweep_log: "docs/bench/serve_sweep.log".into(),
    };
    let mut files = Vec::new();
    let mut args = args.into_iter().skip(usize::from(ab));
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => parsed.out_dir = value()?,
            "--figs-dir" if !ab => parsed.figs_dir = value()?,
            "--sweep-log" if !ab => parsed.sweep_log = value()?,
            file if ab && !file.starts_with("--") => files.push(arg),
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    if ab {
        let n = files.len();
        let files = files.try_into();
        parsed.ab = Some(files.map_err(|_| format!("ab takes PARENT and CHANGE, got {n} files"))?);
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("report: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("report: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = &args.out_dir;
    if let Some([parent, change]) = &args.ab {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))
        };
        let (parent_text, change_text) = (read(parent)?, read(change)?);
        let benchmark = read("BENCHMARK.json")?;
        let (table, files) =
            report::ab(&benchmark, (parent, &parent_text), (change, &change_text))?;
        print!("{table}");
        return write(out_dir, &files);
    }

    // Chart any captured figure tables (sorted for a stable order).
    if let Ok(entries) = std::fs::read_dir(&args.figs_dir) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect();
        paths.sort();
        for p in paths {
            let Some(stem) = p.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(csv) = std::fs::read_to_string(&p) else {
                continue;
            };
            if let Some(f) = report::figure_chart(stem, &csv) {
                write(out_dir, &[f])?;
            }
        }
    }

    // Chart the serving-layer saturation sweep if a log was captured.
    if let Ok(log) = std::fs::read_to_string(&args.sweep_log) {
        match report::sweep_report(&log) {
            Ok(files) => write(out_dir, &files)?,
            Err(e) => eprintln!("[report] {}: {e}", args.sweep_log),
        }
    }
    Ok(())
}

fn write(out_dir: &str, files: &[ReportFile]) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    for f in files {
        let path = Path::new(out_dir).join(&f.name);
        std::fs::write(&path, &f.contents).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("[report] wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn arguments_are_checked() {
        let ab = args("ab a.jsonl b.jsonl --out x").unwrap();
        assert_eq!(ab.ab, Some(["a.jsonl".into(), "b.jsonl".into()]));
        assert_eq!(ab.out_dir, "x");
        assert_eq!(args("--figs-dir f").unwrap().figs_dir, "f");
        assert_eq!(args("").unwrap().ab, None);
        for bad in "--input x|--out|stray|ab a|ab a b c|ab a b --figs-dir f".split('|') {
            assert!(args(bad).is_err(), "`{bad}` must be refused");
        }
    }

    #[test]
    fn unreadable_inputs_are_errors() {
        // Tests run in the package directory, which has no BENCHMARK.json.
        let ab = |parent: &str| {
            let files = format!("ab {parent} tests/fixtures/ab_change.jsonl");
            run(&args(&files).unwrap()).unwrap_err()
        };
        assert!(ab("no/such.jsonl").starts_with("no/such.jsonl: cannot read: "));
        let e = ab("tests/fixtures/ab_parent.jsonl");
        assert!(e.starts_with("BENCHMARK.json: cannot read: "), "{e}");
    }
}
