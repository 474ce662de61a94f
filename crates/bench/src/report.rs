//! `pipm-bench` reporting: the A/B comparison of two sets of
//! `perfbench` runs, and the committed CSV + SVG charts of captured
//! figure tables and serving sweeps under `docs/bench/`.
//!
//! Everything here is a pure function of its input text: no clocks, no
//! map-iteration order, fixed float formatting — the `report` bin must
//! regenerate byte-identical artifacts from the same inputs (a golden
//! test diffs them), so the charts can live in git and a stale chart
//! shows up as a diff rather than silently drifting.

use crate::stats::paired_permutation_test;
use crate::svg;
use pipm_serve::json::{self, Json};

/// One artifact to write: `name` is relative to the output directory.
#[derive(Clone, Debug)]
pub struct ReportFile {
    /// File name (e.g. `ab.csv`).
    pub name: String,
    /// Full file contents.
    pub contents: String,
}

// ── A/B over perfbench runs ─────────────────────────────────────────
//
// `report ab PARENT.jsonl CHANGE.jsonl` reads the last stdout line of
// each perfbench run, one run per line; line i of both files is pair i.

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Largest tolerated relative worsening of the median; `None`, and
    /// so no verdict, for the per-layer metrics.
    pub bound: Option<f64>,
}

/// The end-to-end then per-layer metrics `BENCHMARK.json` declares.
///
/// # Errors
///
/// A message naming `BENCHMARK.json`: the text is not JSON, or a
/// metric lacks a `name`, a `unit`, a `better` of `higher`/`lower`, or
/// (end-to-end only) a numeric `bound`.
pub fn declared_metrics(benchmark: &str) -> Result<Vec<Declared>, String> {
    let bad = |reason: String| format!("BENCHMARK.json: {reason}");
    let doc = json::parse(benchmark).map_err(|e| bad(format!("not JSON: {e}")))?;
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        let metrics = doc.get(list).and_then(Json::as_arr);
        for m in metrics.ok_or_else(|| bad(format!("no `{list}` array")))? {
            let text = |field: &str| m.get(field).and_then(Json::as_str);
            let (Some(name), Some(unit), Some(better)) =
                (text("name"), text("unit"), text("better"))
            else {
                return Err(bad(format!("a `{list}` entry lacks name, unit or better")));
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if !["higher", "lower"].contains(&better) || (bound.is_none() && list == "end_to_end") {
                return Err(bad(format!("`{name}`: bad `better` or `bound`")));
            }
            out.push(Declared {
                name: name.to_string(),
                unit: unit.to_string(),
                higher_is_better: better == "higher",
                bound,
            });
        }
    }
    Ok(out)
}

/// One perfbench result line: attempted, failed, metric values by name.
type Run = (u64, u64, Vec<(String, f64)>);

/// Parses every line of one side's file as a perfbench result.
fn parse_runs(path: &str, text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = |why: &str| format!("{path}:{}: not a perfbench result: {why}", i + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        let count = |field| doc.get(field).and_then(Json::as_u64);
        let (Some(attempted), Some(failed), Some(fields)) = (
            count("attempted"),
            count("failed"),
            doc.get("metrics").and_then(Json::as_obj),
        ) else {
            return Err(bad("needs whole-number attempted, failed and metrics"));
        };
        let mut metrics = Vec::new();
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite());
            let value = value.ok_or_else(|| bad(&format!("`{name}` has no finite value")))?;
            metrics.push((name.clone(), value));
        }
        runs.push((attempted, failed, metrics));
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

fn value(run: &Run, metric: &str) -> Option<f64> {
    run.2.iter().find(|(m, _)| m == metric).map(|(_, v)| *v)
}

/// `[q1, median, q3]`, interpolating linearly between order statistics.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let h = (v.len() - 1) as f64 * q;
        let lo = h.floor() as usize;
        v[lo] + (v[h.ceil() as usize] - v[lo]) * (h - lo as f64)
    })
}

/// The acceptance verdict of one metric over its paired runs:
/// * `gain`: ≥ 10 pairs, the change wins ≥ 9/10 of them (ties count
///   for neither side), and its median is better by more than the
///   parent's IQR;
/// * `regression`: the change median is worse by more than the bound;
/// * `unresolved`: the parent's IQR/median exceeds the bound, unless
///   every change run is better than every parent run;
/// * `no change` otherwise.
fn verdict(higher_is_better: bool, bound: f64, parent: &[f64], change: &[f64]) -> &'static str {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let better = |a: f64, b: f64| sign * (a - b) > 0.0;
    let ([p1, pm, p3], [_, cm, _]) = (quartiles(parent), quartiles(change));
    let n = parent.len();
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if n >= 10 && wins * 10 >= n * 9 && sign * (cm - pm) > p3 - p1 {
        "gain"
    } else if sign * (pm - cm) / pm.abs() > bound {
        "regression"
    } else if (p3 - p1) / pm.abs() > bound && !every_run_better {
        "unresolved"
    } else {
        "no change"
    }
}

/// A value to four significant digits (whole numbers stay whole).
fn num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// The columns of `ab.csv`, one row per metric.
const CSV_HEADER: &str = "metric,unit,better,bound,pairs,parent_q1,parent_median,parent_q3,\
                          change_q1,change_median,change_q3,parent_iqr_rel,change_iqr_rel,\
                          ratio,ratio_q1,ratio_q3,wins,p_value,verdict";

/// The `ab.csv` columns the stdout table leaves out.
const NOT_IN_TABLE: [&str; 5] = ["better", "bound", "pairs", "ratio_q1", "ratio_q3"];

/// `rows` (header first) as left-aligned columns, without `NOT_IN_TABLE`.
fn aligned(rows: &[Vec<String>]) -> String {
    let keep = (0..rows[0].len()).filter(|&i| !NOT_IN_TABLE.contains(&rows[0][i].as_str()));
    let widths: Vec<(usize, usize)> = keep
        .map(|i| (i, rows.iter().map(|r| r[i].len()).max().unwrap_or(0)))
        .collect();
    let line = |r: &Vec<String>| {
        let cells: Vec<String> = widths
            .iter()
            .map(|&(i, w)| format!("{:<w$}", r[i]))
            .collect();
        cells.join("  ").trim_end().to_string() + "\n"
    };
    rows.iter().map(line).collect()
}

/// Compares two sets of perfbench runs, each given as `(file name,
/// text)`, over the metrics `benchmark` (`BENCHMARK.json`) declares.
///
/// Returns the stdout table and `ab.csv` + `ab.svg`. Per metric the
/// table and CSV give both sides' quartiles and IQR/median, the
/// change/parent median ratio, the change's wins, the
/// paired-permutation p-value of the log ratios (when every value is
/// positive) and a bounded metric's acceptance verdict; the table ends
/// with each side's failed share and a `FAILURE` line when the change's
/// is higher. The SVG shows the median ratios with whiskers at the
/// change's quartiles over the parent median.
///
/// # Errors
///
/// A message naming the file, and the 1-based line where one applies:
/// `BENCHMARK.json` is unusable, a line is not a perfbench result, the
/// files hold different numbers of runs, or a metric is in some runs
/// and not in others.
pub fn ab(
    benchmark: &str,
    parent: (&str, &str),
    change: (&str, &str),
) -> Result<(String, Vec<ReportFile>), String> {
    let declared = declared_metrics(benchmark)?;
    let p_runs = parse_runs(parent.0, parent.1)?;
    let c_runs = parse_runs(change.0, change.1)?;
    let n = p_runs.len();
    if n != c_runs.len() {
        let longer = if n > c_runs.len() { parent.0 } else { change.0 };
        return Err(format!(
            "{longer}:{}: no run to pair with: {} has {n} runs and {} has {}",
            n.min(c_runs.len()) + 1,
            parent.0,
            change.0,
            c_runs.len()
        ));
    }
    let first = &p_runs[0];
    for (path, runs) in [(parent.0, &p_runs), (change.0, &c_runs)] {
        for (i, run) in runs.iter().enumerate() {
            let (here, there) = (format!("{path}:{}", i + 1), format!("{}:1", parent.0));
            for (has, lacks, at, other) in
                [(first, run, &here, &there), (run, first, &there, &here)]
            {
                if let Some((m, _)) = has.2.iter().find(|(m, _)| value(lacks, m).is_none()) {
                    return Err(format!("{at}: metric `{m}` is missing, but {other} has it"));
                }
            }
        }
    }

    let mut rows = vec![CSV_HEADER.split(',').map(String::from).collect::<Vec<_>>()];
    let (mut labels, mut ratios, mut whiskers) = (Vec::new(), Vec::new(), Vec::new());
    for d in declared.iter().filter(|d| value(first, &d.name).is_some()) {
        let side =
            |runs: &[Run]| -> Vec<f64> { runs.iter().filter_map(|r| value(r, &d.name)).collect() };
        let (p, c) = (side(&p_runs), side(&c_runs));
        let ([p1, pm, p3], [c1, cm, c3]) = (quartiles(&p), quartiles(&c));
        let pairs: Vec<(f64, f64)> = p.iter().copied().zip(c.iter().copied()).collect();
        let sign = if d.higher_is_better { 1.0 } else { -1.0 };
        let wins = pairs.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
        let positive = pairs.iter().all(|&(a, b)| a > 0.0 && b > 0.0);
        let p_value = positive.then(|| paired_permutation_test(&pairs)).flatten();
        let verdict = d.bound.map(|b| verdict(d.higher_is_better, b, &p, &c));
        let ratio = [cm, c1, c3].map(|v| if pm == 0.0 { f64::NAN } else { v / pm });
        let rel = [
            (p3 - p1) / pm.abs(),
            (c3 - c1) / cm.abs(),
            ratio[0],
            ratio[1],
            ratio[2],
        ];
        let rel = rel.map(|v| format!("{v:.4}")).join(",");
        let quartiles = [p1, pm, p3, c1, cm, c3].map(num).join(",");
        let better = ["lower", "higher"][usize::from(d.higher_is_better)];
        let bound = d.bound.map_or(String::new(), |b| b.to_string());
        let p = p_value.map_or(String::new(), |t| format!("{:.4}", t.p_value));
        let (name, unit, v) = (&d.name, &d.unit, verdict.unwrap_or_default());
        let line = format!("{name},{unit},{better},{bound},{n},{quartiles},{rel},{wins},{p},{v}");
        rows.push(line.split(',').map(String::from).collect());
        labels.push(match verdict {
            Some(v) => format!("{} ({v})", d.name),
            None => d.name.clone(),
        });
        ratios.push(ratio[0]);
        whiskers.push([ratio[1], ratio[2]]);
    }

    let failed = |runs: &[Run]| runs.iter().fold((0, 0), |(f, a), r| (f + r.1, a + r.0));
    let share = |(f, a): (u64, u64)| f as f64 / a.max(1) as f64;
    let show = |fa: (u64, u64)| format!("{} ({}/{})", num(share(fa)), fa.0, fa.1);
    let (p_failed, c_failed) = (failed(&p_runs), failed(&c_runs));
    let (p_text, c_text) = (show(p_failed), show(c_failed));
    let csv: String = rows.iter().map(|r| r.join(",") + "\n").collect();
    let mut table = format!(
        "report ab: parent {}, change {}, {n} pairs\n",
        parent.0, change.0
    );
    table += &aligned(&rows);
    table += &format!("failed share: parent {p_text}, change {c_text}\n");
    if share(c_failed) > share(p_failed) {
        table += &format!("FAILURE: the failed share rose from {p_text} to {c_text}\n");
    }
    let svg = svg::bar_chart(
        &format!("A/B over {n} pairs: change / parent median"),
        "ratio (whiskers: change q1 to q3)",
        &labels,
        &ratios,
        &whiskers,
    );
    let file = |name: &str, contents| ReportFile {
        name: name.to_string(),
        contents,
    };
    Ok((table, vec![file("ab.csv", csv), file("ab.svg", svg)]))
}

// ── Figure-table capture ────────────────────────────────────────────
//
// The figure harnesses print TSV to stdout; with `PIPM_FIG_CSV_DIR`
// set, `print_table` also tees each table here as `<slug>.csv` so the
// tables can be committed and charted by `report`.

/// File-name slug of a figure title: lowercase, `[a-z0-9]` kept, every
/// other run of characters collapsed to one `_`.
pub fn slugify(title: &str) -> String {
    let mut out = String::new();
    for c in title.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Writes one captured figure table as `<dir>/<slug>.csv`.
pub fn write_fig_csv(
    dir: &str,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut csv = String::new();
    csv.push_str(
        &header
            .iter()
            .map(|c| csv_cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    csv.push('\n');
    for row in rows {
        csv.push_str(
            &row.iter()
                .map(|c| csv_cell(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        csv.push('\n');
    }
    let path = std::path::Path::new(dir).join(format!("{}.csv", slugify(title)));
    std::fs::write(path, csv)
}

/// Quotes a CSV cell only when it needs it (commas, quotes, newlines).
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Charts one captured figure CSV: every column whose data cells all
/// parse as numbers becomes a bar (its geomean over the rows). Returns
/// `None` when the CSV has no numeric columns (nothing to chart).
pub fn figure_chart(stem: &str, csv_text: &str) -> Option<ReportFile> {
    let mut lines = csv_text.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let rows: Vec<Vec<&str>> = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').collect())
        .collect();
    if rows.is_empty() {
        return None;
    }
    let mut labels = Vec::new();
    let mut values = Vec::new();
    for (c, name) in header.iter().enumerate() {
        let cells: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get(c).and_then(|v| v.parse::<f64>().ok()))
            .collect();
        if cells.len() == rows.len() {
            labels.push(name.to_string());
            values.push(crate::geomean(&cells));
        }
    }
    if labels.is_empty() {
        return None;
    }
    Some(ReportFile {
        name: format!("{stem}.svg"),
        contents: svg::bar_chart(
            &format!("{stem} (per-column geomean over {} rows)", rows.len()),
            "geomean",
            &labels,
            &values,
            &[],
        ),
    })
}

// ── Serving-layer saturation sweeps ─────────────────────────────────
//
// `pipm-client bench --sweep` prints one `sweep mode=open-loop …` line
// per offered-load point. Committing that log (plus these pure
// functions) makes the saturation chart a reviewable artifact.

/// One parsed `pipm-client bench --sweep` output line.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Achieved throughput in requests per second.
    pub achieved_rps: f64,
    /// Requests issued at this point.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Application-level errors.
    pub errors: u64,
    /// Transport-level errors.
    pub io_errors: u64,
    /// Median response latency in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile response latency in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub p99_ms: f64,
    /// Maximum response latency in milliseconds.
    pub max_ms: f64,
}

/// Decodes `sweep mode=open-loop …` lines from a captured client log
/// (other lines — server boot chatter, per-request traces — are
/// skipped).
pub fn parse_sweep(text: &str) -> Vec<SweepRow> {
    fn field(line: &str, key: &str) -> Option<f64> {
        let pat = format!("{key}=");
        let start = line.find(&pat)? + pat.len();
        line[start..].split_whitespace().next()?.parse::<f64>().ok()
    }
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("sweep ") && l.contains("offered_rps="))
        .filter_map(|l| {
            Some(SweepRow {
                offered_rps: field(l, "offered_rps")?,
                achieved_rps: field(l, "achieved_rps")?,
                requests: field(l, "requests")? as u64,
                ok: field(l, "ok")? as u64,
                errors: field(l, "errors")? as u64,
                io_errors: field(l, "io_errors")? as u64,
                p50_ms: field(l, "p50_ms")?,
                p90_ms: field(l, "p90_ms")?,
                p99_ms: field(l, "p99_ms")?,
                max_ms: field(l, "max_ms")?,
            })
        })
        .collect()
}

/// Builds the serving-layer saturation artifacts from a captured sweep
/// log: `serve_sweep.csv` (all fields), `serve_sweep.svg` (offered vs
/// achieved throughput), and `serve_sweep_latency.svg` (tail latency vs
/// offered load).
pub fn sweep_report(log_text: &str) -> Result<Vec<ReportFile>, String> {
    let rows = parse_sweep(log_text);
    if rows.is_empty() {
        return Err("no `sweep mode=…` lines in input".to_string());
    }
    let mut files = Vec::new();

    let mut csv = String::from(
        "offered_rps,achieved_rps,requests,ok,errors,io_errors,p50_ms,p90_ms,p99_ms,max_ms\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{:.2},{:.2},{},{},{},{},{:.3},{:.3},{:.3},{:.3}\n",
            r.offered_rps,
            r.achieved_rps,
            r.requests,
            r.ok,
            r.errors,
            r.io_errors,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.max_ms
        ));
    }
    files.push(ReportFile {
        name: "serve_sweep.csv".to_string(),
        contents: csv,
    });

    let x_labels: Vec<String> = rows
        .iter()
        .map(|r| format!("{:.0}", r.offered_rps))
        .collect();
    files.push(ReportFile {
        name: "serve_sweep.svg".to_string(),
        contents: svg::line_chart(
            "pipm-serve saturation: achieved vs offered load (open loop)",
            "requests/s",
            &x_labels,
            &[
                svg::Series {
                    name: "offered".to_string(),
                    values: rows.iter().map(|r| r.offered_rps).collect(),
                },
                svg::Series {
                    name: "achieved".to_string(),
                    values: rows.iter().map(|r| r.achieved_rps).collect(),
                },
            ],
        ),
    });
    files.push(ReportFile {
        name: "serve_sweep_latency.svg".to_string(),
        contents: svg::line_chart(
            "pipm-serve saturation: response latency vs offered load",
            "ms",
            &x_labels,
            &[
                svg::Series {
                    name: "p50".to_string(),
                    values: rows.iter().map(|r| r.p50_ms).collect(),
                },
                svg::Series {
                    name: "p90".to_string(),
                    values: rows.iter().map(|r| r.p90_ms).collect(),
                },
                svg::Series {
                    name: "p99".to_string(),
                    values: rows.iter().map(|r| r.p99_ms).collect(),
                },
            ],
        ),
    });
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
        "per_layer": [{"name": "cpu.ipc", "unit": "instr/cycle", "better": "higher"}]}"#;

    fn run(ops: f64) -> String {
        format!(
            r#"{{"attempted": 3, "failed": 0, "metrics": {{"ops_per_s": {{"value": {ops}}}}}}}"#
        )
    }

    fn ab_err(bench: &str, parent: &str, change: &str) -> String {
        ab(bench, ("a.jsonl", parent), ("b.jsonl", change)).unwrap_err()
    }

    #[test]
    fn ab_input_errors_name_the_file_and_line() {
        let two = format!("{}\n{}\n", run(1.0), run(2.0));
        let bad = |line: &str| ab_err(BENCH, &two, &format!("{}\n{line}\n", run(1.0)));
        for line in ["x", r#"{"attempted": 3, "failed": 0}"#] {
            assert!(bad(line).starts_with("b.jsonl:2: not a perfbench result: "));
        }
        let x = r#"{"attempted": 3, "failed": 0, "metrics": {"ops_per_s": {}}}"#;
        assert!(bad(x).ends_with("`ops_per_s` has no finite value"));
        assert_eq!(ab_err(BENCH, "", &two), "a.jsonl: no runs");

        let counts = "a.jsonl:2: no run to pair with: a.jsonl has 2 runs and b.jsonl has 1";
        assert_eq!(ab_err(BENCH, &two, &run(1.0)), counts);

        let bare = r#"{"attempted": 3, "failed": 0, "metrics": {}}"#;
        let lacks = "b.jsonl:2: metric `ops_per_s` is missing, but a.jsonl:1 has it";
        assert_eq!(
            ab_err(BENCH, &two, &format!("{}\n{bare}\n", run(1.0))),
            lacks
        );
        let lacks = "a.jsonl:1: metric `ops_per_s` is missing, but b.jsonl:1 has it";
        assert_eq!(ab_err(BENCH, bare, &run(1.0)), lacks);

        assert!(ab_err("{", &two, &two).starts_with("BENCHMARK.json: not JSON"));
        let no_bound = BENCH.replace(", \"bound\": 0.25", "");
        assert_eq!(
            ab_err(&no_bound, &two, &two),
            "BENCHMARK.json: `ops_per_s`: bad `better` or `bound`"
        );
    }

    #[test]
    fn verdicts_follow_the_acceptance_rule() {
        let v = |parent: &[f64], change: &[f64]| verdict(true, 0.25, parent, change);
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        // A 20 % lead is a gain at 10/10 and 9/10 pairs won, not at 8/10.
        let mut ahead: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(v(&parent, &ahead), "gain");
        ahead[0] = 90.0;
        assert_eq!(v(&parent, &ahead), "gain");
        ahead[1] = 90.0;
        assert_eq!(v(&parent, &ahead), "no change");
        // Winning every pair is not enough within the parent's IQR (4.5).
        let close: Vec<f64> = parent.iter().map(|p| p + 3.0).collect();
        assert_eq!(v(&parent, &close), "no change");
        let behind: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        assert_eq!(v(&parent, &behind), "regression");
        // A parent spread wider than the bound is unresolved, unless
        // every change run beats every parent run.
        let wide = [50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0];
        let shuffled = [90.0, 50.0, 130.0, 70.0, 110.0, 60.0, 120.0, 80.0, 100.0];
        assert_eq!(v(&wide, &shuffled), "unresolved");
        assert_eq!(v(&wide, &[140.0; 9]), "no change");
    }

    #[test]
    fn slugify_matches_fig_titles() {
        assert_eq!(
            slugify("Figure 10: speedup over Native CXL-DSM"),
            "figure_10_speedup_over_native_cxl_dsm"
        );
        assert_eq!(slugify("Table 1 — config"), "table_1_config");
    }

    #[test]
    fn figure_chart_uses_only_fully_numeric_columns() {
        let csv = "workload,Pipm,note\nBFS,1.810,x\nYCSB,1.790,y\n";
        let f = figure_chart("fig", csv).unwrap();
        assert!(f.contents.contains("Pipm"));
        assert!(!f.contents.contains(">workload<"));
        assert!(figure_chart("fig", "a,b\n").is_none());
    }

    const SWEEP_FIXTURE: &str = "\
boot: listening on 127.0.0.1:4000\n\
sweep mode=open-loop offered_rps=100.00 achieved_rps=99.80 requests=100 ok=100 errors=0 io_errors=0 p50_ms=1.200 p90_ms=2.100 p99_ms=3.500 max_ms=4.000\n\
sweep mode=open-loop offered_rps=200.00 achieved_rps=180.50 requests=200 ok=198 errors=2 io_errors=0 p50_ms=2.500 p90_ms=8.000 p99_ms=20.000 max_ms=31.000\n\
done\n";

    #[test]
    fn parses_sweep_lines_and_skips_chatter() {
        let rows = parse_sweep(SWEEP_FIXTURE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].offered_rps, 100.0);
        assert_eq!(rows[1].achieved_rps, 180.5);
        assert_eq!(rows[1].errors, 2);
        assert_eq!(rows[1].p99_ms, 20.0);
    }

    #[test]
    fn sweep_report_is_deterministic_and_complete() {
        let a = sweep_report(SWEEP_FIXTURE).unwrap();
        let b = sweep_report(SWEEP_FIXTURE).unwrap();
        assert_eq!(a.len(), 3);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(
                fa.contents, fb.contents,
                "{} must be deterministic",
                fa.name
            );
        }
        let csv = a.iter().find(|f| f.name == "serve_sweep.csv").unwrap();
        assert!(csv.contents.contains("100.00,99.80"));
        let svg = a.iter().find(|f| f.name == "serve_sweep.svg").unwrap();
        assert!(svg.contents.contains("achieved"));
        let lat = a
            .iter()
            .find(|f| f.name == "serve_sweep_latency.svg")
            .unwrap();
        assert!(lat.contents.contains("p99"));
        assert!(sweep_report("no sweep lines here\n").is_err());
    }
}
