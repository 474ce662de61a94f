//! The simulator workloads. Every cell runs the calls `run_one` makes —
//! `Workload::streams`, `System::new`, `System::run` — each timed, then
//! `System::check_consistency`, timed apart from the rest.

use crate::metrics::{median, percentile, ratio, Metrics};
use pipm_core::System;
use pipm_types::{SchemeKind, SystemConfig, SystemStats};
use pipm_workloads::{Workload, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One (workload, scheme) simulation.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Trace generator.
    pub workload: Workload,
    /// Memory-management scheme.
    pub scheme: SchemeKind,
}

const fn cell(workload: Workload, scheme: SchemeKind) -> Cell {
    Cell { workload, scheme }
}

/// `sim_shared`: read-mostly XSBench, YCSB and write-heavy canneal under
/// the schemes whose misses cross the CXL fabric (directory, remap
/// tables, kernel migration).
pub const SHARED_CELLS: [Cell; 9] = {
    use SchemeKind::{Native, Nomad, Pipm};
    use Workload::{Canneal, Xsbench, Ycsb};
    [
        cell(Xsbench, Native),
        cell(Xsbench, Pipm),
        cell(Xsbench, Nomad),
        cell(Ycsb, Native),
        cell(Ycsb, Pipm),
        cell(Ycsb, Nomad),
        cell(Canneal, Native),
        cell(Canneal, Pipm),
        cell(Canneal, Nomad),
    ]
};

/// `sim_local`: Local-only cells, which never reach the device directory,
/// the fabric or the remap tables.
pub const LOCAL_CELLS: [Cell; 3] = [
    cell(Workload::Pr, SchemeKind::LocalOnly),
    cell(Workload::Streamcluster, SchemeKind::LocalOnly),
    cell(Workload::Fluidanimate, SchemeKind::LocalOnly),
];

/// References per core of one simulator-workload cell.
pub const REFS_PER_CORE: u64 = 40_000;

/// Fewest repeats of the cell set in a measured pass, so every median
/// has several samples even when `--seconds` is short.
const MIN_REPEATS: usize = 3;

/// A timed call, kept in memory by a traced pass.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call: `streams`, `new`, `run` or `check`.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Timings and outcome of one cell.
pub struct CellRun {
    /// Host time in `Workload::streams`.
    pub streams: Duration,
    /// Host time in `System::new`.
    pub new: Duration,
    /// Host time in `System::run`.
    pub run: Duration,
    /// References simulated (all cores, warm-up included).
    pub refs: u64,
    /// Post-warm-up statistics; `None` when the simulator panicked.
    pub stats: Option<SystemStats>,
    /// Why the cell failed its own checks, if it did.
    pub error: Option<String>,
}

impl CellRun {
    /// Set-up host time: trace generators plus system construction.
    pub fn setup(&self) -> Duration {
        self.streams + self.new
    }
}

/// Runs one cell, recording a span per call when `spans` is given. A
/// panic inside the simulator is caught and reported as the cell's error.
pub fn run_cell(
    cell: &Cell,
    params: &WorkloadParams,
    origin: Instant,
    mut spans: Option<&mut Vec<Span>>,
) -> CellRun {
    let mut span = |name, start: Instant, end: Instant| {
        if let Some(s) = spans.as_deref_mut() {
            s.push(Span {
                name,
                start_ns: (start - origin).as_nanos() as u64,
                end_ns: (end - origin).as_nanos() as u64,
            });
        }
        end - start
    };
    let mut cfg = SystemConfig::experiment_scale();
    let refs = params.refs_per_core * cfg.total_cores() as u64;
    let mut out = CellRun {
        streams: Duration::ZERO,
        new: Duration::ZERO,
        run: Duration::ZERO,
        refs,
        stats: None,
        error: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let streams = cell.workload.streams(&mut cfg, params);
        let t1 = Instant::now();
        let mut sys = System::new(cfg, cell.scheme);
        let t2 = Instant::now();
        let stats = sys.run(streams, params.refs_per_core);
        let t3 = Instant::now();
        let check = sys.check_consistency();
        let t4 = Instant::now();
        out.streams = span("streams", t0, t1);
        out.new = span("new", t1, t2);
        out.run = span("run", t2, t3);
        span("check", t3, t4);
        (stats, check)
    }));
    match outcome {
        Ok((stats, check)) => {
            out.stats = Some(stats);
            out.error = check.err();
        }
        Err(_) => out.error = Some("simulator panicked".into()),
    }
    out
}

/// When a pass stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After the first whole repeat that ends past this much time (and at
    /// least [`MIN_REPEATS`] repeats).
    After(Duration),
    /// After exactly this many repeats.
    Repeats(usize),
}

/// One measured pass: the cell set run again and again.
pub struct Pass {
    /// `runs[r][c]`: repeat `r` of cell `c`.
    pub runs: Vec<Vec<CellRun>>,
    /// Host time of the whole pass.
    pub elapsed: Duration,
    /// Spans of a traced pass; empty otherwise.
    pub spans: Vec<Span>,
}

/// Runs the cell set repeatedly until `stop`, recording spans when
/// `traced`. Modelled caches start empty in every cell.
pub fn pass(cells: &[Cell], params: &WorkloadParams, stop: Stop, traced: bool) -> Pass {
    let origin = Instant::now();
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    loop {
        let done = match stop {
            Stop::After(d) => runs.len() >= MIN_REPEATS && origin.elapsed() >= d,
            Stop::Repeats(n) => runs.len() >= n,
        };
        if done {
            break;
        }
        let repeat = cells
            .iter()
            .map(|c| run_cell(c, params, origin, traced.then_some(&mut spans)))
            .collect();
        runs.push(repeat);
    }
    Pass {
        runs,
        elapsed: origin.elapsed(),
        spans,
    }
}

/// Why a cell run counts as failed: its consistency check failed, the
/// simulator panicked, or its statistics differ from `reference` (the
/// same cell's first run with the same inputs — the simulator is
/// deterministic, so any difference is a bug).
pub fn failure(run: &CellRun, reference: Option<&SystemStats>) -> Option<String> {
    if let Some(e) = &run.error {
        return Some(e.clone());
    }
    match (&run.stats, reference) {
        (Some(s), Some(r)) if s != r => Some("statistics differ from the first run".into()),
        (Some(_), _) => None,
        (None, _) => Some("no statistics".into()),
    }
}

/// Checks every run of `pass` against `reference` (per cell), returning
/// (attempted, failed) and logging each failure to stderr.
pub fn check(cells: &[Cell], pass: &Pass, reference: &[Option<SystemStats>]) -> (u64, u64) {
    let mut failed = 0;
    let mut attempted = 0;
    for repeat in &pass.runs {
        for (i, run) in repeat.iter().enumerate() {
            attempted += 1;
            if let Some(why) = failure(run, reference[i].as_ref()) {
                failed += 1;
                eprintln!(
                    "perfbench: {}/{} failed: {why}",
                    cells[i].workload.label(),
                    cells[i].scheme.label()
                );
            }
        }
    }
    (attempted, failed)
}

/// The first repeat's statistics, per cell: the determinism reference.
pub fn reference(pass: &Pass) -> Vec<Option<SystemStats>> {
    pass.runs[0].iter().map(|r| r.stats.clone()).collect()
}

/// End-to-end metrics of an untraced pass (all but `peak_rss_mb`).
pub fn end_to_end(pass: &Pass, attempted: u64, failed: u64) -> Metrics {
    let setups: Vec<f64> = pass
        .runs
        .iter()
        .map(|repeat| repeat.iter().map(|r| r.setup().as_secs_f64()).sum())
        .collect();
    // Each cell's fastest run over the repeats. Other tenants of a shared
    // host only ever add time, and on a noisy host the fastest of many
    // repeats is far steadier from run to run than their median. The
    // percentiles are taken over cells (with at most 10 cells, p90 is
    // the slowest cell).
    let cell_ms: Vec<f64> = (0..pass.runs[0].len())
        .map(|c| {
            pass.runs
                .iter()
                .map(|repeat| repeat[c].run.as_secs_f64() * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let refs: u64 = pass.runs[0].iter().map(|r| r.refs).sum();
    vec![
        (
            "ops_per_s",
            refs as f64 / (cell_ms.iter().sum::<f64>() / 1e3),
        ),
        ("p50_ms", percentile(&cell_ms, 0.50)),
        ("p90_ms", percentile(&cell_ms, 0.90)),
        ("good_frac", 1.0 - ratio(failed as f64, attempted as f64)),
        ("setup_s", median(&setups)),
    ]
}

/// Host-time layer metrics of the `System` calls, from a traced pass's
/// spans.
pub fn system_layers(pass: &Pass) -> Metrics {
    let ms = |name: &str| -> Vec<f64> {
        pass.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let run_ns: f64 = ms("run").iter().sum::<f64>() * 1e6;
    let refs: u64 = pass.runs.iter().flatten().map(|r| r.refs).sum();
    vec![
        ("core.system.new_ms", median(&ms("new"))),
        ("core.system.run_ns_per_ref", run_ns / refs as f64),
        ("core.system.check_ms", median(&ms("check"))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadParams {
        WorkloadParams {
            refs_per_core: 1_000,
            seed: 3,
        }
    }

    #[test]
    fn a_clean_cell_passes_and_spans_cover_its_calls() {
        let mut spans = Vec::new();
        let origin = Instant::now();
        let run = run_cell(&SHARED_CELLS[1], &tiny(), origin, Some(&mut spans));
        assert_eq!(failure(&run, None), None);
        assert_eq!(failure(&run, run.stats.as_ref()), None);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["streams", "new", "run", "check"]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn injected_failures_are_counted_not_panicked() {
        let cells = [LOCAL_CELLS[0]];
        let mut pass = pass(&cells, &tiny(), Stop::Repeats(3), false);
        let reference = reference(&pass);
        assert_eq!(check(&cells, &pass, &reference), (3, 0));

        // A consistency violation, a statistics mismatch and a panic.
        pass.runs[0][0].error = Some("injected".into());
        pass.runs[1][0].stats.as_mut().unwrap().directory_recalls += 1;
        pass.runs[2][0].stats = None;
        assert_eq!(check(&cells, &pass, &reference), (3, 3));
        let e2e = end_to_end(&pass, 3, 3);
        let good = e2e.iter().find(|(n, _)| *n == "good_frac").unwrap().1;
        assert_eq!(good, 0.0);
    }
}
