//! Benchmark harness regenerating every table and figure of the PIPM
//! paper's evaluation (§5).
//!
//! Each figure has a binary in `src/bin/` (thin wrappers over the
//! functions in [`figs`]); `bin/all_figures` runs the full set. Results
//! are cached in `target/pipm_results_cache.tsv` keyed by (workload,
//! scheme, parameters), so figures sharing runs (Fig. 10–13 all use the
//! default-configuration matrix) pay for them once.
//!
//! Each figure declares its `(workload, scheme, configuration)` grid
//! once as a list of [`Point`]s and measures it with one
//! [`Harness::measure_all`] call, which fans the points out across worker
//! threads ([`pipm_core::par_map`]) under the shared
//! [`pipm_core::RunCache`] with in-flight deduplication (two figures
//! never simulate the same point twice, even concurrently), and formats
//! its table from the returned vector. Every point is keyed by
//! [`pipm_core::job_key`] and computed by [`pipm_core::Runner::run`], the
//! same address and compute path the `pipm-serve` daemon uses
//! (`tests/serve.rs` checks the fingerprints agree). Each `System` is
//! fully self-contained, so parallel results are bit-identical to serial
//! ones (`tests/determinism.rs` asserts this).
//!
//! Scale knobs (environment variables):
//!
//! * `PIPM_SCALE` — multiplies references per core (default 1.0 →
//!   400 K refs/core; the EXPERIMENTS.md results use the default). A
//!   value that is not a finite positive number is an error.
//! * `PIPM_WORKLOADS` — comma-separated workload filter (default: all 13).
//!   An unknown name or an empty list is an error.
//! * `PIPM_NO_CACHE` — ignore the on-disk result cache.
//! * `PIPM_WORKERS` — worker-thread count (default: available
//!   parallelism; non-numeric values warn and fall back).
//! * `PIPM_QUIET` — suppress the per-run observability lines on stderr.
//!
//! The boolean knobs honor falsy values: empty, `0`, `false`, `no`, and
//! `off` (any case) behave as if the variable were unset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;
pub mod report;
pub mod stats;
pub mod svg;

use pipm_core::{job_key, par_map, CfgDelta, RunCache, RunResult, Runner};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Everything the figures need from one simulation run, in a flat,
/// TSV-serializable form.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Execution time in cycles (max core clock).
    pub exec_cycles: u64,
    /// Local memory hit rate over shared-data LLC misses (Fig. 11).
    pub local_hit: f64,
    /// Sum of inter-host stall cycles across cores (Fig. 12 numerator).
    pub interhost_stall_sum: u64,
    /// Total migration-management stall cycles across cores (Fig. 4).
    pub mgmt_stall_sum: u64,
    /// Total transfer-attributed stall cycles across cores (Fig. 4).
    pub transfer_stall_sum: u64,
    /// Number of cores (normalization for the stall sums).
    pub cores: u64,
    /// Harmful promotions (Fig. 5 numerator).
    pub harmful: u64,
    /// Evaluated promotions (Fig. 5 denominator).
    pub evaluated: u64,
    /// Mean peak per-host page-granularity footprint fraction (Fig. 13).
    pub footprint_page: f64,
    /// Mean peak per-host line-granularity footprint fraction (Fig. 13).
    pub footprint_line: f64,
}

impl Measurement {
    fn from_run(r: &RunResult) -> Self {
        let s = &r.stats;
        Measurement {
            exec_cycles: s.exec_cycles(),
            local_hit: s.local_hit_rate(),
            interhost_stall_sum: s.total_interhost_stall(),
            mgmt_stall_sum: s.total_mgmt_stall(),
            transfer_stall_sum: s.total_transfer_stall(),
            cores: s.cores.len() as u64,
            harmful: s.migration.harmful_promotions,
            evaluated: s.migration.evaluated_promotions,
            footprint_page: s.footprint_page_fraction(r.cfg.shared_pages()),
            footprint_line: s.footprint_line_fraction(r.cfg.shared_pages()),
        }
    }

    /// Fraction of promotions that were harmful (Fig. 5).
    pub fn harmful_fraction(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.harmful as f64 / self.evaluated as f64
        }
    }

    /// Fig. 12 metric: inter-host stall cycles as a fraction of the
    /// *reference* (native) execution time.
    pub fn interhost_stall_fraction(&self, native_exec: u64) -> f64 {
        if native_exec == 0 || self.cores == 0 {
            0.0
        } else {
            self.interhost_stall_sum as f64 / (native_exec as f64 * self.cores as f64)
        }
    }

    fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.exec_cycles,
            self.local_hit,
            self.interhost_stall_sum,
            self.mgmt_stall_sum,
            self.transfer_stall_sum,
            self.cores,
            self.harmful,
            self.evaluated,
            self.footprint_page,
            self.footprint_line,
        )
    }

    fn from_tsv(fields: &[&str]) -> Option<Self> {
        if fields.len() != 10 {
            return None;
        }
        Some(Measurement {
            exec_cycles: fields[0].parse().ok()?,
            local_hit: fields[1].parse().ok()?,
            interhost_stall_sum: fields[2].parse().ok()?,
            mgmt_stall_sum: fields[3].parse().ok()?,
            transfer_stall_sum: fields[4].parse().ok()?,
            cores: fields[5].parse().ok()?,
            harmful: fields[6].parse().ok()?,
            evaluated: fields[7].parse().ok()?,
            footprint_page: fields[8].parse().ok()?,
            footprint_line: fields[9].parse().ok()?,
        })
    }
}

/// One simulation point of a figure: what [`Harness::measure_all`]
/// measures.
#[derive(Clone, Debug)]
pub struct Point {
    workload: Workload,
    scheme: SchemeKind,
    /// Display name of the configuration deviation ("" for the default),
    /// shown on the `[run]` lines; not part of the cache key.
    label: String,
    cfg: SystemConfig,
    /// `Some` for a checkpointed sweep point (see [`pipm_core::job_key`]).
    delta: Option<CfgDelta>,
}

impl Point {
    /// A full run under the experiment-scale configuration as changed by
    /// `edit`.
    pub fn full(
        workload: Workload,
        scheme: SchemeKind,
        label: impl Into<String>,
        edit: impl FnOnce(&mut SystemConfig),
    ) -> Self {
        let mut cfg = SystemConfig::experiment_scale();
        edit(&mut cfg);
        Point {
            workload,
            scheme,
            label: label.into(),
            cfg,
            delta: None,
        }
    }

    /// A full run under the default experiment-scale configuration (the
    /// Fig. 10–13 matrix).
    pub fn default_cfg(workload: Workload, scheme: SchemeKind) -> Self {
        Point::full(workload, scheme, "", |_| {})
    }

    /// A checkpointed sweep point applying `delta` to the measured tail.
    pub fn sweep(
        workload: Workload,
        scheme: SchemeKind,
        label: impl Into<String>,
        delta: CfgDelta,
    ) -> Self {
        Point {
            workload,
            scheme,
            label: label.into(),
            cfg: SystemConfig::experiment_scale(),
            delta: Some(delta),
        }
    }
}

/// Monotonic observability counters, readable as a snapshot to compute
/// per-figure deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HarnessCounters {
    /// Simulations actually executed (run-cache misses).
    pub runs: u64,
    /// Run-cache hits (memory or preloaded from disk).
    pub cache_hits: u64,
    /// Run-cache lookups that found the point already being simulated by
    /// another worker and waited for it instead of recomputing.
    pub cache_inflight_dedup: u64,
    /// Simulated cycles accumulated by executed runs.
    pub sim_cycles: u64,
    /// Wall nanoseconds spent inside executed runs (summed across
    /// workers; exceeds elapsed time when runs overlap).
    pub run_wall_nanos: u64,
    /// Warmed sweep prefixes simulated (checkpoint-cache misses).
    pub ckpt_prefixes: u64,
    /// Sweep points served by forking a warmed checkpoint instead of
    /// re-simulating its prefix.
    pub ckpt_forks: u64,
    /// Wall nanoseconds spent simulating sweep prefixes (each fork
    /// beyond the first per checkpoint saves roughly
    /// `ckpt_prefix_wall_nanos / ckpt_prefixes`).
    pub ckpt_prefix_wall_nanos: u64,
}

impl HarnessCounters {
    /// Counter-wise difference (`self - earlier`).
    pub fn since(&self, earlier: &HarnessCounters) -> HarnessCounters {
        HarnessCounters {
            runs: self.runs - earlier.runs,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_inflight_dedup: self.cache_inflight_dedup - earlier.cache_inflight_dedup,
            sim_cycles: self.sim_cycles - earlier.sim_cycles,
            run_wall_nanos: self.run_wall_nanos - earlier.run_wall_nanos,
            ckpt_prefixes: self.ckpt_prefixes - earlier.ckpt_prefixes,
            ckpt_forks: self.ckpt_forks - earlier.ckpt_forks,
            ckpt_prefix_wall_nanos: self.ckpt_prefix_wall_nanos - earlier.ckpt_prefix_wall_nanos,
        }
    }
}

/// One figure's timing record, printed in the `all_figures` summary.
#[derive(Clone, Debug)]
pub struct FigureTiming {
    /// Figure name (e.g. "fig10").
    pub name: String,
    /// Wall seconds spent in the figure function.
    pub wall_secs: f64,
    /// Counter deltas attributed to the figure.
    pub counters: HarnessCounters,
}

/// The experiment driver: scale parameters, the thread-safe run cache,
/// and the observability counters.
pub struct Harness {
    /// References per core for every run.
    pub refs_per_core: u64,
    /// Master seed.
    pub seed: u64,
    /// Workloads every figure covers, in row order.
    pub workloads: Vec<Workload>,
    workers: usize,
    quiet: bool,
    cache: RunCache<Measurement>,
    /// Computes every uncached point; owns the warmed sweep checkpoints.
    runner: Runner,
    cache_path: Option<PathBuf>,
    runs: AtomicU64,
    sim_cycles: AtomicU64,
    run_wall_nanos: AtomicU64,
    timings: Mutex<Vec<FigureTiming>>,
}

/// Interprets a boolean-ish environment value: unset, empty, `0`,
/// `false`, `no`, and `off` (case-insensitive) are falsy; anything else
/// is truthy. Plain presence checks (`is_ok()`) wrongly treated
/// `PIPM_QUIET=0` as quiet.
fn env_flag(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim();
            !(v.is_empty()
                || v.eq_ignore_ascii_case("0")
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("no")
                || v.eq_ignore_ascii_case("off"))
        }
    }
}

/// Interprets a worker-count environment value. Unset yields `default`
/// silently; a positive integer is used as-is; anything else (zero,
/// negative, garbage) yields `default` plus a warning for the caller to
/// surface — silently falling back hid typos like `PIPM_WORKERS=four`.
fn env_workers(value: Option<&str>, default: usize) -> (usize, Option<String>) {
    match value {
        None => (default, None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(w) if w > 0 => (w, None),
            _ => (
                default,
                Some(format!(
                    "PIPM_WORKERS={v:?} is not a positive integer; using {default}"
                )),
            ),
        },
    }
}

/// Interprets a `PIPM_SCALE` value: unset is 1.0; anything but a finite
/// positive number is an error naming the variable and the value.
fn env_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(v) = value else { return Ok(1.0) };
    match v.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("PIPM_SCALE='{v}' is not a finite positive number")),
    }
}

/// Interprets a `PIPM_WORKLOADS` value: unset is every workload; an
/// empty list or an unknown name is an error naming the variable and the
/// value.
fn env_workloads(value: Option<&str>) -> Result<Vec<Workload>, String> {
    let Some(v) = value else {
        return Ok(Workload::ALL.to_vec());
    };
    if v.trim().is_empty() {
        return Err(format!("PIPM_WORKLOADS='{v}' names no workload"));
    }
    v.split(',')
        .map(|name| {
            name.trim().parse().map_err(|_| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
                format!(
                    "PIPM_WORKLOADS='{v}': unknown workload '{}' (known: {})",
                    name.trim(),
                    known.join(",")
                )
            })
        })
        .collect()
}

impl Harness {
    /// Builds the harness from the environment (see crate docs). A
    /// malformed `PIPM_SCALE` or `PIPM_WORKLOADS` is an error.
    pub fn from_env() -> Result<Self, String> {
        let scale = env_scale(std::env::var("PIPM_SCALE").ok().as_deref())?;
        let workloads = env_workloads(std::env::var("PIPM_WORKLOADS").ok().as_deref())?;
        let refs = ((400_000.0 * scale) as u64).max(10_000);
        let cache_path = if env_flag(std::env::var("PIPM_NO_CACHE").ok().as_deref()) {
            None
        } else {
            Some(PathBuf::from("target/pipm_results_cache.tsv"))
        };
        let default_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (workers, warn) = env_workers(
            std::env::var("PIPM_WORKERS").ok().as_deref(),
            default_workers,
        );
        if let Some(w) = warn {
            eprintln!("warning: {w}");
        }
        let mut h = Harness::with_settings(refs, 0x51_57, cache_path, workers);
        h.workloads = workloads;
        h.quiet = env_flag(std::env::var("PIPM_QUIET").ok().as_deref());
        Ok(h)
    }

    /// Builds a harness with explicit settings (no environment reads)
    /// covering every workload; used by tests. `cache_path = None`
    /// disables the on-disk cache. Corrupt lines are skipped, and so is
    /// an unterminated last line: a torn append may have cut `0.83` to a
    /// `0.8` that still parses.
    pub fn with_settings(
        refs_per_core: u64,
        seed: u64,
        cache_path: Option<PathBuf>,
        workers: usize,
    ) -> Self {
        let cache = RunCache::unbounded();
        if let Some(p) = &cache_path {
            if let Ok(text) = std::fs::read_to_string(p) {
                let whole = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
                for line in whole.lines() {
                    let mut parts = line.splitn(2, '\t');
                    if let (Some(key), Some(rest)) = (parts.next(), parts.next()) {
                        let fields: Vec<&str> = rest.split('\t').collect();
                        if let Some(m) = Measurement::from_tsv(&fields) {
                            cache.insert(key, m);
                        }
                    }
                }
            }
        }
        Harness {
            refs_per_core,
            seed,
            workloads: Workload::ALL.to_vec(),
            // One clamp policy for every PIPM_WORKERS-driven pool: more
            // threads than cores only adds scheduling overhead (warns once).
            workers: pipm_core::effective_workers(workers).max(1),
            quiet: true,
            cache,
            runner: Runner::new(64),
            cache_path,
            runs: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            run_wall_nanos: AtomicU64::new(0),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker threads [`Harness::measure_all`] fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Measures every point, fanning them out across
    /// [`Harness::workers`] threads, and returns the measurements in
    /// point order. Each point is looked up once in the run cache;
    /// uncached points are simulated. Concurrent lookups of the same
    /// point deduplicate: one worker simulates, the others block until
    /// the result lands in the cache (see [`pipm_core::RunCache`]).
    /// Results are bit-identical to a serial run (each `System` is
    /// self-contained; see `tests/determinism.rs`).
    ///
    /// Every point is keyed by the canonical [`pipm_core::job_key`] of
    /// its configuration and delta, so two figures can never alias
    /// distinct configurations (and identical points always share one
    /// run, whatever they are labelled), and computed by
    /// [`pipm_core::Runner::run`] with the same arguments. A sweep
    /// point's warmed prefix (the warm-up window, 2/3 of the run) is
    /// simulated **once** per `(workload, scheme)` and forked; the point
    /// then simulates only the measured tail under its delta.
    pub fn measure_all(&self, points: &[Point]) -> Vec<Measurement> {
        par_map(points, self.workers, |p| self.measure_point(p))
    }

    fn measure_point(&self, p: &Point) -> Measurement {
        let params = WorkloadParams {
            refs_per_core: self.refs_per_core,
            seed: self.seed,
        };
        let delta = p.delta.as_ref();
        let key = job_key(p.workload, p.scheme, &p.cfg, &params, delta);
        self.cache.get_or_compute(&key, || {
            let started = Instant::now();
            let run = self
                .runner
                .run(p.workload, p.scheme, &p.cfg, &params, delta);
            self.record_run(p, &key, &run, started.elapsed())
        })
    }

    /// Appends one cache line to the on-disk cache. The line is written
    /// with a single `write_all` on an append-mode file, so lines from
    /// parallel workers never interleave.
    fn append_disk_cache(&self, key: &str, m: &Measurement) {
        let Some(p) = &self.cache_path else { return };
        if let Some(dir) = p.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let line = format!("{key}\t{}\n", m.to_tsv());
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }

    /// Counts an executed run, prints its `[run]` line, appends it to
    /// the on-disk cache and returns its measurement.
    fn record_run(
        &self,
        p: &Point,
        key: &str,
        run: &RunResult,
        wall: std::time::Duration,
    ) -> Measurement {
        let m = Measurement::from_run(run);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.sim_cycles.fetch_add(m.exec_cycles, Ordering::Relaxed);
        self.run_wall_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        if !self.quiet {
            let secs = wall.as_secs_f64().max(1e-9);
            eprintln!(
                "[run] {}/{}{}{} wall={secs:.2}s cycles={:.1}M rate={:.1}Mcyc/s",
                p.workload,
                p.scheme,
                if p.label.is_empty() { "" } else { "/" },
                p.label,
                m.exec_cycles as f64 / 1e6,
                m.exec_cycles as f64 / 1e6 / secs,
            );
        }
        self.append_disk_cache(key, &m);
        m
    }

    /// Snapshot of the observability counters.
    pub fn counters(&self) -> HarnessCounters {
        let cache = self.cache.stats();
        let runner = self.runner.stats();
        HarnessCounters {
            runs: self.runs.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_inflight_dedup: cache.inflight_waits,
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            run_wall_nanos: self.run_wall_nanos.load(Ordering::Relaxed),
            ckpt_prefixes: runner.prefixes,
            ckpt_forks: runner.forks,
            ckpt_prefix_wall_nanos: runner.prefix_wall_nanos,
        }
    }

    /// Records a figure's timing for [`Harness::print_timing_summary`].
    pub fn record_figure(&self, timing: FigureTiming) {
        self.timings
            .lock()
            .expect("timing log poisoned")
            .push(timing);
    }

    /// Prints the per-figure timing summary accumulated by
    /// [`run_figure`] to stderr.
    pub fn print_timing_summary(&self) {
        let timings = self.timings.lock().expect("timing log poisoned");
        if timings.is_empty() {
            return;
        }
        eprintln!("[timing] figure        wall_s     runs  cache_hits  sim_Mcyc  Mcyc/s");
        let mut total_wall = 0.0;
        for t in timings.iter() {
            total_wall += t.wall_secs;
            let mcyc = t.counters.sim_cycles as f64 / 1e6;
            eprintln!(
                "[timing] {:<12} {:>8.2} {:>8} {:>11} {:>9.1} {:>7.1}",
                t.name,
                t.wall_secs,
                t.counters.runs,
                t.counters.cache_hits,
                mcyc,
                mcyc / t.wall_secs.max(1e-9),
            );
        }
        let c = self.counters();
        eprintln!(
            "[timing] total        {:>8.2} {:>8} {:>11} {:>9.1} (workers={})",
            total_wall,
            c.runs,
            c.cache_hits,
            c.sim_cycles as f64 / 1e6,
            self.workers,
        );
        let s = self.cache.stats();
        eprintln!(
            "[timing] run-cache    hits={} misses={} inflight_dedup={} preloaded={} entries={}",
            s.hits,
            s.misses,
            s.inflight_waits,
            s.preloads,
            self.cache.len(),
        );
        let prefixes = c.ckpt_prefixes;
        if prefixes > 0 {
            // Each fork beyond the first per checkpoint would otherwise
            // have re-simulated a prefix of roughly the mean prefix cost.
            let mean_prefix_secs = c.ckpt_prefix_wall_nanos as f64 / 1e9 / prefixes as f64;
            let saved = c.ckpt_forks.saturating_sub(prefixes) as f64 * mean_prefix_secs;
            eprintln!(
                "[timing] checkpoints  prefixes={} forks={} prefix_wall={:.2}s est_saved={saved:.2}s",
                prefixes,
                c.ckpt_forks,
                c.ckpt_prefix_wall_nanos as f64 / 1e9,
            );
        }
    }
}

/// Runs one figure function with timing and counter attribution, prints
/// a one-line summary to stderr, and records it for the final
/// [`Harness::print_timing_summary`] table.
pub fn run_figure(h: &Harness, name: &str, f: impl FnOnce(&Harness)) {
    let before = h.counters();
    let started = Instant::now();
    f(h);
    let wall = started.elapsed().as_secs_f64();
    let delta = h.counters().since(&before);
    eprintln!(
        "[figure {name}] wall={wall:.2}s runs={} cache_hits={} sim_cycles={:.1}M",
        delta.runs,
        delta.cache_hits,
        delta.sim_cycles as f64 / 1e6,
    );
    h.record_figure(FigureTiming {
        name: name.to_string(),
        wall_secs: wall,
        counters: delta,
    });
}

/// Geometric mean of a non-empty slice (0.0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a TSV table: header row then data rows. With
/// `PIPM_FIG_CSV_DIR` set, the table is also captured as
/// `<dir>/<slug>.csv` so `report` can commit and chart it.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
    println!();
    if let Ok(dir) = std::env::var("PIPM_FIG_CSV_DIR") {
        if !dir.is_empty() {
            if let Err(e) = report::write_fig_csv(&dir, title, header, rows) {
                eprintln!("[bench] cannot capture table to {dir}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_core::{run_one_with_delta, sweep_prefix};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn env_flag_honors_falsy_values() {
        assert!(!env_flag(None));
        for falsy in ["", "0", "false", "FALSE", "no", "No", "off", " 0 "] {
            assert!(!env_flag(Some(falsy)), "{falsy:?} must be falsy");
        }
        for truthy in ["1", "true", "yes", "on", "anything"] {
            assert!(env_flag(Some(truthy)), "{truthy:?} must be truthy");
        }
    }

    #[test]
    fn env_workers_parses_warns_and_defaults() {
        assert_eq!(env_workers(None, 8), (8, None));
        assert_eq!(env_workers(Some("4"), 8), (4, None));
        assert_eq!(env_workers(Some(" 2 "), 8), (2, None));
        // Zero, negatives, and garbage fall back with a warning.
        for bad in ["0", "-3", "four", "", "1.5"] {
            let (w, warn) = env_workers(Some(bad), 8);
            assert_eq!(w, 8, "{bad:?} must fall back to the default");
            let msg = warn.expect("unparsable value must warn");
            assert!(msg.contains("PIPM_WORKERS"), "warning names the knob");
        }
    }

    fn sample() -> Measurement {
        Measurement {
            exec_cycles: 123,
            local_hit: 0.25,
            interhost_stall_sum: 7,
            mgmt_stall_sum: 8,
            transfer_stall_sum: 9,
            cores: 16,
            harmful: 3,
            evaluated: 6,
            footprint_page: 0.07,
            footprint_line: 0.05,
        }
    }

    #[test]
    fn measurement_tsv_round_trip() {
        let m = sample();
        let tsv = m.to_tsv();
        let fields: Vec<&str> = tsv.split('\t').collect();
        let back = Measurement::from_tsv(&fields).unwrap();
        assert_eq!(m, back);
        assert!((m.harmful_fraction() - 0.5).abs() < 1e-9);
        assert!((m.interhost_stall_fraction(7) - 7.0 / (7.0 * 16.0)).abs() < 1e-9);
    }

    #[test]
    fn malformed_tsv_rejected() {
        assert!(Measurement::from_tsv(&["1", "2"]).is_none());
        assert!(Measurement::from_tsv(&["x"; 10]).is_none());
    }

    #[test]
    fn env_scale_parses_and_rejects() {
        assert_eq!(env_scale(None), Ok(1.0));
        assert_eq!(env_scale(Some("0.25")), Ok(0.25));
        assert_eq!(env_scale(Some(" 2 ")), Ok(2.0));
        for bad in ["abc", "", "0", "-1", "inf", "NaN"] {
            let err = env_scale(Some(bad)).expect_err(bad);
            assert!(err.contains("PIPM_SCALE") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn env_workloads_parses_and_rejects() {
        assert_eq!(env_workloads(None).unwrap(), Workload::ALL.to_vec());
        assert_eq!(
            env_workloads(Some("bfs, PR")).unwrap(),
            vec![Workload::Bfs, Workload::Pr]
        );
        let err = env_workloads(Some("bfs,prr")).unwrap_err();
        assert!(
            err.contains("PIPM_WORKLOADS") && err.contains("'prr'"),
            "{err}"
        );
        for empty in ["", " "] {
            let err = env_workloads(Some(empty)).unwrap_err();
            assert!(err.contains("PIPM_WORKLOADS"), "{err}");
        }
        assert!(env_workloads(Some("bfs,,pr")).is_err());
    }

    fn lat(ns: f64) -> CfgDelta {
        CfgDelta {
            link_latency_ns: Some(ns),
            ..CfgDelta::default()
        }
    }

    /// The unforked reference for a sweep point: one uninterrupted run
    /// that applies the point's delta at the sweep fork point.
    fn unforked(h: &Harness, p: &Point) -> Measurement {
        let params = WorkloadParams {
            refs_per_core: h.refs_per_core,
            seed: h.seed,
        };
        let (base, prefix) = sweep_prefix(&p.cfg, &params);
        let delta = p.delta.as_ref().expect("a sweep point");
        let run = run_one_with_delta(p.workload, p.scheme, base, &params, prefix, delta);
        Measurement::from_run(&run)
    }

    #[test]
    fn measure_caches_and_counts() {
        let h = Harness::with_settings(10_000, 7, None, 2);
        let point = [Point::default_cfg(Workload::Bfs, SchemeKind::Native)];
        let a = h.measure_all(&point);
        let b = h.measure_all(&point);
        assert_eq!(a, b);
        let c = h.counters();
        assert_eq!(c.runs, 1, "second call must hit the cache");
        assert_eq!(c.cache_hits, 1);
        assert!(c.sim_cycles > 0);
    }

    #[test]
    fn measure_many_matches_serial_order() {
        let points = vec![
            Point::default_cfg(Workload::Bfs, SchemeKind::Native),
            Point::default_cfg(Workload::Bfs, SchemeKind::LocalOnly),
            Point::full(Workload::Bfs, SchemeKind::Native, "lat=100", |cfg| {
                cfg.cxl.link_latency_ns = 100.0;
            }),
        ];
        let par = Harness::with_settings(10_000, 7, None, 4);
        let results = par.measure_all(&points);
        let serial = Harness::with_settings(10_000, 7, None, 1);
        for (point, m) in points.iter().zip(&results) {
            let s = &serial.measure_all(std::slice::from_ref(point))[0];
            assert_eq!(s, m, "parallel must be bit-identical to serial");
        }
        assert_eq!(par.counters().runs, 3);
    }

    #[test]
    fn forked_sweep_matches_no_fork_and_counts_one_prefix() {
        let points = [
            Point::sweep(Workload::Bfs, SchemeKind::Pipm, "lat=100ns", lat(100.0)),
            Point::sweep(
                Workload::Bfs,
                SchemeKind::Pipm,
                "bw=4",
                CfgDelta {
                    link_gbps: Some(4.0),
                    ..CfgDelta::default()
                },
            ),
            Point::sweep(
                Workload::Bfs,
                SchemeKind::Pipm,
                "thr=4",
                CfgDelta {
                    migration_threshold: Some(4),
                    ..CfgDelta::default()
                },
            ),
        ];
        let forked = Harness::with_settings(10_000, 7, None, 2);
        let a = forked.measure_all(&points);
        for (point, a) in points.iter().zip(&a) {
            assert_eq!(
                *a,
                unforked(&forked, point),
                "{}: forked must be bit-identical to unforked",
                point.label
            );
        }
        let c = forked.counters();
        assert_eq!(c.ckpt_prefixes, 1, "one shared prefix across the sweep");
        assert_eq!(c.ckpt_forks, 3, "one fork per point");
        assert!(c.ckpt_prefix_wall_nanos > 0);
    }

    /// Acceptance measurement for the checkpointed sweeps: a K=8 latency
    /// sweep forked from one warmed prefix must at least halve the
    /// serial wall-clock vs re-simulating every point from scratch
    /// (theoretical ratio at `SWEEP_WARMUP_FRACTION` = 2/3 is
    /// 8 / (2/3 + 8/3) = 2.4x). Wall-clock asserts are machine-
    /// sensitive, so this runs only on demand:
    /// `cargo test -p pipm-bench --release -- --ignored`.
    #[test]
    #[ignore = "wall-clock measurement; run with --ignored on a quiet machine"]
    fn k8_forked_sweep_at_least_halves_serial_wall_clock() {
        let points: Vec<Point> = (0..8)
            .map(|i| {
                let ns = 60.0 + 20.0 * i as f64;
                Point::sweep(
                    Workload::Bfs,
                    SchemeKind::Pipm,
                    format!("lat={ns}ns"),
                    lat(ns),
                )
            })
            .collect();
        let forked = Harness::with_settings(120_000, 7, None, 1);
        let started = Instant::now();
        forked.measure_all(&points);
        let forked_wall = started.elapsed();
        let started = Instant::now();
        for point in &points {
            unforked(&forked, point);
        }
        let straight_wall = started.elapsed();
        assert_eq!(forked.counters().ckpt_prefixes, 1);
        assert_eq!(forked.counters().ckpt_forks, 8);
        assert!(
            straight_wall >= forked_wall * 2,
            "expected >=2x serial wall-clock reduction: forked={forked_wall:?} unforked={straight_wall:?}"
        );
    }

    #[test]
    fn sweep_many_matches_serial_across_worker_counts() {
        let points: Vec<Point> = [50.0, 100.0, 200.0]
            .into_iter()
            .flat_map(|ns| {
                [SchemeKind::Native, SchemeKind::Pipm]
                    .into_iter()
                    .map(move |s| Point::sweep(Workload::Bfs, s, format!("lat={ns}"), lat(ns)))
            })
            .collect();
        let par = Harness::with_settings(10_000, 7, None, 4);
        let results = par.measure_all(&points);
        let serial = Harness::with_settings(10_000, 7, None, 1);
        for (point, m) in points.iter().zip(&results) {
            let s = &serial.measure_all(std::slice::from_ref(point))[0];
            assert_eq!(s, m, "parallel sweep must be bit-identical to serial");
        }
        // Both harnesses simulated exactly one prefix per scheme.
        assert_eq!(par.counters().ckpt_prefixes, 2);
        assert_eq!(serial.counters().ckpt_prefixes, 2);
    }

    #[test]
    fn sweep_keys_never_alias_plain_measurements() {
        // A sweep point (prefix under base cfg + tail under delta) is a
        // different run than a full simulation under the delta'd cfg:
        // the caches must keep them apart even when the final
        // configurations are identical.
        let h = Harness::with_settings(10_000, 7, None, 1);
        let params = WorkloadParams {
            refs_per_core: h.refs_per_core,
            seed: h.seed,
        };
        let (base, _) = sweep_prefix(&SystemConfig::experiment_scale(), &params);
        h.measure_all(&[
            Point::sweep(
                Workload::Bfs,
                SchemeKind::Pipm,
                "thr=4",
                CfgDelta {
                    migration_threshold: Some(4),
                    ..CfgDelta::default()
                },
            ),
            Point::full(Workload::Bfs, SchemeKind::Pipm, "thr=4", |cfg| {
                *cfg = base;
                cfg.pipm.migration_threshold = 4;
            }),
        ]);
        assert_eq!(h.counters().runs, 2, "the two points must not share a run");
    }

    #[test]
    fn concurrent_same_point_deduplicates() {
        let h = Harness::with_settings(10_000, 3, None, 4);
        let points: Vec<Point> = (0..8)
            .map(|_| Point::default_cfg(Workload::Cc, SchemeKind::Native))
            .collect();
        let results = h.measure_all(&points);
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            h.counters().runs,
            1,
            "in-flight dedup must collapse to one run"
        );
        assert_eq!(h.counters().cache_hits, 7);
    }

    #[test]
    fn parallel_disk_cache_appends_reload_whole() {
        let path =
            std::env::temp_dir().join(format!("pipm_parallel_appends_{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let points: Vec<Point> = (0..16)
            .map(|i| {
                let ns = 40.0 + 10.0 * i as f64;
                Point::sweep(
                    Workload::Bfs,
                    SchemeKind::Native,
                    format!("lat={ns}"),
                    lat(ns),
                )
            })
            .collect();
        let h = Harness::with_settings(10_000, 7, Some(path.clone()), 4);
        let measured = h.measure_all(&points);
        let reloaded = Harness::with_settings(10_000, 7, Some(path.clone()), 1);
        let preloads = reloaded.cache.stats().preloads;
        let again = reloaded.measure_all(&points);
        let _ = std::fs::remove_file(&path);
        assert_eq!(preloads, 16, "every appended line must reload");
        assert_eq!(again, measured);
        assert_eq!(reloaded.counters().runs, 0);
    }

    #[test]
    fn disk_cache_preloads_only_whole_lines() {
        let path = std::env::temp_dir().join(format!("pipm_torn_lines_{}.tsv", std::process::id()));
        let whole = Measurement {
            footprint_line: 0.83,
            ..sample()
        };
        let line = |key: &str| format!("{key}\t{}", whole.to_tsv());
        // A short write of the last line cut `0.83` to `0.8`, which
        // still parses: only the missing newline gives it away.
        let torn = line("torn");
        let torn = torn.strip_suffix('3').expect("ends in the 0.83 field");
        let foreign = format!("{}\textra", line("foreign"));
        std::fs::write(&path, format!("{}\n{foreign}\n{torn}", line("whole"))).unwrap();
        let h = Harness::with_settings(10_000, 7, Some(path.clone()), 1);
        let _ = std::fs::remove_file(&path);
        assert_eq!(h.cache.stats().preloads, 1, "only the whole line loads");
        assert_eq!(h.cache.get("whole"), Some(whole));
        assert_eq!(h.cache.get("torn"), None);
    }
}
