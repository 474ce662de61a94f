//! High-level experiment runners: one call per (workload, scheme) pair,
//! and the [`Runner`] every consumer computes jobs through.

use crate::cache::{checkpoint_key, sweep_prefix, RunCache, RunCacheStats};
use crate::system::{CfgDelta, Checkpoint, HarnessReport, System};
use pipm_types::{SchemeKind, SystemConfig, SystemStats};
use pipm_workloads::{FuzzSpec, Workload, WorkloadParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload simulated.
    pub workload: Workload,
    /// Scheme simulated.
    pub scheme: SchemeKind,
    /// Collected statistics (post-warm-up).
    pub stats: SystemStats,
    /// The exact configuration used (footprint filled in by the workload).
    pub cfg: SystemConfig,
}

impl RunResult {
    /// Execution time in cycles (maximum core clock).
    pub fn exec_cycles(&self) -> u64 {
        self.stats.exec_cycles()
    }

    /// Speedup of this run relative to `baseline` (>1 means faster). A
    /// zero-cycle *self* is infinitely fast (`f64::INFINITY`); a
    /// zero-cycle *baseline* makes any nonzero run infinitely slow
    /// (`0.0`). Both zero is a degenerate 1.0 (neither did any work).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        match (baseline.exec_cycles(), self.exec_cycles()) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (b, s) => b as f64 / s as f64,
        }
    }

    /// Local memory hit rate over shared-data LLC misses (Fig. 11).
    pub fn local_hit_rate(&self) -> f64 {
        self.stats.local_hit_rate()
    }

    /// Fraction of harmful promotions (Fig. 5); zero for schemes that do
    /// not use kernel migration.
    pub fn harmful_fraction(&self) -> f64 {
        self.stats.migration.harmful_fraction()
    }
}

/// Runs `workload` under `scheme` with the given base configuration and
/// parameters, returning the result. The workload overrides
/// `cfg.shared_bytes` with its scaled footprint.
///
/// # Example
///
/// ```
/// use pipm_core::run_one;
/// use pipm_types::{SchemeKind, SystemConfig};
/// use pipm_workloads::{Workload, WorkloadParams};
///
/// let params = WorkloadParams { refs_per_core: 2_000, seed: 3 };
/// let r = run_one(Workload::Cc, SchemeKind::Native, SystemConfig::default(), &params);
/// assert!(r.exec_cycles() > 0);
/// ```
pub fn run_one(
    workload: Workload,
    scheme: SchemeKind,
    mut cfg: SystemConfig,
    params: &WorkloadParams,
) -> RunResult {
    let streams = workload.streams(&mut cfg, params);
    let mut sys = System::new(cfg.clone(), scheme);
    let stats = sys.run(streams, params.refs_per_core);
    RunResult {
        workload,
        scheme,
        stats,
        cfg,
    }
}

/// Runs `workload` under `scheme` until `prefix_refs` total references
/// (across all cores) have been processed, returning the warmed
/// [`Checkpoint`]. A parameter sweep forks the checkpoint (via `clone`)
/// once per point and resumes each fork under its own [`CfgDelta`],
/// paying for the shared prefix once — see [`resume_one`].
pub fn run_prefix_one(
    workload: Workload,
    scheme: SchemeKind,
    mut cfg: SystemConfig,
    params: &WorkloadParams,
    prefix_refs: u64,
) -> Checkpoint {
    let streams = workload.streams(&mut cfg, params);
    let sys = System::new(cfg, scheme);
    sys.run_prefix(streams, params.refs_per_core, prefix_refs)
}

/// Resumes a (typically forked) checkpoint under `delta`, packaging the
/// statistics as a [`RunResult`] whose `cfg` reflects the delta.
pub fn resume_one(
    workload: Workload,
    scheme: SchemeKind,
    checkpoint: Checkpoint,
    delta: &CfgDelta,
) -> RunResult {
    let mut cfg = checkpoint.config().clone();
    delta.apply_to(&mut cfg);
    let stats = checkpoint.resume_with(delta);
    RunResult {
        workload,
        scheme,
        stats,
        cfg,
    }
}

/// The unforked reference for checkpointed sweeps: one uninterrupted
/// simulation that applies `delta` inline once `delta_at` total references
/// have been processed. Must be bit-identical to [`run_prefix_one`] +
/// [`resume_one`] over the same arguments (asserted by
/// `tests/checkpoint.rs`).
pub fn run_one_with_delta(
    workload: Workload,
    scheme: SchemeKind,
    mut cfg: SystemConfig,
    params: &WorkloadParams,
    delta_at: u64,
    delta: &CfgDelta,
) -> RunResult {
    let streams = workload.streams(&mut cfg, params);
    let mut sys = System::new(cfg.clone(), scheme);
    let stats = sys.run_with_delta(streams, params.refs_per_core, delta_at, delta);
    delta.apply_to(&mut cfg);
    RunResult {
        workload,
        scheme,
        stats,
        cfg,
    }
}

/// The one compute path of the figure harness and the `pipm-serve`
/// daemon: [`Runner::run`] returns the run that
/// [`job_key`](crate::job_key) over the same arguments addresses.
///
/// A sweep point's warmed prefix ([`sweep_prefix`]) is simulated once
/// and kept in a bounded cache (each entry is a deep-copied `System`);
/// every point forks it (cloning a [`Checkpoint`] *is* the fork) and
/// simulates only its tail under its delta. Concurrent requests for one
/// prefix deduplicate. The result is bit-identical to the unforked
/// [`run_one_with_delta`] at the same boundary (`tests/checkpoint.rs`).
pub struct Runner {
    checkpoints: RunCache<Checkpoint>,
    forks: AtomicU64,
    prefix_wall_nanos: AtomicU64,
}

/// Counter snapshot of a [`Runner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Warmed sweep prefixes simulated (checkpoint-cache misses).
    pub prefixes: u64,
    /// Sweep points resumed from a fork of a warmed checkpoint.
    pub forks: u64,
    /// Wall nanoseconds spent simulating prefixes.
    pub prefix_wall_nanos: u64,
    /// The checkpoint cache's own counters.
    pub checkpoints: RunCacheStats,
    /// Checkpoints currently held.
    pub checkpoint_entries: usize,
}

impl Runner {
    /// A runner keeping at most `checkpoint_capacity` warmed prefixes
    /// (least-recently-used evicted first).
    pub fn new(checkpoint_capacity: usize) -> Self {
        Runner {
            checkpoints: RunCache::new(checkpoint_capacity),
            forks: AtomicU64::new(0),
            prefix_wall_nanos: AtomicU64::new(0),
        }
    }

    /// Runs the job [`job_key`](crate::job_key) addresses with the same
    /// arguments: [`run_one`] without a delta, else a fork of the warmed
    /// prefix resumed under the delta.
    pub fn run(
        &self,
        workload: Workload,
        scheme: SchemeKind,
        cfg: &SystemConfig,
        params: &WorkloadParams,
        delta: Option<&CfgDelta>,
    ) -> RunResult {
        let Some(delta) = delta else {
            return run_one(workload, scheme, cfg.clone(), params);
        };
        let (base, prefix) = sweep_prefix(cfg, params);
        let key = checkpoint_key(workload, scheme, &base, params, prefix);
        let checkpoint = self.checkpoints.get_or_compute(&key, || {
            let started = Instant::now();
            let checkpoint = run_prefix_one(workload, scheme, base, params, prefix);
            self.prefix_wall_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            checkpoint
        });
        self.forks.fetch_add(1, Ordering::Relaxed);
        resume_one(workload, scheme, checkpoint, delta)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RunnerStats {
        let checkpoints = self.checkpoints.stats();
        RunnerStats {
            prefixes: checkpoints.misses,
            forks: self.forks.load(Ordering::Relaxed),
            prefix_wall_nanos: self.prefix_wall_nanos.load(Ordering::Relaxed),
            checkpoints,
            checkpoint_entries: self.checkpoints.len(),
        }
    }
}

/// Clamps a requested worker count to the machine's available cores.
///
/// Each worker drives a full simulation pipeline, so requesting more
/// workers than cores (e.g. an over-eager `PIPM_WORKERS`) oversubscribes
/// the machine: threads time-slice instead of running, and wall-clock
/// throughput *drops* while results stay identical. Returns the clamped
/// count plus the warning to surface, if any. Pure so the policy is unit
/// testable; [`effective_workers`] applies it against the live machine.
fn clamp_worker_budget(requested: usize, available: usize) -> (usize, Option<String>) {
    if available > 0 && requested > available {
        (
            available,
            Some(format!(
                "warning: clamping worker threads from {requested} to {available} \
                 (available cores); oversubscribing only adds scheduling overhead"
            )),
        )
    } else {
        (requested, None)
    }
}

/// Applies `clamp_worker_budget` against `available_parallelism`,
/// printing the warning at most once per process (the same warn-once
/// convention as the env-parsing helpers). [`par_map`] applies it to
/// every fan-out; it is public so the bench harness reports the same
/// clamped count it will run with.
pub fn effective_workers(requested: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0);
    let (clamped, warning) = clamp_worker_budget(requested, available);
    if let Some(w) = warning {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("{w}"));
    }
    clamped
}

/// Maps `f` over `items` on up to `workers` scoped threads (clamped by
/// [`effective_workers`]), returning the results in item order. Each
/// worker claims the next unclaimed item from a shared counter, so one
/// slow item never holds back a static share of the others. A simulation
/// job builds its own self-contained [`System`], so mapping [`run_one`]
/// or [`run_spec_one`] is bit-identical to a serial map regardless of
/// scheduling (asserted by `tests/determinism.rs`).
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = effective_workers(workers).max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break mine };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The outcome of one fuzzed harness run: the usual statistics plus the
/// differential-correctness report (oracle + inline invariants).
#[derive(Clone, Debug)]
pub struct SpecRunResult {
    /// The fuzzed trace description that was simulated.
    pub spec: FuzzSpec,
    /// Scheme simulated.
    pub scheme: SchemeKind,
    /// Collected statistics (post-warm-up).
    pub stats: SystemStats,
    /// The exact configuration used (footprint filled in by the spec).
    pub cfg: SystemConfig,
    /// Oracle checks/violations and invariant-epoch outcomes.
    pub report: HarnessReport,
}

/// Runs a fuzzed trace under `scheme` in harness mode: the functional
/// oracle shadows every access and inline invariants are recorded (not
/// panicked) so the caller can assert on the [`HarnessReport`]. The
/// oracle is pure bookkeeping, so `stats` are bit-identical to a plain
/// run of the same spec.
pub fn run_spec_one(spec: &FuzzSpec, scheme: SchemeKind, mut cfg: SystemConfig) -> SpecRunResult {
    let streams = spec.streams(&mut cfg);
    let mut sys = System::new(cfg.clone(), scheme);
    sys.enable_oracle();
    let stats = sys.run(streams, spec.refs_per_core);
    SpecRunResult {
        spec: *spec,
        scheme,
        stats,
        cfg,
        report: sys.harness_report(),
    }
}

/// Runs `workload` under every scheme in `schemes`, returning results in
/// order. Convenience for the figure harnesses.
pub fn run_schemes(
    workload: Workload,
    schemes: &[SchemeKind],
    cfg: &SystemConfig,
    params: &WorkloadParams,
) -> Vec<RunResult> {
    schemes
        .iter()
        .map(|&s| run_one(workload, s, cfg.clone(), params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_cycles(cycles: u64) -> RunResult {
        let mut stats = SystemStats::new(1, 1);
        stats.cores[0].cycles = cycles;
        RunResult {
            workload: Workload::Bfs,
            scheme: SchemeKind::Native,
            stats,
            cfg: SystemConfig::default(),
        }
    }

    #[test]
    fn worker_budget_clamps_only_oversubscription() {
        // Within budget: untouched, no warning.
        assert_eq!(clamp_worker_budget(4, 8), (4, None));
        assert_eq!(clamp_worker_budget(8, 8), (8, None));
        // Oversubscribed: clamped to the core count, with a warning.
        let (n, warn) = clamp_worker_budget(64, 8);
        assert_eq!(n, 8);
        let warn = warn.expect("oversubscription must warn");
        assert!(warn.contains("64") && warn.contains('8'), "{warn}");
        // Unknown parallelism (0): trust the caller, never clamp to zero.
        assert_eq!(clamp_worker_budget(16, 0), (16, None));
        // Degenerate requests pass through; par_map applies its own
        // `.max(1)` floor after clamping.
        assert_eq!(clamp_worker_budget(0, 8), (0, None));
    }

    #[test]
    fn speedup_over_degenerate_cases() {
        let zero = result_with_cycles(0);
        let hundred = result_with_cycles(100);
        let fifty = result_with_cycles(50);

        // A zero-cycle run is infinitely fast, not infinitely slow.
        assert_eq!(zero.speedup_over(&hundred), f64::INFINITY);
        // A zero-cycle baseline makes any real run look infinitely slow.
        assert_eq!(hundred.speedup_over(&zero), 0.0);
        // Neither run did work: conventionally equal.
        assert_eq!(zero.speedup_over(&zero), 1.0);
        // The ordinary case is untouched.
        assert_eq!(fifty.speedup_over(&hundred), 2.0);
        assert_eq!(hundred.speedup_over(&fifty), 0.5);
    }

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in 1..=4 {
            assert_eq!(
                par_map(&items, workers, |x| x * x),
                want,
                "workers={workers}"
            );
            assert!(par_map(&[] as &[u64], workers, |x| x * x).is_empty());
        }
    }
}
