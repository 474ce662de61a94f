//! A reusable, content-addressed run cache with in-flight deduplication.
//!
//! Every consumer of the simulator — the figure harness, the benchmark,
//! the `pipm-serve` daemon, tests — keeps re-running identical
//! `(workload, scheme, cfg, params)` jobs. Because runs are
//! deterministic, a job's result is a pure function of those inputs, so
//! it can be cached under a canonical fingerprint and shared between
//! consumers. This module provides:
//!
//! * [`job_key`] — the canonical content address of a job, a full run
//!   or a checkpointed sweep point (see [`sweep_prefix`]);
//! * [`RunCache`] — a thread-safe map from key to computed value with
//!   **in-flight deduplication** (concurrent identical requests compute
//!   once; the others block until the result lands), an **LRU capacity
//!   bound**, and hit/miss/in-flight-wait/eviction counters.
//!
//! The cache is generic over the cached value so the figure harness can
//! cache its flat `Measurement` rows while the serve daemon caches full
//! [`RunResult`](crate::RunResult)s.

use crate::CfgDelta;
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Warm-up fraction of checkpointed sweeps: the shared prefix is the
/// first two thirds of the trace, so the whole measured window (the
/// final third) runs under each point's [`CfgDelta`].
pub const SWEEP_WARMUP_FRACTION: f64 = 2.0 / 3.0;

/// Version of the simulation model. Bump it in the same change that
/// alters any simulated statistic (any golden fingerprint of
/// `tests/stats_parity.rs`): [`job_key`] carries it, so results cached
/// on disk or served by a node under an older model never match a key
/// of this one.
pub const MODEL_VERSION: u32 = 2;

/// Canonical job key: a stable, human-readable encoding of every input
/// of a job and of the [`MODEL_VERSION`] that computes it, hence a valid
/// content address (the simulator is deterministic). It is the only key
/// function: every cache keys on it, and
/// [`Runner::run`](crate::Runner::run) over the same arguments computes
/// what it addresses.
///
/// `None` keys a full [`run_one`](crate::run_one) under `cfg`
/// (`job-v1|model=N|…`). `Some(d)` keys a checkpointed sweep point, the
/// [`sweep_prefix`] of `cfg` then the tail under `d` (`sweep-v1|<job-v1
/// key of the base>|prefix=N|delta=…`), which never aliases a full run
/// under the delta'd cfg. The cfg enters via its derived `Debug`, which
/// names every field, so a new [`SystemConfig`] field extends every key.
pub fn job_key(
    workload: Workload,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &WorkloadParams,
    delta: Option<&CfgDelta>,
) -> String {
    let Some(delta) = delta else {
        return format!(
            "job-v1|model={MODEL_VERSION}|{}|{}|refs={}|seed={}|{cfg:?}",
            workload.label(),
            scheme.label(),
            params.refs_per_core,
            params.seed,
        );
    };
    let (base, prefix) = sweep_prefix(cfg, params);
    format!(
        "sweep-v1|{}|prefix={prefix}|delta={delta:?}",
        job_key(workload, scheme, &base, params, None)
    )
}

/// Where a sweep point over `cfg` forks: `cfg` with the
/// [`SWEEP_WARMUP_FRACTION`] warm-up, and that warm-up boundary in total
/// processed references (the simulator's own expression).
pub fn sweep_prefix(cfg: &SystemConfig, params: &WorkloadParams) -> (SystemConfig, u64) {
    let mut base = cfg.clone();
    base.warmup_fraction = SWEEP_WARMUP_FRACTION;
    let total = params.refs_per_core * base.total_cores() as u64;
    let prefix = (base.warmup_fraction * total as f64) as u64;
    (base, prefix)
}

/// Content address of the warmed prefix a [`Runner`](crate::Runner) forks.
pub(crate) fn checkpoint_key(
    workload: Workload,
    scheme: SchemeKind,
    base: &SystemConfig,
    params: &WorkloadParams,
    prefix_refs: u64,
) -> String {
    format!(
        "ckpt-v1|{}|prefix={prefix_refs}",
        job_key(workload, scheme, base, params, None)
    )
}

/// 64-bit FNV-1a digest of a canonical [`job_key`], for compact display
/// (wire protocol, logs). Collisions are astronomically unlikely for the
/// handful of jobs a deployment sees, and nothing correctness-critical
/// keys on the digest — caches key on the full string.
pub fn fingerprint64(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A cache slot: either a finished value or a claim by the worker
/// currently computing it.
enum Slot<V> {
    InFlight,
    Done { value: V, last_used: u64 },
}

struct Inner<V> {
    map: HashMap<String, Slot<V>>,
    /// Monotonic use counter backing the LRU recency order.
    tick: u64,
    /// Number of `Done` entries (`map` also holds in-flight claims,
    /// which never count against capacity and are never evicted).
    done: usize,
}

/// Counter snapshot of a [`RunCache`] (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Lookups served from a finished entry (including waiters that
    /// blocked on an in-flight computation and then read its result).
    pub hits: u64,
    /// Lookups that found nothing and computed the value themselves.
    pub misses: u64,
    /// Lookups that found the value already being computed by another
    /// thread and waited for it instead of recomputing (each waiter
    /// counts once, however many times it is woken).
    pub inflight_waits: u64,
    /// Finished entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Values inserted directly via [`RunCache::insert`] (cache
    /// preloads), as opposed to computed through
    /// [`RunCache::get_or_compute`].
    pub preloads: u64,
}

/// A thread-safe, capacity-bounded, in-flight-deduplicating cache of
/// computed run results, keyed by canonical [`job_key`] strings.
///
/// * **In-flight dedup** — the first thread to request a key claims it
///   and computes; concurrent requests for the same key block on a
///   condition variable and are handed the finished value. If the
///   computing thread panics, its claim is released and one waiter
///   retries, so a panic never wedges the cache.
/// * **LRU bound** — at most `capacity` finished entries are retained;
///   inserting beyond that evicts the least-recently-used finished
///   entry. In-flight claims are never evicted.
/// * **Counters** — [`RunCache::stats`] exposes hit/miss/wait/eviction
///   counts so consumers (the figure harness `[timing]` table, the
///   serve daemon's `metrics` response) can report cache behaviour
///   instead of asserting it.
pub struct RunCache<V> {
    inner: Mutex<Inner<V>>,
    /// Signalled whenever an in-flight computation completes or is
    /// abandoned.
    done_cv: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
    evictions: AtomicU64,
    preloads: AtomicU64,
}

impl<V: Clone> RunCache<V> {
    /// A cache retaining at most `capacity` finished entries
    /// (least-recently-used evicted first). `capacity` is clamped to at
    /// least 1 — a zero-capacity cache could not even hand a computed
    /// value to concurrent waiters.
    pub fn new(capacity: usize) -> Self {
        RunCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                done: 0,
            }),
            done_cv: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            preloads: AtomicU64::new(0),
        }
    }

    /// An effectively unbounded cache (the figure harness retains every
    /// point of a figure sweep).
    pub fn unbounded() -> Self {
        RunCache::new(usize::MAX)
    }

    /// Maximum number of finished entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of finished entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("run cache poisoned").done
    }

    /// Whether the cache holds no finished entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RunCacheStats {
        RunCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            preloads: self.preloads.load(Ordering::Relaxed),
        }
    }

    /// Returns the finished value for `key` without ever blocking or
    /// computing: a hit counts in [`RunCacheStats::hits`] and refreshes
    /// the entry's LRU recency; an absent or in-flight key returns
    /// `None` and moves no counter.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_all(&[key]).and_then(|mut values| values.pop())
    }

    /// All-or-nothing [`get`](RunCache::get) over several keys under one
    /// lock: `Some` (one hit counted and recency refreshed per key) only
    /// when every key is finished; otherwise `None` with no counter or
    /// recency moved, so a caller that falls back to
    /// [`get_or_compute`](RunCache::get_or_compute) for the whole set
    /// never counts a key twice.
    pub fn get_all(&self, keys: &[&str]) -> Option<Vec<V>> {
        let mut inner = self.inner.lock().expect("run cache poisoned");
        let all_done = keys
            .iter()
            .all(|key| matches!(inner.map.get(*key), Some(Slot::Done { .. })));
        if !all_done {
            return None;
        }
        let values: Vec<V> = keys
            .iter()
            .map(|key| {
                inner.tick += 1;
                let tick = inner.tick;
                let Some(Slot::Done { value, last_used }) = inner.map.get_mut(*key) else {
                    unreachable!("checked finished under the same lock");
                };
                *last_used = tick;
                value.clone()
            })
            .collect();
        self.hits.fetch_add(values.len() as u64, Ordering::Relaxed);
        Some(values)
    }

    /// Returns the cached value for `key`, computing it with `compute`
    /// on a miss. Concurrent calls with the same key deduplicate: one
    /// computes, the others block until the value is available.
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> V) -> V {
        let mut waited = false;
        {
            let mut inner = self.inner.lock().expect("run cache poisoned");
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                match inner.map.get_mut(key) {
                    Some(Slot::Done { value, last_used }) => {
                        *last_used = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        if waited {
                            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                        }
                        return value.clone();
                    }
                    Some(Slot::InFlight) => {
                        waited = true;
                        inner = self.done_cv.wait(inner).expect("run cache poisoned");
                    }
                    None => {
                        inner.map.insert(key.to_string(), Slot::InFlight);
                        break;
                    }
                }
            }
        }
        // This thread owns the claim; compute outside the lock. The
        // guard releases the claim (and wakes waiters so one of them
        // retries) if `compute` panics.
        let mut guard = ClaimGuard {
            cache: self,
            key,
            fulfilled: false,
        };
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        if waited {
            // A waiter whose producer panicked and who then computed the
            // value itself still waited on an in-flight claim.
            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
        }
        self.store(key, value.clone());
        guard.fulfilled = true;
        drop(guard); // notifies waiters
        value
    }

    /// Inserts a precomputed value (cache preloading — e.g. the figure
    /// harness's on-disk result cache). Overwrites a finished entry;
    /// leaves an in-flight claim alone (the computing thread's store
    /// wins, keeping its waiters' hand-off simple).
    pub fn insert(&self, key: &str, value: V) {
        let mut inner = self.inner.lock().expect("run cache poisoned");
        if matches!(inner.map.get(key), Some(Slot::InFlight)) {
            return;
        }
        self.preloads.fetch_add(1, Ordering::Relaxed);
        Self::store_locked(&mut inner, self.capacity, &self.evictions, key, value);
    }

    fn store(&self, key: &str, value: V) {
        let mut inner = self.inner.lock().expect("run cache poisoned");
        Self::store_locked(&mut inner, self.capacity, &self.evictions, key, value);
    }

    fn store_locked(
        inner: &mut Inner<V>,
        capacity: usize,
        evictions: &AtomicU64,
        key: &str,
        value: V,
    ) {
        inner.tick += 1;
        let tick = inner.tick;
        let prev = inner.map.insert(
            key.to_string(),
            Slot::Done {
                value,
                last_used: tick,
            },
        );
        if !matches!(prev, Some(Slot::Done { .. })) {
            inner.done += 1;
        }
        while inner.done > capacity {
            let victim = inner
                .map
                .iter()
                .filter(|(k, slot)| matches!(slot, Slot::Done { .. }) && k.as_str() != key)
                .min_by_key(|(_, slot)| match slot {
                    Slot::Done { last_used, .. } => *last_used,
                    Slot::InFlight => u64::MAX,
                })
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            inner.map.remove(&victim);
            inner.done -= 1;
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Releases an in-flight claim if the owning computation panics, so
/// waiting threads retry instead of blocking forever.
struct ClaimGuard<'a, V> {
    cache: &'a RunCache<V>,
    key: &'a str,
    fulfilled: bool,
}

impl<V> Drop for ClaimGuard<'_, V> {
    fn drop(&mut self) {
        if !self.fulfilled {
            if let Ok(mut inner) = self.cache.inner.lock() {
                if matches!(inner.map.get(self.key), Some(Slot::InFlight)) {
                    inner.map.remove(self.key);
                }
            }
        }
        self.cache.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn job_key_distinguishes_every_input() {
        let cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 1_000,
            seed: 7,
        };
        let key = |scheme, cfg: &SystemConfig, params: &WorkloadParams| {
            job_key(Workload::Bfs, scheme, cfg, params, None)
        };
        let base = key(SchemeKind::Pipm, &cfg, &params);
        assert!(base.contains("BFS") && base.contains("PIPM"));
        let other_seed = WorkloadParams {
            refs_per_core: 1_000,
            seed: 8,
        };
        assert_ne!(base, key(SchemeKind::Pipm, &cfg, &other_seed));
        let mut cfg2 = cfg.clone();
        cfg2.cxl.link_latency_ns = 100.0;
        assert_ne!(base, key(SchemeKind::Pipm, &cfg2, &params));
        assert_ne!(base, key(SchemeKind::Native, &cfg, &params));
        // The digest follows the key.
        assert_ne!(
            fingerprint64(&base),
            fingerprint64(&key(SchemeKind::Pipm, &cfg2, &params))
        );
    }

    /// The sweep key is the `sweep-v1` wrapper around the plain key of
    /// the [`sweep_prefix`] base, and the plain key names the
    /// [`MODEL_VERSION`] first, so a result of another model never hits.
    #[test]
    fn sweep_key_wraps_the_base_key_and_never_aliases_a_full_run() {
        let cfg = SystemConfig::experiment_scale();
        let params = WorkloadParams {
            refs_per_core: 1_500,
            seed: 41,
        };
        let delta = CfgDelta {
            link_latency_ns: Some(100.0),
            ..CfgDelta::default()
        };
        let mut base = cfg.clone();
        base.warmup_fraction = SWEEP_WARMUP_FRACTION;
        let prefix = (base.warmup_fraction * (1_500 * base.total_cores() as u64) as f64) as u64;
        assert_eq!(sweep_prefix(&cfg, &params), (base.clone(), prefix));
        let plain = job_key(Workload::Bfs, SchemeKind::Pipm, &base, &params, None);
        assert_eq!(
            plain,
            format!("job-v1|model={MODEL_VERSION}|BFS|PIPM|refs=1500|seed=41|{base:?}")
        );
        assert_eq!(
            job_key(Workload::Bfs, SchemeKind::Pipm, &cfg, &params, Some(&delta)),
            format!("sweep-v1|{plain}|prefix={prefix}|delta={delta:?}")
        );
        assert_eq!(
            checkpoint_key(Workload::Bfs, SchemeKind::Pipm, &base, &params, prefix),
            format!("ckpt-v1|{plain}|prefix={prefix}")
        );
        // The caller's warm-up window does not leak into the sweep key.
        let mut other_warmup = cfg.clone();
        other_warmup.warmup_fraction = 0.1;
        assert_eq!(
            job_key(Workload::Bfs, SchemeKind::Pipm, &cfg, &params, Some(&delta)),
            job_key(
                Workload::Bfs,
                SchemeKind::Pipm,
                &other_warmup,
                &params,
                Some(&delta)
            )
        );
        let mut delta_applied = base;
        delta.apply_to(&mut delta_applied);
        assert_ne!(
            job_key(Workload::Bfs, SchemeKind::Pipm, &cfg, &params, Some(&delta)),
            job_key(
                Workload::Bfs,
                SchemeKind::Pipm,
                &delta_applied,
                &params,
                None
            )
        );
    }

    #[test]
    fn fingerprint_is_stable_fnv1a() {
        // Lock the digest function so wire fingerprints stay comparable
        // across builds.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hit_and_miss_counters() {
        let c: RunCache<u32> = RunCache::new(8);
        assert_eq!(c.get_or_compute("k1", || 10), 10);
        assert_eq!(c.get_or_compute("k1", || unreachable!()), 10);
        assert_eq!(c.get_or_compute("k2", || 20), 20);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: RunCache<u32> = RunCache::new(2);
        c.get_or_compute("a", || 1);
        c.get_or_compute("b", || 2);
        c.get_or_compute("a", || unreachable!()); // refresh a
        c.get_or_compute("c", || 3); // evicts b
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let recomputed = AtomicUsize::new(0);
        c.get_or_compute("b", || {
            recomputed.fetch_add(1, Ordering::Relaxed);
            2
        });
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "b was evicted");
        // Re-inserting b pushed the cache over capacity again; the LRU
        // entry at that point was a (last touched before c and b).
        c.get_or_compute("c", || unreachable!("c must have survived"));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn get_on_an_absent_key_moves_no_counter() {
        let c: RunCache<u32> = RunCache::new(4);
        assert_eq!(c.get("k"), None);
        assert_eq!(c.stats(), RunCacheStats::default());
        assert!(c.is_empty());
    }

    #[test]
    fn get_on_an_in_flight_key_returns_none_without_blocking() {
        let c: RunCache<u32> = RunCache::new(4);
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let cache = &c;
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                cache.get_or_compute("k", || {
                    claimed_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    7
                })
            });
            claimed_rx.recv().unwrap();
            // The claim is held until `release_tx` fires, so a blocking
            // `get` would deadlock this test instead of returning.
            assert_eq!(c.get("k"), None);
            assert_eq!(c.stats().hits, 0);
            assert_eq!(c.stats().inflight_waits, 0);
            release_tx.send(()).unwrap();
            assert_eq!(producer.join().unwrap(), 7);
        });
        assert_eq!(c.get("k"), Some(7));
    }

    #[test]
    fn get_counts_a_hit_and_refreshes_recency() {
        let c: RunCache<u32> = RunCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get("a"), Some(1)); // a is now newer than b
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
        c.insert("c", 3); // past capacity: evicts b, not a
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn get_all_is_all_or_nothing() {
        let c: RunCache<u32> = RunCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        // One absent key: nothing counted, so the caller's fallback to
        // `get_or_compute` counts each key exactly once.
        assert_eq!(c.get_all(&["a", "missing"]), None);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.get_all(&["b", "a"]), Some(vec![2, 1]));
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn insert_preloads_and_overwrites() {
        let c: RunCache<u32> = RunCache::new(4);
        c.insert("k", 5);
        assert_eq!(c.get_or_compute("k", || unreachable!()), 5);
        c.insert("k", 6);
        assert_eq!(c.get_or_compute("k", || unreachable!()), 6);
        let s = c.stats();
        assert_eq!(s.preloads, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let c: RunCache<u64> = RunCache::new(8);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    c.get_or_compute("shared", || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the claim long enough for the others to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        42
                    })
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        assert!(
            s.inflight_waits > 0,
            "at least one thread must have observed the in-flight claim"
        );
    }

    #[test]
    fn eviction_pressure_cannot_starve_a_blocked_waiter() {
        // Capacity-1 cache: while a producer computes "k" and a waiter
        // blocks on its in-flight claim, other threads churn the cache
        // hard enough to trigger evictions on every store. When the
        // producer finally lands "k", the store must not pick its own
        // just-stored entry as the eviction victim — the waiter must be
        // handed the produced value, not sent back to recompute.
        let c: RunCache<u64> = RunCache::new(1);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                c.get_or_compute("k", || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    42
                })
            });
            // Give the producer time to claim, then block a waiter on it.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waiter = scope.spawn(|| {
                c.get_or_compute("k", || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    42
                })
            });
            // Churn: every store evicts the previous entry (capacity 1),
            // overlapping the producer's sleep and its final store.
            for i in 0..200u64 {
                c.get_or_compute(&format!("churn-{i}"), || i);
            }
            assert_eq!(producer.join().expect("producer panicked"), 42);
            assert_eq!(waiter.join().expect("waiter panicked"), 42);
        });
        assert_eq!(
            computed.load(Ordering::Relaxed),
            1,
            "the waiter must receive the producer's value, never recompute"
        );
        assert!(c.stats().evictions >= 199, "churn must actually evict");
    }

    #[test]
    fn panicked_computation_releases_claim() {
        let c: RunCache<u32> = RunCache::new(8);
        let result = std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                c.get_or_compute("k", || panic!("deliberate test panic"));
            });
            // Give the panicker time to claim, then request the same key.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let v = c.get_or_compute("k", || 9);
            assert!(panicker.join().is_err());
            v
        });
        assert_eq!(result, 9, "waiter recovers by computing the value itself");
    }
}
