//! The daemon: readiness-loop front end, bounded admission queue,
//! worker pool, and (optionally) the routing layer.
//!
//! ```text
//!  reactor (one thread, N conns) ──parse──▶ admission queue ──▶ workers
//!        ▲     │ all hits?                        │ full?           │
//!        │     └─▶ RunCache::get_all              │     Runner::run, or
//!        └──── response / structured error ◀──────┘        forward to
//!                                                          ring owner
//! ```
//!
//! The front end is [`reactor::run_reactor`]: one thread multiplexes
//! every connection over nonblocking sockets, so concurrency is bounded
//! by `max_connections`, not by thread count. It sleeps in `poll(2)`
//! until a socket is ready, so a request is read the moment it lands.
//! A `submit`/`whatif` batch whose every job is already finished in the
//! run cache is answered at parse time, on the reactor thread, and
//! written in the same pass that read it: a hit costs about what a
//! `status` round trip does. Only misses, keys still in flight, and
//! partial-hit batches reach the queue: such a batch is admitted
//! atomically (all jobs or a structured `overloaded` rejection);
//! workers fill per-job [`JobSlot`]s, each fill wakes the reactor
//! through the daemon's [`Waker`], and the response line is written
//! once the whole batch has landed.
//!
//! The run cache stores **canonical encoded result strings**, not
//! parsed values: a hit and a fresh compute serve the exact same bytes,
//! which is what makes cross-node responses byte-identical. Workers
//! compute through one [`pipm_core::Runner`], the same compute path the
//! figure harness uses: a `submit` job is a plain run, and a `whatif`
//! job forks the runner's warmed checkpoint for its base. With
//! `route_nodes` set the daemon is a *router*: jobs forward to their
//! [`HashRing`](crate::router::HashRing) owner, falling back to local
//! compute, and the router's own run cache answers repeats. `shutdown`
//! flips a flag and wakes both sides: the reactor drains open
//! connections, workers drain the queue, and [`Server::run`] returns
//! `Ok(())`.

use crate::json::Json;
use crate::proto::{self, encode_batch_raw, encode_result, kind, Job, ProtoError, Request};
use crate::reactor::{self, JobSlot, LineOutcome, ReactorConfig, RequestSink, Waker};
use crate::router::RouterState;
use pipm_core::{RunCache, Runner};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

pub use crate::proto::RequestLimits;

/// Daemon tuning knobs. [`ServerConfig::default`] suits tests and the
/// CI smoke job; the `pipm-serve` binary exposes each as a flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Admission queue bound; a `submit` whose whole batch does not fit
    /// is rejected with a structured `overloaded` error.
    pub queue_capacity: usize,
    /// Run-cache capacity (completed entries) before LRU eviction.
    pub cache_capacity: usize,
    /// Checkpoint-cache capacity for `whatif` requests. Each entry holds
    /// a full warmed simulator (deep-copied `System` plus stream
    /// positions), so this is kept far smaller than `cache_capacity`.
    pub ckpt_cache_capacity: usize,
    /// Per-request validation limits and defaults.
    pub limits: RequestLimits,
    /// Per-connection read deadline: a connection with no complete
    /// request for this long (idle or slow-loris) is dropped, unless it
    /// has responses in flight.
    pub read_timeout: Duration,
    /// Longest accepted request line in bytes.
    pub max_line_bytes: usize,
    /// Concurrent connection cap; arrivals beyond it are shed with a
    /// structured `overloaded` error instead of hanging.
    pub max_connections: usize,
    /// Non-empty makes this daemon a **router**: jobs consistent-hash
    /// to these worker-node addresses on their canonical `job_key`.
    pub route_nodes: Vec<String>,
    /// Router health-probe period.
    pub probe_interval: Duration,
    /// Router per-attempt forward response timeout.
    pub forward_timeout: Duration,
    /// Router forward retries against the owner before local fallback.
    pub forward_retries: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            ckpt_cache_capacity: 32,
            limits: RequestLimits::default(),
            read_timeout: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
            max_connections: 1024,
            route_nodes: Vec::new(),
            probe_interval: Duration::from_millis(500),
            forward_timeout: Duration::from_secs(600),
            forward_retries: 1,
        }
    }
}

/// On shutdown, how long open connections get to finish and flush.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Counters surfaced by the `metrics` command (admission-side; cache
/// counters come from [`RunCache::stats`](pipm_core::RunCache::stats)).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    jobs_admitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_invalid: AtomicU64,
}

/// One admitted job: what to run, and the slot the reactor polls.
struct QueuedJob {
    job: Job,
    slot: Arc<JobSlot>,
}

struct Shared {
    cfg: ServerConfig,
    /// Canonical encoded result strings keyed by `Job::key` — storing
    /// the bytes (not the parsed value) is what guarantees a hit and a
    /// fresh compute are byte-identical on the wire.
    cache: RunCache<String>,
    /// Computes every miss; holds the warmed prefixes of `whatif` jobs.
    /// Checkpoints are node-local: only the (small) encoded results
    /// travel between router and node.
    runner: Runner,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    /// Set (under `queue`'s lock) by [`Shared::begin_shutdown`] only.
    shutdown: Arc<AtomicBool>,
    /// Signalled by every job-slot fill and by shutdown, so the reactor
    /// never sleeps through either.
    waker: Waker,
    counters: Counters,
    started: Instant,
    /// `Some` when this daemon routes instead of (only) computing.
    router: Option<Arc<RouterState>>,
}

impl Shared {
    /// Flags the daemon to drain and wakes everyone waiting for work.
    /// The flag is set and workers notified under the queue lock, so a
    /// worker between its shutdown check and its wait cannot miss it;
    /// the waker ends the reactor's `poll(2)`. Idempotent.
    fn begin_shutdown(&self) {
        let queue = self.queue.lock().unwrap();
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        drop(queue);
        self.waker.wake();
    }

    /// Atomically admits a whole batch, or rejects it if the queue
    /// cannot take every job (partial admission would let a half-batch
    /// starve under load).
    fn admit(&self, jobs: Vec<Job>) -> Result<Vec<Arc<JobSlot>>, ProtoError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ProtoError::new(
                kind::SHUTTING_DOWN,
                "daemon is draining; no new work accepted",
            ));
        }
        let mut queue = self.queue.lock().unwrap();
        let free = self.cfg.queue_capacity.saturating_sub(queue.len());
        if jobs.len() > free {
            let depth = queue.len();
            drop(queue);
            self.counters
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Err(ProtoError {
                kind: kind::OVERLOADED,
                detail: format!(
                    "admission queue full ({depth}/{} queued); retry later",
                    self.cfg.queue_capacity
                ),
                extra: vec![
                    ("queue_depth".into(), Json::UInt(depth as u64)),
                    (
                        "queue_capacity".into(),
                        Json::UInt(self.cfg.queue_capacity as u64),
                    ),
                ],
            });
        }
        let mut slots = Vec::with_capacity(jobs.len());
        for job in jobs {
            let slot = JobSlot::new(&self.waker);
            slots.push(Arc::clone(&slot));
            queue.push_back(QueuedJob { job, slot });
        }
        self.counters
            .jobs_admitted
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        drop(queue);
        self.queue_cv.notify_all();
        Ok(slots)
    }

    /// Answers a batch on the calling (reactor) thread when every job is
    /// already finished in the run cache: no queue hop, no worker
    /// wake-up. The hits count as admitted and completed jobs, exactly
    /// as on the worker path, and encode to the same bytes. `None`
    /// leaves the batch to [`admit`](Shared::admit): some key is absent
    /// or still in flight (the worker path dedups it), or the daemon is
    /// draining (admission rejects the batch).
    fn cached_batch(&self, jobs: &[Job]) -> Option<String> {
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let keys: Vec<&str> = jobs.iter().map(|job| job.key.as_str()).collect();
        let hits = self.cache.get_all(&keys)?;
        let count = hits.len() as u64;
        self.counters
            .jobs_admitted
            .fetch_add(count, Ordering::Relaxed);
        self.counters
            .jobs_completed
            .fetch_add(count, Ordering::Relaxed);
        Some(encode_batch_raw(&hits))
    }

    /// Runs one job on this machine and encodes it canonically — the
    /// compute path for worker nodes, and the router's fallback when a
    /// job's ring owner is unreachable.
    fn compute_local(&self, job: &Job) -> String {
        let result = self.runner.run(
            job.workload,
            job.scheme,
            &job.cfg,
            &job.params,
            job.delta.as_ref(),
        );
        encode_result(&result, &job.params, &job.key).encode()
    }

    /// Worker loop: pop, run through the cache, fill the slot. Exits
    /// once shutdown is flagged *and* the queue is drained; between
    /// jobs it waits on `queue_cv`, which admission and
    /// [`begin_shutdown`](Shared::begin_shutdown) notify under the lock.
    fn worker(&self) {
        loop {
            let queued = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(q) = queue.pop_front() {
                        break Some(q);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = self.queue_cv.wait(queue).unwrap();
                }
            };
            let Some(QueuedJob { job, slot }) = queued else {
                return;
            };
            // The cache deduplicates concurrent identical jobs: one
            // worker computes while others block (counted as
            // `inflight_waits`), and repeats are pure hits. A panic
            // inside the simulator (hostile cfg) releases the in-flight
            // claim and surfaces as a structured `internal` error.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.cache.get_or_compute(&job.key, || match &self.router {
                    // Router: the ring owner computes (maximizing its
                    // cache locality); an unreachable owner degrades to
                    // computing right here — correct either way.
                    Some(router) => router.execute(&job, || self.compute_local(&job)),
                    None => self.compute_local(&job),
                })
            }));
            match outcome {
                Ok(encoded) => {
                    self.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    slot.fill(Ok(encoded));
                }
                Err(payload) => {
                    self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "simulation panicked".to_string());
                    slot.fill(Err(msg));
                }
            }
        }
    }

    fn metrics_response(&self) -> String {
        let cache = self.cache.stats();
        let runner = self.runner.stats();
        let ckpt = runner.checkpoints;
        let queue_depth = self.queue.lock().unwrap().len() as u64;
        let c = &self.counters;
        let get = |a: &AtomicU64| Json::UInt(a.load(Ordering::Relaxed));
        let (mode, healthy, forwarded, retries, fallback, unhealthy_marked) = match &self.router {
            Some(r) => (
                "router",
                r.healthy_nodes() as u64,
                r.counters.forwarded.load(Ordering::Relaxed),
                r.counters.retries.load(Ordering::Relaxed),
                r.counters.fallback_local.load(Ordering::Relaxed),
                r.counters.unhealthy_marked.load(Ordering::Relaxed),
            ),
            None => ("node", 0, 0, 0, 0, 0),
        };
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("mode".into(), Json::Str(mode.into())),
            (
                "uptime_ms".into(),
                Json::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("queue_depth".into(), Json::UInt(queue_depth)),
            (
                "queue_capacity".into(),
                Json::UInt(self.cfg.queue_capacity as u64),
            ),
            ("connections".into(), get(&c.connections)),
            ("connections_rejected".into(), get(&c.connections_rejected)),
            (
                "max_connections".into(),
                Json::UInt(self.cfg.max_connections as u64),
            ),
            ("requests".into(), get(&c.requests)),
            ("jobs_admitted".into(), get(&c.jobs_admitted)),
            ("jobs_completed".into(), get(&c.jobs_completed)),
            ("jobs_failed".into(), get(&c.jobs_failed)),
            ("rejected_overloaded".into(), get(&c.rejected_overloaded)),
            ("rejected_invalid".into(), get(&c.rejected_invalid)),
            ("cache_entries".into(), Json::UInt(self.cache.len() as u64)),
            ("cache_hits".into(), Json::UInt(cache.hits)),
            ("cache_misses".into(), Json::UInt(cache.misses)),
            (
                "cache_inflight_dedup".into(),
                Json::UInt(cache.inflight_waits),
            ),
            ("cache_evictions".into(), Json::UInt(cache.evictions)),
            (
                "ckpt_cache_entries".into(),
                Json::UInt(runner.checkpoint_entries as u64),
            ),
            ("ckpt_cache_hits".into(), Json::UInt(ckpt.hits)),
            ("ckpt_cache_misses".into(), Json::UInt(ckpt.misses)),
            (
                "ckpt_cache_inflight_dedup".into(),
                Json::UInt(ckpt.inflight_waits),
            ),
            ("ckpt_cache_evictions".into(), Json::UInt(ckpt.evictions)),
            ("healthy_nodes".into(), Json::UInt(healthy)),
            ("router_forwarded".into(), Json::UInt(forwarded)),
            ("router_retries".into(), Json::UInt(retries)),
            ("router_fallback_local".into(), Json::UInt(fallback)),
            (
                "router_unhealthy_marked".into(),
                Json::UInt(unhealthy_marked),
            ),
        ])
        .encode()
    }

    fn status_response(&self) -> String {
        let draining = self.shutdown.load(Ordering::SeqCst);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "state".into(),
                Json::Str(if draining { "draining" } else { "serving" }.into()),
            ),
            (
                "queue_depth".into(),
                Json::UInt(self.queue.lock().unwrap().len() as u64),
            ),
            ("workers".into(), Json::UInt(self.cfg.workers as u64)),
        ])
        .encode()
    }
}

impl RequestSink for Shared {
    fn handle_line(&self, line: &str) -> LineOutcome {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = match proto::parse_request(line, &self.cfg.limits) {
            Ok(r) => r,
            Err(e) => {
                self.counters
                    .rejected_invalid
                    .fetch_add(1, Ordering::Relaxed);
                return LineOutcome::Respond(e.encode());
            }
        };
        match request {
            Request::Status => LineOutcome::Respond(self.status_response()),
            Request::Metrics => LineOutcome::Respond(self.metrics_response()),
            Request::Shutdown => {
                self.begin_shutdown();
                LineOutcome::Respond(
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("state".into(), Json::Str("draining".into())),
                    ])
                    .encode(),
                )
            }
            Request::Submit(jobs) => match self.cached_batch(&jobs) {
                Some(response) => LineOutcome::Respond(response),
                None => match self.admit(jobs) {
                    Ok(slots) => LineOutcome::Batch(slots),
                    Err(e) => LineOutcome::Respond(e.encode()),
                },
            },
        }
    }

    fn finish_batch(&self, results: Vec<Result<String, String>>) -> String {
        let mut encoded = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(s) => encoded.push(s),
                Err(msg) => {
                    // One failed job fails the batch with a structured
                    // error; the daemon keeps going.
                    return ProtoError::new(kind::INTERNAL, format!("job failed: {msg}")).encode();
                }
            }
        }
        encode_batch_raw(&encoded)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn on_connection(&self) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
    }

    fn on_connection_rejected(&self) -> String {
        self.counters
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .rejected_overloaded
            .fetch_add(1, Ordering::Relaxed);
        ProtoError {
            kind: kind::OVERLOADED,
            detail: format!(
                "connection limit reached ({}); retry later",
                self.cfg.max_connections
            ),
            extra: vec![(
                "max_connections".into(),
                Json::UInt(self.cfg.max_connections as u64),
            )],
        }
        .encode()
    }

    fn on_oversized_line(&self, max_line_bytes: usize) -> String {
        self.counters
            .rejected_invalid
            .fetch_add(1, Ordering::Relaxed);
        ProtoError::new(
            kind::LIMIT_EXCEEDED,
            format!("request line exceeds {max_line_bytes} bytes"),
        )
        .encode()
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle for requesting shutdown from outside the protocol (tests,
/// signal handlers).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Flags the daemon to drain and exit; idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl Server {
    /// Binds the listen socket. Jobs are not yet accepted; call
    /// [`run`](Server::run).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let router = if cfg.route_nodes.is_empty() {
            None
        } else {
            Some(RouterState::new(&cfg))
        };
        let cache_capacity = cfg.cache_capacity;
        let ckpt_cache_capacity = cfg.ckpt_cache_capacity;
        let shared = Arc::new(Shared {
            cfg,
            cache: RunCache::new(cache_capacity),
            runner: Runner::new(ckpt_cache_capacity),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            waker: Waker::new()?,
            counters: Counters::default(),
            started: Instant::now(),
            router,
        });
        Ok(Server { listener, shared })
    }

    /// The actual bound address (resolves `:0` to the chosen port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failure from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown without a protocol message.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a `shutdown` request (or [`ShutdownHandle`]) drains
    /// the daemon: starts (in router mode) the health-probe thread,
    /// spawns the worker pool, and runs the
    /// readiness loop. On shutdown the reactor stops accepting, every
    /// pending response is computed and flushed (bounded by a grace
    /// period), and workers finish every queued job before return.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors other than transient
    /// `WouldBlock`/`Interrupted`/`ConnectionAborted`.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        if let Some(router) = &shared.router {
            router.spawn_probe(Arc::clone(&shared.shutdown));
        }
        let workers: Vec<_> = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.worker())
            })
            .collect();
        let reactor_cfg = ReactorConfig {
            max_connections: shared.cfg.max_connections,
            read_timeout: shared.cfg.read_timeout,
            max_line_bytes: shared.cfg.max_line_bytes,
            drain_grace: DRAIN_GRACE,
        };
        let outcome = reactor::run_reactor(listener, &reactor_cfg, &*shared, &shared.waker);
        // Reached on drain (Ok) or a fatal listener error (Err): either
        // way, stop the workers and the background threads.
        shared.begin_shutdown();
        for w in workers {
            let _ = w.join();
        }
        outcome
    }
}
