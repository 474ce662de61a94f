//! Horizontal sharding: consistent-hash routing and graceful degradation.
//!
//! ```text
//!            router (pipm-serve --route A,B,C)
//!   client ──▶ hash ring over job_key ──▶ owner node ──▶ result
//!                    │                        ✗ dead?
//!                    └── retry w/ backoff ──▶ local fallback compute
//! ```
//!
//! Each key has exactly one owner, and the router keeps its own run
//! cache in front of the ring, so a routed job is computed once per
//! cluster: the owner computes it the first time, and every repeat is a
//! hit on the router (or, if the router's entry was evicted, on the
//! owner). Two cooperating pieces, all std-only:
//!
//! * [`HashRing`] — consistent hashing of canonical `job_key`s onto
//!   node addresses with virtual nodes, so adding/removing a node
//!   remaps only its arc of the key space and identical jobs always
//!   land on the same node (maximizing that node's run-cache hits).
//! * [`RouterState`] — per-node health (background probe thread plus
//!   demotion on forward failure), forwarding with bounded
//!   retry-with-backoff, and **local fallback compute**: when the owner
//!   node is unreachable the router runs the simulation itself, so a
//!   node kill costs latency, never correctness or availability.
//!
//! Forwarded results are spliced out of the node's response *as raw
//! bytes* — never decoded and re-encoded — so a routed response is
//! byte-identical to the single-node response for the same job.

use crate::proto::Job;
use crate::server::ServerConfig;
use pipm_core::fingerprint64;
use pipm_types::hash::splitmix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes per physical node: enough to keep the largest arc
/// within a few percent of fair at small cluster sizes.
const VNODES: usize = 64;

/// Ring position of a string. FNV-1a alone clusters badly on the short,
/// similar strings rings hash (`host:port|vnode=i`, `job-v1|…`), so the
/// fingerprint goes through [`splitmix64`] to spread the points uniformly
/// around the u64 circle.
fn ring_hash(s: &str) -> u64 {
    splitmix64(fingerprint64(s))
}

/// A consistent-hash ring over node addresses.
///
/// Each node contributes `VNODES` points (FNV-1a of `addr|vnode=i`);
/// a key is owned by the first point clockwise of the key's own hash.
pub struct HashRing {
    nodes: Vec<String>,
    /// Sorted `(point_hash, node_index)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring. `nodes` must be non-empty and is kept in the
    /// given order (indices into it are what [`owner`](Self::owner)
    /// returns).
    pub fn new(nodes: Vec<String>) -> HashRing {
        assert!(!nodes.is_empty(), "hash ring needs at least one node");
        let mut points = Vec::with_capacity(nodes.len() * VNODES);
        for (i, node) in nodes.iter().enumerate() {
            for v in 0..VNODES {
                points.push((ring_hash(&format!("{node}|vnode={v}")), i));
            }
        }
        points.sort_unstable();
        HashRing { nodes, points }
    }

    /// The node addresses, in construction order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Index (into [`nodes`](Self::nodes)) of the node owning `key`.
    pub fn owner(&self, key: &str) -> usize {
        let h = ring_hash(key);
        let at = self.points.partition_point(|(p, _)| *p < h);
        let (_, node) = self.points[if at == self.points.len() { 0 } else { at }];
        node
    }
}

/// Per-attempt connect timeout for a forward.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Base retry backoff; forward attempt `n` first sleeps `n * BACKOFF`.
const BACKOFF: Duration = Duration::from_millis(50);

/// Router-side counters (all monotonic), surfaced through `metrics`.
#[derive(Default)]
pub struct RouterCounters {
    /// Jobs answered by the owning node.
    pub forwarded: AtomicU64,
    /// Forward attempts that failed at the transport level.
    pub retries: AtomicU64,
    /// Jobs computed locally because the owner was unreachable (or
    /// returned a non-OK response).
    pub fallback_local: AtomicU64,
    /// Times `execute` flipped a node's health bit to false after
    /// exhausting transport retries (probes revive it later).
    pub unhealthy_marked: AtomicU64,
}

/// The routing half of a `pipm-serve --route` daemon.
pub struct RouterState {
    ring: HashRing,
    /// Per-attempt response read timeout (a forwarded cold job is a real
    /// simulation, so it is generous).
    forward_timeout: Duration,
    /// Forward attempts against the owner after the first fails.
    retries: u32,
    /// Health probe period.
    probe_interval: Duration,
    healthy: Vec<AtomicBool>,
    /// Counters for `metrics`.
    pub counters: RouterCounters,
}

impl RouterState {
    /// Builds the routing state over the daemon's `route_nodes`, its
    /// forward timeout and retries and its probe period; every node
    /// starts presumed healthy.
    pub fn new(cfg: &ServerConfig) -> Arc<RouterState> {
        let ring = HashRing::new(cfg.route_nodes.clone());
        let healthy = (0..ring.nodes().len())
            .map(|_| AtomicBool::new(true))
            .collect();
        Arc::new(RouterState {
            ring,
            forward_timeout: cfg.forward_timeout,
            retries: cfg.forward_retries,
            probe_interval: cfg.probe_interval,
            healthy,
            counters: RouterCounters::default(),
        })
    }

    /// The ring (exposed so tests can pick a job owned by a given node).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of nodes currently marked healthy.
    pub fn healthy_nodes(&self) -> usize {
        self.healthy
            .iter()
            .filter(|h| h.load(Ordering::Relaxed))
            .count()
    }

    /// Executes one job: forward to the ring owner (retrying with
    /// backoff over transient failures), or fall back to `local`
    /// compute when the owner is down — the caller always gets a
    /// correct canonical result object, whatever the cluster's state.
    pub fn execute(&self, job: &Job, local: impl FnOnce() -> String) -> String {
        let owner = self.ring.owner(&job.key);
        if self.healthy[owner].load(Ordering::Relaxed) {
            let addr = &self.ring.nodes()[owner];
            let mut last = ForwardError::Transport;
            for attempt in 0..=self.retries {
                if attempt > 0 {
                    std::thread::sleep(BACKOFF * attempt);
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                }
                match self.forward(addr, job) {
                    Ok(result) => {
                        self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        return result;
                    }
                    // Transient: the node may be down, or is alive but
                    // shedding load. Both are worth a backed-off retry.
                    Err(err @ (ForwardError::Transport | ForwardError::Overloaded)) => {
                        last = err;
                        continue;
                    }
                    // A structured node-side error is deterministic;
                    // retrying the same bytes cannot help. Local
                    // compute can (the router validated the job).
                    Err(ForwardError::Rejected) => {
                        last = ForwardError::Rejected;
                        break;
                    }
                }
            }
            // Only exhausted *transport* failures may flip the health
            // bit: a node that answered — even with `overloaded` or a
            // rejection — is demonstrably alive, and declaring it dead
            // would divert all its traffic to local fallback until the
            // next probe revives it.
            if matches!(last, ForwardError::Transport) {
                self.healthy[owner].store(false, Ordering::Relaxed);
                self.counters
                    .unhealthy_marked
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters.fallback_local.fetch_add(1, Ordering::Relaxed);
        local()
    }

    /// One forward: a fresh connection, a single-job request line, one
    /// response line, and a raw byte splice of the result object.
    fn forward(&self, addr: &str, job: &Job) -> Result<String, ForwardError> {
        let cmd = if job.delta.is_some() {
            "whatif"
        } else {
            "submit"
        };
        let line = format!(r#"{{"cmd":"{cmd}","jobs":[{}]}}"#, job.raw);
        let response = request_once(addr, &line, CONNECT_TIMEOUT, self.forward_timeout)
            .ok_or(ForwardError::Transport)?;
        classify_response(&response)
    }

    /// Spawns the health-probe thread: every `probe_interval`, each
    /// node gets a `status` request; the result flips its health bit
    /// (dead nodes revive automatically when they answer again). The
    /// thread exits when `stop` flips (daemon shutdown).
    ///
    /// Each node is probed under its own deadline — an equal slice of
    /// the probe interval, clamped to [50 ms, 500 ms] — and `stop` is
    /// checked before every node, so one dead node can neither delay
    /// health detection of the rest by seconds nor stall shutdown for
    /// a full sweep.
    pub fn spawn_probe(self: &Arc<Self>, stop: Arc<AtomicBool>) {
        let state = Arc::clone(self);
        std::thread::spawn(move || {
            let nodes = state.ring.nodes().len().max(1) as u32;
            let per_node = (state.probe_interval / nodes)
                .clamp(Duration::from_millis(50), Duration::from_millis(500));
            while !stop.load(Ordering::SeqCst) {
                for (i, addr) in state.ring.nodes().iter().enumerate() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let alive =
                        request_once(addr, r#"{"cmd":"status"}"#, per_node, per_node).is_some();
                    state.healthy[i].store(alive, Ordering::Relaxed);
                }
                // Sleep in short slices so shutdown is prompt.
                let deadline = Instant::now() + state.probe_interval;
                while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ForwardError {
    /// Connect/write/read failed; the node may be down (retryable, and
    /// the only variant allowed to mark the node unhealthy).
    Transport,
    /// The node answered a structured `overloaded` error: transient
    /// back-pressure from a demonstrably live node (retryable with
    /// backoff, never a health demotion).
    Overloaded,
    /// The node answered some other non-OK response — a deterministic
    /// rejection (not retryable, never a health demotion).
    Rejected,
}

/// Splits a node's response line into the spliced result bytes or a
/// [`ForwardError`] describing why it cannot be used.
///
/// The node's batch encoding is canonical; for a single job the result
/// object is exactly the bytes between the fixed prefix and suffix.
/// Splicing (never re-encoding) preserves byte-identity with a
/// single-node response.
fn classify_response(response: &str) -> Result<String, ForwardError> {
    if let Some(result) = response
        .strip_prefix(r#"{"ok":true,"results":["#)
        .and_then(|rest| rest.strip_suffix("]}"))
    {
        return Ok(result.to_string());
    }
    let kind = crate::json::parse(response)
        .ok()
        .and_then(|v| v.get("error")?.get("kind")?.as_str().map(str::to_string));
    match kind.as_deref() {
        Some(crate::proto::kind::OVERLOADED) => Err(ForwardError::Overloaded),
        _ => Err(ForwardError::Rejected),
    }
}

/// One request/response round trip on a fresh connection, all failures
/// flattened to `None` (callers only branch on success).
fn request_once(
    addr: &str,
    line: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Option<String> {
    let sock_addr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sock_addr, connect_timeout).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(read_timeout)).ok()?;
    // Line and newline in one write (see `Client::request`): two writes
    // under TCP_NODELAY can reach the node as two segments.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(&framed).ok()?;
    writer.flush().ok()?;
    let mut response = String::new();
    let n = BufReader::new(stream).read_line(&mut response).ok()?;
    (n > 0).then(|| response.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_core::job_key;
    use pipm_types::{SchemeKind, SystemConfig};
    use pipm_workloads::{Workload, WorkloadParams};

    /// Real content addresses: long strings that differ in a few
    /// characters, the case a ring hash must still spread.
    fn keys(n: u64) -> impl Iterator<Item = String> {
        let cfg = SystemConfig::experiment_scale();
        (0..n).map(move |seed| {
            let params = WorkloadParams {
                refs_per_core: 20_000,
                seed,
            };
            job_key(Workload::Bfs, SchemeKind::Pipm, &cfg, &params, None)
        })
    }

    fn ring3() -> HashRing {
        HashRing::new(vec![
            "10.0.0.1:7457".to_string(),
            "10.0.0.2:7457".to_string(),
            "10.0.0.3:7457".to_string(),
        ])
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = ring3();
        let b = ring3();
        for key in keys(500) {
            let owner = a.owner(&key);
            assert_eq!(owner, b.owner(&key), "ring must be deterministic");
            assert!(owner < 3);
        }
    }

    #[test]
    fn ring_spreads_keys_across_all_nodes() {
        let ring = ring3();
        let mut counts = [0usize; 3];
        for key in keys(3000) {
            counts[ring.owner(&key)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            // Fairness within a loose band: each node owns 1/3 ± 2/3.
            assert!(
                (300..=1800).contains(c),
                "node {i} owns {c} of 3000 keys — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_keys() {
        let full = ring3();
        let reduced = HashRing::new(vec![
            "10.0.0.1:7457".to_string(),
            "10.0.0.2:7457".to_string(),
        ]);
        let mut moved = 0;
        for key in keys(2000) {
            let before = full.owner(&key);
            let after = reduced.owner(&key);
            if before < 2 {
                // Keys not owned by the removed node must stay put —
                // that is the consistent-hashing contract.
                assert_eq!(before, after, "key {key} moved needlessly");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "the removed node owned nothing?");
    }

    #[test]
    fn classify_splices_ok_response_bytes_verbatim() {
        let result = r#"{"workload":"BFS","ipc":0.25}"#;
        let response = format!(r#"{{"ok":true,"results":[{result}]}}"#);
        assert_eq!(classify_response(&response), Ok(result.to_string()));
    }

    #[test]
    fn classify_maps_overloaded_to_retryable_backpressure() {
        let line = crate::proto::ProtoError::new(
            crate::proto::kind::OVERLOADED,
            "queue full: 3 jobs do not fit",
        )
        .encode();
        assert_eq!(classify_response(&line), Err(ForwardError::Overloaded));
    }

    #[test]
    fn classify_maps_other_structured_errors_to_rejected() {
        let line = crate::proto::ProtoError::new(crate::proto::kind::BAD_REQUEST, "unknown field")
            .encode();
        assert_eq!(classify_response(&line), Err(ForwardError::Rejected));
        // Garbage that parses as neither an OK batch nor a structured
        // error is still a deterministic rejection, not back-pressure.
        assert_eq!(classify_response("not json"), Err(ForwardError::Rejected));
        assert_eq!(
            classify_response(r#"{"ok":false}"#),
            Err(ForwardError::Rejected)
        );
    }
}
