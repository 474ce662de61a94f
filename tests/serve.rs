//! End-to-end tests for the `pipm-serve` daemon over loopback TCP.
//!
//! Covers the ISSUE 5 acceptance criteria: byte-identical canonical
//! responses between a cold run, a cache hit, and a direct `run_one`
//! encoding; concurrent identical submissions deduplicated to one
//! computation (observable in `metrics`); structured errors for
//! malformed, unknown, over-limit, and queue-full requests with the
//! daemon surviving all of them; and graceful drain on `shutdown`.
//!
//! The `whatif` tests cover the checkpointed-sweep request type: a
//! `whatif` response must be byte-identical to a direct in-process
//! `run_prefix_one` + `resume_one` encoding, and delta points sharing a
//! base must share one warmed prefix (a checkpoint-cache hit, visible
//! in `metrics`). The figure harness and the daemon must address the
//! same run by the same key: a `Harness` disk-cache line and the
//! matching response carry the same fingerprint.

use pipm_bench::{Harness, Point};
use pipm_core::{
    fingerprint64, job_key, resume_one, run_one, run_prefix_one, CfgDelta, SWEEP_WARMUP_FRACTION,
};
use pipm_serve::client::Client;
use pipm_serve::json::{self, Json};
use pipm_serve::proto::encode_result;
use pipm_serve::server::{Server, ServerConfig, ShutdownHandle};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Small refs count: every daemon test runs real simulations.
const REFS: u64 = 1_500;
const SEED: u64 = 41;
/// A job long enough to still be computing while a few round trips
/// run beside it.
const LONG_REFS: u64 = 100_000;

struct Daemon {
    addr: String,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(cfg: ServerConfig) -> Daemon {
        let server = Server::bind(cfg).expect("bind loopback");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle,
            thread,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to daemon")
    }

    /// Stops the daemon (out-of-band) and asserts a clean exit.
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("serve thread not panicked")
            .expect("serve loop exits cleanly");
    }
}

fn submit_line(workload: &str, scheme: &str, refs: u64, seed: u64) -> String {
    format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"{workload}","scheme":"{scheme}","refs_per_core":{refs},"seed":{seed}}}]}}"#
    )
}

fn metric(client: &mut Client, key: &str) -> u64 {
    let m = client
        .request_json(r#"{"cmd":"metrics"}"#)
        .expect("metrics");
    m.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics missing {key}"))
}

/// Cold run, warm (cache-hit) run, and a direct in-process `run_one`
/// must all encode to the same bytes — the cache returns real results
/// and the canonical encoding is deterministic end to end.
#[test]
fn responses_byte_identical_across_cold_warm_and_direct() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let line = submit_line("bfs", "pipm", REFS, SEED);

    let cold = client.request(&line).expect("cold submit");
    let warm = client.request(&line).expect("warm submit");
    assert_eq!(cold, warm, "cache hit changed the response bytes");

    // Same job, fresh connection: still the same bytes.
    let mut other = daemon.client();
    let again = other.request(&line).expect("second connection submit");
    assert_eq!(cold, again);

    // Direct computation, encoded with the same canonical encoder.
    let params = WorkloadParams {
        refs_per_core: REFS,
        seed: SEED,
    };
    let direct = run_one(
        Workload::Bfs,
        SchemeKind::Pipm,
        SystemConfig::experiment_scale(),
        &params,
    );
    // Keyed on the parse-time cfg, exactly as the daemon admits it
    // (stream construction fills in derived fields before the run).
    let key = job_key(
        Workload::Bfs,
        SchemeKind::Pipm,
        &SystemConfig::experiment_scale(),
        &params,
        None,
    );
    let expected = format!(
        r#"{{"ok":true,"results":[{}]}}"#,
        encode_result(&direct, &params, &key).encode()
    );
    assert_eq!(cold, expected, "server response != direct run_one encoding");

    // The repeat was served from cache: hits > 0, misses == 1.
    assert_eq!(metric(&mut client, "cache_misses"), 1);
    assert!(metric(&mut client, "cache_hits") >= 2);
    daemon.stop();
}

/// N concurrent identical submissions compute the unique job once;
/// the rest are cache hits or in-flight waits, visible in `metrics`.
#[test]
fn concurrent_identical_submissions_compute_once() {
    let cfg = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let line = submit_line("cc", "pipm", REFS, SEED);

    // 6 clients x 4 rounds; each round is sent once the previous one
    // has returned.
    let responses: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&daemon.addr).expect("connect to daemon");
                    (0..4)
                        .map(|_| client.request(&line).expect("submit round"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(responses.len(), 24);
    assert!(
        responses[0].starts_with(r#"{"ok":true"#),
        "{}",
        responses[0]
    );
    assert!(
        responses.iter().all(|r| *r == responses[0]),
        "every round must return the same bytes"
    );

    let mut client = daemon.client();
    assert_eq!(
        metric(&mut client, "cache_misses"),
        1,
        "identical jobs must be computed exactly once"
    );
    assert_eq!(metric(&mut client, "jobs_completed"), 24);
    let hits = metric(&mut client, "cache_hits");
    let dedup = metric(&mut client, "cache_inflight_dedup");
    assert_eq!(hits + 1, 24, "every non-miss round is a hit");
    // Dedup counter is a subset of hits (waiters on the in-flight slot);
    // with 6 concurrent clients at least the racing first wave shows up
    // unless the first round completed before any second arrival, so we
    // only require it to be consistent, not nonzero.
    assert!(dedup <= hits);
    daemon.stop();
}

/// Polls `cmd` (`status` or `metrics`) until `key` satisfies `pred`.
fn wait_for(client: &mut Client, cmd: &str, key: &str, pred: impl Fn(u64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let response = client
            .request_json(&format!(r#"{{"cmd":"{cmd}"}}"#))
            .expect(cmd);
        let value = response.get(key).and_then(Json::as_u64);
        if value.is_some_and(&pred) {
            return;
        }
        assert!(Instant::now() < deadline, "{cmd} {key} stuck at {value:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A cache hit never waits for a worker. With the only worker busy on a
/// long fresh job, a second connection's warm request comes back with
/// the prefill bytes while that job is still running; and a pipelined
/// `[fresh, warm]` pair on one connection still answers in request
/// order, the ready hit held behind the computing miss.
#[test]
fn hit_never_queues_behind_a_miss() {
    let daemon = Daemon::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let warm = submit_line("bfs", "pipm", REFS, SEED);
    let mut b = daemon.client();
    let prefill = b.request(&warm).expect("prefill");
    let admitted = metric(&mut b, "jobs_admitted");
    let completed = metric(&mut b, "jobs_completed");

    // Connection A occupies the only worker with a long fresh job.
    let long = submit_line("bfs", "pipm", LONG_REFS, SEED + 1);
    let addr = daemon.addr.clone();
    let a = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect A");
        client.request(&long).expect("long submit")
    });
    wait_for(&mut b, "metrics", "jobs_admitted", |v| v > admitted);
    wait_for(&mut b, "status", "queue_depth", |v| v == 0);

    // The worker has taken A's job; B's hit must not queue behind it.
    let hit = b.request(&warm).expect("warm submit");
    assert_eq!(hit, prefill, "a hit must return the prefill bytes");
    assert!(!a.is_finished(), "A's job must still be running");
    assert_eq!(
        metric(&mut b, "jobs_completed"),
        completed + 1,
        "only B's hit may have completed; A's job is still running"
    );
    let long_response = a.join().expect("connection A");
    assert!(
        long_response.starts_with(r#"{"ok":true"#),
        "{long_response}"
    );

    // Pipelined on one connection: the hit is ready at once but must
    // wait its turn behind the miss.
    let fresh_seed = SEED + 2;
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect C");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("read timeout");
    let fresh = submit_line("bfs", "pipm", REFS, fresh_seed);
    stream
        .write_all(format!("{fresh}\n{warm}\n").as_bytes())
        .expect("pipelined write");
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    let mut second = String::new();
    reader.read_line(&mut second).expect("second response");
    let first = json::parse(first.trim_end()).expect("first response JSON");
    let seed = first.get("results").and_then(Json::as_arr).unwrap()[0]
        .get("seed")
        .and_then(Json::as_u64);
    assert_eq!(seed, Some(fresh_seed), "the miss must answer first");
    assert_eq!(second.trim_end(), prefill, "then the hit, byte-identical");
    daemon.stop();
}

fn whatif_line(lat_ns: u64) -> String {
    format!(
        r#"{{"cmd":"whatif","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED},"delta":{{"link_latency_ns":{lat_ns}}}}}]}}"#
    )
}

/// A `whatif` response must be byte-identical to the direct in-process
/// equivalent (prefix under the base cfg, forked tail under the delta),
/// and two deltas against the same base must share one warmed prefix —
/// the second request is a checkpoint-cache hit.
#[test]
fn whatif_is_byte_identical_to_direct_fork_and_shares_the_prefix() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();

    let a = client.request(&whatif_line(100)).expect("whatif 100ns");
    let b = client.request(&whatif_line(200)).expect("whatif 200ns");
    assert_ne!(a, b, "different deltas must produce different results");

    // Direct equivalent of the 100 ns point.
    let params = WorkloadParams {
        refs_per_core: REFS,
        seed: SEED,
    };
    let mut cfg = SystemConfig::experiment_scale();
    cfg.warmup_fraction = SWEEP_WARMUP_FRACTION;
    let prefix = (cfg.warmup_fraction * (REFS * cfg.total_cores() as u64) as f64) as u64;
    let delta = CfgDelta {
        link_latency_ns: Some(100.0),
        ..CfgDelta::default()
    };
    let ckpt = run_prefix_one(
        Workload::Bfs,
        SchemeKind::Pipm,
        cfg.clone(),
        &params,
        prefix,
    );
    let direct = resume_one(Workload::Bfs, SchemeKind::Pipm, ckpt, &delta);
    let key = job_key(
        Workload::Bfs,
        SchemeKind::Pipm,
        &SystemConfig::experiment_scale(),
        &params,
        Some(&delta),
    );
    let expected = format!(
        r#"{{"ok":true,"results":[{}]}}"#,
        encode_result(&direct, &params, &key).encode()
    );
    assert_eq!(
        a, expected,
        "whatif response != direct prefix+resume encoding"
    );

    // One prefix simulation served both deltas; each delta is its own
    // run-cache entry; a repeat of an existing point is a pure run-cache
    // hit that never touches the checkpoint cache again.
    assert_eq!(metric(&mut client, "ckpt_cache_misses"), 1);
    assert!(metric(&mut client, "ckpt_cache_hits") >= 1);
    assert_eq!(metric(&mut client, "cache_misses"), 2);
    let hits_before = metric(&mut client, "ckpt_cache_hits");
    let again = client.request(&whatif_line(100)).expect("whatif repeat");
    assert_eq!(a, again, "repeat whatif changed bytes");
    assert_eq!(metric(&mut client, "ckpt_cache_hits"), hits_before);
    assert_eq!(metric(&mut client, "cache_misses"), 2);
    daemon.stop();
}

/// The fingerprint of a `whatif` result is derived from the sweep-
/// namespaced job key, never from the delta-applied cfg — so it can
/// never alias the fingerprint of a plain full run under that cfg.
#[test]
fn whatif_fingerprint_never_aliases_a_plain_run() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let whatif = client
        .request_json(&whatif_line(100))
        .expect("whatif submit");
    let plain = client
        .request_json(&format!(
            r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED},"cfg":{{"link_latency_ns":100}}}}]}}"#
        ))
        .expect("plain submit");
    let fp = |r: &Json| {
        r.get("results").and_then(Json::as_arr).unwrap()[0]
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_ne!(
        fp(&whatif),
        fp(&plain),
        "a prefix+tail sweep point must not masquerade as a full run"
    );
    daemon.stop();
}

/// The figure harness and the daemon address one run by one key: a
/// full point and a sweep point measured by a `Harness` land in its disk
/// cache under keys whose fingerprints are exactly the ones the daemon
/// returns for the matching `submit` and `whatif`, with the same
/// simulated cycles.
#[test]
fn bench_and_daemon_address_the_same_run_the_same_way() {
    let path = std::env::temp_dir().join(format!("pipm_serve_same_key_{}.tsv", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let harness = Harness::with_settings(REFS, SEED, Some(path.clone()), 1);
    let delta = CfgDelta {
        link_latency_ns: Some(100.0),
        ..CfgDelta::default()
    };
    harness.measure_all(&[
        Point::default_cfg(Workload::Bfs, SchemeKind::Pipm),
        Point::sweep(Workload::Bfs, SchemeKind::Pipm, "lat=100ns", delta),
    ]);
    let disk = std::fs::read_to_string(&path).expect("harness wrote its disk cache");
    let _ = std::fs::remove_file(&path);
    let mut from_bench: Vec<(String, u64)> = disk
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let cycles = fields[1].parse().expect("exec_cycles field");
            (format!("{:016x}", fingerprint64(fields[0])), cycles)
        })
        .collect();

    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let mut from_daemon: Vec<(String, u64)> =
        [submit_line("bfs", "pipm", REFS, SEED), whatif_line(100)]
            .iter()
            .map(|line| {
                let response = client.request_json(line).expect("daemon response");
                let result = &response.get("results").and_then(Json::as_arr).unwrap()[0];
                let fingerprint = result.get("fingerprint").and_then(Json::as_str).unwrap();
                let cycles = result.get("exec_cycles").and_then(Json::as_u64).unwrap();
                (fingerprint.to_string(), cycles)
            })
            .collect();
    daemon.stop();
    from_bench.sort();
    from_daemon.sort();
    assert_eq!(from_bench.len(), 2, "one disk-cache line per point");
    assert_eq!(from_bench, from_daemon);
}

/// A `cores_per_host` past the 8-bit core index is a typed rejection
/// before admission, however large: the daemon neither aliases cores
/// nor tries to allocate per-core state for 10^11 of them, and keeps
/// serving.
#[test]
fn oversized_core_counts_are_rejected_and_the_daemon_survives() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    for cores in ["257", "100000000000"] {
        let response = client
            .request_json(&format!(
                r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"cfg":{{"cores_per_host":{cores}}}}}]}}"#
            ))
            .expect("rejection");
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request"),
            "cores_per_host={cores}"
        );
    }
    let status = client.request_json(r#"{"cmd":"status"}"#).expect("status");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("serving"));
    daemon.stop();
}

/// Distinct jobs in one batch come back in job order, all computed.
#[test]
fn batch_returns_results_in_job_order() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let line = format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"native","refs_per_core":{REFS},"seed":{SEED}}},{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED}}}]}}"#
    );
    let response = client.request_json(&line).expect("batch submit");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("scheme").and_then(Json::as_str),
        Some("Native")
    );
    assert_eq!(
        results[1].get("scheme").and_then(Json::as_str),
        Some("PIPM")
    );
    daemon.stop();
}

/// Every error path returns a structured `{"ok":false,"error":{...}}`
/// with the right kind — and the daemon keeps serving afterwards.
#[test]
fn error_paths_are_structured_and_nonfatal() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let cases: [(String, &str); 6] = [
        ("this is not json".to_string(), "malformed"),
        (r#"{"cmd":"explode"}"#.to_string(), "malformed"),
        (
            submit_line("not_a_workload", "pipm", REFS, SEED),
            "unknown_workload",
        ),
        (
            submit_line("bfs", "not_a_scheme", REFS, SEED),
            "unknown_scheme",
        ),
        (
            submit_line("bfs", "pipm", 99_000_000_000, SEED),
            "limit_exceeded",
        ),
        (
            format!(
                r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"cfg":{{"sector_lines":0}}}}]}}"#
            ),
            "bad_request",
        ),
    ];
    for (line, want_kind) in &cases {
        let response = client.request_json(line).expect("error response");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "line: {line}"
        );
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(*want_kind),
            "line: {line}"
        );
    }
    // Same connection, daemon still healthy: a real job still works.
    let ok = client
        .request_json(&submit_line("bfs", "native", REFS, SEED))
        .expect("submit after errors");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(metric(&mut client, "rejected_invalid"), cases.len() as u64);
    daemon.stop();
}

/// A batch that does not fit the admission queue whole is rejected with
/// a structured `overloaded` error carrying the queue depth/capacity;
/// the daemon then still accepts work that fits.
#[test]
fn queue_full_rejects_with_overloaded() {
    let cfg = ServerConfig {
        // One worker and a 2-slot queue: a 3-job batch can never fit.
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut client = daemon.client();
    let jobs: Vec<String> = (0..3)
        .map(|i| {
            format!(
                r#"{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{}}}"#,
                SEED + i
            )
        })
        .collect();
    let line = format!(r#"{{"cmd":"submit","jobs":[{}]}}"#, jobs.join(","));
    let response = client.request_json(&line).expect("overloaded response");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let error = response.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(error.get("queue_capacity").and_then(Json::as_u64), Some(2));
    assert!(error.get("queue_depth").and_then(Json::as_u64).is_some());

    // A batch that fits still goes through.
    let ok = client
        .request_json(&submit_line("bfs", "pipm", REFS, SEED))
        .expect("submit after overload");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(metric(&mut client, "rejected_overloaded"), 1);
    daemon.stop();
}

/// `shutdown` over the protocol drains in-flight work and the serve
/// loop returns cleanly; late submissions are refused.
#[test]
fn protocol_shutdown_drains_and_exits() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    // Queue real work, then shut down from a second connection while
    // the first waits for its batch: the batch must still complete.
    let line = submit_line("canneal", "pipm", REFS, SEED);
    let submitter = {
        let addr = daemon.addr.clone();
        let line = line.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request_json(&line).expect("submit during shutdown race")
        })
    };
    // Give the submit a head start so it is in flight when the
    // shutdown lands (timing-lenient: either order must succeed).
    std::thread::sleep(Duration::from_millis(30));
    let response = client
        .request_json(r#"{"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        response.get("state").and_then(Json::as_str),
        Some("draining")
    );
    let batch = submitter.join().expect("submitter thread");
    assert_eq!(
        batch.get("ok").and_then(Json::as_bool),
        Some(true),
        "in-flight batch must drain, got: {}",
        batch.encode()
    );
    daemon
        .thread
        .join()
        .expect("serve thread not panicked")
        .expect("clean exit after protocol shutdown");
}

/// `status` reports serving state and worker count.
#[test]
fn status_reports_serving() {
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut client = daemon.client();
    let s = client.request_json(r#"{"cmd":"status"}"#).expect("status");
    assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(s.get("state").and_then(Json::as_str), Some("serving"));
    assert_eq!(s.get("workers").and_then(Json::as_u64), Some(3));
    daemon.stop();
}

/// Oversized request lines get a structured rejection and only cost
/// that connection; the daemon itself keeps serving.
#[test]
fn oversized_line_rejected_without_killing_daemon() {
    let cfg = ServerConfig {
        max_line_bytes: 4 * 1024,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut big = daemon.client();
    let huge = format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"{}","scheme":"pipm"}}]}}"#,
        "x".repeat(8 * 1024)
    );
    let response = big.request_json(&huge).expect("oversize rejection");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("limit_exceeded")
    );
    // Fresh connection: daemon is fine.
    let mut client = daemon.client();
    let ok = client
        .request_json(&submit_line("bfs", "native", REFS, SEED))
        .expect("submit after oversized line");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    daemon.stop();
}
