//! Multi-node cluster tests for `pipm-serve` over loopback TCP.
//!
//! A router in front of three worker nodes returns byte-identical
//! responses to a single-node daemon and to a direct in-process
//! encoding; a key routed twice is computed once in the whole cluster;
//! killing a node mid-cluster degrades to retry + local-fallback with
//! correct canonical bytes; the open-loop benchmark produces
//! deterministic schedules, fixture-checked percentiles, and monotone
//! saturation-sweep rows; and the readiness loop holds hundreds of
//! concurrent connections on one thread.

use pipm_core::{job_key, run_one};
use pipm_serve::bench::{poisson_offsets, saturation_sweep};
use pipm_serve::client::Client;
use pipm_serve::json::Json;
use pipm_serve::proto::encode_result;
use pipm_serve::router::HashRing;
use pipm_serve::server::{Server, ServerConfig, ShutdownHandle};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Small refs count: every cluster test runs real simulations.
const REFS: u64 = 1_000;
const SEED: u64 = 41;

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

fn node_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// An n-node cluster with a router in front, every address
/// loopback-ephemeral.
struct Cluster {
    nodes: Vec<Daemon>,
    node_addrs: Vec<String>,
    router: Daemon,
}

impl Cluster {
    fn start(n: usize) -> Cluster {
        let nodes: Vec<Daemon> = (0..n).map(|_| Daemon::start(node_cfg())).collect();
        let node_addrs: Vec<String> = nodes.iter().map(|d| d.addr.clone()).collect();
        let router = Daemon::start(ServerConfig {
            route_nodes: node_addrs.clone(),
            // Fast probes and retries keep the node-kill test brisk.
            probe_interval: Duration::from_millis(100),
            forward_retries: 1,
            ..node_cfg()
        });
        Cluster {
            nodes,
            node_addrs,
            router,
        }
    }

    fn stop(self) {
        self.router.stop();
        for node in self.nodes {
            node.stop();
        }
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

/// Polls a metric on `client` until `pred` holds or the deadline
/// passes; health changes are asynchronous, so those assertions wait.
fn wait_for(client: &mut Client, key: &str, pred: impl Fn(u64) -> bool) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = metric(client, key);
        if pred(v) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for metric {key} (last value {v})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The canonical response bytes a single-job submit must produce,
/// computed directly in-process.
fn direct_response(workload: Workload, scheme: SchemeKind, refs: u64, seed: u64) -> String {
    let params = WorkloadParams {
        refs_per_core: refs,
        seed,
    };
    let cfg = SystemConfig::experiment_scale();
    let result = run_one(workload, scheme, cfg.clone(), &params);
    let key = job_key(workload, scheme, &cfg, &params, None);
    format!(
        r#"{{"ok":true,"results":[{}]}}"#,
        encode_result(&result, &params, &key).encode()
    )
}

/// Routed responses must be byte-identical to a single standalone
/// daemon's and to the direct in-process encoding — across several
/// jobs, so every ring owner gets exercised.
#[test]
fn router_responses_byte_identical_to_single_node_and_direct() {
    let cluster = Cluster::start(3);
    let single = Daemon::start(node_cfg());
    let mut via_router = cluster.router.client();
    let mut via_single = single.client();

    for seed in [SEED, SEED + 1, SEED + 2, SEED + 3] {
        let line = submit_line("bfs", "pipm", REFS, seed);
        let routed = via_router.request(&line).expect("routed submit");
        let standalone = via_single.request(&line).expect("single-node submit");
        assert_eq!(
            routed, standalone,
            "routed response differs from single-node (seed {seed})"
        );
    }
    // One of them checked against the ground-truth direct encoding.
    let routed = via_router
        .request(&submit_line("bfs", "pipm", REFS, SEED))
        .expect("routed repeat");
    assert_eq!(
        routed,
        direct_response(Workload::Bfs, SchemeKind::Pipm, REFS, SEED)
    );

    // The jobs actually went through the ring, not silent local compute.
    let forwarded = metric(&mut via_router, "router_forwarded");
    assert!(forwarded >= 4, "expected >= 4 forwards, saw {forwarded}");
    assert_eq!(metric(&mut via_router, "healthy_nodes"), 3);

    single.stop();
    cluster.stop();
}

/// One compute per key: a job routed twice is computed by exactly one
/// node the first time and answered from the router's own run cache the
/// second time, with identical bytes.
#[test]
fn routed_repeat_computes_once_in_the_cluster() {
    let cluster = Cluster::start(3);
    let mut via_router = cluster.router.client();
    let line = submit_line("cc", "pipm", REFS, SEED);

    let first = via_router.request(&line).expect("cold routed submit");
    let second = via_router.request(&line).expect("warm routed submit");
    assert_eq!(first, second, "a repeat must return the same bytes");
    assert_eq!(metric(&mut via_router, "cache_hits"), 1);

    let node_misses: u64 = cluster
        .nodes
        .iter()
        .map(|node| metric(&mut node.client(), "cache_misses"))
        .sum();
    assert_eq!(node_misses, 1, "exactly one node computes the key");

    cluster.stop();
}

/// Killing a job's ring owner costs latency, not correctness: the
/// router retries, gives up on the dead node, computes locally, and
/// still returns the canonical bytes.
#[test]
fn node_kill_degrades_to_local_fallback_with_correct_bytes() {
    let mut cluster = Cluster::start(2);
    // Find a seed whose job the ring assigns to node 0 (the victim).
    let ring = HashRing::new(cluster.node_addrs.clone());
    let cfg = SystemConfig::experiment_scale();
    let seed = (SEED..SEED + 64)
        .find(|seed| {
            let params = WorkloadParams {
                refs_per_core: REFS,
                seed: *seed,
            };
            ring.owner(&job_key(
                Workload::Bfs,
                SchemeKind::Pipm,
                &cfg,
                &params,
                None,
            )) == 0
        })
        .expect("some seed must hash to node 0");

    // Kill the owner, then route its job.
    let victim = cluster.nodes.remove(0);
    victim.stop();
    let mut client = cluster.router.client();
    let line = submit_line("bfs", "pipm", REFS, seed);
    let response = client.request(&line).expect("routed submit after kill");
    assert_eq!(
        response,
        direct_response(Workload::Bfs, SchemeKind::Pipm, REFS, seed),
        "fallback response must still be canonical"
    );
    assert!(
        metric(&mut client, "router_fallback_local") >= 1,
        "the job must have been computed by the router's fallback path"
    );

    // The dead node is (or becomes) unhealthy; the survivor keeps
    // serving through the same router.
    wait_for(&mut client, "healthy_nodes", |v| v <= 1);
    let other = submit_line("cc", "pipm", REFS, seed);
    let ok = client.request_json(&other).expect("survivor still serves");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    // Warm repeat of the fallback job: same bytes, served from cache.
    let again = client.request(&line).expect("warm repeat");
    assert_eq!(again, response);

    cluster.stop();
}

/// A node that answers `overloaded` is shedding load, not dead: the
/// router must keep it healthy, retry with backoff, and ultimately
/// forward the job — never silently divert to local-fallback compute.
/// (Regression: the pre-fix router treated any structured rejection as
/// grounds to mark the owner unhealthy, so one shed response blacked
/// out a live shard until the next probe.)
#[test]
fn overloaded_node_stays_healthy_and_job_is_retried_then_forwarded() {
    use pipm_serve::proto::{kind, ProtoError};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    // A stub worker node: answers probes, sheds the first submit with a
    // structured `overloaded` error, then serves the canonical bytes.
    let canned = direct_response(Workload::Bfs, SchemeKind::Pipm, REFS, SEED);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub node");
    let stub_addr = listener.local_addr().expect("stub addr").to_string();
    listener.set_nonblocking(true).expect("nonblocking stub");
    let submits = Arc::new(AtomicU32::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let stub = {
        let (submits, stop, canned) = (Arc::clone(&submits), Arc::clone(&stop), canned.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                };
                stream.set_nonblocking(false).expect("blocking conn");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue;
                }
                let reply = if line.contains(r#""cmd":"submit""#) {
                    if submits.fetch_add(1, Ordering::SeqCst) == 0 {
                        ProtoError::new(kind::OVERLOADED, "queue full: 1 job does not fit").encode()
                    } else {
                        canned.clone()
                    }
                } else {
                    r#"{"ok":true,"state":"serving"}"#.to_string()
                };
                let mut w = stream;
                let _ = w.write_all(reply.as_bytes());
                let _ = w.write_all(b"\n");
            }
        })
    };

    let router = Daemon::start(ServerConfig {
        route_nodes: vec![stub_addr],
        probe_interval: Duration::from_millis(100),
        forward_retries: 2,
        ..node_cfg()
    });
    let mut client = router.client();
    let response = client
        .request(&submit_line("bfs", "pipm", REFS, SEED))
        .expect("routed submit");
    assert_eq!(
        response, canned,
        "forwarded response must be byte-identical to the canonical encoding"
    );

    // (b) Retried and ultimately forwarded — never local-computed.
    assert_eq!(
        submits.load(Ordering::SeqCst),
        2,
        "the stub must see the shed attempt plus the retry"
    );
    assert!(metric(&mut client, "router_forwarded") >= 1);
    assert!(metric(&mut client, "router_retries") >= 1);
    assert_eq!(
        metric(&mut client, "router_fallback_local"),
        0,
        "an overloaded (live) node must not trigger local fallback"
    );
    // (a) Still marked healthy, and never demoted along the way.
    assert_eq!(metric(&mut client, "healthy_nodes"), 1);
    assert_eq!(
        metric(&mut client, "router_unhealthy_marked"),
        0,
        "a structured rejection must never flip the health bit"
    );

    router.stop();
    stop.store(true, Ordering::SeqCst);
    stub.join().expect("stub thread");
}

/// The open-loop generator's arrival schedule is a pure function of
/// `(seed, rate, n)` — rerunning a benchmark replays identical offered
/// load (the unit tests pin the distribution; this pins the contract
/// the cluster benchmark depends on).
#[test]
fn open_loop_schedule_is_deterministic() {
    assert_eq!(
        poisson_offsets(7, 500.0, 512),
        poisson_offsets(7, 500.0, 512)
    );
    assert_ne!(
        poisson_offsets(7, 500.0, 512),
        poisson_offsets(8, 500.0, 512)
    );
}

/// A saturation sweep against a live daemon emits one row per offered
/// rate, in monotone offered order, each labeled open-loop.
#[test]
fn saturation_sweep_rows_are_monotone_and_labeled() {
    let daemon = Daemon::start(node_cfg());
    let line = submit_line("bfs", "pipm", 500, SEED);
    // Warm the cache so sweep requests are hits (the sweep probes the
    // serving path, not the simulator).
    let mut client = daemon.client();
    client.request(&line).expect("warmup");

    let rows = saturation_sweep(
        &daemon.addr,
        &line,
        // Deliberately unsorted: the sweep orders its ladder.
        &[200.0, 50.0, 100.0],
        40,
        SEED,
        8,
        Some(Duration::from_secs(30)),
    );
    assert_eq!(rows.len(), 3);
    let offered: Vec<f64> = rows.iter().map(|r| r.offered_rps).collect();
    assert_eq!(offered, vec![50.0, 100.0, 200.0], "rows must be monotone");
    for row in &rows {
        assert!(
            row.summary_line().starts_with("sweep mode=open-loop "),
            "row must be labeled: {}",
            row.summary_line()
        );
        assert_eq!(row.report.ok as usize, 40, "all arrivals must succeed");
        assert_eq!(row.report.io_errors, 0);
    }
    daemon.stop();
}

/// The readiness loop multiplexes hundreds of concurrent connections on
/// one thread (the CI smoke job pushes this to 1000+): open them all,
/// then round-trip each while every other one stays connected.
#[test]
fn reactor_holds_hundreds_of_concurrent_connections() {
    let daemon = Daemon::start(ServerConfig {
        max_connections: 512,
        ..node_cfg()
    });
    const CONNS: usize = 300;
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|i| {
            let s =
                TcpStream::connect(&daemon.addr).unwrap_or_else(|e| panic!("connect #{i}: {e}"));
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s
        })
        .collect();
    // All connected simultaneously; now every one does a round trip.
    for (i, s) in conns.iter_mut().enumerate() {
        s.write_all(b"{\"cmd\":\"status\"}\n")
            .unwrap_or_else(|e| panic!("write #{i}: {e}"));
    }
    for (i, s) in conns.iter_mut().enumerate() {
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("read #{i}: {e}"));
        assert!(
            line.contains(r#""ok":true"#),
            "conn #{i} got a bad response: {line}"
        );
    }
    let mut client = daemon.client();
    assert!(metric(&mut client, "connections") >= CONNS as u64);
    assert_eq!(metric(&mut client, "connections_rejected"), 0);
    drop(conns);
    daemon.stop();
}
