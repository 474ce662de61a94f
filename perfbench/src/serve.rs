//! The serving workload: an in-process `pipm-serve` daemon (one node)
//! driven open-loop over loopback TCP, plus the closed-loop probes that
//! time its layers.

use crate::metrics::{median, percentile, ratio, summarize_latencies, Metrics};
use crate::sim::Cell;
use pipm_core::run_one;
use pipm_serve::bench::{poisson_offsets, SplitMix64};
use pipm_serve::client::Client;
use pipm_serve::json::{self, Json};
use pipm_serve::proto::{encode_batch_raw, encode_result, parse_request, Request, RequestLimits};
use pipm_serve::server::{Server, ServerConfig, ShutdownHandle};
use pipm_types::SchemeKind;
use pipm_workloads::Workload;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered arrival rate of the open loop, requests per second: the
/// misses keep the workers well short of saturation (`README.md`,
/// "Serving traffic").
pub const RATE_HZ: f64 = 40.0;

/// Share of arrivals that submit a fresh seed (a cache miss, so a
/// simulation); the rest re-request a prefilled key. It is the miss share
/// of the figure client: one `all_figures` regeneration through the run
/// cache made 429 runs and 1 235 cache hits (`README.md`, "Serving
/// traffic").
pub const MISS_SHARE: f64 = 429.0 / 1_664.0;

/// The latency limit `good_frac` is measured against, ms.
pub const LIMIT_MS: f64 = 1_000.0;

/// References per core of every served job: the job size of the
/// repository's recorded open-loop serving sweep
/// (`docs/bench/serve_sweep.log`, `--refs 20000`).
pub const SERVE_REFS: u64 = 20_000;

/// Requests per slice of an open-loop pass that latency percentiles are
/// taken over: a slice's p90 has at least ten samples beyond it.
const WINDOW_REQUESTS: usize = 100;

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Closed-loop round trips per probe.
const PROBE_ROUNDS: usize = 200;

/// Fresh-seed submits timed by the miss probe.
const PROBE_MISSES: u64 = 3;

/// Calls per timed batch of `parse_request` / `encode_result`.
const CODEC_CALLS: usize = 2_000;

/// Read deadline on every benchmark connection, so a wedged daemon
/// fails requests instead of hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// How long after the last scheduled arrival the open loop keeps
/// sending; arrivals still unsent then count as failed.
const SEND_GRACE: Duration = Duration::from_secs(30);

/// The warm set: every key the open loop's hits re-request.
pub fn warm_cells() -> Vec<Cell> {
    use SchemeKind::{LocalOnly, Native, Nomad, Pipm};
    use Workload::{Canneal, Pr, Xsbench, Ycsb};
    let mut cells = Vec::new();
    for workload in [Pr, Ycsb, Canneal, Xsbench] {
        for scheme in [Native, Pipm, Nomad, LocalOnly] {
            cells.push(Cell { workload, scheme });
        }
    }
    cells
}

/// The cell every miss simulates, each time under a fresh seed.
const MISS_CELL: Cell = Cell {
    workload: Workload::Pr,
    scheme: SchemeKind::Pipm,
};

/// A one-job `submit` request line.
pub fn submit_line(cell: &Cell, seed: u64) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"jobs\":[{{\"workload\":\"{}\",\"scheme\":\"{}\",\
         \"refs_per_core\":{SERVE_REFS},\"seed\":{seed}}}]}}",
        cell.workload.label(),
        cell.scheme.label()
    )
}

/// A running in-process daemon.
pub struct Daemon {
    /// Its loopback address.
    pub addr: String,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a single-node daemon with `workers` simulation workers and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Bind failure.
    pub fn start(workers: usize) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            workers,
            cache_capacity: 1 << 14,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    /// A client connection with the benchmark's read deadline.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeout(&self.addr, Some(READ_TIMEOUT))
            .map_err(|e| format!("connect: {e}"))
    }

    /// The daemon's `metrics` response.
    pub fn metrics(&self) -> Result<Json, String> {
        self.connect()?
            .request_json(r#"{"cmd":"metrics"}"#)
            .map_err(|e| format!("metrics: {e}"))
    }

    /// Drains the daemon and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The daemon panicked or its accept loop failed.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon panicked".into()),
        }
    }
}

/// What an arrival requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Re-request warm key `k`.
    Hit(usize),
    /// Simulate [`MISS_CELL`] under this fresh seed.
    Miss(u64),
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Offset from the start of the loop.
    pub at: Duration,
    /// What it requests.
    pub kind: Kind,
}

/// A seeded Poisson schedule of `n` arrivals at `rate_hz`. Misses are
/// spread evenly over the arrivals at [`MISS_SHARE`], from a seeded
/// phase: every run then carries the same number of misses, and their
/// clustering comes from the arrival times alone. Misses get
/// seeds `miss_seed + i`, disjoint from the warm set's seed as long as
/// `miss_seed` is above it.
pub fn schedule(seed: u64, rate_hz: f64, n: usize, warm: usize, miss_seed: u64) -> Vec<Arrival> {
    // A second stream for the request mix, independent of the arrival
    // times drawn from `seed` itself.
    let mut rng = SplitMix64::new(seed ^ 0x005e_ed0f_a110_ca7e);
    let phase = rng.next_unit();
    let misses_due = |k: usize| ((k as f64 + phase) * MISS_SHARE).floor();
    poisson_offsets(seed, rate_hz, n)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let kind = if misses_due(i + 1) > misses_due(i) {
                Kind::Miss(miss_seed.wrapping_add(i as u64))
            } else {
                Kind::Hit((rng.next_u64() % warm as u64) as usize)
            };
            Arrival { at, kind }
        })
        .collect()
}

/// Whether a response is correct: a hit must be byte-identical to the
/// bytes its key returned at prefill; a miss must be `ok` and carry the
/// seed it asked for.
pub fn correct(kind: Kind, response: &Result<String, String>, warm_bytes: &[String]) -> bool {
    let Ok(line) = response else { return false };
    match kind {
        Kind::Hit(k) => warm_bytes.get(k) == Some(line),
        Kind::Miss(seed) => json::parse(line).is_ok_and(|v| {
            v.get("ok").and_then(Json::as_bool) == Some(true)
                && v.get("results")
                    .and_then(Json::as_arr)
                    .and_then(|r| r.first())
                    .and_then(|r| r.get("seed"))
                    .and_then(Json::as_u64)
                    == Some(seed)
        }),
    }
}

/// The outcome of one scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// How late the generator sent it, ms after its scheduled arrival.
    pub late_ms: f64,
    /// Latency from scheduled arrival to a correct response, ms; `None`
    /// when the request failed, was refused, or returned wrong bytes.
    pub latency_ms: Option<f64>,
}

/// The daemon after set-up: warm keys prefilled.
pub struct Served {
    /// The daemon the run measures.
    pub daemon: Daemon,
    /// The request line of each warm key.
    pub warm_lines: Vec<String>,
    /// Response bytes of each warm key at prefill.
    pub warm_bytes: Vec<String>,
    /// Median set-up time (bind + prefill), s.
    pub setup_s: f64,
    /// Prefill requests sent.
    pub attempted: u64,
    /// Prefill requests that failed or disagreed with an earlier set-up.
    pub failed: u64,
}

/// Binds a daemon and prefills the warm set, [`SETUPS`] times; keeps the
/// last daemon. Each set-up must return the same bytes for every key.
pub fn setup(seed: u64, workers: usize) -> Result<Served, String> {
    let lines: Vec<String> = warm_cells().iter().map(|c| submit_line(c, seed)).collect();
    let mut times = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Vec<String>> = None;
    let mut last: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            previous.stop()?;
        }
        let t = Instant::now();
        let daemon = Daemon::start(workers)?;
        let mut client = daemon.connect()?;
        let bytes: Vec<String> = lines
            .iter()
            .map(|l| client.request(l).unwrap_or_default())
            .collect();
        drop(client);
        times.push(t.elapsed().as_secs_f64());
        last = Some(daemon);
        for (k, b) in bytes.iter().enumerate() {
            attempted += 1;
            let ok = match &first {
                Some(f) => *b == f[k],
                None => b.starts_with(r#"{"ok":true"#),
            };
            if !ok {
                failed += 1;
                eprintln!("perfbench: prefill of warm key {k} failed: {b}");
            }
        }
        first.get_or_insert(bytes);
    }
    Ok(Served {
        daemon: last.expect("SETUPS is positive"),
        warm_lines: lines,
        warm_bytes: first.unwrap_or_default(),
        setup_s: median(&times),
        attempted,
        failed,
    })
}

/// Drives `arrivals` open-loop against `addr` over `connections`
/// connections, one sender thread each. Latency counts from the
/// scheduled arrival, so time spent waiting for a free connection counts
/// against the daemon. Returns the outcomes in schedule order and the
/// time from the start to the last response.
pub fn open_loop(
    addr: &str,
    arrivals: &[Arrival],
    hit_lines: &[String],
    warm_bytes: &[String],
    connections: usize,
) -> (Vec<Outcome>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + arrivals.last().map_or(Duration::ZERO, |a| a.at) + SEND_GRACE;
    let mut outcomes: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client: Option<Client> = None;
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = arrivals.get(i) else {
                            break;
                        };
                        let scheduled = start + arrival.at;
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let sent = Instant::now();
                        let late_ms = (sent - scheduled).as_secs_f64() * 1e3;
                        let response = if sent > deadline {
                            Err("past the send deadline".to_string())
                        } else {
                            let miss_line;
                            let line = match arrival.kind {
                                Kind::Hit(k) => &hit_lines[k],
                                Kind::Miss(seed) => {
                                    miss_line = submit_line(&MISS_CELL, seed);
                                    &miss_line
                                }
                            };
                            send(addr, &mut client, line)
                        };
                        let done = Instant::now();
                        let ok = correct(arrival.kind, &response, warm_bytes);
                        let latency_ms = ok.then(|| (done - scheduled).as_secs_f64() * 1e3);
                        local.push((
                            i,
                            Outcome {
                                late_ms,
                                latency_ms,
                            },
                        ));
                    }
                    local
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("sender thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    outcomes.sort_by_key(|(i, _)| *i);
    (outcomes.into_iter().map(|(_, o)| o).collect(), elapsed)
}

/// Sends one line on `client`, connecting first if needed; a transport
/// error drops the connection so the next request reconnects.
fn send(addr: &str, client: &mut Option<Client>, line: &str) -> Result<String, String> {
    if client.is_none() {
        *client = Some(
            Client::connect_with_timeout(addr, Some(READ_TIMEOUT))
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    let c = client.as_mut().expect("connected above");
    c.request(line).map_err(|e| {
        *client = None;
        format!("request: {e}")
    })
}

/// Counts (attempted, failed) over open-loop outcomes.
pub fn failures(outcomes: &[Outcome]) -> (u64, u64) {
    let failed = outcomes.iter().filter(|o| o.latency_ms.is_none()).count();
    (outcomes.len() as u64, failed as u64)
}

/// End-to-end metrics of an open-loop pass (all but `setup_s` and
/// `peak_rss_mb`). The p90 is taken per consecutive equal slice of the
/// schedule (about [`WINDOW_REQUESTS`] each) and the median slice is
/// reported: a few requests that queued behind two misses at once, or a
/// stall of the shared host, shift one slice's tail, and the median
/// slice shrugs that off where the whole pass does not. A tail the
/// daemon produces in most slices still shows. The p50 has hundreds of
/// samples on either side over the whole pass, and per slice it jumps
/// between hits that waited and hits that did not, so it covers the
/// whole pass, as do throughput and `good_frac`.
pub fn end_to_end(outcomes: &[Outcome], elapsed: Duration) -> Metrics {
    let latencies: Vec<Option<f64>> = outcomes.iter().map(|o| o.latency_ms).collect();
    let whole = summarize_latencies(&latencies, LIMIT_MS);
    let slice_p90: Vec<f64> = latencies
        .chunks(
            latencies
                .len()
                .div_ceil((latencies.len() / WINDOW_REQUESTS).max(1))
                .max(1),
        )
        .map(|w| summarize_latencies(w, LIMIT_MS).p90_ms)
        .collect();
    vec![
        ("ops_per_s", whole.ok as f64 / elapsed.as_secs_f64()),
        ("p50_ms", whole.p50_ms),
        ("p90_ms", median(&slice_p90)),
        ("good_frac", whole.good_frac),
    ]
}

/// p99 of how late the generator sent, ms.
pub fn gen_late_ms(outcomes: &[Outcome]) -> f64 {
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
    percentile(&late, 0.99)
}

/// Closed-loop probes of the serving layers against `daemon`, using
/// `cell` under `seed` as the hit key: request parsing and result
/// encoding in-process, then `status`, warm-`submit` and fresh-`submit`
/// round trips. The hit bytes must equal an in-process `run_one`'s
/// encoding. Returns the metrics, the expected hit bytes, and
/// (attempted, failed).
pub fn probes(
    daemon: &Daemon,
    cell: &Cell,
    seed: u64,
) -> Result<(Metrics, String, u64, u64), String> {
    let line = submit_line(cell, seed);
    let limits = RequestLimits::default();
    let job = match parse_request(&line, &limits) {
        Ok(Request::Submit(mut jobs)) if jobs.len() == 1 => jobs.remove(0),
        other => return Err(format!("probe request did not parse as one job: {other:?}")),
    };
    let per_call_us = |f: &mut dyn FnMut()| -> f64 {
        let batches: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CODEC_CALLS {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e6 / CODEC_CALLS as f64
            })
            .collect();
        median(&batches)
    };
    let parse_us = per_call_us(&mut || {
        black_box(parse_request(black_box(&line), &limits).is_ok());
    });
    let result = run_one(job.workload, job.scheme, job.cfg.clone(), &job.params);
    let encoded = encode_result(&result, &job.params, &job.key).encode();
    let encode_us = per_call_us(&mut || {
        black_box(encode_result(&result, &job.params, &job.key).encode());
    });
    let expected = encode_batch_raw(&[encoded]);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut client = daemon.connect()?;
    let mut rtt = |client: &mut Client, line: &str, check: &dyn Fn(&str) -> bool| -> f64 {
        let t = Instant::now();
        let response = client.request(line);
        let us = t.elapsed().as_secs_f64() * 1e6;
        attempted += 1;
        if !response.as_deref().is_ok_and(check) {
            failed += 1;
            eprintln!("perfbench: probe `{line}` failed: {response:?}");
        }
        us
    };
    let is_ok = |r: &str| r.starts_with(r#"{"ok":true"#);
    let is_expected = |r: &str| r == expected;
    // The first submit computes (or hits a prefilled key); either way
    // the bytes must match the in-process encoding.
    rtt(&mut client, &line, &is_expected);
    let status: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| rtt(&mut client, r#"{"cmd":"status"}"#, &is_ok))
        .collect();
    let hit: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| rtt(&mut client, &line, &is_expected))
        .collect();
    let miss: Vec<f64> = (1..=PROBE_MISSES)
        .map(|i| {
            let fresh = submit_line(cell, seed.wrapping_add(i << 32));
            rtt(&mut client, &fresh, &is_ok) / 1e3
        })
        .collect();
    let metrics = vec![
        ("serve.proto.parse_us", parse_us),
        ("serve.proto.encode_us", encode_us),
        ("serve.reactor.status_rtt_us", median(&status)),
        ("serve.server.hit_rtt_us", median(&hit)),
        ("serve.server.miss_ms", median(&miss)),
    ];
    Ok((metrics, expected, attempted, failed))
}

/// Cache and admission counts from a daemon's `metrics` response.
pub fn daemon_counts(metrics: &Json) -> Metrics {
    let get = |k: &str| metrics.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    vec![
        (
            "serve.cache.hit_ratio",
            ratio(get("cache_hits"), get("cache_hits") + get("cache_misses")),
        ),
        (
            "serve.server.rejected",
            get("rejected_overloaded") + get("rejected_invalid"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FAILED_LATENCY_MS;

    #[test]
    fn schedule_is_seeded_and_mostly_hits() {
        let a = schedule(9, RATE_HZ, 2_000, 16, 100);
        let b = schedule(9, RATE_HZ, 2_000, 16, 100);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.kind == y.kind));
        let misses = a.iter().filter(|x| matches!(x.kind, Kind::Miss(_))).count();
        let share = 2_000.0 * MISS_SHARE;
        assert!(
            (misses as f64 - share).abs() <= 1.0,
            "{misses} misses of 2000"
        );
        // Spread evenly: never two misses in a row at a share below 1/2.
        assert!(a
            .windows(2)
            .all(|w| !matches!((w[0].kind, w[1].kind), (Kind::Miss(_), Kind::Miss(_)))));
        assert!(a.iter().all(|x| match x.kind {
            Kind::Hit(k) => k < 16,
            Kind::Miss(s) => s >= 100,
        }));
    }

    #[test]
    fn injected_failures_are_not_correct() {
        let warm = vec![r#"{"ok":true,"results":[{"seed":1}]}"#.to_string()];
        let hit = Kind::Hit(0);
        assert!(correct(hit, &Ok(warm[0].clone()), &warm));
        assert!(!correct(hit, &Ok(warm[0].replace('1', "2")), &warm));
        assert!(!correct(hit, &Err("reset".into()), &warm));
        let miss = Kind::Miss(7);
        let ok = r#"{"ok":true,"results":[{"seed":7}]}"#.to_string();
        assert!(correct(miss, &Ok(ok), &warm));
        let refused = r#"{"ok":false,"error":{"kind":"overloaded"}}"#.to_string();
        assert!(!correct(miss, &Ok(refused), &warm));

        let outcomes = [
            Outcome {
                late_ms: 0.1,
                latency_ms: Some(1.0),
            },
            Outcome {
                late_ms: 0.2,
                latency_ms: None,
            },
        ];
        assert_eq!(failures(&outcomes), (2, 1));
        let e2e = end_to_end(&outcomes, Duration::from_secs(1));
        assert_eq!(e2e[0], ("ops_per_s", 1.0));
        assert_eq!(e2e[3], ("good_frac", 0.5));
    }

    #[test]
    fn latency_percentiles_come_from_the_median_slice() {
        let ok = Outcome {
            late_ms: 0.0,
            latency_ms: Some(1.0),
        };
        let failed = Outcome {
            late_ms: 0.0,
            latency_ms: None,
        };
        // Three slices; every failure lands in the first, enough to put
        // its p90 on a failure. The median slice is clean, so the
        // percentiles do not move, but `good_frac` counts every failure.
        let w = WINDOW_REQUESTS;
        let mut outcomes = vec![ok; 3 * w];
        outcomes[..w / 5].fill(failed);
        let e2e = end_to_end(&outcomes, Duration::from_secs(1));
        assert_eq!(e2e[1], ("p50_ms", 1.0));
        assert_eq!(e2e[2], ("p90_ms", 1.0));
        assert_eq!(e2e[3].1, 1.0 - (w / 5) as f64 / (3 * w) as f64);
        // Failures in two slices of three reach the median slice.
        outcomes[w..w + w / 5].fill(failed);
        let e2e = end_to_end(&outcomes, Duration::from_secs(1));
        assert_eq!(e2e[1], ("p50_ms", 1.0));
        assert_eq!(e2e[2], ("p90_ms", FAILED_LATENCY_MS));
    }

    #[test]
    fn open_loop_serves_prefilled_bytes() {
        let served = setup(4, 1).unwrap();
        assert_eq!((served.attempted, served.failed), (16 * SETUPS as u64, 0));
        let arrivals = schedule(4, 500.0, 100, served.warm_lines.len(), 1_000);
        let (outcomes, _) = open_loop(
            &served.daemon.addr,
            &arrivals,
            &served.warm_lines,
            &served.warm_bytes,
            2,
        );
        assert_eq!(failures(&outcomes), (100, 0));
        served.daemon.stop().unwrap();
    }
}
