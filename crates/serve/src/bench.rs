//! Open-loop Poisson benchmark: offered load that does not slow down
//! when the daemon does.
//!
//! A closed-loop generator starts each round only after the previous
//! response returns, so its measured throughput *is* the daemon's
//! service rate — misleading as a capacity probe (coordinated omission:
//! a slow response delays the requests that would have observed the
//! slowness). This module is open-loop instead:
//!
//! * Arrivals follow a **seeded Poisson process** ([`poisson_offsets`]):
//!   inter-arrival gaps are exponential with mean `1/rate`, generated
//!   by a [`SplitMix64`] stream, so a schedule is exactly reproducible
//!   from `(seed, rate, n)`.
//! * Latency is measured **from the scheduled arrival**, not from the
//!   moment a connection was free — queueing delay under saturation
//!   counts against the daemon, as it should.
//! * [`Percentiles`] summarizes by **nearest rank** (`rank = ⌈q·n⌉`,
//!   1-based), the standard textbook definition, unit-tested against a
//!   hand-computed fixture.
//! * [`saturation_sweep`] replays the same request mix across a ladder
//!   of offered rates, emitting one summary row per rate.
//!
//! Reports label themselves with [`OPEN_LOOP_MODE`], so anything
//! parsing benchmark output (tests, CI) can tell which discipline
//! produced a throughput number.

use crate::client::Client;
use crate::json::Json;
use pipm_types::hash::{splitmix64, SPLITMIX64_GAMMA};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Mode label for open-loop (scheduled-arrival) reports.
pub const OPEN_LOOP_MODE: &str = "open-loop";

/// The SplitMix64 generator: tiny, fast, and plenty for arrival
/// schedules and the `report ab` permutation test's Monte Carlo
/// resamples (the simulator's own RNG needs live in `pipm-core`; this
/// one never touches simulation results).
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded deterministically.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        out
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` below is always finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The cumulative arrival schedule of a Poisson process: `n` offsets
/// from the start instant, strictly increasing, with exponential
/// inter-arrival gaps of mean `1/rate_hz`. Deterministic in
/// `(seed, rate_hz, n)`.
pub fn poisson_offsets(seed: u64, rate_hz: f64, n: usize) -> Vec<Duration> {
    assert!(rate_hz > 0.0, "offered rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF: an exponential gap is -ln(U)/λ.
            at += -rng.next_unit().ln() / rate_hz;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Nearest-rank latency summary of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Number of samples summarized.
    pub count: usize,
    /// Smallest sample.
    pub min: Duration,
    /// 50th percentile (nearest rank).
    pub p50: Duration,
    /// 90th percentile (nearest rank).
    pub p90: Duration,
    /// 99th percentile (nearest rank).
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
}

/// Summarizes samples by the nearest-rank method: the q-th percentile
/// is the sample at 1-based rank `⌈q·n⌉` of the sorted list (so p100
/// is the max and every reported value is an actual sample). Empty
/// input gives all-zero percentiles.
pub fn percentiles(samples: &[Duration]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    Percentiles {
        count: n,
        min: sorted[0],
        p50: nearest_rank(&sorted, 0.50),
        p90: nearest_rank(&sorted, 0.90),
        p99: nearest_rank(&sorted, 0.99),
        max: sorted[n - 1],
    }
}

/// The nearest-rank sample of a sorted, non-empty slice: 1-based rank
/// `⌈q·n⌉`, clamped into `1..=n`. The clamp is what makes the edges
/// safe: `q → 0` (where `⌈q·n⌉` is 0, an invalid 1-based rank) lands on
/// the first sample, and `q > 1` on the last. A negative `q` saturates
/// to rank 0 on the float→usize cast and clamps to the first sample
/// too.
pub fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    let n = sorted.len();
    let r = (q * n as f64).ceil() as usize;
    sorted[r.clamp(1, n) - 1]
}

/// One open-loop run's parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Daemon (or router) address.
    pub addr: String,
    /// The request line every arrival sends.
    pub request_line: String,
    /// Offered arrival rate in requests/second.
    pub rate_hz: f64,
    /// Total scheduled arrivals.
    pub requests: usize,
    /// Arrival-schedule seed ([`poisson_offsets`]).
    pub seed: u64,
    /// Connection pool size (the concurrency cap; arrivals beyond it
    /// queue, and their queueing delay is charged to latency).
    pub max_inflight: usize,
    /// Per-connection read timeout.
    pub read_timeout: Option<Duration>,
}

/// Aggregate outcome of one open-loop run.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopReport {
    /// Offered rate (requests/second) the schedule was built from.
    pub offered_rps: f64,
    /// Scheduled arrivals.
    pub offered: usize,
    /// Responses with `"ok":true`.
    pub ok: u64,
    /// Structured error responses (e.g. `overloaded` shedding).
    pub errors: u64,
    /// Transport-level failures (connect, timeout, closed socket).
    pub io_errors: u64,
    /// Per-request latency from *scheduled arrival* to response.
    pub latencies: Vec<Duration>,
    /// Wall-clock from first scheduled arrival to last response.
    pub elapsed: Duration,
}

impl OpenLoopReport {
    /// Achieved completion rate (ok responses per second of run).
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// The one-line, grep-friendly summary tests and CI key on. Always
    /// begins `bench mode=open-loop`.
    pub fn summary_line(&self) -> String {
        let p = percentiles(&self.latencies);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "bench mode={OPEN_LOOP_MODE} offered_rps={:.2} achieved_rps={:.2} \
             requests={} ok={} errors={} io_errors={} \
             p50_ms={:.3} p90_ms={:.3} p99_ms={:.3} max_ms={:.3}",
            self.offered_rps,
            self.achieved_rps(),
            self.offered,
            self.ok,
            self.errors,
            self.io_errors,
            ms(p.p50),
            ms(p.p90),
            ms(p.p99),
            ms(p.max),
        )
    }
}

/// Runs one open-loop benchmark: builds the Poisson schedule, drives it
/// with a pool of `max_inflight` connections, and charges every
/// response's latency against its scheduled arrival time.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopReport {
    let offsets = Arc::new(poisson_offsets(cfg.seed, cfg.rate_hz, cfg.requests));
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let results: Arc<Mutex<OpenLoopReport>> = Arc::new(Mutex::new(OpenLoopReport::default()));
    let handles: Vec<_> = (0..cfg.max_inflight.max(1))
        .map(|_| {
            let offsets = Arc::clone(&offsets);
            let next = Arc::clone(&next);
            let results = Arc::clone(&results);
            let addr = cfg.addr.clone();
            let line = cfg.request_line.clone();
            let read_timeout = cfg.read_timeout;
            thread::spawn(move || {
                let mut client = Client::connect_with_timeout(&addr, read_timeout).ok();
                let mut local = OpenLoopReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= offsets.len() {
                        break;
                    }
                    let scheduled = start + offsets[i];
                    let now = Instant::now();
                    if scheduled > now {
                        thread::sleep(scheduled - now);
                    }
                    if client.is_none() {
                        client = Client::connect_with_timeout(&addr, read_timeout).ok();
                    }
                    let Some(c) = client.as_mut() else {
                        local.io_errors += 1;
                        continue;
                    };
                    match c.request_json(&line) {
                        Ok(json) => {
                            // Charged from the *schedule*: a request
                            // that waited for a free connection pays
                            // its queueing delay here.
                            local.latencies.push(scheduled.elapsed());
                            if json.get("ok").and_then(Json::as_bool) == Some(true) {
                                local.ok += 1;
                            } else {
                                local.errors += 1;
                            }
                        }
                        Err(_) => {
                            local.io_errors += 1;
                            client = None; // reconnect next arrival
                        }
                    }
                }
                let mut total = results.lock().expect("bench report poisoned");
                total.ok += local.ok;
                total.errors += local.errors;
                total.io_errors += local.io_errors;
                total.latencies.extend(local.latencies);
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let mut report = Arc::try_unwrap(results)
        .map(|m| m.into_inner().expect("bench report poisoned"))
        .unwrap_or_default();
    report.offered_rps = cfg.rate_hz;
    report.offered = cfg.requests;
    report.elapsed = start.elapsed();
    report
}

/// One rung of a saturation sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Offered rate this rung was scheduled at.
    pub offered_rps: f64,
    /// The rung's full report.
    pub report: OpenLoopReport,
}

impl SweepRow {
    /// Grep-friendly row: `sweep mode=open-loop offered_rps=… …`.
    pub fn summary_line(&self) -> String {
        format!("sweep {}", &self.report.summary_line()["bench ".len()..])
    }
}

/// Replays the same request line across a ladder of offered rates
/// (ascending), one open-loop run per rung; rows come back in offered
/// order, so plotting achieved vs. offered locates the saturation
/// knee. Each rung reuses the same seed: identical schedules shapes,
/// scaled by rate.
pub fn saturation_sweep(
    addr: &str,
    request_line: &str,
    rates_hz: &[f64],
    requests_per_rate: usize,
    seed: u64,
    max_inflight: usize,
    read_timeout: Option<Duration>,
) -> Vec<SweepRow> {
    let mut rates: Vec<f64> = rates_hz.to_vec();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates must be comparable"));
    rates
        .into_iter()
        .map(|rate_hz| {
            let report = run_open_loop(&OpenLoopConfig {
                addr: addr.to_string(),
                request_line: request_line.to_string(),
                rate_hz,
                requests: requests_per_rate,
                seed,
                max_inflight,
                read_timeout,
            });
            SweepRow {
                offered_rps: rate_hz,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_and_increasing() {
        let a = poisson_offsets(41, 200.0, 256);
        let b = poisson_offsets(41, 200.0, 256);
        assert_eq!(a, b, "same (seed, rate, n) must give the same schedule");
        for w in a.windows(2) {
            assert!(w[0] < w[1], "offsets must be strictly increasing");
        }
        let c = poisson_offsets(42, 200.0, 256);
        assert_ne!(a, c, "a different seed must give a different schedule");
    }

    #[test]
    fn poisson_mean_gap_tracks_the_rate() {
        let n = 20_000;
        let rate = 1000.0;
        let offsets = poisson_offsets(7, rate, n);
        let mean_gap = offsets.last().unwrap().as_secs_f64() / n as f64;
        let expect = 1.0 / rate;
        assert!(
            (mean_gap - expect).abs() < expect * 0.05,
            "mean gap {mean_gap:.6}s should be within 5% of {expect:.6}s"
        );
    }

    #[test]
    fn nearest_rank_edge_ranks_clamp_into_the_sample_range() {
        let ms = |m: u64| Duration::from_millis(m);
        let sorted: Vec<Duration> = (1..=10).map(ms).collect();
        // q → 0: ⌈q·n⌉ is 0, an invalid 1-based rank; the clamp lands
        // it on the first sample instead of underflowing the index.
        assert_eq!(nearest_rank(&sorted, 0.0), ms(1));
        assert_eq!(nearest_rank(&sorted, 1e-12), ms(1));
        // Negative q saturates to 0 on the float→usize cast, then
        // clamps to the first sample like q = 0.
        assert_eq!(nearest_rank(&sorted, -0.5), ms(1));
        // Smallest q whose rank exceeds 1: ⌈0.11·10⌉ = 2.
        assert_eq!(nearest_rank(&sorted, 0.11), ms(2));
        // q = 1 is the max; q > 1 clamps to the max rather than
        // indexing past the end.
        assert_eq!(nearest_rank(&sorted, 1.0), ms(10));
        assert_eq!(nearest_rank(&sorted, 1.5), ms(10));
        // n = 1: every q collapses to the only sample.
        assert_eq!(nearest_rank(&[ms(7)], 0.0), ms(7));
        assert_eq!(nearest_rank(&[ms(7)], 0.99), ms(7));
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_fixture() {
        // Ten known samples, shuffled. Nearest rank (1-based ⌈q·n⌉):
        // p50 → rank 5 → 50ms, p90 → rank 9 → 90ms, p99 → rank 10 →
        // 100ms. (round() indexing would report p99 of 10 samples as
        // the 9th value.)
        let ms = |m: u64| Duration::from_millis(m);
        let samples = vec![
            ms(70),
            ms(20),
            ms(100),
            ms(50),
            ms(10),
            ms(90),
            ms(30),
            ms(80),
            ms(40),
            ms(60),
        ];
        let p = percentiles(&samples);
        assert_eq!(p.count, 10);
        assert_eq!(p.min, ms(10));
        assert_eq!(p.p50, ms(50));
        assert_eq!(p.p90, ms(90));
        assert_eq!(p.p99, ms(100));
        assert_eq!(p.max, ms(100));

        // Single sample: every percentile is that sample.
        let one = percentiles(&[ms(7)]);
        assert_eq!(
            (one.min, one.p50, one.p99, one.max),
            (ms(7), ms(7), ms(7), ms(7))
        );

        // Empty input: all zeros, no panic.
        assert_eq!(percentiles(&[]).count, 0);
    }

    #[test]
    fn summary_line_is_labeled_open_loop() {
        let report = OpenLoopReport {
            offered_rps: 100.0,
            offered: 10,
            ok: 10,
            elapsed: Duration::from_secs(1),
            latencies: vec![Duration::from_millis(5); 10],
            ..OpenLoopReport::default()
        };
        let line = report.summary_line();
        assert!(
            line.starts_with("bench mode=open-loop "),
            "summary must lead with its mode label: {line}"
        );
        assert!(line.contains("offered_rps=100.00"));
        assert!(line.contains("p99_ms=5.000"));
    }
}
