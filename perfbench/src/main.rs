//! `perfbench` — the repository benchmark: simulator throughput on
//! CXL-shared and local traffic, and open-loop serving latency.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_shared --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` repeats the
//! same measurement, then a traced copy of it, then the per-layer
//! replays and probes. The last line of standard output is the result
//! as one JSON object; progress and a readable summary go to standard
//! error. See `README.md` for the metrics and why each workload exists.

mod layers;
mod metrics;
mod serve;
mod sim;

use metrics::{peak_rss_mb, Metrics, Report, END_TO_END, PER_LAYER};
use pipm_workloads::WorkloadParams;
use sim::{Cell, Stop};
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim_shared", "sim_local", "serve_mixed"];

const USAGE: &str =
    "usage: perfbench --workload <sim_shared|sim_local|serve_mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be positive".into()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let seconds = Duration::from_secs(args.seconds);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} available_parallelism={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // A traced sim run measures an untraced and a traced pass of the same
    // length; half `--seconds` each keeps it as long as an untraced run.
    let half = seconds / 2;
    let report = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => serve_untraced(args.seed, seconds, workers),
        ("serve_mixed", true) => serve_traced(args.seed, seconds, workers),
        (sim, traced) => {
            let cells: &[Cell] = if sim == "sim_shared" {
                &sim::SHARED_CELLS
            } else {
                &sim::LOCAL_CELLS
            };
            if traced {
                sim_traced(cells, args.seed, half, workers)
            } else {
                sim_untraced(cells, args.seed, seconds)
            }
        }
    };
    let defs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.and_then(|r| {
        summarize(&args.workload, &r);
        r.json_line(defs)
    }) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the run on stderr under the names the end-to-end metrics go
/// by per workload (`sim_refs_per_s`, `serve_p90_ms`, …) and every
/// metric gathered, with `error_rate` = failed / attempted.
fn summarize(workload: &str, r: &Report) {
    let alias = |name: &str| -> Option<&str> {
        let serve = workload == "serve_mixed";
        Some(match name {
            "ops_per_s" if !serve => "sim_refs_per_s",
            "p50_ms" if serve => "serve_p50_ms",
            "p90_ms" if serve => "serve_p90_ms",
            "good_frac" if serve => "serve_slo_ratio",
            _ => return None,
        })
    };
    let units = END_TO_END.iter().chain(&PER_LAYER);
    for (name, value) in &r.metrics {
        let unit = units
            .clone()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        match alias(name) {
            Some(a) => eprintln!("perfbench: {name} ({a}) = {value} {unit}"),
            None => eprintln!("perfbench: {name} = {value} {unit}"),
        }
    }
    eprintln!(
        "perfbench: error_rate = {} fraction ({} failed of {} attempted)",
        metrics::ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
}

fn sim_params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        refs_per_core: sim::REFS_PER_CORE,
        seed,
    }
}

/// One short untimed cell first, so page faults and lazy initialisation
/// of the process do not land in the first measured cell.
fn warm_up(cells: &[Cell], seed: u64) {
    let params = WorkloadParams {
        refs_per_core: 5_000,
        seed,
    };
    sim::run_cell(&cells[0], &params, std::time::Instant::now(), None);
}

fn sim_untraced(cells: &[Cell], seed: u64, seconds: Duration) -> Result<Report, String> {
    let params = sim_params(seed);
    warm_up(cells, seed);
    let pass = sim::pass(cells, &params, Stop::After(seconds), false);
    let (attempted, failed) = sim::check(cells, &pass, &sim::reference(&pass));
    let mut metrics = sim::end_to_end(&pass, attempted, failed);
    metrics.push(("peak_rss_mb", peak_rss_mb()?));
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn sim_traced(
    cells: &[Cell],
    seed: u64,
    seconds: Duration,
    workers: usize,
) -> Result<Report, String> {
    let params = sim_params(seed);
    warm_up(cells, seed);
    let (mut metrics, a1, f1) = sim_passes(cells, &params, Stop::After(seconds));

    // The serving layers, probed with this workload's first cell.
    let daemon = serve::Daemon::start(workers)?;
    let (probe, expected, a2, f2) = serve::probes(&daemon, &cells[0], seed)?;
    metrics.extend(probe);
    let warm_lines = [serve::submit_line(&cells[0], seed)];
    let hits: Vec<_> = pipm_serve::bench::poisson_offsets(seed, serve::RATE_HZ, 200)
        .into_iter()
        .map(|at| serve::Arrival {
            at,
            kind: serve::Kind::Hit(0),
        })
        .collect();
    let (outcomes, _) = serve::open_loop(&daemon.addr, &hits, &warm_lines, &[expected], workers);
    let (a3, f3) = serve::failures(&outcomes);
    metrics.push(("bench.gen_late_ms", serve::gen_late_ms(&outcomes)));
    metrics.extend(serve::daemon_counts(&daemon.metrics()?));
    daemon.stop()?;
    Ok(Report {
        attempted: a1 + a2 + a3,
        failed: f1 + f2 + f3,
        metrics,
    })
}

/// An untraced pass of `cells` until `stop`, then a traced pass of as
/// many repeats, each checked against the untraced pass's first repeat.
/// Returns the simulator-layer metrics with `bench.trace_overhead_frac`
/// (traced over untraced pass time, less one) and (attempted, failed).
fn sim_passes(cells: &[Cell], params: &WorkloadParams, stop: Stop) -> (Metrics, u64, u64) {
    let untraced = sim::pass(cells, params, stop, false);
    let reference = sim::reference(&untraced);
    let traced = sim::pass(cells, params, Stop::Repeats(untraced.runs.len()), true);
    let (a0, f0) = sim::check(cells, &untraced, &reference);
    let (a1, f1) = sim::check(cells, &traced, &reference);
    let mut metrics = sim_layers(cells, &reference, &traced, params);
    metrics.push((
        "bench.trace_overhead_frac",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    ));
    (metrics, a0 + a1, f0 + f1)
}

/// Simulator-layer metrics: host costs replayed from the cells' traces,
/// counts from the reference statistics, `System` call times from the
/// traced pass's spans.
fn sim_layers(
    cells: &[Cell],
    reference: &[Option<pipm_types::SystemStats>],
    traced: &sim::Pass,
    params: &WorkloadParams,
) -> Metrics {
    let (ok_cells, stats): (Vec<Cell>, Vec<_>) = cells
        .iter()
        .zip(reference)
        .filter_map(|(c, s)| Some((*c, s.clone()?)))
        .unzip();
    let mut metrics = layers::host_costs(cells, params);
    metrics.extend(layers::counts(&ok_cells, &stats));
    metrics.extend(sim::system_layers(traced));
    metrics
}

/// The open-loop schedule of one serving pass: `seconds` worth of
/// arrivals. Each pass gets its own miss seeds, so its misses miss.
fn serve_schedule(seed: u64, seconds: Duration, warm: usize, pass: u64) -> Vec<serve::Arrival> {
    let n = (serve::RATE_HZ * seconds.as_secs_f64()).round() as usize;
    let miss_seed = seed.wrapping_add(1).wrapping_add(pass << 40);
    serve::schedule(seed, serve::RATE_HZ, n, warm, miss_seed)
}

fn serve_untraced(seed: u64, seconds: Duration, workers: usize) -> Result<Report, String> {
    let served = serve::setup(seed, workers)?;
    let arrivals = serve_schedule(seed, seconds, served.warm_lines.len(), 0);
    let (outcomes, elapsed) = serve::open_loop(
        &served.daemon.addr,
        &arrivals,
        &served.warm_lines,
        &served.warm_bytes,
        workers,
    );
    served.daemon.stop()?;
    let (attempted, failed) = serve::failures(&outcomes);
    let mut metrics = serve::end_to_end(&outcomes, elapsed);
    metrics.push(("setup_s", served.setup_s));
    metrics.push(("peak_rss_mb", peak_rss_mb()?));
    Ok(Report {
        attempted: attempted + served.attempted,
        failed: failed + served.failed,
        metrics,
    })
}

fn serve_traced(seed: u64, seconds: Duration, workers: usize) -> Result<Report, String> {
    let served = serve::setup(seed, workers)?;
    let arrivals = serve_schedule(seed, seconds, served.warm_lines.len(), 0);
    let (outcomes, _) = serve::open_loop(
        &served.daemon.addr,
        &arrivals,
        &served.warm_lines,
        &served.warm_bytes,
        workers,
    );
    let mut metrics = vec![("bench.gen_late_ms", serve::gen_late_ms(&outcomes))];
    let cells = serve::warm_cells();
    let (probe, _, a1, f1) = serve::probes(&served.daemon, &cells[0], seed)?;
    metrics.extend(probe);
    metrics.extend(serve::daemon_counts(&served.daemon.metrics()?));
    served.daemon.stop()?;

    // The simulator layers under the served cells, run in-process. The
    // open loop records no spans, so `bench.trace_overhead_frac` here is
    // that of the simulator passes over the warm set.
    let params = WorkloadParams {
        refs_per_core: serve::SERVE_REFS,
        seed,
    };
    let (sim_metrics, a2, f2) = sim_passes(&cells, &params, Stop::Repeats(1));
    metrics.extend(sim_metrics);

    let (a0, f0) = serve::failures(&outcomes);
    Ok(Report {
        attempted: served.attempted + a0 + a1 + a2,
        failed: served.failed + f0 + f1 + f2,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload sim_local --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_local", 3, 5, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 5 --trace 0").is_err());
        assert!(args("--workload sim_local --seed x --seconds 5 --trace 0").is_err());
        assert!(args("--workload sim_local --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sim_local --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload sim_local --seed 1 --seconds 5").is_err());
        assert!(args("--workload sim_local --seed 1 --seconds 5 --trace").is_err());
    }
}
