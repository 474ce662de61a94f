//! `pipm-client` — submit jobs to a `pipm-serve` daemon, inspect it, or
//! drive it with an open-loop benchmark.
//!
//! ```text
//! pipm-client [--addr HOST:PORT] [--timeout-secs N] status
//! pipm-client [--addr HOST:PORT] metrics
//! pipm-client [--addr HOST:PORT] shutdown
//! pipm-client [--addr HOST:PORT] submit --workload bfs --scheme pipm \
//!             [--workload ... --scheme ...] [--refs N] [--seed N]
//! pipm-client [--addr HOST:PORT] whatif --workload bfs --scheme pipm \
//!             --delta link_latency_ns=100 [--delta ...] [--refs N] [--seed N]
//! pipm-client [--addr HOST:PORT] bench --workload bfs --scheme pipm \
//!             [--refs N] [--seed N] --rate RPS --requests N \
//!             [--bench-seed N] [--max-inflight N] [--sweep R1,R2,...]
//! ```
//!
//! `submit` pretty-prints one row per result; `whatif` does the same for
//! a checkpointed sweep point (every `--delta key=value` joins one
//! delta object applied to all jobs).
//!
//! `bench` is the **open-loop** Poisson benchmark: arrivals are
//! scheduled at `--rate` regardless of response times, latency is
//! charged from the scheduled arrival, and the summary line is labeled
//! `mode=open-loop`; it then prints the daemon's cache counters.
//! `--sweep R1,R2,...` runs one rung per offered rate and prints one
//! `sweep ...` row each — the saturation sweep CI uploads as an
//! artifact.
//!
//! The read timeout defaults to 600 s; override it with
//! `--timeout-secs N` (`0` disables the timeout entirely).

use pipm_serve::bench::{run_open_loop, saturation_sweep, OpenLoopConfig};
use pipm_serve::client::{Client, DEFAULT_READ_TIMEOUT};
use pipm_serve::json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    cmd: String,
    workloads: Vec<String>,
    schemes: Vec<String>,
    deltas: Vec<String>,
    refs: Option<u64>,
    seed: Option<u64>,
    rate: f64,
    requests: usize,
    bench_seed: u64,
    max_inflight: usize,
    sweep: Vec<f64>,
    timeout: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipm-client [--addr HOST:PORT] [--timeout-secs N] \
         <status|metrics|shutdown|submit|whatif|bench>\n\
         \x20  submit/whatif/bench: --workload W --scheme S (repeatable, zipped pairwise)\n\
         \x20               [--refs N] [--seed N]\n\
         \x20  whatif only: --delta KEY=VALUE (repeatable; late-binding cfg keys)\n\
         \x20  bench only:  [--rate RPS] [--requests N] [--bench-seed N]\n\
         \x20               [--max-inflight N] [--sweep R1,R2,...]   (open loop)\n\
         \x20  --timeout-secs N  read timeout (default 600, 0 = none)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: "127.0.0.1:7457".to_string(),
        cmd: String::new(),
        workloads: Vec::new(),
        schemes: Vec::new(),
        deltas: Vec::new(),
        refs: None,
        seed: None,
        rate: 50.0,
        requests: 200,
        bench_seed: 41,
        max_inflight: 32,
        sweep: Vec::new(),
        timeout: Some(DEFAULT_READ_TIMEOUT),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr"),
            "--workload" => parsed.workloads.push(value("--workload")),
            "--scheme" => parsed.schemes.push(value("--scheme")),
            "--delta" => parsed.deltas.push(value("--delta")),
            "--refs" => parsed.refs = Some(parse_num(&value("--refs"), "--refs")),
            "--seed" => parsed.seed = Some(parse_num(&value("--seed"), "--seed")),
            "--rate" => parsed.rate = parse_num(&value("--rate"), "--rate"),
            "--requests" => parsed.requests = parse_num(&value("--requests"), "--requests"),
            "--bench-seed" => parsed.bench_seed = parse_num(&value("--bench-seed"), "--bench-seed"),
            "--max-inflight" => {
                parsed.max_inflight = parse_num(&value("--max-inflight"), "--max-inflight")
            }
            "--sweep" => {
                parsed.sweep = value("--sweep")
                    .split(',')
                    .map(|r| parse_num(r.trim(), "--sweep"))
                    .collect()
            }
            "--timeout-secs" => {
                // `0` means no timeout: block until the daemon answers.
                parsed.timeout = match parse_num(&value("--timeout-secs"), "--timeout-secs") {
                    0 => None,
                    secs => Some(Duration::from_secs(secs)),
                }
            }
            "--help" | "-h" => usage(),
            cmd if parsed.cmd.is_empty() && !cmd.starts_with('-') => parsed.cmd = cmd.to_string(),
            other => {
                eprintln!("error: unexpected argument `{other}`");
                usage()
            }
        }
    }
    if parsed.cmd.is_empty() {
        usage()
    }
    parsed
}

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} expects a number, got `{raw}`");
        usage()
    })
}

/// Parses the repeatable `--delta KEY=VALUE` flags into one JSON delta
/// object (numbers only — every late-binding cfg key is numeric).
fn delta_object(args: &Args) -> Json {
    if args.deltas.is_empty() {
        eprintln!("error: whatif needs at least one --delta KEY=VALUE");
        usage()
    }
    let fields = args
        .deltas
        .iter()
        .map(|spec| {
            let Some((key, raw)) = spec.split_once('=') else {
                eprintln!("error: --delta expects KEY=VALUE, got `{spec}`");
                usage()
            };
            let value = if let Ok(n) = raw.parse::<u64>() {
                Json::UInt(n)
            } else if let Ok(f) = raw.parse::<f64>() {
                Json::Num(f)
            } else {
                eprintln!("error: --delta {key} expects a numeric value, got `{raw}`");
                usage()
            };
            (key.to_string(), value)
        })
        .collect();
    Json::Obj(fields)
}

/// Builds the `submit`/`whatif` line from `--workload/--scheme` pairs
/// (zipped; a single scheme fans out across all workloads and vice
/// versa). A `Some(delta)` turns the batch into a `whatif` request with
/// that delta on every job.
fn submit_line(args: &Args, delta: Option<Json>) -> String {
    if args.workloads.is_empty() || args.schemes.is_empty() {
        eprintln!("error: submit/whatif/bench need at least one --workload and one --scheme");
        usage()
    }
    let pairs: Vec<(String, String)> = if args.schemes.len() == 1 {
        args.workloads
            .iter()
            .map(|w| (w.clone(), args.schemes[0].clone()))
            .collect()
    } else if args.workloads.len() == 1 {
        args.schemes
            .iter()
            .map(|s| (args.workloads[0].clone(), s.clone()))
            .collect()
    } else if args.workloads.len() == args.schemes.len() {
        args.workloads
            .iter()
            .cloned()
            .zip(args.schemes.iter().cloned())
            .collect()
    } else {
        eprintln!("error: --workload/--scheme counts must match (or one side be single)");
        usage()
    };
    let jobs: Vec<Json> = pairs
        .into_iter()
        .map(|(w, s)| {
            let mut fields = vec![
                ("workload".to_string(), Json::Str(w)),
                ("scheme".to_string(), Json::Str(s)),
            ];
            if let Some(r) = args.refs {
                fields.push(("refs_per_core".to_string(), Json::UInt(r)));
            }
            if let Some(seed) = args.seed {
                fields.push(("seed".to_string(), Json::UInt(seed)));
            }
            if let Some(d) = &delta {
                fields.push(("delta".to_string(), d.clone()));
            }
            Json::Obj(fields)
        })
        .collect();
    let cmd = if delta.is_some() { "whatif" } else { "submit" };
    Json::Obj(vec![
        ("cmd".to_string(), Json::Str(cmd.to_string())),
        ("jobs".to_string(), Json::Arr(jobs)),
    ])
    .encode()
}

fn print_results(response: &Json) {
    let Some(results) = response.get("results").and_then(Json::as_arr) else {
        println!("{}", response.encode());
        return;
    };
    println!(
        "{:<14} {:>12} {:>14} {:>8} {:>10} {:>16}",
        "workload/scheme", "exec_cycles", "ipc", "lhr", "promoted", "fingerprint"
    );
    for r in results {
        let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let u = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<14} {:>12} {:>14.4} {:>8.4} {:>10} {:>16}",
            format!("{}/{}", s("workload"), s("scheme")),
            u("exec_cycles"),
            f("ipc"),
            f("local_hit_rate"),
            u("pages_promoted"),
            s("fingerprint"),
        );
    }
}

fn print_metrics(addr: &str, timeout: Option<Duration>) -> std::io::Result<()> {
    let mut client = Client::connect_with_timeout(addr, timeout)?;
    let m = client.request_json(r#"{"cmd":"metrics"}"#)?;
    let u = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "cache: hits={} misses={} inflight_dedup={} entries={} evictions={}",
        u("cache_hits"),
        u("cache_misses"),
        u("cache_inflight_dedup"),
        u("cache_entries"),
        u("cache_evictions"),
    );
    println!(
        "checkpoints: hits={} misses={} inflight_dedup={} entries={} evictions={}",
        u("ckpt_cache_hits"),
        u("ckpt_cache_misses"),
        u("ckpt_cache_inflight_dedup"),
        u("ckpt_cache_entries"),
        u("ckpt_cache_evictions"),
    );
    println!(
        "queue: depth={}/{}  jobs: admitted={} completed={} failed={}",
        u("queue_depth"),
        u("queue_capacity"),
        u("jobs_admitted"),
        u("jobs_completed"),
        u("jobs_failed"),
    );
    println!(
        "admission: rejected_overloaded={} rejected_invalid={} connections_rejected={}  uptime_ms={}",
        u("rejected_overloaded"),
        u("rejected_invalid"),
        u("connections_rejected"),
        u("uptime_ms"),
    );
    println!(
        "cluster: mode={} healthy_nodes={} forwarded={} retries={} fallback_local={}",
        m.get("mode").and_then(Json::as_str).unwrap_or("?"),
        u("healthy_nodes"),
        u("router_forwarded"),
        u("router_retries"),
        u("router_fallback_local"),
    );
    Ok(())
}

fn run() -> std::io::Result<bool> {
    let args = parse_args();
    match args.cmd.as_str() {
        "status" | "shutdown" => {
            let mut client = Client::connect_with_timeout(&args.addr, args.timeout)?;
            let line = format!(r#"{{"cmd":"{}"}}"#, args.cmd);
            let response = client.request_json(&line)?;
            println!("{}", response.encode());
            Ok(response.get("ok").and_then(Json::as_bool) == Some(true))
        }
        "metrics" => {
            print_metrics(&args.addr, args.timeout)?;
            Ok(true)
        }
        "submit" | "whatif" => {
            let delta = (args.cmd == "whatif").then(|| delta_object(&args));
            let line = submit_line(&args, delta);
            let mut client = Client::connect_with_timeout(&args.addr, args.timeout)?;
            let start = Instant::now();
            let response = client.request_json(&line)?;
            let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
            if ok {
                print_results(&response);
                println!("({} ms)", start.elapsed().as_millis());
            } else {
                eprintln!("error response: {}", response.encode());
            }
            Ok(ok)
        }
        "bench" => {
            let line = submit_line(&args, None);
            if args.sweep.is_empty() {
                let report = run_open_loop(&OpenLoopConfig {
                    addr: args.addr.clone(),
                    request_line: line,
                    rate_hz: args.rate,
                    requests: args.requests,
                    seed: args.bench_seed,
                    max_inflight: args.max_inflight,
                    read_timeout: args.timeout,
                });
                println!("{}", report.summary_line());
                print_metrics(&args.addr, args.timeout)?;
                Ok(report.ok > 0 && report.io_errors == 0)
            } else {
                let rows = saturation_sweep(
                    &args.addr,
                    &line,
                    &args.sweep,
                    args.requests,
                    args.bench_seed,
                    args.max_inflight,
                    args.timeout,
                );
                let mut all_ok = true;
                for row in &rows {
                    println!("{}", row.summary_line());
                    all_ok &= row.report.ok > 0 && row.report.io_errors == 0;
                }
                print_metrics(&args.addr, args.timeout)?;
                Ok(all_ok)
            }
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            usage()
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
