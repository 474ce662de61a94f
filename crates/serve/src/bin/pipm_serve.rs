//! `pipm-serve` — the simulation daemon (worker node or router).
//!
//! ```text
//! pipm-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!            [--cache-capacity N] [--ckpt-cache-capacity N]
//!            [--max-batch-jobs N] [--max-refs-per-core N]
//!            [--read-timeout-secs N] [--max-connections N]
//!            [--route HOST:PORT,HOST:PORT,...]
//!            [--probe-interval-ms N] [--forward-retries N]
//! ```
//!
//! With `--route`, this daemon forwards each job to its consistent-hash
//! owner among the listed nodes (falling back to local compute when a
//! node is down) and answers repeated jobs from its own run cache.
//!
//! Prints `listening on <addr>` once ready (scripts wait for that
//! line), serves until a `shutdown` request, then drains and exits 0.

use pipm_serve::server::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pipm-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]\n\
         \x20                 [--cache-capacity N] [--ckpt-cache-capacity N]\n\
         \x20                 [--max-batch-jobs N] [--max-refs-per-core N]\n\
         \x20                 [--read-timeout-secs N] [--max-connections N]\n\
         \x20                 [--route HOST:PORT,...]\n\
         \x20                 [--probe-interval-ms N] [--forward-retries N]"
    );
    std::process::exit(2);
}

fn addr_list(raw: &str, name: &str) -> Vec<String> {
    let addrs: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        eprintln!("error: {name} needs at least one HOST:PORT");
        usage()
    }
    addrs
}

fn parse_args() -> ServerConfig {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7457".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-capacity" => {
                cfg.queue_capacity = parse_num(&value("--queue-capacity"), "--queue-capacity")
            }
            "--cache-capacity" => {
                cfg.cache_capacity = parse_num(&value("--cache-capacity"), "--cache-capacity")
            }
            "--ckpt-cache-capacity" => {
                cfg.ckpt_cache_capacity =
                    parse_num(&value("--ckpt-cache-capacity"), "--ckpt-cache-capacity")
            }
            "--max-batch-jobs" => {
                cfg.limits.max_batch_jobs =
                    parse_num(&value("--max-batch-jobs"), "--max-batch-jobs")
            }
            "--max-refs-per-core" => {
                cfg.limits.max_refs_per_core =
                    parse_num::<u64>(&value("--max-refs-per-core"), "--max-refs-per-core")
            }
            "--read-timeout-secs" => {
                cfg.read_timeout = Duration::from_secs(parse_num::<u64>(
                    &value("--read-timeout-secs"),
                    "--read-timeout-secs",
                ))
            }
            "--max-connections" => {
                cfg.max_connections = parse_num(&value("--max-connections"), "--max-connections")
            }
            "--route" => cfg.route_nodes = addr_list(&value("--route"), "--route"),
            "--probe-interval-ms" => {
                cfg.probe_interval = Duration::from_millis(parse_num::<u64>(
                    &value("--probe-interval-ms"),
                    "--probe-interval-ms",
                ))
            }
            "--forward-retries" => {
                cfg.forward_retries = parse_num(&value("--forward-retries"), "--forward-retries")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage()
            }
        }
    }
    cfg
}

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} expects a number, got `{raw}`");
        usage()
    })
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let mode = if cfg.route_nodes.is_empty() {
        "node"
    } else {
        "router"
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr} ({mode})"),
        Err(e) => {
            eprintln!("error: no local addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("drained; goodbye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
