//! Simulation-as-a-service for the PIPM simulator.
//!
//! `pipm-serve` wraps the deterministic simulator, through the same
//! [`Runner`](pipm_core::Runner) and [`job_key`](pipm_core::job_key) the
//! figure harness uses, in a long-running TCP daemon speaking a
//! newline-delimited JSON protocol ([`proto`]), backed by a shared
//! content-addressed [`RunCache`](pipm_core::RunCache):
//!
//! - **Daemon** ([`server::Server`]): accepts `submit` and `whatif`
//!   batches, `status`, `metrics`, and `shutdown` requests over TCP.
//!   The front end is a non-blocking readiness loop ([`reactor`]) that
//!   blocks in `poll(2)` — one thread multiplexes every connection, with
//!   per-connection deadlines and output back-pressure, a bounded
//!   connection count, and structured `overloaded` shedding.
//!   Batches that are all run-cache hits are answered on the reactor
//!   thread; the rest flow through a *bounded admission queue* into a
//!   worker pool, where concurrent identical jobs are deduplicated by
//!   the run cache, so each unique `(workload, scheme, cfg, params)`
//!   fingerprint is simulated once.
//! - **Cluster** ([`router`]): with `--route`, a daemon consistent-hash
//!   routes each job to its one owner across N worker nodes and answers
//!   repeats from its own run cache, so each key is computed once per
//!   cluster. It health-probes the nodes and falls back to local
//!   compute when a node dies — a kill costs latency, never
//!   correctness.
//! - **Client** ([`client`], [`mod@bench`]): a thin line-oriented client
//!   and an open-loop Poisson benchmark (latency percentiles,
//!   saturation sweep) used by the `pipm-client` binary and the CI
//!   smoke tests.
//! - **Robustness**: malformed input, unknown names, over-limit
//!   requests, and simulator panics all produce structured error
//!   responses ([`proto::kind`]) and never terminate the daemon; a
//!   `shutdown` request drains in-flight jobs and exits cleanly.
//!
//! The crate is std plus one `poll(2)` declaration, unix-only
//! (hand-rolled JSON in [`json`], `std::net` sockets), so it adds no
//! dependencies to the workspace. That declaration, in the private
//! `sys` module, is the crate's only `unsafe` code.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("pipm-serve is unix-only: its reactor blocks in poll(2)");

pub mod bench;
pub mod client;
pub mod json;
pub mod proto;
pub mod reactor;
pub mod router;
pub mod server;
#[allow(unsafe_code)]
mod sys;
