//! Cross-crate integration tests for the PIPM workspace. All content
//! lives in the `[[test]]` targets; this map says what each one covers.
//!
//! | target | what it checks |
//! |---|---|
//! | `end_to_end` | full simulations per scheme produce sane, populated statistics |
//! | `scheme_ordering` | tier-1 qualitative results: scheme orderings and bands the paper's figures rest on |
//! | `protocol_and_policy` | PIPM protocol cases ①–⑥, majority vote, revocation, and baseline policy behaviour |
//! | `determinism` | bit-identical stats across repeats and worker counts, for both figure runs and fuzz-harness runs |
//! | `checkpoint` | checkpointed incremental sweeps: prefix + forked resume under a `CfgDelta` is bit-identical to the unforked run for every scheme, forks are independent, and the warm-up window clamps to delivered references |
//! | `scaling` | behaviour as hosts/cores/footprint scale |
//! | `fuzz_harness` | differential correctness harness: seeded + property-based fuzz traces across all schemes under the functional oracle and inline SWMR/directory/remap invariants, plus the `pipm-mcheck` reachability cross-check |
//! | `serve` | `pipm-serve` daemon over loopback TCP: byte-identical cold/warm/direct responses, run-cache dedup of concurrent identical jobs, `whatif` checkpointed sweeps (byte-identical to a direct prefix+resume, one shared prefix per base config, fingerprints never alias plain runs), the figure harness and the daemon keying one run by one fingerprint, structured error paths (malformed, unknown names, limits, queue-full, oversized core counts), graceful shutdown drain |
//! | `cluster` | multi-node sharding: a consistent-hash router over three `pipm-serve` nodes returns byte-identical responses to a single node and a direct encoding, a key routed twice is computed once cluster-wide (router cache hit, one node miss), killing a ring owner degrades to retry + local fallback with canonical bytes, the open-loop generator replays deterministic Poisson schedules with monotone saturation-sweep rows, and the readiness loop holds hundreds of concurrent connections |
//! | `topology` | rack-scale topologies: multi-device racks route traffic to every device plane under every scheme, switched racks count switch hops, switch forward latency costs cycles, rack runs are deterministic, and a checkpoint prefix and its fork resume bit-identically on a multi-device and a switched rack, also under a link delta |
//! | `stats_parity` | golden `SystemStats` fingerprints for all eight schemes, serially and across worker counts, plus `GOLDEN_PATHS` over the switched fabric, sector migration and device-directory recalls |
//! | `fault_injection` | harness self-test (requires `--features fault-inject`): a deliberately injected lost-invalidation must be caught by the oracle/invariants |
//!
//! The fuzz-harness pieces live in the library crates they exercise:
//! the oracle and inline invariant checks in `pipm-core` (`oracle.rs`,
//! `system.rs`), the trace fuzzer in `pipm-workloads` (`fuzz.rs`), and
//! the reachable-state set in `pipm-mcheck`. See DESIGN.md §"Testing &
//! verification" for how to reproduce and shrink a failing trace.
