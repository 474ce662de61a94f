//! Self-test of the differential harness: with the `fault-inject`
//! feature, the simulator deliberately skips the invalidation of one
//! sharer on every shared-line write (a classic lost-invalidation
//! coherence bug). The mutation lives in the one sharer-invalidation
//! helper, so it covers both a write miss to a Shared line and the S→M
//! upgrade of a cached copy. The oracle and/or inline invariants must
//! catch it — otherwise the harness itself is broken and every "clean"
//! result in `fuzz_harness.rs` is meaningless.
//!
//! Build and run with:
//! `cargo test -p pipm-integration-tests --features fault-inject --test fault_injection`

#![cfg(feature = "fault-inject")]

use pipm_core::{par_map, run_spec_one};
use pipm_types::SchemeKind;
use pipm_workloads::FuzzSpec;

#[test]
fn injected_lost_invalidation_is_caught() {
    // Sharing-heavy traces keep lines in multi-sharer S states and write
    // them from every host — exactly the path the mutation corrupts.
    let jobs: Vec<(FuzzSpec, SchemeKind)> = (0..8u64)
        .flat_map(|seed| {
            let spec = FuzzSpec::from_draw(0, 4, 40, 50, 0xbad_0000 + seed, 4_000);
            [SchemeKind::Native, SchemeKind::Pipm]
                .into_iter()
                .map(move |s| (spec, s))
        })
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = par_map(&jobs, workers, |(spec, s)| {
        run_spec_one(spec, *s, FuzzSpec::base_config())
    });
    let dirty: Vec<String> = results
        .iter()
        .filter(|r| !r.report.is_clean())
        .map(|r| {
            format!(
                "{} under {}: {} oracle violations, {} invariant failures",
                r.spec,
                r.scheme,
                r.report.oracle_violations.len(),
                r.report.invariant_failures.len()
            )
        })
        .collect();
    assert!(
        !dirty.is_empty(),
        "the deliberate lost-invalidation mutation went unnoticed on all \
         {} fuzzed runs — the harness cannot be trusted",
        results.len()
    );
    // The reports must carry actionable detail, not just a dirty bit.
    let detailed = results.iter().any(|r| {
        r.report
            .oracle_violations
            .iter()
            .any(|v| v.contains("latest write"))
    });
    assert!(detailed, "violations must carry diagnostic text: {dirty:?}");
}
