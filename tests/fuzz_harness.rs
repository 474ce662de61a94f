//! The differential correctness harness: fuzzed multi-host traces run
//! under every scheme with the functional oracle shadowing each access
//! and the inline invariants recorded at epoch boundaries, plus the
//! model-reachability cross-check against `pipm-mcheck`.
//!
//! A shrunk failing `FuzzSpec` printed by the proptest shim (or stored
//! under `proptest-regressions/`) reproduces with:
//! `run_spec_one(&FuzzSpec::from_draw(..), scheme, FuzzSpec::base_config())`.

use pipm_core::{par_map, run_spec_one, System};
use pipm_mcheck::ReachableSet;
use pipm_types::{AccessClass, SchemeKind};
use pipm_workloads::{FuzzPattern, FuzzSpec};
use proptest::prelude::*;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 51 seeded traces (17 per pattern) fanned across all eight schemes.
/// Every run must be oracle-clean and invariant-clean; this is the
/// harness's standing "50+ traces" soak.
#[test]
fn seeded_traces_are_clean_across_all_schemes() {
    let mut specs = Vec::new();
    for seed in 0..17u64 {
        for (pi, _) in FuzzPattern::ALL.iter().enumerate() {
            specs.push(FuzzSpec::from_draw(
                pi as u64,
                // Vary footprint, write mix, and hot fraction with the seed
                // so the 51 traces cover the knob space, not one point.
                2 + seed * 7,
                10 + (seed * 11) % 50,
                10 + (seed * 13) % 70,
                0x5eed_0000 + seed,
                2_500,
            ));
        }
    }
    assert!(specs.len() >= 51);
    let jobs: Vec<(FuzzSpec, SchemeKind)> = specs
        .iter()
        .flat_map(|spec| SchemeKind::ALL.iter().map(move |&s| (*spec, s)))
        .collect();
    let results = par_map(&jobs, workers(), |(spec, s)| {
        run_spec_one(spec, *s, FuzzSpec::base_config())
    });
    assert_eq!(results.len(), jobs.len());
    for r in &results {
        assert!(
            r.report.is_clean(),
            "{} under {}: {:?}",
            r.spec,
            r.scheme,
            r.report
        );
        assert!(
            r.report.oracle_checks > 0,
            "{} under {}: oracle never engaged",
            r.spec,
            r.scheme
        );
        assert!(
            r.report.invariant_epochs > 0,
            "{} under {}: no invariant epoch ran",
            r.spec,
            r.scheme
        );
    }
}

/// Each fuzz pattern must exercise the machinery it is named for,
/// otherwise the soak above tests less than it claims.
#[test]
fn fuzz_patterns_exercise_their_target_paths() {
    let cfg = FuzzSpec::base_config();
    let sharing = run_spec_one(
        &FuzzSpec::from_draw(0, 8, 30, 40, 0xabc, 6_000),
        SchemeKind::Native,
        cfg.clone(),
    );
    assert!(
        sharing.stats.class_total(AccessClass::CxlForward) > 0,
        "sharing-heavy must force cache-to-cache forwards"
    );
    let thrash = run_spec_one(
        &FuzzSpec::from_draw(1, 256, 30, 10, 0xabd, 8_000),
        SchemeKind::Pipm,
        cfg.clone(),
    );
    assert!(
        thrash.stats.migration.pages_promoted > 0 && thrash.stats.migration.lines_migrated_in > 0,
        "migration-thrash must migrate pages and lines"
    );
    let storm = run_spec_one(
        &FuzzSpec::from_draw(2, 64, 30, 40, 0xabe, 8_000),
        SchemeKind::Pipm,
        cfg,
    );
    assert!(
        storm.stats.migration.pages_demoted > 0,
        "revocation-storm must revoke migrated pages"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shrinkable property over the whole fuzz-spec space: any drawn
    /// trace stays coherent under the protocol-bearing schemes. On
    /// failure the shim shrinks the integer draws toward a minimal
    /// reproducing spec.
    #[test]
    fn any_fuzzed_trace_is_coherent(
        pat in 0u64..3,
        pages in 1u64..64,
        wr in 0u64..61,
        hot in 0u64..81,
        seed in 0u64..1_000_000,
    ) {
        let spec = FuzzSpec::from_draw(pat, pages, wr, hot, seed, 2_000);
        for scheme in [SchemeKind::Native, SchemeKind::Pipm, SchemeKind::HwStatic] {
            let r = run_spec_one(&spec, scheme, FuzzSpec::base_config());
            prop_assert!(
                r.report.is_clean(),
                "{} under {}: {:?}", spec, scheme, r.report
            );
        }
    }
}

/// Model-reachability cross-check (the `mcheck` leg of the harness):
/// every per-line protocol state the timing simulator reaches on a
/// fuzzed trace must be a state the exhaustively verified abstract
/// protocol can reach. Covers the schemes the abstract model describes
/// (Native and PIPM).
#[test]
fn live_states_are_reachable_in_the_model() {
    let reachable = ReachableSet::build(FuzzSpec::base_config().hosts);
    assert!(!reachable.is_empty());
    for (pat, seed) in [(0u64, 0x11u64), (1, 0x22), (2, 0x33)] {
        let spec = FuzzSpec::from_draw(pat, 6, 30, 40, seed, 4_000);
        for scheme in [SchemeKind::Native, SchemeKind::Pipm] {
            let mut cfg = FuzzSpec::base_config();
            let streams = spec.streams(&mut cfg);
            let mut sys = System::new(cfg, scheme);
            sys.enable_oracle();
            let _ = sys.run(streams, spec.refs_per_core);
            assert!(sys.harness_report().is_clean());
            let snapshot = sys.snapshot_line_states();
            assert!(
                !snapshot.is_empty(),
                "{spec} under {scheme}: snapshot must cover touched lines"
            );
            for st in &snapshot {
                assert!(
                    reachable.contains_line(st),
                    "{spec} under {scheme}: live state unreachable in the \
                     verified model: {st:?}"
                );
            }
        }
    }
}
