//! Determinism and reproducibility guarantees: identical inputs give
//! bit-identical statistics; different seeds give different traces but the
//! same qualitative behaviour.

use pipm_bench::{Harness, Point};
use pipm_core::{par_map, run_one, run_spec_one, System};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{FuzzPattern, FuzzSpec, Workload, WorkloadParams};

#[test]
fn identical_runs_are_bit_identical() {
    let params = WorkloadParams {
        refs_per_core: 20_000,
        seed: 77,
    };
    for scheme in [SchemeKind::Native, SchemeKind::Pipm, SchemeKind::Memtis] {
        let a = run_one(
            Workload::Fluidanimate,
            scheme,
            SystemConfig::experiment_scale(),
            &params,
        );
        let b = run_one(
            Workload::Fluidanimate,
            scheme,
            SystemConfig::experiment_scale(),
            &params,
        );
        assert_eq!(a.stats, b.stats, "{scheme}: stats must be identical");
    }
}

#[test]
fn run_many_matches_serial_bit_for_bit() {
    // Each job builds a self-contained System, so fanning the jobs out
    // across worker threads must not perturb a single statistic.
    let params = WorkloadParams {
        refs_per_core: 10_000,
        seed: 13,
    };
    let jobs: Vec<(Workload, SchemeKind, SystemConfig, WorkloadParams)> = [
        (Workload::Bfs, SchemeKind::Native),
        (Workload::Bfs, SchemeKind::Pipm),
        (Workload::Cc, SchemeKind::Memtis),
        (Workload::Pr, SchemeKind::Pipm),
        (Workload::Cc, SchemeKind::Native),
    ]
    .into_iter()
    .map(|(w, s)| (w, s, SystemConfig::experiment_scale(), params))
    .collect();
    let parallel = par_map(&jobs, 4, |(w, s, cfg, p)| run_one(*w, *s, cfg.clone(), p));
    for ((w, s, cfg, p), r) in jobs.iter().zip(&parallel) {
        let serial = run_one(*w, *s, cfg.clone(), p);
        assert_eq!(serial.stats, r.stats, "{w} {s}: parallel != serial");
    }
}

#[test]
fn parallel_harness_matches_serial_bit_for_bit() {
    // The bench harness fans (workload, scheme, variant) points across
    // workers with in-flight deduplication; figure numbers must not
    // depend on the worker count. Duplicated specs exercise the dedup.
    let mk_specs = || {
        vec![
            Point::default_cfg(Workload::Bfs, SchemeKind::Native),
            Point::default_cfg(Workload::Bfs, SchemeKind::Pipm),
            Point::full(Workload::Bfs, SchemeKind::Pipm, "thr=4", |cfg| {
                cfg.pipm.migration_threshold = 4;
            }),
            Point::default_cfg(Workload::Bfs, SchemeKind::Native),
            Point::default_cfg(Workload::Cc, SchemeKind::Memtis),
        ]
    };
    let par = Harness::with_settings(8_000, 11, None, 4);
    let ser = Harness::with_settings(8_000, 11, None, 1);
    let pm = par.measure_all(&mk_specs());
    let sm = ser.measure_all(&mk_specs());
    assert_eq!(pm, sm, "harness results must not depend on worker count");
    assert_eq!(
        par.counters().runs,
        4,
        "duplicate spec must be served by the run cache"
    );
}

#[test]
fn fuzz_specs_are_bit_identical_across_workers_and_repeats() {
    // The harness's correctness claims lean on reproducibility: a shrunk
    // failing FuzzSpec must replay the exact trace that failed, whatever
    // the worker count. Fan the same fuzz jobs out at 1, 4, and
    // max-parallelism workers and re-run the whole batch, comparing
    // stats AND oracle/invariant reports bit for bit. This also pins the
    // oracle's "pure bookkeeping" property — harness mode is on in every
    // run, so any timing influence would break the cross-run equality of
    // run_one-based figures elsewhere.
    let jobs: Vec<(FuzzSpec, SchemeKind)> = (0..3u64)
        .flat_map(|pat| {
            [0x0du64, 0x5eedu64].into_iter().map(move |seed| {
                (
                    FuzzSpec::from_draw(pat, 12 + pat * 30, 25, 40, seed, 3_000),
                    if pat == 1 {
                        SchemeKind::Pipm
                    } else {
                        SchemeKind::Hemem
                    },
                )
            })
        })
        .collect();
    let max = std::thread::available_parallelism().map_or(4, |n| n.get());
    let run = |(spec, scheme): &(FuzzSpec, SchemeKind)| {
        run_spec_one(spec, *scheme, FuzzSpec::base_config())
    };
    let serial = par_map(&jobs, 1, run);
    for workers in [4, max] {
        let par = par_map(&jobs, workers, run);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(
                a.stats, b.stats,
                "{} {}: stats depend on workers",
                a.spec, a.scheme
            );
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "{} {}: harness report depends on workers",
                a.spec,
                a.scheme
            );
        }
    }
    let again = par_map(&jobs, max, run);
    for (a, b) in serial.iter().zip(&again) {
        assert_eq!(
            a.stats, b.stats,
            "{} {}: repeated run differs",
            a.spec, a.scheme
        );
    }
}

#[test]
fn oracle_attached_run_matches_plain_run() {
    // `run_spec_one` attaches the functional oracle; its contract is that
    // the oracle only does bookkeeping, so the statistics must equal a
    // plain `System::run` of the same spec under every scheme and every
    // fuzz pattern. 6 000 refs/core crosses at least one invariant epoch.
    for pattern in FuzzPattern::ALL {
        let spec = FuzzSpec {
            pattern,
            ..FuzzSpec::from_draw(0, 48, 30, 40, 0x0a11, 6_000)
        };
        for scheme in SchemeKind::ALL {
            let attached = run_spec_one(&spec, scheme, FuzzSpec::base_config());
            let mut cfg = FuzzSpec::base_config();
            let streams = spec.streams(&mut cfg);
            let plain = System::new(cfg, scheme).run(streams, spec.refs_per_core);
            assert_eq!(
                attached.stats, plain,
                "{spec} {scheme}: attaching the oracle changed the statistics"
            );
        }
    }
}

#[test]
fn different_seeds_differ_but_agree_qualitatively() {
    let mk = |seed| {
        run_one(
            Workload::Pr,
            SchemeKind::Pipm,
            SystemConfig::experiment_scale(),
            &WorkloadParams {
                refs_per_core: 40_000,
                seed,
            },
        )
    };
    let a = mk(1);
    let b = mk(2);
    assert_ne!(a.exec_cycles(), b.exec_cycles(), "seeds must matter");
    let ra = a.local_hit_rate();
    let rb = b.local_hit_rate();
    assert!(
        (ra - rb).abs() < 0.15,
        "local hit rates should agree across seeds: {ra:.3} vs {rb:.3}"
    );
}

#[test]
fn per_core_streams_are_decorrelated() {
    // Two cores of the same host must not generate identical traces.
    let mut cfg = SystemConfig::experiment_scale();
    let params = WorkloadParams {
        refs_per_core: 1_000,
        seed: 5,
    };
    let mut streams = Workload::Bfs.streams(&mut cfg, &params);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for _ in 0..1_000 {
        a.push(pipm_cpu_next(&mut streams[0]));
        b.push(pipm_cpu_next(&mut streams[1]));
    }
    assert_ne!(a, b);
}

fn pipm_cpu_next(s: &mut Box<dyn pipm_cpu::AccessStream>) -> Option<(u64, bool)> {
    s.next_record().map(|r| (r.addr.raw(), r.is_write))
}
