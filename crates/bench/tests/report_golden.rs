//! Golden-output tests for `report ab`: comparing a committed pair of
//! ten-run fixture files must reproduce the committed `ab.csv`/`ab.svg`
//! **byte-identically** and give each verdict of the acceptance rule.
//!
//! In the fixtures (`tests/fixtures/ab_{parent,change}.jsonl`, metrics
//! declared by `tests/fixtures/BENCHMARK.json`) the change is about
//! 10 % ahead on `ops_per_s` in every pair (`gain`) and 40 % behind on
//! `p50_ms` (`regression`), `p90_ms` spreads wider than its bound
//! (`unresolved`), `good_frac` is identical (`no change`), `cpu.ipc` has
//! no bound, and the change fails one operation in its fourth run.

use pipm_bench::report::{self, ReportFile};

fn read(rel: &str) -> String {
    std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// `report ab` over the first `pairs` runs of the fixtures.
fn fixture_ab(pairs: usize) -> (String, Vec<ReportFile>) {
    let first = |name: &str| -> String {
        let text = read(&format!("tests/fixtures/{name}"));
        text.lines().take(pairs).map(|l| format!("{l}\n")).collect()
    };
    let (parent, change) = (first("ab_parent.jsonl"), first("ab_change.jsonl"));
    let benchmark = read("tests/fixtures/BENCHMARK.json");
    report::ab(&benchmark, ("parent", &parent), ("change", &change)).expect("fixtures compare")
}

/// The `ab.csv` row of `metric`, split into cells.
fn csv_row(files: &[ReportFile], metric: &str) -> Vec<String> {
    let row = files[0]
        .contents
        .lines()
        .find(|l| l.starts_with(&format!("{metric},")));
    let row = row.unwrap_or_else(|| panic!("no row for {metric}"));
    row.split(',').map(String::from).collect()
}

#[test]
fn report_regenerates_goldens_byte_identically() {
    let (_, files) = fixture_ab(10);
    let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["ab.csv", "ab.svg"], "artifact set changed");
    for f in &files {
        assert_eq!(
            f.contents,
            read(&format!("tests/golden/{}", f.name)),
            "{} drifted from its committed golden; if the change is \
             intentional, regenerate in crates/bench/tests/fixtures with \
             `report ab ab_parent.jsonl ab_change.jsonl --out ../golden`",
            f.name
        );
    }
    // Rerun over the same input: the second pass must be bit-equal to
    // the first (no clocks, no randomness, no map order).
    assert_eq!(fixture_ab(10).1[1].contents, files[1].contents);
}

#[test]
fn fixture_gives_every_verdict_and_nine_pairs_never_gain() {
    let (table, files) = fixture_ab(10);
    for (metric, verdict) in [
        ("ops_per_s", "gain"),
        ("p50_ms", "regression"),
        ("p90_ms", "unresolved"),
        ("good_frac", "no change"),
        ("cpu.ipc", ""),
    ] {
        assert_eq!(csv_row(&files, metric)[18], verdict, "{metric}");
        assert!(table.lines().any(|l| l.starts_with(&format!("{metric} "))));
    }
    // Wins and p: all ten pairs won gives the exact-test floor 2/2^10;
    // ties win nothing and give p = 1.
    assert_eq!(csv_row(&files, "ops_per_s")[16..18], ["10", "0.0020"]);
    assert_eq!(csv_row(&files, "good_frac")[16..18], ["0", "1.0000"]);
    assert!(table.contains("failed share: parent 0 (0/90), change 0.01111 (1/90)\n"));
    assert!(table.contains("\nFAILURE: the failed share rose from 0 (0/90) to 0.01111"));

    // The same lead in the first nine pairs only: no gain below ten.
    let (_, files) = fixture_ab(9);
    assert_eq!(
        csv_row(&files, "ops_per_s")[16..],
        ["9", "0.0039", "no change"]
    );
}

#[test]
fn benchmark_json_declares_six_bounded_end_to_end_metrics() {
    let declared = report::declared_metrics(&read("../../BENCHMARK.json")).expect("parses");
    let bounded: Vec<&str> = declared
        .iter()
        .filter(|d| d.bound.is_some_and(|b| b > 0.0))
        .map(|d| d.name.as_str())
        .collect();
    let e2e = [
        "ops_per_s",
        "p50_ms",
        "p90_ms",
        "good_frac",
        "setup_s",
        "peak_rss_mb",
    ];
    assert_eq!(bounded, e2e);
    assert_eq!(declared.len(), 6 + 36, "and the 36 per-layer metrics");
}
