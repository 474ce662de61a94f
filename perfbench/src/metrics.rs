//! Metric names and units, the summary statistics behind them, and the
//! one-line JSON result the benchmark prints last.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Each holds for every workload; `README.md` gives the per-workload
/// meaning.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("good_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Names
/// start with the crate (layer) they measure.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.gen_ns_per_ref", "ns"),
    ("cpu.core_ns_per_ref", "ns"),
    ("cpu.ipc", "instr/cycle"),
    ("cache.l1_ns_per_probe", "ns"),
    ("cache.llc_ns_per_probe", "ns"),
    ("cache.l1_hit_frac", "fraction"),
    ("cache.llc_hit_frac", "fraction"),
    ("coherence.devdir_ns_per_op", "ns"),
    ("coherence.forward_frac", "fraction"),
    ("coherence.recalls_per_mref", "1/Mref"),
    ("fabric.send_ns", "ns"),
    ("fabric.bytes_per_ref", "B/ref"),
    ("fabric.switch_hops", "count"),
    ("mem.dram_ns_per_access", "ns"),
    ("mem.cxl_frac", "fraction"),
    ("mem.local_frac", "fraction"),
    ("core.remap.global_ns_per_lookup", "ns"),
    ("core.remap.local_ns_per_lookup", "ns"),
    ("core.remap.global_hit_ratio", "fraction"),
    ("core.remap.local_hit_ratio", "fraction"),
    ("core.migration.lines_in_per_kref", "1/kref"),
    ("core.migration.lines_back_per_kref", "1/kref"),
    ("core.migration.inter_host_frac", "fraction"),
    ("core.system.new_ms", "ms"),
    ("core.system.run_ns_per_ref", "ns"),
    ("core.system.check_ms", "ms"),
    ("baselines.mgmt_stall_frac", "fraction"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.encode_us", "us"),
    ("serve.reactor.status_rtt_us", "us"),
    ("serve.server.hit_rtt_us", "us"),
    ("serve.server.miss_ms", "ms"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.server.rejected", "count"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// The latency a failed or refused request is reported with when a
/// percentile lands on it. Such a request never completed, so it misses
/// every limit; JSON has no infinity, so this stands in for one.
pub const FAILED_LATENCY_MS: f64 = 1e9;

/// Named metric values gathered by one run.
pub type Metrics = Vec<(&'static str, f64)>;

/// The median of `values` (mean of the two middle values for an even
/// count); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile: the sample at 1-based rank `⌈q·n⌉` of
/// the sorted values. `f64::INFINITY` marks a failed request and sorts
/// last; a percentile that lands on one reads [`FAILED_LATENCY_MS`].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    let x = v[rank.clamp(1, v.len()) - 1];
    if x.is_infinite() {
        FAILED_LATENCY_MS
    } else {
        x
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency summary of an open-loop run. Every request sent counts: a
/// failed or refused one (`None`) misses the limit and ranks above every
/// completed request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Requests sent.
    pub sent: u64,
    /// Requests that returned a correct `ok` response.
    pub ok: u64,
    /// Median latency from scheduled arrival, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency from scheduled arrival, ms.
    pub p90_ms: f64,
    /// Share of requests sent that returned ok within `limit_ms`.
    pub good_frac: f64,
}

/// Summarizes per-request latencies in ms (`None` for a failed request)
/// against the latency limit `limit_ms`.
pub fn summarize_latencies(latencies_ms: &[Option<f64>], limit_ms: f64) -> LatencySummary {
    let ranked: Vec<f64> = latencies_ms
        .iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect();
    let good = ranked.iter().filter(|&&l| l <= limit_ms).count();
    LatencySummary {
        sent: ranked.len() as u64,
        ok: latencies_ms.iter().filter(|l| l.is_some()).count() as u64,
        p50_ms: percentile(&ranked, 0.50),
        p90_ms: percentile(&ranked, 0.90),
        good_frac: ratio(good as f64, ranked.len() as f64),
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// The platform has no `/proc/self/status` or it lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Operation counts and metric values of one run.
pub struct Report {
    /// Operations attempted: simulated cells, requests and probes.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, and exactly the
    /// metrics in `defs`, in that order.
    ///
    /// # Errors
    ///
    /// A metric in `defs` is missing or not finite, or one not in `defs`
    /// was gathered.
    pub fn json_line(&self, defs: &[(&str, &str)]) -> Result<String, String> {
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !defs.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric `{extra}` is not declared"));
        }
        let mut fields = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_serve::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_sets_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        let owned = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        // 80 fast, 10 slow, 10 failed: the failures rank above the slow
        // requests, so p90 (rank 90 of 100) is the last slow one and
        // anything past it lands on a failure.
        let mut lat: Vec<Option<f64>> = vec![Some(1.0); 80];
        lat.extend([Some(500.0); 10]);
        lat.extend([None; 10]);
        let s = summarize_latencies(&lat, 100.0);
        assert_eq!((s.sent, s.ok), (100, 90));
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p90_ms, 500.0);
        assert!((s.good_frac - 0.80).abs() < 1e-12);

        // One more failure in place of a fast request moves p90 onto it.
        lat[0] = None;
        let s = summarize_latencies(&lat, 100.0);
        assert_eq!(s.p90_ms, FAILED_LATENCY_MS);
        assert!((s.good_frac - 0.79).abs() < 1e-12);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let defs = [("a_ms", "ms"), ("b", "count")];
        let mut report = Report {
            attempted: 4,
            failed: 1,
            metrics: vec![("b", 2.0), ("a_ms", 1.25)],
        };
        let line = report.json_line(&defs).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let a = doc.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ms"));

        report.metrics.push(("c", 1.0));
        assert!(report.json_line(&defs).is_err(), "undeclared metric");
        report.metrics = vec![("a_ms", f64::NAN), ("b", 1.0)];
        assert!(report.json_line(&defs).is_err(), "non-finite value");
        report.metrics = vec![("a_ms", 1.0)];
        assert!(report.json_line(&defs).is_err(), "missing metric");
    }
}
