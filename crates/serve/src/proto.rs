//! The newline-delimited JSON wire protocol and its canonical encodings.
//!
//! Requests are single-line JSON objects with a `cmd` field:
//!
//! ```json
//! {"cmd":"submit","jobs":[{"workload":"BFS","scheme":"PIPM",
//!   "refs_per_core":20000,"seed":20823,"cfg":{"link_latency_ns":100}}]}
//! {"cmd":"whatif","jobs":[{"workload":"BFS","scheme":"PIPM",
//!   "delta":{"link_latency_ns":100}}]}
//! {"cmd":"status"}
//! {"cmd":"metrics"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `whatif` is the checkpointed-sweep form of `submit`: each job names a
//! base configuration (same fields as `submit`) plus a required `delta`
//! object restricted to the late-binding [`CfgDelta`] keys
//! ([`DELTA_KEYS`]), parsed into [`Job::delta`]. A job is keyed by
//! [`job_key`] and computed by [`pipm_core::Runner::run`] over the same
//! arguments, exactly as the figure harness keys and computes its
//! points: the shared warmed prefix is simulated once per base and only
//! the measured tail per delta, so a K-point sweep against one base
//! costs O(prefix + K·tail) instead of O(K·run). Results are
//! byte-identical to the equivalent unforked run under the same split.
//!
//! Responses are single-line JSON objects with an `ok` field. Failures
//! are *structured*: `{"ok":false,"error":{"kind":...,"detail":...}}`
//! with machine-matchable kinds ([`kind`]), and never terminate the
//! daemon. Successful `submit`s return one result object per job, in
//! job order, encoded canonically by [`encode_result`] — the same bytes
//! whether the job was computed, served from the run cache, or encoded
//! from a direct [`run_one`](pipm_core::run_one) call (the simulator is
//! deterministic, and field order is fixed).

use crate::json::Json;
use pipm_core::{fingerprint64, job_key, CfgDelta, RunResult};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};

/// Machine-matchable error kinds carried in `error.kind`.
pub mod kind {
    /// Line was not valid JSON or not a protocol object.
    pub const MALFORMED: &str = "malformed";
    /// `workload` did not name a known workload.
    pub const UNKNOWN_WORKLOAD: &str = "unknown_workload";
    /// `scheme` did not name a known scheme.
    pub const UNKNOWN_SCHEME: &str = "unknown_scheme";
    /// A `cfg` override key is not in the supported set.
    pub const UNKNOWN_CFG_KEY: &str = "unknown_cfg_key";
    /// A request field or override value is invalid.
    pub const BAD_REQUEST: &str = "bad_request";
    /// A per-request limit (batch size, refs per core) was exceeded.
    pub const LIMIT_EXCEEDED: &str = "limit_exceeded";
    /// The admission queue is full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The daemon is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A job failed inside the simulator (the daemon keeps serving).
    pub const INTERNAL: &str = "internal";
}

/// One fully-resolved, validated job: the argument set of a
/// [`Runner::run`](pipm_core::Runner::run) call plus its canonical cache
/// key.
#[derive(Clone, Debug)]
pub struct Job {
    /// Workload to simulate.
    pub workload: Workload,
    /// Scheme to simulate.
    pub scheme: SchemeKind,
    /// Configuration (base + overrides), pre-run.
    pub cfg: SystemConfig,
    /// Per-run parameters.
    pub params: WorkloadParams,
    /// Canonical content address: [`job_key`] over the fields above and
    /// `delta`.
    pub key: String,
    /// `Some` for a `whatif` job: the late-binding overrides its measured
    /// tail runs under, resumed from a fork of the warmed prefix.
    pub delta: Option<CfgDelta>,
    /// The client's job object re-encoded verbatim, so a router can
    /// forward the job to its ring owner without lossy re-synthesis
    /// (the owner re-parses it and derives the identical `key`).
    pub raw: String,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run a batch of jobs (possibly served from cache).
    Submit(Vec<Job>),
    /// Liveness / drain-state probe.
    Status,
    /// Counter snapshot (cache, queue, admission).
    Metrics,
    /// Graceful shutdown: drain queued jobs, then exit 0.
    Shutdown,
}

/// Per-request admission limits (the daemon's, or a client's mirror).
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Maximum jobs in one `submit` batch.
    pub max_batch_jobs: usize,
    /// Maximum `refs_per_core` per job.
    pub max_refs_per_core: u64,
    /// `refs_per_core` when a job omits it.
    pub default_refs_per_core: u64,
    /// `seed` when a job omits it (the figure harness's master seed).
    pub default_seed: u64,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_batch_jobs: 64,
            max_refs_per_core: 5_000_000,
            default_refs_per_core: 20_000,
            default_seed: 0x51_57,
        }
    }
}

/// A structured protocol error: `kind` is machine-matchable, `detail`
/// human-readable, `extra` carries kind-specific fields (queue depth for
/// `overloaded`, …).
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// One of the [`kind`] constants.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Kind-specific extra fields appended to the error object.
    pub extra: Vec<(String, Json)>,
}

impl ProtoError {
    /// An error with no extra fields.
    pub fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        ProtoError {
            kind,
            detail: detail.into(),
            extra: Vec::new(),
        }
    }

    /// Serializes to a single-line `{"ok":false,...}` response.
    pub fn encode(&self) -> String {
        let mut error = vec![
            ("kind".to_string(), Json::Str(self.kind.to_string())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ];
        error.extend(self.extra.iter().cloned());
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(false)),
            ("error".to_string(), Json::Obj(error)),
        ])
        .encode()
    }
}

/// Parses and validates one request line against `limits`.
///
/// # Errors
///
/// Returns a structured [`ProtoError`] (`malformed`, `unknown_*`,
/// `limit_exceeded`, `bad_request`) describing the first problem found;
/// an erroneous batch is rejected whole.
pub fn parse_request(line: &str, limits: &RequestLimits) -> Result<Request, ProtoError> {
    let root = crate::json::parse(line)
        .map_err(|e| ProtoError::new(kind::MALFORMED, format!("invalid JSON: {e}")))?;
    if root.as_obj().is_none() {
        return Err(ProtoError::new(
            kind::MALFORMED,
            "request must be a JSON object",
        ));
    }
    let cmd = root
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(kind::MALFORMED, "missing string field `cmd`"))?;
    match cmd {
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => parse_batch(&root, limits, false).map(Request::Submit),
        "whatif" => parse_batch(&root, limits, true).map(Request::Submit),
        other => Err(ProtoError::new(
            kind::MALFORMED,
            format!("unknown cmd `{other}`"),
        )),
    }
}

fn parse_batch(root: &Json, limits: &RequestLimits, whatif: bool) -> Result<Vec<Job>, ProtoError> {
    let cmd = if whatif { "whatif" } else { "submit" };
    let jobs = root
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::new(kind::MALFORMED, format!("{cmd} needs a `jobs` array")))?;
    if jobs.is_empty() {
        return Err(ProtoError::new(kind::BAD_REQUEST, "empty job batch"));
    }
    if jobs.len() > limits.max_batch_jobs {
        return Err(ProtoError {
            kind: kind::LIMIT_EXCEEDED,
            detail: format!(
                "batch of {} jobs exceeds the {}-job limit",
                jobs.len(),
                limits.max_batch_jobs
            ),
            extra: vec![(
                "max_batch_jobs".into(),
                Json::UInt(limits.max_batch_jobs as u64),
            )],
        });
    }
    jobs.iter()
        .enumerate()
        .map(|(i, j)| parse_job(i, j, limits, whatif))
        .collect()
}

fn parse_job(
    index: usize,
    job: &Json,
    limits: &RequestLimits,
    whatif: bool,
) -> Result<Job, ProtoError> {
    if job.as_obj().is_none() {
        return Err(ProtoError::new(
            kind::MALFORMED,
            format!("job #{index} must be an object"),
        ));
    }
    let workload_name = job.get("workload").and_then(Json::as_str).ok_or_else(|| {
        ProtoError::new(kind::MALFORMED, format!("job #{index}: missing `workload`"))
    })?;
    let workload: Workload = workload_name.parse().map_err(|_| {
        ProtoError::new(
            kind::UNKNOWN_WORKLOAD,
            format!("job #{index}: unknown workload `{workload_name}`"),
        )
    })?;
    let scheme_name = job.get("scheme").and_then(Json::as_str).ok_or_else(|| {
        ProtoError::new(kind::MALFORMED, format!("job #{index}: missing `scheme`"))
    })?;
    let scheme: SchemeKind = scheme_name.parse().map_err(|_| {
        ProtoError::new(
            kind::UNKNOWN_SCHEME,
            format!("job #{index}: unknown scheme `{scheme_name}`"),
        )
    })?;
    let refs_per_core = match job.get("refs_per_core") {
        None => limits.default_refs_per_core,
        Some(v) => v.as_u64().ok_or_else(|| {
            ProtoError::new(
                kind::BAD_REQUEST,
                format!("job #{index}: `refs_per_core` must be a non-negative integer"),
            )
        })?,
    };
    if refs_per_core == 0 {
        return Err(ProtoError::new(
            kind::BAD_REQUEST,
            format!("job #{index}: `refs_per_core` must be positive"),
        ));
    }
    if refs_per_core > limits.max_refs_per_core {
        return Err(ProtoError {
            kind: kind::LIMIT_EXCEEDED,
            detail: format!(
                "job #{index}: refs_per_core {} exceeds the limit {}",
                refs_per_core, limits.max_refs_per_core
            ),
            extra: vec![(
                "max_refs_per_core".into(),
                Json::UInt(limits.max_refs_per_core),
            )],
        });
    }
    let seed = match job.get("seed") {
        None => limits.default_seed,
        Some(v) => v.as_u64().ok_or_else(|| {
            ProtoError::new(
                kind::BAD_REQUEST,
                format!("job #{index}: `seed` must be a non-negative integer"),
            )
        })?,
    };
    let mut cfg = SystemConfig::experiment_scale();
    if let Some(overrides) = job.get("cfg") {
        let fields = overrides.as_obj().ok_or_else(|| {
            ProtoError::new(
                kind::BAD_REQUEST,
                format!("job #{index}: `cfg` must be an object"),
            )
        })?;
        for (key, value) in fields {
            apply_override(&mut cfg, key, value)
                .map_err(|e| ProtoError::new(e.kind, format!("job #{index}: {}", e.detail)))?;
        }
        cfg.validate().map_err(|e| {
            ProtoError::new(kind::BAD_REQUEST, format!("job #{index}: invalid cfg: {e}"))
        })?;
    }
    let params = WorkloadParams {
        refs_per_core,
        seed,
    };
    let delta = if whatif {
        Some(parse_delta(index, job, &cfg)?)
    } else {
        None
    };
    let key = job_key(workload, scheme, &cfg, &params, delta.as_ref());
    Ok(Job {
        workload,
        scheme,
        cfg,
        params,
        key,
        delta,
        raw: job.encode(),
    })
}

/// Parses and validates the `delta` object a `whatif` job requires.
fn parse_delta(index: usize, raw: &Json, cfg: &SystemConfig) -> Result<CfgDelta, ProtoError> {
    let delta_json = raw.get("delta").ok_or_else(|| {
        ProtoError::new(
            kind::BAD_REQUEST,
            format!("job #{index}: whatif needs a `delta` object"),
        )
    })?;
    let fields = delta_json.as_obj().ok_or_else(|| {
        ProtoError::new(
            kind::BAD_REQUEST,
            format!("job #{index}: `delta` must be an object"),
        )
    })?;
    let mut delta = CfgDelta::default();
    for (key, value) in fields {
        apply_delta_override(cfg, &mut delta, key, value)
            .map_err(|e| ProtoError::new(e.kind, format!("job #{index}: {}", e.detail)))?;
    }
    let mut tail_cfg = cfg.clone();
    delta.apply_to(&mut tail_cfg);
    tail_cfg.validate().map_err(|e| {
        ProtoError::new(
            kind::BAD_REQUEST,
            format!("job #{index}: invalid delta'd cfg: {e}"),
        )
    })?;
    Ok(delta)
}

/// The `cfg` override keys `submit` accepts, with their targets.
pub const CFG_KEYS: [&str; 10] = [
    "hosts",
    "cores_per_host",
    "link_latency_ns",
    "link_gbps",
    "migration_threshold",
    "migration_interval_cycles",
    "local_remap_cache_bytes",
    "global_remap_cache_bytes",
    "sector_lines",
    "local_capacity_bytes",
];

/// The `delta` keys `whatif` accepts — exactly the late-binding
/// [`CfgDelta`] fields (a subset of [`CFG_KEYS`]; structural parameters
/// bind at system construction and cannot change mid-run).
pub const DELTA_KEYS: [&str; 5] = [
    "link_latency_ns",
    "link_gbps",
    "local_remap_cache_bytes",
    "global_remap_cache_bytes",
    "migration_threshold",
];

fn want_u64(key: &str, value: &Json) -> Result<u64, ProtoError> {
    value.as_u64().ok_or_else(|| {
        ProtoError::new(
            kind::BAD_REQUEST,
            format!("cfg.{key} must be a non-negative integer"),
        )
    })
}

fn want_f64(key: &str, value: &Json) -> Result<f64, ProtoError> {
    value
        .as_f64()
        .filter(|f| f.is_finite() && *f > 0.0)
        .ok_or_else(|| {
            ProtoError::new(
                kind::BAD_REQUEST,
                format!("cfg.{key} must be a positive number"),
            )
        })
}

// Remap cache geometries must stay power-of-two (the set math in
// pipm-core asserts it); reject early with a structured error instead
// of letting a worker hit the assertion.
fn want_pow2(key: &str, value: &Json) -> Result<u64, ProtoError> {
    let v = want_u64(key, value)?;
    if v.is_power_of_two() && v >= 1024 {
        Ok(v)
    } else {
        Err(ProtoError::new(
            kind::BAD_REQUEST,
            format!("cfg.{key} must be a power of two ≥ 1024, got {v}"),
        ))
    }
}

fn want_threshold(cfg: &SystemConfig, key: &str, value: &Json) -> Result<u8, ProtoError> {
    let v = want_u64(key, value)?;
    if v == 0 || v > u64::from(cfg.pipm.local_counter_max) {
        return Err(ProtoError::new(
            kind::BAD_REQUEST,
            format!(
                "cfg.{key} must be in 1..={}, got {v}",
                cfg.pipm.local_counter_max
            ),
        ));
    }
    Ok(v as u8)
}

fn apply_delta_override(
    cfg: &SystemConfig,
    delta: &mut CfgDelta,
    key: &str,
    value: &Json,
) -> Result<(), ProtoError> {
    match key {
        "link_latency_ns" => delta.link_latency_ns = Some(want_f64(key, value)?),
        "link_gbps" => delta.link_gbps = Some(want_f64(key, value)?),
        "local_remap_cache_bytes" => delta.local_remap_cache_bytes = Some(want_pow2(key, value)?),
        "global_remap_cache_bytes" => delta.global_remap_cache_bytes = Some(want_pow2(key, value)?),
        "migration_threshold" => delta.migration_threshold = Some(want_threshold(cfg, key, value)?),
        _ => {
            return Err(ProtoError {
                kind: kind::UNKNOWN_CFG_KEY,
                detail: format!("unsupported delta key `{key}`"),
                extra: vec![(
                    "supported".into(),
                    Json::Arr(
                        DELTA_KEYS
                            .iter()
                            .map(|k| Json::Str((*k).to_string()))
                            .collect(),
                    ),
                )],
            })
        }
    }
    Ok(())
}

fn apply_override(cfg: &mut SystemConfig, key: &str, value: &Json) -> Result<(), ProtoError> {
    match key {
        "hosts" => cfg.hosts = want_u64(key, value)? as usize,
        "cores_per_host" => cfg.cores_per_host = want_u64(key, value)? as usize,
        "link_latency_ns" => cfg.cxl.link_latency_ns = want_f64(key, value)?,
        "link_gbps" => cfg.cxl.link_gbps = want_f64(key, value)?,
        "migration_threshold" => {
            cfg.pipm.migration_threshold = want_threshold(cfg, key, value)?;
        }
        "migration_interval_cycles" => cfg.migration_interval_cycles = want_u64(key, value)?,
        "local_remap_cache_bytes" => cfg.pipm.local_remap_cache_bytes = want_pow2(key, value)?,
        "global_remap_cache_bytes" => cfg.pipm.global_remap_cache_bytes = want_pow2(key, value)?,
        "sector_lines" => {
            let v = want_u64(key, value)?;
            if v == 0 || v > 64 {
                return Err(ProtoError::new(
                    kind::BAD_REQUEST,
                    format!("cfg.sector_lines must be in 1..=64, got {v}"),
                ));
            }
            cfg.pipm.sector_lines = v as u32;
        }
        "local_capacity_bytes" => {
            let v = want_u64(key, value)?;
            if v < (1 << 20) {
                return Err(ProtoError::new(
                    kind::BAD_REQUEST,
                    format!("cfg.local_capacity_bytes must be ≥ 1 MiB, got {v}"),
                ));
            }
            cfg.local_capacity_bytes = v;
        }
        _ => {
            return Err(ProtoError {
                kind: kind::UNKNOWN_CFG_KEY,
                detail: format!("unsupported cfg key `{key}`"),
                extra: vec![(
                    "supported".into(),
                    Json::Arr(
                        CFG_KEYS
                            .iter()
                            .map(|k| Json::Str((*k).to_string()))
                            .collect(),
                    ),
                )],
            })
        }
    }
    Ok(())
}

/// Canonically encodes one run result. Field order is fixed and every
/// value is a deterministic function of the (deterministic) simulation,
/// so the same job always encodes to the same bytes — whether computed
/// cold, replayed from the run cache, or produced by a direct
/// [`run_one`](pipm_core::run_one) call.
///
/// `key` is the job's canonical content address ([`Job::key`]) and is
/// what gets fingerprinted. It must come from the caller: deriving it
/// here from the result's (delta-applied) cfg would make a `whatif`
/// result carry the same fingerprint as a plain full run under that
/// cfg, despite different statistics.
pub fn encode_result(r: &RunResult, params: &WorkloadParams, key: &str) -> Json {
    let s = &r.stats;
    let fingerprint = fingerprint64(key);
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.label().into())),
        ("scheme".into(), Json::Str(r.scheme.label().into())),
        (
            "fingerprint".into(),
            Json::Str(format!("{fingerprint:016x}")),
        ),
        ("refs_per_core".into(), Json::UInt(params.refs_per_core)),
        ("seed".into(), Json::UInt(params.seed)),
        ("exec_cycles".into(), Json::UInt(s.exec_cycles())),
        ("ipc".into(), Json::Num(s.aggregate_ipc())),
        ("local_hit_rate".into(), Json::Num(s.local_hit_rate())),
        (
            "interhost_stall_sum".into(),
            Json::UInt(s.total_interhost_stall()),
        ),
        ("mgmt_stall_sum".into(), Json::UInt(s.total_mgmt_stall())),
        (
            "transfer_stall_sum".into(),
            Json::UInt(s.total_transfer_stall()),
        ),
        (
            "pages_promoted".into(),
            Json::UInt(s.migration.pages_promoted),
        ),
        (
            "pages_demoted".into(),
            Json::UInt(s.migration.pages_demoted),
        ),
        (
            "lines_migrated_in".into(),
            Json::UInt(s.migration.lines_migrated_in),
        ),
        (
            "lines_migrated_back".into(),
            Json::UInt(s.migration.lines_migrated_back),
        ),
        (
            "harmful_fraction".into(),
            Json::Num(s.migration.harmful_fraction()),
        ),
        (
            "local_remap_hit_rate".into(),
            Json::Num(s.local_remap_hit_rate()),
        ),
        (
            "global_remap_hit_rate".into(),
            Json::Num(s.global_remap_hit_rate()),
        ),
    ])
}

/// Canonical single-line encoding of a whole successful batch, in job
/// order: `{"ok":true,"results":[...]}`.
pub fn encode_batch(results: &[Json]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("results".into(), Json::Arr(results.to_vec())),
    ])
    .encode()
}

/// [`encode_batch`] over *already encoded* result objects, spliced in
/// as raw bytes. This is the serving path: the run cache stores
/// canonical encoded strings, and splicing (never decode + re-encode)
/// is what keeps a response byte-identical whether each result was
/// computed here, served warm, or forwarded from a ring owner.
pub fn encode_batch_raw(results: &[String]) -> String {
    let payload: usize = results.iter().map(String::len).sum();
    let mut out = String::with_capacity(payload + results.len() + 24);
    out.push_str(r#"{"ok":true,"results":["#);
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(result);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn limits() -> RequestLimits {
        RequestLimits::default()
    }

    #[test]
    fn parses_minimal_submit() {
        let r = parse_request(
            r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm"}]}"#,
            &limits(),
        )
        .unwrap();
        let Request::Submit(jobs) = r else {
            panic!("expected submit")
        };
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].workload, Workload::Bfs);
        assert_eq!(jobs[0].scheme, SchemeKind::Pipm);
        assert_eq!(jobs[0].params.refs_per_core, limits().default_refs_per_core);
        assert!(jobs[0].key.contains("BFS"));
    }

    #[test]
    fn cfg_overrides_change_the_key() {
        let base = parse_request(
            r#"{"cmd":"submit","jobs":[{"workload":"cc","scheme":"native"}]}"#,
            &limits(),
        )
        .unwrap();
        let tweaked = parse_request(
            r#"{"cmd":"submit","jobs":[{"workload":"cc","scheme":"native","cfg":{"link_latency_ns":100}}]}"#,
            &limits(),
        )
        .unwrap();
        let (Request::Submit(a), Request::Submit(b)) = (base, tweaked) else {
            panic!()
        };
        assert_ne!(a[0].key, b[0].key);
        assert_eq!(b[0].cfg.cxl.link_latency_ns, 100.0);
    }

    #[test]
    fn error_kinds_are_structured() {
        let cases: [(&str, &str); 11] = [
            ("{nope", kind::MALFORMED),
            (r#"{"cmd":"dance"}"#, kind::MALFORMED),
            // Nodes never push results to each other: no `fill` command.
            (r#"{"cmd":"fill","fills":[]}"#, kind::MALFORMED),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"quake","scheme":"pipm"}]}"#,
                kind::UNKNOWN_WORKLOAD,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"warp"}]}"#,
                kind::UNKNOWN_SCHEME,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","refs_per_core":99000000}]}"#,
                kind::LIMIT_EXCEEDED,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"frobnicate":1}}]}"#,
                kind::UNKNOWN_CFG_KEY,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"global_remap_cache_bytes":3000}}]}"#,
                kind::BAD_REQUEST,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"hosts":0}}]}"#,
                kind::BAD_REQUEST,
            ),
            // Core indices are 8 bits wide; a huge count would also
            // abort the daemon allocating per-core state.
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"cores_per_host":257}}]}"#,
                kind::BAD_REQUEST,
            ),
            (
                r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"cores_per_host":100000000000}}]}"#,
                kind::BAD_REQUEST,
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line, &limits()).unwrap_err();
            assert_eq!(err.kind, want, "line: {line}");
            // The encoded error is itself valid protocol JSON.
            let encoded = err.encode();
            let back = crate::json::parse(&encoded).unwrap();
            assert_eq!(back.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(
                back.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(want)
            );
        }
    }

    #[test]
    fn link_timing_that_wraps_the_clock_is_rejected() {
        let submit = |cfg: &str| {
            format!(
                r#"{{"cmd":"submit","jobs":[{{"workload":"ycsb","scheme":"native","cfg":{{{cfg}}}}}]}}"#
            )
        };
        let whatif = |delta: &str| {
            format!(
                r#"{{"cmd":"whatif","jobs":[{{"workload":"ycsb","scheme":"native","delta":{{{delta}}}}}]}}"#
            )
        };
        for field in [
            r#""link_latency_ns":1e12"#,
            r#""link_latency_ns":1e300"#,
            r#""link_gbps":1e-300"#,
        ] {
            for line in [submit(field), whatif(field)] {
                let err = parse_request(&line, &limits()).unwrap_err();
                assert_eq!(err.kind, kind::BAD_REQUEST, "line: {line}");
            }
        }
        for field in [r#""link_latency_ns":50"#, r#""link_gbps":8"#] {
            for line in [submit(field), whatif(field)] {
                parse_request(&line, &limits()).unwrap();
            }
        }
    }

    #[test]
    fn migration_interval_must_exceed_its_charge() {
        let line = |cycles: u64| {
            format!(
                r#"{{"cmd":"submit","jobs":[{{"workload":"ycsb","scheme":"nomad","cfg":{{"migration_interval_cycles":{cycles}}}}}]}}"#
            )
        };
        for cycles in [0, 3_500] {
            let err = parse_request(&line(cycles), &limits()).unwrap_err();
            assert_eq!(err.kind, kind::BAD_REQUEST, "{cycles} cycles");
        }
        let Request::Submit(jobs) = parse_request(&line(25_000), &limits()).unwrap() else {
            panic!("expected submit")
        };
        assert_eq!(jobs[0].cfg.migration_interval_cycles, 25_000);
    }

    #[test]
    fn whatif_parses_and_namespaces_the_key() {
        let r = parse_request(
            r#"{"cmd":"whatif","jobs":[{"workload":"bfs","scheme":"pipm","delta":{"link_latency_ns":100,"migration_threshold":4}}]}"#,
            &limits(),
        )
        .unwrap();
        let Request::Submit(jobs) = r else {
            panic!("expected submit")
        };
        let job = &jobs[0];
        let delta = job.delta.as_ref().expect("whatif delta");
        assert_eq!(delta.link_latency_ns, Some(100.0));
        assert_eq!(delta.migration_threshold, Some(4));
        assert_eq!(delta.link_gbps, None);
        // The base cfg is untouched by the delta (it binds at resume).
        assert_eq!(job.cfg, SystemConfig::experiment_scale());
        // The key is the sweep address of the base and the delta, in its
        // own namespace and embedding the fork point.
        assert_eq!(
            job.key,
            job_key(
                Workload::Bfs,
                SchemeKind::Pipm,
                &job.cfg,
                &job.params,
                Some(delta)
            )
        );
        assert!(job.key.starts_with("sweep-v1|"));
        assert!(job.key.contains("|prefix="));
        // A plain submit of the same job must never share the key.
        let plain = parse_request(
            r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm"}]}"#,
            &limits(),
        )
        .unwrap();
        let Request::Submit(plain) = plain else {
            panic!()
        };
        assert_ne!(plain[0].key, job.key);
    }

    #[test]
    fn whatif_rejects_bad_deltas() {
        let cases: [(&str, &str); 4] = [
            // No delta at all.
            (
                r#"{"cmd":"whatif","jobs":[{"workload":"bfs","scheme":"pipm"}]}"#,
                kind::BAD_REQUEST,
            ),
            // Structural parameters cannot late-bind.
            (
                r#"{"cmd":"whatif","jobs":[{"workload":"bfs","scheme":"pipm","delta":{"hosts":4}}]}"#,
                kind::UNKNOWN_CFG_KEY,
            ),
            // Value validation matches `cfg` overrides.
            (
                r#"{"cmd":"whatif","jobs":[{"workload":"bfs","scheme":"pipm","delta":{"local_remap_cache_bytes":3000}}]}"#,
                kind::BAD_REQUEST,
            ),
            (
                r#"{"cmd":"whatif","jobs":[{"workload":"bfs","scheme":"pipm","delta":{"migration_threshold":0}}]}"#,
                kind::BAD_REQUEST,
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line, &limits()).unwrap_err();
            assert_eq!(err.kind, want, "line: {line}");
        }
    }

    #[test]
    fn raw_job_round_trips_to_the_same_key() {
        let line = r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","cfg":{"link_latency_ns":150},"seed":7}]}"#;
        let Request::Submit(jobs) = parse_request(line, &limits()).unwrap() else {
            panic!()
        };
        // A router forwards `raw` verbatim; the owner node must parse
        // it back to the identical canonical key.
        let forwarded = format!(r#"{{"cmd":"submit","jobs":[{}]}}"#, jobs[0].raw);
        let Request::Submit(again) = parse_request(&forwarded, &limits()).unwrap() else {
            panic!()
        };
        assert_eq!(jobs[0].key, again[0].key);
        assert_eq!(again[0].raw, jobs[0].raw, "re-encoding is a fixpoint");
    }

    #[test]
    fn raw_batch_splice_matches_value_encoding() {
        let params = WorkloadParams {
            refs_per_core: 1_000,
            seed: 3,
        };
        let r = pipm_core::run_one(
            Workload::Bfs,
            SchemeKind::Pipm,
            SystemConfig::experiment_scale(),
            &params,
        );
        let key = job_key(r.workload, r.scheme, &r.cfg, &params, None);
        let value = encode_result(&r, &params, &key);
        let by_value = encode_batch(std::slice::from_ref(&value));
        let by_splice = encode_batch_raw(std::slice::from_ref(&value.encode()));
        assert_eq!(by_value, by_splice);
    }

    #[test]
    fn batch_limit_enforced() {
        let job = r#"{"workload":"bfs","scheme":"native"}"#;
        let many = vec![job; limits().max_batch_jobs + 1].join(",");
        let line = format!(r#"{{"cmd":"submit","jobs":[{many}]}}"#);
        let err = parse_request(&line, &limits()).unwrap_err();
        assert_eq!(err.kind, kind::LIMIT_EXCEEDED);
    }

    #[test]
    fn result_encoding_is_canonical() {
        let params = WorkloadParams {
            refs_per_core: 2_000,
            seed: 5,
        };
        let r = pipm_core::run_one(
            Workload::Cc,
            SchemeKind::Native,
            SystemConfig::experiment_scale(),
            &params,
        );
        let key = job_key(r.workload, r.scheme, &r.cfg, &params, None);
        let a = encode_result(&r, &params, &key).encode();
        let b = encode_result(&r, &params, &key).encode();
        assert_eq!(a, b);
        let parsed = crate::json::parse(&a).unwrap();
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("CC"));
        assert!(parsed.get("exec_cycles").unwrap().as_u64().unwrap() > 0);
        assert_eq!(
            parsed.get("fingerprint").unwrap().as_str().unwrap().len(),
            16
        );
    }
    /// Parsing never panics, and every rejection encodes to one line
    /// that reads back as `{"ok":false,"error":{"kind":...}}`.
    fn rejects_structurally(line: &str) -> Result<(), TestCaseError> {
        if let Err(e) = parse_request(line, &limits()) {
            let encoded = e.encode();
            prop_assert!(!encoded.contains('\n'), "multi-line error {encoded:?}");
            let value = crate::json::parse(&encoded).map_err(TestCaseError::fail)?;
            prop_assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
            let error_kind = value.get("error").and_then(|e| e.get("kind"));
            prop_assert_eq!(error_kind.and_then(Json::as_str), Some(e.kind));
        }
        Ok(())
    }

    /// Values at the edges of every validation rule.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "2",
        "3",
        "8",
        "64",
        "1024",
        "4096",
        "65536",
        "1000000",
        "18446744073709551615",
        "-1",
        "-0",
        "0.5",
        "1.0",
        "100.5",
        "1e300",
        r#""x""#,
        "null",
        "true",
        "{}",
        "[]",
    ];

    /// Protocol fragments: request prefixes, field names, known and
    /// unknown names, values, and closers.
    fn fragments() -> Vec<String> {
        let mut out: Vec<String> = [
            r#"{"cmd":"submit","jobs":["#,
            r#"{"cmd":"whatif","jobs":["#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"nope"}"#,
            r#"{"workload":"bfs","scheme":"pipm""#,
            r#"{"workload":"canneal","scheme":"native""#,
            r#""workload":"#,
            r#""scheme":"#,
            r#""nope""#,
            r#","refs_per_core":"#,
            r#","seed":"#,
            r#","cfg":{"#,
            r#","delta":{"#,
            "{",
            "}",
            "[",
            "]",
            "}]}",
            ",",
            ":",
            " ",
        ]
        .iter()
        .map(|f| f.to_string())
        .collect();
        out.extend(CFG_KEYS.iter().map(|k| format!(r#""{k}":"#)));
        out.extend(VALUES.iter().map(|v| v.to_string()));
        out
    }

    /// One well-formed request shape with every slot drawn from a
    /// table, so the fuzz reaches the validators behind the parser.
    fn templated(
        (cmd, workload, scheme): (usize, usize, usize),
        job: &[(usize, usize)],
        cfg: &[(usize, usize)],
        delta: &[(usize, usize)],
    ) -> String {
        let fields = |pairs: &[(usize, usize)], keys: &[&str]| -> Vec<String> {
            pairs
                .iter()
                .map(|&(k, v)| format!(r#""{}":{}"#, keys[k], VALUES[v]))
                .collect()
        };
        let job: String = fields(job, &["refs_per_core", "seed"])
            .iter()
            .map(|f| format!(",{f}"))
            .collect();
        format!(
            r#"{{"cmd":"{}","jobs":[{{"workload":"{}","scheme":"{}"{job},"cfg":{{{}}},"delta":{{{}}}}}]}}"#,
            ["submit", "whatif", "status"][cmd],
            ["bfs", "pr", "xsbench", "nope"][workload],
            ["pipm", "native", "nomad", "local", "nope"][scheme],
            fields(cfg, &CFG_KEYS).join(","),
            fields(delta, &DELTA_KEYS).join(","),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn arbitrary_bytes_get_structured_errors(bytes in vec(0u8..=255, 0..512)) {
            rejects_structurally(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn fragment_soups_get_structured_errors(tokens in vec(0..fragments().len(), 0..40)) {
            let pieces = fragments();
            let line: String = tokens.iter().map(|&i| pieces[i].as_str()).collect();
            rejects_structurally(&line)?;
        }

        #[test]
        fn templated_requests_get_structured_errors(
            names in (0usize..3, 0usize..4, 0usize..5),
            job in vec((0usize..2, 0..VALUES.len()), 0..3),
            cfg in vec((0usize..CFG_KEYS.len(), 0..VALUES.len()), 0..4),
            delta in vec((0usize..DELTA_KEYS.len(), 0..VALUES.len()), 0..3)
        ) {
            rejects_structurally(&templated(names, &job, &cfg, &delta))?;
        }
    }
}
