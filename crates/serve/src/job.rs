//! Job specification: the wire format clients POST and its canonical
//! cache key.
//!
//! Validation happens here so every route (and the 400 body) can report
//! a *field-level* error: `"field 'window': must be at least 1"`, not
//! just "bad request". What counts as a valid scheme or trace name
//! is the caller's business — the service layer resolves those against
//! the protocol registry — but the structural rules (types, ranges,
//! unknown fields) live in the crate so they are testable without a
//! simulator.

use dircc_obs::json::{self, Json};

/// One simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Directory-scheme name, e.g. `"DirB(1)"` or `"tang"`.
    pub scheme: String,
    /// Trace profile name: `POPS`, `THOR` or `PERO` (case-insensitive).
    pub trace: String,
    /// Synthetic trace length, 1..=[`MAX_REFS`]; `None` = the profile's
    /// paper-scale total.
    pub refs: Option<u64>,
    /// Generator seed.
    pub seed: u64,
    /// `"full"` or `"no-spins"`.
    pub filter: String,
    /// Window size for `/series` streaming; `None` = auto. A `/series`
    /// may ask for at most [`MAX_WINDOWS`] windows over its trace (checked
    /// by the handler, which knows each profile's length).
    pub window: Option<u64>,
}

/// A rejected job, naming the offending field.
#[derive(Debug, PartialEq, Eq)]
pub struct JobError {
    pub field: String,
    pub message: String,
}

impl JobError {
    fn new(field: &str, message: impl Into<String>) -> Self {
        JobError { field: field.to_string(), message: message.into() }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field '{}': {}", self.field, self.message)
    }
}

/// Default generator seed — the paper's publication year, matching the
/// CLI default.
pub const DEFAULT_SEED: u64 = 1988;

/// The longest synthetic trace a job (or a `dircc --refs`) may ask for:
/// 2^24 references, ~4.8x the longest paper trace (PERO, 3.5M). Every
/// reference costs memory for its record and replay streams, so an
/// unbounded `refs` would let one request exhaust the host.
pub const MAX_REFS: u64 = 1 << 24;

/// The most windows one `/series` may stream: 64x the auto window count.
/// The response holds a JSONL line per window, so an unbounded count
/// (`"window": 1` over millions of references) would let one request
/// hold gigabytes.
pub const MAX_WINDOWS: u64 = 4_096;

/// The most spans the daemon's span log keeps for `/spans`: the newest,
/// about a thousand executed runs' worth (each leaves four spans). Older
/// spans are dropped, so the log stays bounded however long the daemon
/// runs.
pub const MAX_SPANS: usize = 4_096;

const KNOWN_FIELDS: &[&str] = &["scheme", "trace", "refs", "seed", "filter", "window"];

impl JobSpec {
    /// Parses and validates a job body. Every failure names a field.
    pub fn from_json(body: &[u8]) -> Result<JobSpec, JobError> {
        let value =
            json::parse(body).map_err(|e| JobError::new("(body)", format!("invalid JSON: {e}")))?;
        let obj =
            value.as_obj().ok_or_else(|| JobError::new("(body)", "job must be a JSON object"))?;
        for key in obj.keys() {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(JobError::new(
                    key,
                    format!("unknown field (known fields: {})", KNOWN_FIELDS.join(", ")),
                ));
            }
        }

        let required_str = |field: &str| -> Result<String, JobError> {
            match obj.get(field) {
                Some(Json::Str(s)) if !s.is_empty() => Ok(s.clone()),
                Some(Json::Str(_)) => Err(JobError::new(field, "must not be empty")),
                Some(_) => Err(JobError::new(field, "must be a string")),
                None => Err(JobError::new(field, "is required")),
            }
        };
        let optional_u64 = |field: &str| -> Result<Option<u64>, JobError> {
            match obj.get(field) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| JobError::new(field, "must be a non-negative integer")),
            }
        };

        let scheme = required_str("scheme")?;
        let trace = required_str("trace")?;
        let refs = optional_u64("refs")?;
        if refs.is_some_and(|n| !(1..=MAX_REFS).contains(&n)) {
            return Err(JobError::new("refs", format!("must be between 1 and {MAX_REFS}")));
        }
        let seed = optional_u64("seed")?.unwrap_or(DEFAULT_SEED);
        let filter = match obj.get("filter") {
            None | Some(Json::Null) => "full".to_string(),
            Some(Json::Str(s)) if s == "full" || s == "no-spins" => s.clone(),
            Some(Json::Str(s)) => {
                return Err(JobError::new(
                    "filter",
                    format!("must be 'full' or 'no-spins', got {s:?}"),
                ))
            }
            Some(_) => return Err(JobError::new("filter", "must be a string")),
        };
        let window = optional_u64("window")?;
        if window == Some(0) {
            return Err(JobError::new("window", "must be at least 1"));
        }

        Ok(JobSpec { scheme, trace, refs, seed, filter, window })
    }

    /// The canonical cache key. Scheme and trace names are
    /// case-folded so `"tang"` and `"Tang"` share a cache entry; the
    /// window is *excluded* because it only shapes `/series` streaming,
    /// never the counters a `/run` response carries.
    pub fn canonical(&self) -> String {
        format!(
            "scheme={};trace={};refs={};seed={};filter={}",
            self.scheme.to_ascii_lowercase(),
            self.trace.to_ascii_lowercase(),
            self.refs.map_or_else(|| "profile".to_string(), |n| n.to_string()),
            self.seed,
            self.filter,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(body: &str) -> Result<JobSpec, JobError> {
        JobSpec::from_json(body.as_bytes())
    }

    #[test]
    fn minimal_job_gets_defaults() {
        let j = job(r#"{"scheme": "DirB(1)", "trace": "POPS"}"#).expect("valid");
        assert_eq!(j.scheme, "DirB(1)");
        assert_eq!(j.trace, "POPS");
        assert_eq!(j.refs, None);
        assert_eq!(j.seed, DEFAULT_SEED);
        assert_eq!(j.filter, "full");
        assert_eq!(j.window, None);
    }

    #[test]
    fn full_job_parses() {
        let j = job(r#"{"scheme": "tang", "trace": "pero", "refs": 50000, "seed": 7,
                "filter": "no-spins", "window": 1000}"#)
        .expect("valid");
        assert_eq!(j.refs, Some(50_000));
        assert_eq!(j.seed, 7);
        assert_eq!(j.filter, "no-spins");
        assert_eq!(j.window, Some(1000));
    }

    #[test]
    fn errors_name_the_field() {
        for (body, field) in [
            (r#"{"trace": "POPS"}"#, "scheme"),
            (r#"{"scheme": "", "trace": "POPS"}"#, "scheme"),
            (r#"{"scheme": 3, "trace": "POPS"}"#, "scheme"),
            (r#"{"scheme": "Tang"}"#, "trace"),
            (r#"{"scheme": "Tang", "trace": "POPS", "refs": 0}"#, "refs"),
            (r#"{"scheme": "Tang", "trace": "POPS", "refs": -1}"#, "refs"),
            (r#"{"scheme": "Tang", "trace": "POPS", "refs": 16777217}"#, "refs"),
            (r#"{"scheme": "Tang", "trace": "POPS", "refs": 18446744073709551615}"#, "refs"),
            (r#"{"scheme": "Tang", "trace": "POPS", "filter": "spins"}"#, "filter"),
            (r#"{"scheme": "Tang", "trace": "POPS", "shards": 1}"#, "shards"),
            (r#"{"scheme": "Tang", "trace": "POPS", "engine": "mono"}"#, "engine"),
            (r#"{"scheme": "Tang", "trace": "POPS", "window": 0}"#, "window"),
            (r#"{"scheme": "Tang", "trace": "POPS", "color": "red"}"#, "color"),
        ] {
            let err = job(body).expect_err(body);
            assert_eq!(err.field, field, "{body}: {err}");
        }
    }

    #[test]
    fn body_level_errors_use_the_body_pseudo_field() {
        assert_eq!(job("nonsense").unwrap_err().field, "(body)");
        assert_eq!(job(r#"[1, 2]"#).unwrap_err().field, "(body)");
    }

    #[test]
    fn canonical_key_folds_case_and_skips_window() {
        let a = job(r#"{"scheme": "Tang", "trace": "POPS", "window": 10}"#).unwrap();
        let b = job(r#"{"scheme": "tang", "trace": "pops", "window": 999}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn canonical_key_distinguishes_profile_scale_from_explicit_refs() {
        let auto = job(r#"{"scheme": "Tang", "trace": "POPS"}"#).unwrap();
        let explicit = job(r#"{"scheme": "Tang", "trace": "POPS", "refs": 3200000}"#).unwrap();
        assert_ne!(auto.canonical(), explicit.canonical());
    }
}
