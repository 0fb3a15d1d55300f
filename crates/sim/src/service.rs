//! The simulator behind `dircc serve`: resolves wire-format jobs
//! against the protocol registry and trace profiles, runs them on
//! memoized [`Workbench`]es, and renders the response JSON.
//!
//! The serve daemon itself (`dircc-serve`) knows nothing about
//! directory schemes — this module implements its
//! [`JobHandler`](dircc_serve::JobHandler) trait. Response bodies are
//! rendered by [`run_response_json`], which `dircc replay --json`
//! shares, so a served `/run` response is byte-identical to a local
//! replay of the same config — the CI serve gate diffs exactly that.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dircc_bus::{CostConfig, CostModel};
use dircc_core::{EventCounters, ProtocolKind};
use dircc_obs::{
    chrome_trace, counters_json, window_jsonl_line, Counter, Histogram, MetricsRegistry, Span,
};
use dircc_serve::{client, HandlerError, JobSpec, Lru};
use dircc_trace::gen::Profile;
use dircc_trace::store::TraceStore;

use crate::metrics::Evaluation;
use crate::workbench::{filter_from_label, filter_label, Workbench};

/// Resolves a trace-profile name (`pops`, `THOR`, …) case-insensitively.
pub fn profile_by_name(name: &str) -> Result<Profile, String> {
    match name.to_ascii_lowercase().as_str() {
        "pops" => Ok(Profile::pops()),
        "thor" => Ok(Profile::thor()),
        "pero" => Ok(Profile::pero()),
        "custom" => Ok(Profile::custom()),
        other => Err(format!("unknown profile {other}")),
    }
}

/// Resolves a scheme name (`Dir1NB`, `tang`, …) case-insensitively
/// against the full checked protocol set at `cpus` caches.
pub fn scheme_by_name(name: &str, cpus: usize) -> Result<ProtocolKind, String> {
    let kinds = dircc_check::default_kinds();
    let kind = kinds.into_iter().find(|k| k.display_name(cpus).eq_ignore_ascii_case(name));
    kind.ok_or_else(|| {
        let names: Vec<String> = kinds.iter().map(|k| k.display_name(cpus)).collect();
        format!("unknown scheme {name}; one of: {}", names.join(" "))
    })
}

/// Renders the complete `/run` response body: the canonical job echo,
/// the full counter state (with digest) and the paper's pipelined-model
/// evaluation. One JSON line. `dircc replay --json` prints this same
/// rendering from a local replay, so served-vs-local diffs are
/// byte-exact. The echo deliberately omits shards: counters are
/// shard-invariant (pinned elsewhere), so responses describing the same
/// run compare equal however it was executed.
pub fn run_response_json(
    eval: &Evaluation,
    trace: &str,
    refs_requested: Option<u64>,
    seed: u64,
    filter: &str,
) -> String {
    let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);
    let (scheme, counters) = (&eval.name, &eval.counters);
    let refs_echo = refs_requested.map_or_else(|| "null".to_string(), |n| n.to_string());
    format!(
        "{{\"job\": {{\"scheme\": \"{scheme}\", \"trace\": \"{trace}\", \"refs\": {refs_echo}, \
         \"seed\": {seed}, \"filter\": \"{filter}\"}}, \"refs\": {}, \"counters\": {}, \
         \"evaluation\": {{\"cycles_per_ref\": {:.6}, \"transactions_per_ref\": {:.6}, \
         \"cycles_per_transaction\": {:.6}}}}}\n",
        counters.total(),
        counters_json(counters),
        eval.cycles_per_ref(&model, &cost_cfg),
        eval.transactions_per_ref(),
        eval.cycles_per_transaction(&model, &cost_cfg),
    )
}

/// How many generated [`TraceStore`]s the handler keeps warm. Each
/// distinct (trace, refs, seed) costs one generated record set; the
/// paper suite plus a few scaled variants fit comfortably.
const STORE_CACHE_ENTRIES: usize = 8;

/// The [`JobHandler`](dircc_serve::JobHandler) the daemon runs:
/// memoized single-profile trace stores plus a span log accumulated
/// across requests for `/spans`.
pub struct WorkbenchHandler {
    stores: Mutex<Lru<Arc<TraceStore>>>,
    spans: Mutex<Vec<Span>>,
    /// Handler-side telemetry. Standalone counters under
    /// [`WorkbenchHandler::new`]; registered on the daemon's registry
    /// (and thus on `/metrics`) under
    /// [`WorkbenchHandler::with_registry`].
    runs_executed: Counter,
    refs_replayed: Counter,
    store_hits: Counter,
    store_misses: Counter,
}

impl Default for WorkbenchHandler {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkbenchHandler {
    pub fn new() -> Self {
        WorkbenchHandler {
            stores: Mutex::new(Lru::new(STORE_CACHE_ENTRIES)),
            spans: Mutex::new(Vec::new()),
            runs_executed: Counter::new(),
            refs_replayed: Counter::new(),
            store_hits: Counter::new(),
            store_misses: Counter::new(),
        }
    }

    /// A handler whose workbench counters live on `registry`, so the
    /// daemon's `/metrics` page covers the simulation side too.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        WorkbenchHandler {
            stores: Mutex::new(Lru::new(STORE_CACHE_ENTRIES)),
            spans: Mutex::new(Vec::new()),
            runs_executed: registry.counter(
                "dircc_runs_executed_total",
                "Workbench replays executed (result-cache hits never reach the workbench).",
                &[],
            ),
            refs_replayed: registry.counter(
                "dircc_refs_replayed_total",
                "Trace references replayed across all workbench runs.",
                &[],
            ),
            store_hits: registry.counter(
                "dircc_trace_store_hits_total",
                "Generated-trace store hits (reused (trace, refs, seed) record sets).",
                &[],
            ),
            store_misses: registry.counter(
                "dircc_trace_store_misses_total",
                "Generated-trace store misses (fresh trace generation).",
                &[],
            ),
        }
    }

    /// Workbench replays executed so far (cache hits served by the
    /// daemon's result cache never reach the workbench, so this is the
    /// number the dedup tests pin).
    pub fn executed_runs(&self) -> u64 {
        self.runs_executed.get()
    }

    /// The shared generated trace for (trace, refs, seed) — one store
    /// per distinct config, so repeated jobs at different schemes reuse
    /// the generation/filter/intern work.
    fn store_for(&self, job: &JobSpec) -> Result<Arc<TraceStore>, HandlerError> {
        let mut profile = profile_by_name(&job.trace).map_err(HandlerError::bad_request)?;
        if let Some(n) = job.refs {
            profile = profile.with_total_refs(n);
        }
        let key = format!(
            "{}|{}|{}",
            profile.name.to_string().to_ascii_lowercase(),
            job.refs.map_or_else(|| "profile".to_string(), |n| n.to_string()),
            job.seed
        );
        let mut stores = self.stores.lock().expect("store cache");
        if let Some(store) = stores.get(&key) {
            self.store_hits.inc();
            return Ok(Arc::clone(store));
        }
        self.store_misses.inc();
        let store = Arc::new(TraceStore::new(vec![profile], job.seed));
        stores.insert(&key, Arc::clone(&store));
        Ok(store)
    }

    /// Resolves the job's scheme/filter and runs it on a fresh
    /// workbench over the shared store, returning everything a
    /// response needs. Spans from the run are stamped with
    /// `request_id`, so `/spans` exports join against response headers
    /// and log lines.
    fn execute(
        &self,
        job: &JobSpec,
        window: Option<u64>,
        request_id: &str,
    ) -> Result<Executed, HandlerError> {
        let store = self.store_for(job)?;
        let n_caches = usize::from(store.profiles()[0].cpus);
        let kind = scheme_by_name(&job.scheme, n_caches).map_err(HandlerError::bad_request)?;
        let filter = filter_from_label(&job.filter)
            .ok_or_else(|| HandlerError::bad_request(format!("unknown filter {}", job.filter)))?;
        let mut wb = Workbench::with_store(Arc::clone(&store)).with_shards(job.shards as usize);
        if let Some(w) = window {
            wb = wb.with_window(w);
        }
        let counters = EventCounters::clone(&wb.counters(kind, 0, filter));
        let trace_name = store.profiles()[0].name.to_string();
        let scheme_name = kind.display_name(n_caches);
        self.runs_executed.add(wb.executed_runs() as u64);
        self.refs_replayed.add(counters.total());
        let mut spans = wb.span_log().spans();
        for span in &mut spans {
            if let Some(meta) = &mut span.meta {
                meta.request = Some(request_id.to_string());
            }
        }
        self.spans.lock().expect("span log").extend(spans);
        Ok(Executed { wb, kind, filter, counters, scheme_name, trace_name, n_caches })
    }
}

struct Executed {
    wb: Workbench,
    kind: ProtocolKind,
    filter: crate::workbench::TraceFilter,
    counters: EventCounters,
    scheme_name: String,
    trace_name: String,
    n_caches: usize,
}

impl dircc_serve::JobHandler for WorkbenchHandler {
    fn run(&self, job: &JobSpec, request_id: &str) -> Result<String, HandlerError> {
        let ex = self.execute(job, None, request_id)?;
        let eval =
            Evaluation::new(ex.scheme_name.clone(), ex.kind, ex.n_caches, ex.counters.clone());
        Ok(run_response_json(&eval, &ex.trace_name, job.refs, job.seed, &job.filter))
    }

    fn series(&self, job: &JobSpec, request_id: &str) -> Result<Vec<String>, HandlerError> {
        let window = match job.window {
            Some(w) => w,
            None => self.default_window_refs(job)?,
        };
        let ex = self.execute(job, Some(window), request_id)?;
        let series = ex.wb.time_series();
        let s = series
            .iter()
            .find(|s| s.kind == ex.kind && s.trace == 0 && s.filter == ex.filter)
            .ok_or_else(|| HandlerError::internal("windowed run left no time series"))?;
        let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);
        let label = filter_label(ex.filter);
        Ok(s.windows
            .iter()
            .map(|w| {
                let cpr = Evaluation::new(
                    ex.scheme_name.clone(),
                    ex.kind,
                    ex.n_caches,
                    w.counters.clone(),
                )
                .cycles_per_ref(&model, &cost_cfg);
                let mut line = window_jsonl_line(&ex.scheme_name, &ex.trace_name, label, w, cpr);
                line.push('\n');
                line
            })
            .collect())
    }

    fn spans(&self) -> String {
        chrome_trace(&self.spans.lock().expect("span log"))
    }
}

impl WorkbenchHandler {
    /// The `/series` auto window: 64 windows over the trace, matching
    /// `dircc profile`'s default.
    fn default_window_refs(&self, job: &JobSpec) -> Result<u64, HandlerError> {
        let mut profile = profile_by_name(&job.trace).map_err(HandlerError::bad_request)?;
        if let Some(n) = job.refs {
            profile = profile.with_total_refs(n);
        }
        Ok((profile.total_refs / 64).max(1))
    }
}

// ---------------------------------------------------------------------
// Load generator (`dircc bench --serve`)
// ---------------------------------------------------------------------

/// One distinct run config the load schedule cycles through.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub scheme: String,
    pub trace: String,
}

/// What `load_generate` measured. Latencies are accumulated in the
/// shared [`Histogram`] (microsecond observations, per-thread then
/// merged) — the same instrument the daemon's own `/metrics` exposes,
/// so bench-side and server-side percentiles use one definition of
/// quantile (bucket upper bound, ≤ 1/16 relative overestimate).
pub struct LoadReport {
    pub url: String,
    pub clients: usize,
    pub requests: usize,
    pub refs: u64,
    pub seed: u64,
    pub hits: u64,
    pub misses: u64,
    pub retries: u64,
    /// Failed requests, with their error text (empty on a clean run).
    pub errors: Vec<String>,
    pub wall: Duration,
    /// Merged per-request latency histogram, in microseconds.
    pub latency_us: Histogram,
    /// Each config exercised, with the counter digest its responses
    /// carried (every response for one config must agree).
    pub digests: Vec<(LoadConfig, String)>,
}

impl LoadReport {
    /// Successful requests measured.
    pub fn completed(&self) -> u64 {
        self.latency_us.count()
    }

    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        (self.completed() as f64) / self.wall.as_secs_f64()
    }

    /// The q-quantile (0..=1) latency in milliseconds, from the
    /// histogram.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        self.latency_us.quantile(q) as f64 / 1e3
    }

    /// The slowest observed request in milliseconds (exact).
    pub fn latency_max_ms(&self) -> f64 {
        self.latency_us.max() as f64 / 1e3
    }
}

/// The p-th percentile (0..=100) of an ascending-sorted sample — the
/// exact reference the histogram-vs-sorted pin test compares against.
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// The mixed hit/miss schedule: the paper's four headline schemes
/// crossed with the three paper traces — request `i` takes config
/// `i % 12`, so the first cycle is all cache misses and every later
/// cycle is all hits.
pub fn load_pool(n_caches: usize) -> Vec<LoadConfig> {
    let traces = ["POPS", "THOR", "PERO"];
    dircc_core::PAPER_KINDS
        .iter()
        .flat_map(|&k| {
            let scheme = k.display_name(n_caches);
            traces.iter().map(move |t| LoadConfig { scheme: scheme.clone(), trace: t.to_string() })
        })
        .collect()
}

/// Extracts `counters.digest` from a `/run` response body.
fn digest_of(body: &str) -> Option<String> {
    let v = dircc_serve::json::parse(body.as_bytes()).ok()?;
    let counters = v.as_obj()?.get("counters")?.as_obj()?;
    counters.get("digest")?.as_str().map(str::to_string)
}

/// Hammers a running daemon with `requests` `/run` jobs from `clients`
/// concurrent threads on the [`load_pool`] schedule. 429s back off and
/// retry; any other failure is recorded as an error. Also cross-checks
/// that every response for one config carries the same counter digest.
pub fn load_generate(
    url: &str,
    clients: usize,
    requests: usize,
    refs: u64,
    seed: u64,
) -> LoadReport {
    let pool = load_pool(4);
    let clients = clients.max(1);

    struct Tally {
        latency_us: Histogram,
        hits: u64,
        misses: u64,
        retries: u64,
        errors: Vec<String>,
        digests: HashMap<usize, String>,
    }

    impl Default for Tally {
        fn default() -> Self {
            Tally {
                latency_us: Histogram::new(),
                hits: 0,
                misses: 0,
                retries: 0,
                errors: Vec::new(),
                digests: HashMap::new(),
            }
        }
    }

    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let pool = &pool;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    for i in (c..requests).step_by(clients) {
                        let config = &pool[i % pool.len()];
                        let body = format!(
                            "{{\"scheme\": \"{}\", \"trace\": \"{}\", \"refs\": {refs}, \
                             \"seed\": {seed}}}",
                            config.scheme, config.trace
                        );
                        let mut attempts = 0u32;
                        loop {
                            let t0 = Instant::now();
                            match client::request(url, "POST", "/run", Some(body.as_bytes())) {
                                Ok(resp) if resp.status == 200 => {
                                    t.latency_us.observe(
                                        t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                                    );
                                    match resp.header("x-cache") {
                                        Some("hit") => t.hits += 1,
                                        _ => t.misses += 1,
                                    }
                                    if let Some(digest) = digest_of(&resp.text()) {
                                        let seen = t
                                            .digests
                                            .entry(i % pool.len())
                                            .or_insert_with(|| digest.clone());
                                        if *seen != digest {
                                            t.errors.push(format!(
                                                "{}/{}: digest drift {seen} vs {digest}",
                                                config.scheme, config.trace
                                            ));
                                        }
                                    } else {
                                        t.errors.push(format!(
                                            "{}/{}: response has no counters.digest",
                                            config.scheme, config.trace
                                        ));
                                    }
                                    break;
                                }
                                Ok(resp) if resp.status == 429 && attempts < 100 => {
                                    attempts += 1;
                                    t.retries += 1;
                                    std::thread::sleep(Duration::from_millis(50));
                                }
                                Ok(resp) => {
                                    t.errors.push(format!(
                                        "{}/{}: HTTP {}: {}",
                                        config.scheme,
                                        config.trace,
                                        resp.status,
                                        resp.text().trim()
                                    ));
                                    break;
                                }
                                Err(e) => {
                                    t.errors
                                        .push(format!("{}/{}: {e}", config.scheme, config.trace));
                                    break;
                                }
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client thread")).collect()
    });
    let wall = started.elapsed();

    let mut merged = Tally::default();
    let mut digest_by_config: HashMap<usize, String> = HashMap::new();
    for t in tallies {
        merged.latency_us.merge(&t.latency_us);
        merged.hits += t.hits;
        merged.misses += t.misses;
        merged.retries += t.retries;
        merged.errors.extend(t.errors);
        for (config, digest) in t.digests {
            match digest_by_config.get(&config) {
                Some(seen) if *seen != digest => {
                    let c = &pool[config];
                    merged.errors.push(format!(
                        "{}/{}: digest drift across clients: {seen} vs {digest}",
                        c.scheme, c.trace
                    ));
                }
                Some(_) => {}
                None => {
                    digest_by_config.insert(config, digest);
                }
            }
        }
    }

    let mut digests: Vec<(LoadConfig, String)> =
        digest_by_config.into_iter().map(|(i, digest)| (pool[i].clone(), digest)).collect();
    digests.sort_by(|a, b| (&a.0.scheme, &a.0.trace).cmp(&(&b.0.scheme, &b.0.trace)));

    LoadReport {
        url: url.to_string(),
        clients,
        requests,
        refs,
        seed,
        hits: merged.hits,
        misses: merged.misses,
        retries: merged.retries,
        errors: merged.errors,
        wall,
        latency_us: merged.latency_us,
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_resolution_is_case_insensitive_and_total() {
        let kind = scheme_by_name("dir1nb", 4).expect("resolves");
        assert_eq!(kind, ProtocolKind::DirNb { pointers: 1 });
        assert_eq!(scheme_by_name("TANG", 4).expect("resolves"), ProtocolKind::Tang);
        let err = scheme_by_name("nonesuch", 4).expect_err("unknown");
        assert!(err.contains("one of:"), "{err}");
        assert!(err.contains("Dir0B"), "{err}");
        // Every checked scheme resolves from its own display name at every
        // machine size, including `DirnNB` for Dir1NB on one cache.
        for n in 1..=8 {
            for kind in dircc_check::default_kinds() {
                assert_eq!(scheme_by_name(&kind.display_name(n), n), Ok(kind), "{kind} at n = {n}");
            }
        }
    }

    #[test]
    fn load_pool_is_the_headline_cross_product() {
        let pool = load_pool(4);
        assert_eq!(pool.len(), 12);
        assert_eq!(pool[0].trace, "POPS");
        assert!(pool.iter().any(|c| c.scheme == "Dir0B" && c.trace == "PERO"));
    }

    #[test]
    fn percentiles_pick_from_the_sorted_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 51.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles_within_bound() {
        // The satellite pin: bench --serve switched from sorting raw
        // samples to the shared log-linear histogram. The histogram
        // quantile returns its bucket's upper bound, so against the
        // exact sorted percentile it may only *over*state, by at most
        // one sub-bucket width (1/16 relative) plus rank-convention
        // noise between adjacent order statistics.
        let mut sorted: Vec<f64> = Vec::new();
        let h = Histogram::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x >> 40; // spread over [0, 2^24)
            h.observe(v);
            sorted.push(v as f64);
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&sorted, q * 100.0);
            let est = h.quantile(q) as f64;
            assert!(est >= exact * 0.999, "q={q}: histogram {est} understates exact {exact}");
            assert!(
                est <= exact * (1.0 + 1.0 / 16.0) + 1.0,
                "q={q}: histogram {est} overstates exact {exact} beyond the 1/16 bound"
            );
        }
        // count/sum/max are exact, not approximations.
        assert_eq!(h.count(), 5000);
        assert_eq!(h.max() as f64, *sorted.last().unwrap());
    }

    #[test]
    fn digest_extraction_reads_the_counters_object() {
        let body = r#"{"job": {}, "counters": {"total": 5, "digest": "00ff"}, "refs": 5}"#;
        assert_eq!(digest_of(body).as_deref(), Some("00ff"));
        assert_eq!(digest_of("not json"), None);
    }

    #[test]
    fn run_response_is_one_line_with_job_echo_counters_and_evaluation() {
        let eval = Evaluation::new(
            "Dir1NB".to_string(),
            ProtocolKind::DirNb { pointers: 1 },
            4,
            EventCounters::new(),
        );
        let json = run_response_json(&eval, "POPS", Some(1000), 1988, "full");
        assert!(json.ends_with('\n'));
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains("\"scheme\": \"Dir1NB\""));
        assert!(json.contains("\"refs\": 1000"));
        assert!(json.contains("\"digest\":"));
        assert!(json.contains("\"cycles_per_ref\":"));
        let profile_scale = run_response_json(&eval, "POPS", None, 1988, "full");
        assert!(profile_scale.contains("\"refs\": null"), "{profile_scale}");
    }
}
