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

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dircc_bus::{CostConfig, CostModel};
use dircc_core::{EventCounters, ProtocolKind};
use dircc_obs::{
    chrome_trace_array, chrome_trace_event, counters_json, window_jsonl_line, Counter, Gauge,
    MetricsRegistry,
};
use dircc_serve::{HandlerError, JobSpec, Lru, MAX_SPANS, MAX_WINDOWS};
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
/// byte-exact.
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

/// How many [`TraceStore`]s the handler keeps warm, whatever their size.
/// Each distinct (trace, refs, seed) costs one ingest, about 10 bytes per
/// data reference; `dircc_trace_store_bytes` reports what they hold.
const STORE_CACHE_ENTRIES: usize = 8;

/// The newest [`MAX_SPANS`] spans across requests, kept as Chrome trace
/// events rendered one per line.
///
/// A deque of [`Span`](dircc_obs::Span)s would hold up to five small
/// strings per span, each freed 1,024 runs after it was made and
/// replaced by a new one wherever the heap had room. Scattered among
/// the trace columns that every run allocates and frees, they keep the
/// allocator from returning that memory. One byte ring grows to its
/// steady size once and then allocates nothing.
#[derive(Default)]
struct SpanRing {
    lines: VecDeque<u8>,
    len: usize,
}

impl SpanRing {
    /// Appends one rendered event (ending in a newline), dropping the
    /// oldest beyond [`MAX_SPANS`].
    fn push(&mut self, event: &str) {
        self.lines.extend(event.as_bytes());
        self.len += 1;
        if self.len > MAX_SPANS {
            let oldest = self.lines.iter().position(|&b| b == b'\n').expect("a line per span");
            self.lines.drain(..=oldest);
            self.len -= 1;
        }
    }

    /// The kept spans, oldest first, as a Chrome trace-event array.
    fn render(&mut self) -> String {
        chrome_trace_array(std::str::from_utf8(self.lines.make_contiguous()).expect("UTF-8 events"))
    }
}

/// The [`JobHandler`](dircc_serve::JobHandler) the daemon runs:
/// memoized single-profile trace stores plus a span log of the newest
/// [`MAX_SPANS`] spans across requests, for `/spans`.
pub struct WorkbenchHandler {
    stores: Mutex<Lru<Arc<TraceStore>>>,
    spans: Mutex<SpanRing>,
    /// Handler-side telemetry. Standalone counters under
    /// [`WorkbenchHandler::new`]; registered on the daemon's registry
    /// (and thus on `/metrics`) under
    /// [`WorkbenchHandler::with_registry`].
    runs_executed: Counter,
    refs_replayed: Counter,
    store_hits: Counter,
    store_misses: Counter,
    store_bytes: Gauge,
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
            spans: Mutex::new(SpanRing::default()),
            runs_executed: Counter::new(),
            refs_replayed: Counter::new(),
            store_hits: Counter::new(),
            store_misses: Counter::new(),
            store_bytes: Gauge::new(),
        }
    }

    /// A handler whose workbench counters live on `registry`, so the
    /// daemon's `/metrics` page covers the simulation side too.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        WorkbenchHandler {
            stores: Mutex::new(Lru::new(STORE_CACHE_ENTRIES)),
            spans: Mutex::new(SpanRing::default()),
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
                "Trace store hits (reused (trace, refs, seed) data-reference columns).",
                &[],
            ),
            store_misses: registry.counter(
                "dircc_trace_store_misses_total",
                "Trace store misses (a fresh trace store, ingested on first use).",
                &[],
            ),
            store_bytes: registry.gauge(
                "dircc_trace_store_bytes",
                "Heap bytes the cached trace stores hold, summed after each job.",
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
        let mut wb = Workbench::with_store(Arc::clone(&store));
        if let Some(w) = window {
            wb = wb.with_window(w);
        }
        let counters = EventCounters::clone(&wb.counters(kind, 0, filter));
        let stores = self.stores.lock().expect("store cache");
        self.store_bytes.set(stores.values().map(|s| s.heap_bytes() as i64).sum());
        drop(stores);
        let trace_name = store.profiles()[0].name.to_string();
        let scheme_name = kind.display_name(n_caches);
        self.runs_executed.add(wb.executed_runs() as u64);
        self.refs_replayed.add(counters.total());
        let mut events = String::new();
        for mut span in wb.span_log().spans() {
            if let Some(meta) = &mut span.meta {
                meta.request = Some(request_id.to_string());
            }
            chrome_trace_event(&mut events, &span);
        }
        let mut ring = self.spans.lock().expect("span log");
        for event in events.split_inclusive('\n') {
            ring.push(event);
        }
        drop(ring);
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
        let refs = job_refs(job)?;
        let window = job.window.unwrap_or((refs / 64).max(1));
        if refs.div_ceil(window) > MAX_WINDOWS {
            return Err(HandlerError::bad_request(format!(
                "field 'window': must be at least {} for {refs} refs (at most {MAX_WINDOWS} \
                 windows)",
                refs.div_ceil(MAX_WINDOWS)
            )));
        }
        let ex = self.execute(job, Some(window), request_id)?;
        let series = ex.wb.time_series();
        // The job's fresh workbench executed exactly one run.
        let s = series
            .first()
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
        self.spans.lock().expect("span log").render()
    }
}

/// The job's trace length: its own `refs`, or its profile's total. The
/// `/series` auto window cuts it into 64 windows, matching `dircc
/// profile`'s default.
fn job_refs(job: &JobSpec) -> Result<u64, HandlerError> {
    let profile = profile_by_name(&job.trace).map_err(HandlerError::bad_request)?;
    Ok(job.refs.unwrap_or(profile.total_refs))
}

/// One distinct run config of the [`load_pool`] schedule.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub scheme: String,
    pub trace: String,
}

/// The mixed hit/miss schedule: the paper's four headline schemes
/// crossed with the three paper traces — request `i` takes config
/// `i % 12`, so the first cycle is all cache misses and every later
/// cycle is all hits. perfbench's serve clients and the CI serve gate
/// both cycle through it.
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

    #[test]
    fn span_ring_renders_the_newest_spans_as_chrome_trace_does() {
        use dircc_obs::{chrome_trace, RunMeta, Span};
        use std::time::Duration;
        let spans: Vec<Span> = (0..MAX_SPANS as u64 + 3)
            .map(|i| Span {
                name: format!("phase \"{i}\""),
                tid: 1,
                start: Duration::from_micros(i),
                dur: Duration::from_nanos(1500),
                meta: (i % 2 == 0).then(|| RunMeta {
                    scheme: "Dir1NB".to_string(),
                    trace: "POPS".to_string(),
                    filter: "full".to_string(),
                    refs: i,
                    request: Some(format!("req-{i}")),
                }),
            })
            .collect();
        let mut ring = SpanRing::default();
        assert_eq!(ring.render(), chrome_trace(&[]));
        let mut event = String::new();
        for span in &spans {
            event.clear();
            chrome_trace_event(&mut event, span);
            ring.push(&event);
        }
        assert_eq!(ring.render(), chrome_trace(&spans[3..]));
    }
}
