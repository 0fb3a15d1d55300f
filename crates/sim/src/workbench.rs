//! The workbench: generates the three synthetic traces and memoizes one
//! simulation run per (protocol, trace, filter) triple.
//!
//! Every experiment shares a workbench so that, exactly as in the paper,
//! each protocol's event frequencies are measured once and then re-priced
//! under as many hardware models as needed.
//!
//! The workbench is `Send + Sync`: each trace is ingested once into a
//! shared [`TraceStore`]'s data-reference columns and every memoized run
//! sits behind a per-key
//! [`OnceLock`], so the (protocol × trace × filter) matrix can be fanned
//! out over threads with [`Workbench::warm`] while later lookups stay
//! lock-free reads of the same `Arc`s. Results are deterministic: a run's
//! counters depend only on (profile, seed, protocol, filter), never on
//! which thread computed them or in what order.
//!
//! # Observability
//!
//! Every actually-executed run records its internal phases (`generate`,
//! the one-pass ingest of generation, interning and columns; `filter`;
//! `intern`, the replay stream; `replay`) into a shared
//! [`SpanLog`] — the single
//! timing path: the per-run wall-clock summary ([`Workbench::timings`],
//! [`Workbench::timing_summary`]) is derived from the `replay` spans, and
//! the whole log exports as Chrome trace-event JSON via `dircc profile`.
//! With [`Workbench::with_window`], each run additionally samples counter
//! deltas every K references ([`RunConfig::window`]) into a [`RunSeries`];
//! counters stay bit-identical (pinned by tests and the `benchcmp` gate).

use crate::engine::{run_indexed, RunConfig};
use crate::metrics::Evaluation;
use crate::par::par_map_indexed;
use dircc_core::{EventCounters, ProtocolKind};
use dircc_obs::{RunMeta, SpanLog, WindowSample};
use dircc_trace::gen::Profile;
use dircc_trace::stats::RefCounts;
use dircc_trace::store::TraceStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

pub use dircc_trace::store::TraceFilter;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    kind: ProtocolKind,
    trace: usize,
    filter: TraceFilter,
}

/// The stable label a [`TraceFilter`] carries in reports, span metadata
/// and JSONL output.
pub fn filter_label(filter: TraceFilter) -> &'static str {
    match filter {
        TraceFilter::Full => "full",
        TraceFilter::ExcludeLockSpins => "no-spins",
    }
}

/// Inverse of [`filter_label`].
pub fn filter_from_label(label: &str) -> Option<TraceFilter> {
    TraceFilter::ALL.into_iter().find(|f| filter_label(*f) == label)
}

/// Wall-clock record of one actually-executed simulation run, derived
/// from its `replay` span.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Protocol display name.
    pub scheme: String,
    /// Trace name (e.g. `POPS`).
    pub trace: String,
    /// Filter the run used.
    pub filter: TraceFilter,
    /// References replayed.
    pub refs: u64,
    /// Wall-clock duration of the replay.
    pub wall: Duration,
}

/// The windowed time series of one actually-executed run.
#[derive(Debug, Clone)]
pub struct RunSeries {
    /// Taxonomy point of the run.
    pub kind: ProtocolKind,
    /// Protocol display name.
    pub scheme: String,
    /// Trace index.
    pub trace: usize,
    /// Trace name.
    pub trace_name: String,
    /// Filter the run used.
    pub filter: TraceFilter,
    /// Total references replayed.
    pub refs: u64,
    /// Counter deltas per window; they partition the run, so merging
    /// them reconstructs the run's final [`EventCounters`] exactly.
    pub windows: Vec<WindowSample>,
}

impl RunTiming {
    /// Replay throughput in references per second.
    ///
    /// Returns `0.0` when the measured wall time is zero (a sub-tick
    /// replay) — never `inf`/`NaN`, so the value is always representable
    /// in JSON bench reports.
    pub fn refs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.refs as f64 / self.wall.as_secs_f64()
    }
}

/// Shared experiment state: profiles, the generate-once trace store, and
/// memoized runs.
#[derive(Debug)]
pub struct Workbench {
    store: Arc<TraceStore>,
    memo: Mutex<HashMap<MemoKey, Arc<OnceLock<Arc<EventCounters>>>>>,
    spans: SpanLog,
    /// Window size in references (0 = no time series).
    window: u64,
    series: Mutex<Vec<RunSeries>>,
}

impl Workbench {
    /// Creates the paper's workbench: POPS, THOR and PERO profiles at their
    /// full scale (~3.2-3.5M references each).
    pub fn paper(seed: u64) -> Self {
        Self::with_profiles(Profile::paper_suite(), seed)
    }

    /// Creates the paper's workbench with every trace truncated to
    /// `total_refs` references (for fast tests and smoke runs).
    pub fn paper_scaled(total_refs: u64, seed: u64) -> Self {
        let profiles =
            Profile::paper_suite().into_iter().map(|p| p.with_total_refs(total_refs)).collect();
        Self::with_profiles(profiles, seed)
    }

    /// Creates a workbench over arbitrary profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the profiles disagree on CPU count.
    pub fn with_profiles(profiles: Vec<Profile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one trace profile");
        assert!(
            profiles.windows(2).all(|w| w[0].cpus == w[1].cpus),
            "profiles must agree on CPU count"
        );
        Self::with_store(Arc::new(TraceStore::new(profiles, seed)))
    }

    /// Creates a workbench over an already-built (possibly shared)
    /// [`TraceStore`]. Repeated bench runs hand each fresh workbench the
    /// same store, so trace generation, interning and SoA splits are paid
    /// once while the run memo — and thus the measured replay — starts
    /// cold every repeat.
    pub fn with_store(store: Arc<TraceStore>) -> Self {
        assert!(store.num_traces() > 0, "need at least one trace profile");
        Workbench {
            store,
            memo: Mutex::new(HashMap::new()),
            spans: SpanLog::new(),
            window: 0,
            series: Mutex::new(Vec::new()),
        }
    }

    /// Enables windowed time-series recording: every subsequently executed
    /// run samples its counter delta each `window` references (plus a
    /// partial tail window) into a [`RunSeries`].
    ///
    /// Counters are unaffected — the windowed replay is bit-identical to
    /// the plain one.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window > 0, "window size must be at least 1 reference");
        self.window = window;
        self
    }

    /// Number of caches (= CPUs) in the simulated machine.
    pub fn n_caches(&self) -> usize {
        usize::from(self.store.profiles()[0].cpus)
    }

    /// Trace names in order (e.g. `POPS`, `THOR`, `PERO`).
    pub fn trace_names(&self) -> Vec<String> {
        self.store.profiles().iter().map(|p| p.name.to_string()).collect()
    }

    /// Number of traces.
    pub fn num_traces(&self) -> usize {
        self.store.num_traces()
    }

    /// The trace profiles.
    pub fn profiles(&self) -> &[Profile] {
        self.store.profiles()
    }

    /// The shared trace store (ingest-once data-reference columns).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Table 3's counts of one trace, taken by the store's ingest.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn trace_stats(&self, trace: usize) -> RefCounts {
        self.store.counts(trace)
    }

    /// Event frequencies for one protocol on one trace (memoized; this is
    /// the paper's "one simulation run per protocol").
    ///
    /// Thread-safe and exactly-once per key: concurrent callers of the same
    /// (protocol, trace, filter) triple block on one [`OnceLock`] while a
    /// single replay runs.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or the replay itself fails (a
    /// protocol invariant bug — not an expected runtime condition).
    pub fn counters(
        &self,
        kind: ProtocolKind,
        trace: usize,
        filter: TraceFilter,
    ) -> Arc<EventCounters> {
        let key = MemoKey { kind, trace, filter };
        let cell = {
            let mut memo = self.memo.lock().expect("memo poisoned");
            Arc::clone(memo.entry(key).or_default())
        };
        cell.get_or_init(|| {
            // The paper classifies sharing per process ("a block is
            // considered shared only if it is accessed by more than one
            // process"), which excludes migration-induced sharing from the
            // study.
            let cfg =
                RunConfig { window: self.window, ..RunConfig::default().with_process_sharing() };
            let scheme = kind.display_name(self.n_caches());
            let trace_name = self.store.profiles()[trace].name.to_string();
            let meta = |refs: u64| RunMeta {
                scheme: scheme.clone(),
                trace: trace_name.clone(),
                filter: filter_label(filter).to_string(),
                refs,
                request: None,
            };
            // Phase spans wrap the store calls even when they hit warm
            // memos (duration ~0 then), so every executed run contributes
            // all four phases to the exported trace. `generate` is the
            // store's one pass over the generator: blocks interned to
            // dense u32 ids and data references appended to flat columns
            // as records stream by; `filter` derives the no-spins columns
            // from the full ones.
            let g = cfg.geometry;
            let _ = self.spans.time("generate", Some(meta(0)), || self.store.interner(trace, g));
            let _ = self.spans.time("filter", Some(meta(0)), || self.store.data(trace, filter, g));
            // The replay stream picks the sharing model's cache column;
            // the replay loop then runs with zero hashing and every
            // per-block table pre-sized. Bit-identical to un-interned
            // replay (renaming is a bijection; pinned by the engine's
            // equality tests). Built inside the intern span so replay
            // spans time replay work only.
            let soa = self
                .spans
                .time("intern", Some(meta(0)), || self.store.soa(trace, filter, g, cfg.sharing));
            let timer = self.spans.start();
            let mut result =
                run_indexed(kind, self.n_caches(), &soa, &cfg).expect("trace replay failed");
            self.spans.finish(timer, "replay", Some(meta(result.refs)));
            if cfg.window > 0 {
                self.series.lock().expect("series poisoned").push(RunSeries {
                    kind,
                    scheme: scheme.clone(),
                    trace,
                    trace_name: trace_name.clone(),
                    filter,
                    refs: result.refs,
                    windows: std::mem::take(&mut result.windows),
                });
            }
            Arc::new(result.counters)
        })
        .clone()
    }

    /// The shared span log — every phase of every executed run.
    pub fn span_log(&self) -> &SpanLog {
        &self.spans
    }

    /// Snapshot of the windowed time series collected so far (empty unless
    /// the workbench was built [`with_window`](Self::with_window)), in
    /// completion order.
    pub fn time_series(&self) -> Vec<RunSeries> {
        self.series.lock().expect("series poisoned").clone()
    }

    /// An [`Evaluation`] for one protocol on one trace.
    pub fn evaluation(&self, kind: ProtocolKind, trace: usize, filter: TraceFilter) -> Evaluation {
        let counters = self.counters(kind, trace, filter);
        Evaluation::new(
            kind.display_name(self.n_caches()),
            kind,
            self.n_caches(),
            (*counters).clone(),
        )
    }

    /// Evaluations of one protocol across every trace (paper order).
    pub fn evaluations(&self, kind: ProtocolKind, filter: TraceFilter) -> Vec<Evaluation> {
        (0..self.num_traces()).map(|t| self.evaluation(kind, t, filter)).collect()
    }

    /// Merged counters of one protocol across all traces (for quantities
    /// like Figure 1's histogram that the paper aggregates).
    pub fn merged_counters(&self, kind: ProtocolKind, filter: TraceFilter) -> EventCounters {
        let mut merged = EventCounters::new();
        for t in 0..self.num_traces() {
            merged.merge(&self.counters(kind, t, filter));
        }
        merged
    }

    /// The four schemes of the paper's main evaluation
    /// ([`PAPER_KINDS`](dircc_core::PAPER_KINDS)).
    pub fn paper_kinds(&self) -> [ProtocolKind; 4] {
        dircc_core::PAPER_KINDS
    }

    /// Every (protocol, filter) pair the full paper pipeline (`dircc all`)
    /// measures, in paper order — the work list [`Workbench::warm`] fans
    /// out.
    pub fn paper_workload(&self) -> Vec<(ProtocolKind, TraceFilter)> {
        let n = self.n_caches() as u32;
        let mut work: Vec<(ProtocolKind, TraceFilter)> = Vec::new();
        // Tables 4-5, Figures 1-5, §5 system study: the four headline
        // schemes on the full traces.
        for kind in self.paper_kinds() {
            work.push((kind, TraceFilter::Full));
        }
        // §5.2 spin-lock exclusion: Dir1NB and Dir0B on the filtered trace.
        work.push((ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins));
        work.push((ProtocolKind::Dir0B, TraceFilter::ExcludeLockSpins));
        // §5 Berkeley aside.
        work.push((ProtocolKind::Berkeley, TraceFilter::Full));
        // §6 scalability: the DiriNB / DiriB sweeps and the coded set.
        for i in 1..=n {
            work.push((ProtocolKind::DirNb { pointers: i }, TraceFilter::Full));
        }
        for i in 1..n {
            work.push((ProtocolKind::DirB { pointers: i }, TraceFilter::Full));
        }
        work.push((ProtocolKind::CodedSet, TraceFilter::Full));
        let mut seen = std::collections::HashSet::new();
        work.retain(|w| seen.insert(*w));
        work
    }

    /// Fans the (protocol × trace × filter) counter matrix out over
    /// `jobs` worker threads, filling the memo so later experiment code
    /// hits warm caches only.
    ///
    /// Deterministic: counters depend only on (profile, seed, protocol,
    /// filter), so `jobs = 1` and `jobs = 8` produce bit-identical
    /// [`EventCounters`]; only wall-clock changes. Output order is
    /// unaffected because experiments print from the memo afterwards.
    ///
    /// Returns the number of runs actually executed (cache misses).
    pub fn warm(&self, kinds: &[(ProtocolKind, TraceFilter)], jobs: usize) -> usize {
        // Work items: every (kind, filter) × trace, deduped preserving order.
        let mut items: Vec<(ProtocolKind, usize, TraceFilter)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(kind, filter) in kinds {
            for trace in 0..self.num_traces() {
                if seen.insert((kind, trace, filter)) {
                    items.push((kind, trace, filter));
                }
            }
        }
        let before = self.executed_runs();
        // Ingest traces first so workers contend on simulation only, not
        // on the store's per-trace OnceLocks.
        for &(_, trace, filter) in &items {
            let _ = self.store.data(trace, filter, RunConfig::default().geometry);
        }
        par_map_indexed(items.len(), jobs, |i| {
            let (kind, trace, filter) = items[i];
            let _ = self.counters(kind, trace, filter);
        });
        self.executed_runs() - before
    }

    /// Number of simulation runs actually executed so far (memo misses).
    pub fn executed_runs(&self) -> usize {
        self.spans.spans().iter().filter(|s| s.name == "replay").count()
    }

    /// Snapshot of per-run wall-clock timings, in completion order,
    /// derived from the span log's `replay` spans.
    pub fn timings(&self) -> Vec<RunTiming> {
        self.spans
            .spans()
            .into_iter()
            .filter(|s| s.name == "replay")
            .filter_map(|s| {
                let meta = s.meta?;
                Some(RunTiming {
                    scheme: meta.scheme,
                    trace: meta.trace,
                    filter: filter_from_label(&meta.filter)?,
                    refs: meta.refs,
                    wall: s.dur,
                })
            })
            .collect()
    }

    /// Renders the end-of-run observability table: one line per executed
    /// simulation run (scheme, trace, filter, refs, wall, refs/sec) plus a
    /// totals row. Empty string if nothing ran.
    pub fn timing_summary(&self) -> String {
        let timings = self.timings();
        if timings.is_empty() {
            return String::new();
        }
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run timings ({} simulation runs):", timings.len());
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:<9} {:>10} {:>10} {:>12}",
            "scheme", "trace", "filter", "refs", "wall ms", "refs/sec"
        );
        let mut total_refs = 0u64;
        let mut total_wall = Duration::ZERO;
        for t in &timings {
            let filter = filter_label(t.filter);
            let _ = writeln!(
                out,
                "  {:<10} {:<6} {:<9} {:>10} {:>10.1} {:>12.0}",
                t.scheme,
                t.trace,
                filter,
                t.refs,
                t.wall.as_secs_f64() * 1e3,
                t.refs_per_sec()
            );
            total_refs += t.refs;
            total_wall += t.wall;
        }
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:<9} {:>10} {:>10.1} {:>12}",
            "total",
            "",
            "",
            total_refs,
            total_wall.as_secs_f64() * 1e3,
            "(cpu time)"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workbench {
        Workbench::paper_scaled(20_000, 7)
    }

    #[test]
    fn paper_workbench_has_three_traces() {
        let wb = small();
        assert_eq!(wb.trace_names(), vec!["POPS", "THOR", "PERO"]);
        assert_eq!(wb.n_caches(), 4);
        assert_eq!(wb.num_traces(), 3);
    }

    #[test]
    fn workbench_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workbench>();
    }

    #[test]
    fn memoization_returns_same_counters() {
        let wb = small();
        let a = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        let b = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the memo");
        assert_eq!(wb.timings().len(), 1, "one run executed, one timing");
    }

    #[test]
    fn filtered_runs_differ_from_full_runs() {
        let wb = small();
        let full = wb.counters(ProtocolKind::DirNb { pointers: 1 }, 0, TraceFilter::Full);
        let filt =
            wb.counters(ProtocolKind::DirNb { pointers: 1 }, 0, TraceFilter::ExcludeLockSpins);
        assert!(filt.total() < full.total(), "lock spins removed");
        assert!(filt.rm() < full.rm(), "Dir1NB loses its lock ping-pong misses");
    }

    #[test]
    fn evaluation_names_follow_paper() {
        let wb = small();
        let e = wb.evaluation(ProtocolKind::DirNb { pointers: 4 }, 0, TraceFilter::Full);
        assert_eq!(e.name, "DirnNB");
    }

    #[test]
    fn merged_counters_sum_traces() {
        let wb = small();
        let merged = wb.merged_counters(ProtocolKind::Wti, TraceFilter::Full);
        assert_eq!(merged.total(), 60_000);
    }

    #[test]
    fn trace_stats_are_memoized_and_sized() {
        let wb = small();
        let s1 = wb.trace_stats(1);
        assert_eq!(wb.trace_stats(1), s1);
        assert_eq!(wb.store().generations(), 1, "Table 3 counts come with the ingest");
        assert_eq!(s1.total, 20_000);
    }

    #[test]
    fn warm_parallel_matches_sequential_bit_for_bit() {
        let work = [
            (ProtocolKind::Dir0B, TraceFilter::Full),
            (ProtocolKind::Wti, TraceFilter::Full),
            (ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins),
            (ProtocolKind::Dragon, TraceFilter::Full),
        ];
        let seq = Workbench::paper_scaled(8_000, 11);
        let par = Workbench::paper_scaled(8_000, 11);
        assert_eq!(seq.warm(&work, 1), par.warm(&work, 8), "same cache-miss count");
        for &(kind, filter) in &work {
            for t in 0..seq.num_traces() {
                assert_eq!(
                    *seq.counters(kind, t, filter),
                    *par.counters(kind, t, filter),
                    "{kind} trace {t} {filter:?} diverged across jobs"
                );
            }
        }
    }

    #[test]
    fn warm_generates_each_trace_once() {
        let wb = small();
        let executed = wb.warm(&wb.paper_workload(), 8);
        assert!(executed > 0);
        assert_eq!(wb.store().generations(), wb.num_traces() as u64);
        // Warming again is a no-op: everything is memoized.
        assert_eq!(wb.warm(&wb.paper_workload(), 8), 0);
        assert_eq!(wb.store().generations(), wb.num_traces() as u64);
    }

    #[test]
    fn timing_summary_mentions_every_run() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        let s = wb.timing_summary();
        assert!(s.contains("Dir0B"));
        assert!(s.contains("POPS"));
        assert!(s.contains("refs/sec"));
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_profiles_rejected() {
        let _ = Workbench::with_profiles(vec![], 0);
    }

    #[test]
    fn filter_labels_round_trip() {
        for f in TraceFilter::ALL {
            assert_eq!(filter_from_label(filter_label(f)), Some(f));
        }
        assert_eq!(filter_from_label("bogus"), None);
    }

    #[test]
    fn every_executed_run_records_all_four_phases() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Wti, 2, TraceFilter::Full);
        let spans = wb.span_log().spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["generate", "filter", "intern", "replay"]);
        let replay = spans.last().unwrap();
        let meta = replay.meta.as_ref().unwrap();
        assert_eq!(meta.scheme, "WTI");
        assert_eq!(meta.trace, "PERO");
        assert_eq!(meta.filter, "full");
        assert_eq!(meta.refs, 20_000);
    }

    #[test]
    fn windowed_workbench_is_bit_identical_and_series_sums() {
        let work = [
            (ProtocolKind::Dir0B, TraceFilter::Full),
            (ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins),
        ];
        let plain = Workbench::paper_scaled(9_000, 3);
        let windowed = Workbench::paper_scaled(9_000, 3).with_window(1_000);
        plain.warm(&work, 2);
        windowed.warm(&work, 2);
        let series = windowed.time_series();
        assert_eq!(series.len(), 2 * plain.num_traces());
        for &(kind, filter) in &work {
            for t in 0..plain.num_traces() {
                let a = plain.counters(kind, t, filter);
                let b = windowed.counters(kind, t, filter);
                assert_eq!(*a, *b, "windowed replay must not perturb counters");
                let s = series
                    .iter()
                    .find(|s| s.kind == kind && s.trace == t && s.filter == filter)
                    .expect("every run leaves a series");
                let mut sum = EventCounters::new();
                for w in &s.windows {
                    sum.merge(&w.counters);
                }
                assert_eq!(sum, *b, "window deltas must reconstruct the final counters");
                assert_eq!(s.windows.iter().map(|w| w.refs()).sum::<u64>(), s.refs);
            }
        }
    }

    #[test]
    fn plain_workbench_collects_no_series() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        assert!(wb.time_series().is_empty());
    }

    #[test]
    fn refs_per_sec_is_finite_even_for_zero_wall() {
        let t = RunTiming {
            scheme: "Dir0B".into(),
            trace: "POPS".into(),
            filter: TraceFilter::Full,
            refs: 1_000,
            wall: Duration::ZERO,
        };
        assert_eq!(t.refs_per_sec(), 0.0, "zero wall must not produce inf");
        assert!(t.refs_per_sec().is_finite());
        let t = RunTiming { wall: Duration::from_millis(500), ..t };
        assert_eq!(t.refs_per_sec(), 2_000.0);
    }
}
