//! # dircc-obs
//!
//! Observability for the dircc replay engine and workbench, built so the
//! hot path pays nothing when it is off.
//!
//! The paper's methodology reduces every protocol to end-of-run event
//! frequencies — one [`EventCounters`](dircc_core::EventCounters) per
//! (scheme, trace, filter) run. That answers aggregate questions only.
//! This crate adds the time axis back without touching the aggregate
//! numbers:
//!
//! * [`WindowedRecorder`] — samples counter *deltas* every K references,
//!   yielding a time-resolved miss mix, traffic trajectory, and
//!   write-to-clean invalidation fan-out histogram per window. The window
//!   deltas partition the run: summed, they reconstruct the final
//!   [`EventCounters`](dircc_core::EventCounters) exactly. The replay
//!   engine keeps one only while `RunConfig::window` (`dircc-sim`) is set.
//! * [`SpanLog`] — a thread-safe wall-clock span collector for the
//!   workbench's internal phases (generate / filter / intern / replay /
//!   price), exportable as Chrome trace-event JSON loadable in Perfetto
//!   or `chrome://tracing`.
//! * [`export`] — the structured sinks: Chrome trace-event JSON for spans
//!   and a JSONL schema for the windowed time series (documented in
//!   `EXPERIMENTS.md`), with the one JSON string [`escape`];
//! * [`json`] — the one JSON parser (job bodies, bench reports).
//! * [`metrics`] — lock-free runtime telemetry: atomic counters, gauges
//!   and log-linear latency histograms in a
//!   [`MetricsRegistry`], rendered as Prometheus text exposition (the
//!   serve daemon's `GET /metrics`) and parseable back with
//!   [`parse_exposition`] (`dircc top`).
//!
//! # Example
//!
//! Windowed recording around a counter stream:
//!
//! ```
//! use dircc_core::{Event, EventCounters, Outcome};
//! use dircc_obs::WindowedRecorder;
//!
//! let mut counters = EventCounters::new();
//! let mut rec = WindowedRecorder::new(2);
//! for refs in 1..=5u64 {
//!     counters.observe(&Outcome::quiet(Event::ReadHit));
//!     rec.record(refs, &counters);
//! }
//! let samples = rec.finish(5, &counters);
//! assert_eq!(samples.len(), 3, "two full windows plus the remainder");
//! let total: u64 = samples.iter().map(|s| s.counters.total()).sum();
//! assert_eq!(total, counters.total(), "window deltas partition the run");
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use export::{chrome_trace, counters_json, escape, window_jsonl_line};
pub use json::Json;
pub use metrics::{
    parse_exposition, samples_sum, Counter, Gauge, Histogram, MetricsRegistry, Sample,
};
pub use recorder::{WindowSample, WindowedRecorder};
pub use span::{RunMeta, Span, SpanLog, SpanTimer};
