//! # dircc-sim
//!
//! Trace-driven simulation harness reproducing the evaluation of
//! *"An Evaluation of Directory Schemes for Cache Coherence"* (Agarwal,
//! Simoni, Hennessy, Horowitz — ISCA 1988).
//!
//! * [`engine`] — the one replay loop: structure-of-arrays batches
//!   (precomputed `kind`/`cache_idx`/`block_id`/`first_ref` arrays) from
//!   in-memory, streamed or sharded sources, replayed through
//!   any [`Protocol`](dircc_core::Protocol) — statically dispatched per
//!   scheme where the source allows — with an optional value-level
//!   coherence verifier;
//! * [`metrics`] — bus-cycles-per-reference and per-transaction metrics;
//! * [`workbench`] — the three synthetic paper traces plus memoized runs,
//!   with a [`Workbench::warm`](workbench::Workbench::warm) fan-out that
//!   fills the memo from worker threads, phase spans in a shared
//!   [`dircc_obs::SpanLog`], and optional windowed time series
//!   ([`Workbench::with_window`](workbench::Workbench::with_window));
//! * [`experiments`] — one runner per paper table, figure and study;
//! * [`par`] — the deterministic indexed parallel map the sweeps use;
//! * [`report`] — plain-text table/bar formatting.
//!
//! The `dircc` binary exposes each experiment as a subcommand.
//!
//! # Examples
//!
//! Replay a tiny migratory workload through `Dir0B` and price it:
//!
//! ```
//! use dircc_bus::{CostConfig, CostModel};
//! use dircc_core::{build, ProtocolKind};
//! use dircc_sim::engine::{run, RunConfig};
//! use dircc_sim::metrics::Evaluation;
//! use dircc_trace::gen::patterns;
//!
//! let mut p = build(ProtocolKind::Dir0B, 4);
//! let res = run(p.as_mut(), patterns::migratory(4, 100), &RunConfig::default())?;
//! let e = Evaluation::new(p.name(), p.kind(), 4, res.counters);
//! let cpr = e.cycles_per_ref(&CostModel::pipelined(), &CostConfig::PAPER);
//! assert!(cpr > 0.0);
//! # Ok::<(), String>(())
//! ```

pub mod busqueue;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod par;
pub mod report;
pub mod service;
pub mod workbench;

pub use engine::{
    run, run_chunked, run_chunked_many, run_indexed, run_sharded, run_sharded_with, shard_stream,
    RunConfig, RunResult, SharingModel,
};
pub use metrics::Evaluation;
pub use par::{default_jobs, par_map_indexed};
pub use service::{
    load_pool, profile_by_name, run_response_json, scheme_by_name, WorkbenchHandler,
};
pub use workbench::{
    filter_from_label, filter_label, RunSeries, RunTiming, TraceFilter, Workbench,
};
