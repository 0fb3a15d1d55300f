//! dircc-serve: a long-running simulation service.
//!
//! A std-only HTTP/1.1 JSON daemon — the build environment is offline,
//! so everything from request parsing to the threadpool is hand-rolled
//! on the standard library. The crate knows nothing about directory
//! schemes: simulation is injected through the [`JobHandler`] trait
//! (implemented by `dircc-sim`), which keeps the package graph acyclic.
//!
//! Routes:
//!
//! | route            | method | body                                          |
//! |------------------|--------|-----------------------------------------------|
//! | `/health`        | GET    | daemon status: uptime, queue, in-flight, cache|
//! | `/healthz`       | GET    | alias of `/health` (legacy)                   |
//! | `/metrics`       | GET    | Prometheus text exposition of all instruments |
//! | `/run`           | POST   | job → counters + evaluation JSON (LRU-cached) |
//! | `/series`        | POST   | job → windowed RunSeries as chunked JSONL     |
//! | `/spans`         | GET    | chrome-trace span export                      |
//! | `/shutdown`      | POST   | begin graceful drain                          |
//!
//! Backpressure: a bounded connection queue; 429 + `Retry-After` when
//! full. Caching: LRU on the canonical job config with single-flight
//! fills, so identical concurrent submissions run the workbench once.
//! Telemetry: every request carries an `x-request-id` (generated or
//! client-supplied) echoed on the response, in the structured stderr
//! log line ([`logger::Logger`]), and into span metadata; counters,
//! gauges and latency histograms ([`metrics::ServerMetrics`]) live on a
//! shared `dircc_obs::MetricsRegistry` scraped at `GET /metrics`.

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod logger;
pub mod metrics;
pub mod queue;
pub mod server;

pub use cache::{CacheCounters, Lru, Outcome, ResultCache};
pub use client::{request, request_with_headers, Response};
pub use dircc_obs::json::{self, Json};
pub use job::{JobError, JobSpec, DEFAULT_SEED, MAX_REFS, MAX_SPANS, MAX_WINDOWS};
pub use logger::{Level, LogValue, Logger};
pub use metrics::ServerMetrics;
pub use queue::{Bounded, PushError};
pub use server::{HandlerError, JobHandler, ServeConfig, ServeStats, Server};
