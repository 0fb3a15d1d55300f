//! # dircc
//!
//! A full reproduction of *"An Evaluation of Directory Schemes for Cache
//! Coherence"* (Anant Agarwal, Richard Simoni, John Hennessy, Mark
//! Horowitz — ISCA 1988) as a Rust library suite.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`types`] — addresses, block geometry, cache/CPU/process ids;
//! * [`trace`] — trace records, the v2 trace format, statistics and the
//!   synthetic workload generator standing in for the paper's ATUM traces;
//! * [`cache`] — infinite and finite cache tag stores;
//! * [`core`] — the protocols: the `Dir_i_B` / `Dir_i_NB` directory
//!   taxonomy (`Dir1NB`, `DiriNB`, `DirnNB`, `Dir0B`, `DiriB`, coded-set,
//!   Tang, Yen-Fu) and the snoopy comparison points (WTI, Dragon,
//!   Berkeley);
//! * [`bus`] — the paper's pipelined and non-pipelined bus cost models;
//! * [`obs`] — observability: windowed time series, span profiling,
//!   structured export and the JSON parser;
//! * [`check`] — bounded exhaustive model checking of every protocol
//!   (SWMR, directory/cache agreement, and data-value coherence through
//!   the [`ValueModel`](check::ValueModel) the replay verifier shares);
//! * [`sim`] — the replay engine, metrics and the experiment runners that
//!   regenerate every table and figure.
//!
//! # Quickstart
//!
//! Compare `Dir0B` against Dragon on a synthetic POPS-like trace:
//!
//! ```
//! use dircc::bus::{CostConfig, CostModel};
//! use dircc::core::ProtocolKind;
//! use dircc::sim::{TraceFilter, Workbench};
//!
//! let wb = Workbench::paper_scaled(50_000, 42);
//! let dir0b = wb.evaluation(ProtocolKind::Dir0B, 0, TraceFilter::Full);
//! let dragon = wb.evaluation(ProtocolKind::Dragon, 0, TraceFilter::Full);
//! let m = CostModel::pipelined();
//! let c = CostConfig::PAPER;
//! assert!(dir0b.cycles_per_ref(&m, &c) > dragon.cycles_per_ref(&m, &c));
//! ```

pub use dircc_bus as bus;
pub use dircc_cache as cache;
pub use dircc_check as check;
pub use dircc_core as core;
pub use dircc_obs as obs;
pub use dircc_serve as serve;
pub use dircc_sim as sim;
pub use dircc_trace as trace;
pub use dircc_types as types;
