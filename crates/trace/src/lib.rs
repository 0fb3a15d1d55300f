//! # dircc-trace
//!
//! Multiprocessor address traces for the dircc coherence study.
//!
//! The original paper drove its simulations with ATUM traces of three
//! parallel applications (POPS, THOR, PERO) captured on a 4-CPU VAX 8350
//! running MACH. Those traces are not available, so this crate provides the
//! closest synthetic equivalent (see [`gen`]) together with everything a
//! trace-driven simulator needs:
//!
//! * [`TraceRecord`] — one memory reference: CPU, process, kind, address,
//!   plus flags marking lock accesses (needed by the paper's §5.2 spin-lock
//!   experiment) and operating-system references (Table 3 reports a user/sys
//!   split).
//! * [`chunk`] — the one on-disk trace format, chunked v2: per-chunk
//!   delta + LEB128 address compression, a checksummed footer, and
//!   [`ChunkSource`] streaming, one replay batch per
//!   call, with memory bounded by a chunk's payload and one batch rather
//!   than the trace length. [`ChunkedWriter`] writes it and
//!   [`ChunkedReader`] (or [`open_trace`]) reads it.
//! * [`stats`] — reference-stream statistics reproducing Table 3.
//! * [`gen`] — the synthetic workload generator with calibrated profiles
//!   `pops`, `thor` and `pero`, plus primitive sharing kernels for tests.
//! * [`filter`] — stream adaptors, e.g. excluding lock-test reads (§5.2).
//! * [`store`] — ingest-once shared storage: each generated trace streams
//!   once per block geometry into data-reference columns, shared by every
//!   filter, sharing model and thread; records are regenerated on demand,
//!   never held.
//! * [`intern`] — dense block ids: a [`BlockInterner`]
//!   renames a stream's sparse block addresses to first-appearance-order
//!   `u32` ids so replay state lives in flat vectors instead of hash maps.
//! * [`shard`] — block-sharded sub-streams: a
//!   [`ShardedStream`] partitions a [`SoaStream`]
//!   into per-block shards (each its own [`SoaStream`], with shard-local
//!   renaming and global reference numbers) so one run can replay its
//!   shards in parallel and merge counters back bit-identically.
//! * [`soa`] — structure-of-arrays streams, the one in-memory trace
//!   representation: a [`DataRefs`] keeps a stream's data
//!   references in flat `kind`/`block_id`/`first_ref`/`cpu`/`pid` columns
//!   plus one bit per reference placing the instruction fetches, which are
//!   only counted, so replay touches no [`TraceRecord`]. A
//!   [`SoaStream`] adds the renaming and a sharing model;
//!   it is also the batch a streaming replay refills for every protocol.
//!
//! # Examples
//!
//! Generate a small POPS-like trace and count its references:
//!
//! ```
//! use dircc_trace::gen::{Generator, Profile};
//! use dircc_trace::stats::TraceStats;
//!
//! let mut g = Generator::new(Profile::pops().with_total_refs(10_000), 42);
//! let stats: TraceStats = g.by_ref().collect();
//! assert_eq!(stats.total(), 10_000);
//! assert!(stats.instr_fraction() > 0.4);
//! ```

pub mod chunk;
pub mod filter;
pub mod gen;
pub mod intern;
pub mod record;
pub mod shard;
pub mod sharing;
pub mod soa;
pub mod stats;
pub mod store;

pub use chunk::{open_trace, ChunkSource, ChunkedReader, ChunkedWriter, Records};
pub use intern::BlockInterner;
pub use record::{RecordFlags, TraceRecord};
pub use shard::{Shard, ShardedStream};
pub use soa::{DataRefs, SoaStream};
pub use store::{RecordStream, TraceFilter, TraceStore};
