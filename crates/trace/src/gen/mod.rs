//! Synthetic multiprocessor workload generation.
//!
//! The paper drove its simulations with ATUM address traces of three real
//! parallel programs on a 4-CPU VAX 8350 under MACH:
//!
//! * **POPS** — a parallel OPS5 rule-based-language implementation,
//! * **THOR** — a parallel logic simulator,
//! * **PERO** — a parallel VLSI router.
//!
//! Those traces are unavailable, so this module generates the closest
//! synthetic equivalent: interleaved per-CPU reference streams produced by a
//! small model of parallel processes that compute privately, contend for
//! test-and-test-and-set spin locks, mutate lock-protected (migratory)
//! objects, read shared read-only tables, pass data through producer/
//! consumer queues, and occasionally trap into a shared operating system.
//! Every statistic the paper's results depend on is an explicit calibrated
//! knob of [`Profile`]:
//!
//! * ≈49.7% instruction fetches, ≈39.8% reads, ≈10.5% writes (Table 3/4);
//! * lock spins ≈⅓ of data reads for POPS/THOR (§4.4), far fewer for PERO;
//! * ≈10% operating-system references (§4.4);
//! * a small distinct-block working set so first-reference misses are a
//!   fraction of a percent of references (Table 4);
//! * single-digit sharer counts at invalidation time (Figure 1);
//! * rare process migration (§4.4: sharing is classified per process).
//!
//! Every replay of a generated trace generates it first, so the
//! per-reference path is kept short: each process holds the references
//! of one phase iteration, at most six, in an inline buffer, and each
//! geometric phase-length sampler takes `ln(1 − 1/mean)` once per
//! profile rather than once per draw. Neither moves a random draw: a
//! `(profile, seed)` pair yields the same records bit for bit, which
//! `tests/generator_digest.rs` pins with a digest of every record.
//!
//! [`patterns`] additionally provides tiny deterministic sharing kernels
//! (ping-pong, migratory, read-only sharing, producer/consumer…) used
//! throughout the workspace's unit tests, where exact event counts must be
//! predictable.

mod generator;
pub mod patterns;
mod process;
mod profile;
mod regions;

pub use generator::Generator;
pub use profile::{Profile, ProfileName};
pub use regions::Regions;

use crate::TraceRecord;

/// Generates a complete trace into memory.
///
/// Convenience for tests and small experiments; large traces should stream
/// through [`Generator`]'s iterator instead.
///
/// ```
/// use dircc_trace::gen::{generate, Profile};
///
/// let trace = generate(Profile::pero().with_total_refs(5_000), 7);
/// assert_eq!(trace.len(), 5_000);
/// ```
pub fn generate(profile: Profile, seed: u64) -> Vec<TraceRecord> {
    Generator::new(profile, seed).collect()
}
