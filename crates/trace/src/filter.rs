//! Stream adaptors over trace records.
//!
//! The paper's §5.2 experiment re-runs the simulations "excluding all the
//! tests on locks"; [`exclude_lock_spins`] reproduces that transformation.
//! [`remap_cpu_to_process`] supports the paper's process-sharing model by
//! re-homing each reference onto a virtual per-process cache.

use crate::record::TraceRecord;
use dircc_types::CpuId;

/// Removes lock-test reads (spins) from a record stream, keeping lock
/// writes (the test-and-set itself) and everything else.
///
/// This is exactly the §5.2 transformation: spins are the *first test* in a
/// test-and-test-and-set, and appear in the trace as flagged reads.
///
/// ```
/// use dircc_trace::filter::exclude_lock_spins;
/// use dircc_trace::{RecordFlags, TraceRecord};
/// use dircc_types::{AccessKind, Address, CpuId, ProcessId};
///
/// let spin = TraceRecord::new(CpuId::new(0), ProcessId::new(0), AccessKind::Read, Address::new(0))
///     .with_flags(RecordFlags::LOCK);
/// let write = TraceRecord::new(CpuId::new(0), ProcessId::new(0), AccessKind::Write, Address::new(0))
///     .with_flags(RecordFlags::LOCK);
/// let out: Vec<_> = exclude_lock_spins([spin, write]).collect();
/// assert_eq!(out, vec![write]);
/// ```
pub fn exclude_lock_spins<I>(records: I) -> impl Iterator<Item = TraceRecord>
where
    I: IntoIterator<Item = TraceRecord>,
{
    records.into_iter().filter(|r| !r.is_lock_spin())
}

/// Rewrites each record's CPU to its process id, so that a simulator keyed
/// on CPUs effectively simulates one cache per *process*.
///
/// The paper classifies sharing between processes rather than processors
/// ("a block is considered shared only if it is accessed by more than one
/// process"); with rare migration the two give nearly identical numbers,
/// which integration tests verify.
pub fn remap_cpu_to_process<I>(records: I) -> impl Iterator<Item = TraceRecord>
where
    I: IntoIterator<Item = TraceRecord>,
{
    records.into_iter().map(|mut r| {
        r.cpu = CpuId::new(r.pid.raw());
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFlags;
    use dircc_types::{AccessKind, Address, ProcessId};

    fn rec(cpu: u16, pid: u16, kind: AccessKind, flags: RecordFlags) -> TraceRecord {
        TraceRecord::new(CpuId::new(cpu), ProcessId::new(pid), kind, Address::new(0x40))
            .with_flags(flags)
    }

    #[test]
    fn exclude_lock_spins_keeps_lock_writes() {
        let recs = vec![
            rec(0, 0, AccessKind::Read, RecordFlags::LOCK),
            rec(0, 0, AccessKind::Write, RecordFlags::LOCK),
            rec(0, 0, AccessKind::Read, RecordFlags::NONE),
            rec(0, 0, AccessKind::InstrFetch, RecordFlags::NONE),
        ];
        let out: Vec<_> = exclude_lock_spins(recs).collect();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| !r.is_lock_spin()));
    }

    #[test]
    fn remap_rehomes_on_pid() {
        let out: Vec<_> =
            remap_cpu_to_process([rec(3, 7, AccessKind::Read, RecordFlags::NONE)]).collect();
        assert_eq!(out[0].cpu, CpuId::new(7));
        assert_eq!(out[0].pid, ProcessId::new(7));
    }
}
