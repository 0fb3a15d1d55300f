//! Reference-stream statistics (the Table 3 columns, and more).
//!
//! [`RefCounts`] holds the counts Table 3 reports: total references,
//! instruction fetches, data reads, data writes, the user/system split and
//! lock spins (§4.4 reports roughly one third of reads in POPS and THOR
//! are spins). The trace store takes them while it ingests a trace.
//! [`TraceStats`] adds the quantities that need a set per trace: distinct
//! data blocks (first-reference misses), processes and per-CPU reference
//! counts.

use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockGeometry, CpuId, ProcessId};
use std::collections::{HashMap, HashSet};

/// Reference counts by kind, mode and lock use: Table 3's columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCounts {
    /// References.
    pub total: u64,
    /// Instruction fetches.
    pub instr: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// References issued by system code.
    pub system: u64,
    /// References that touched a lock word.
    pub lock_refs: u64,
    /// Lock-test reads (spins).
    pub lock_spin_reads: u64,
}

impl RefCounts {
    /// Accounts for one record.
    pub fn observe(&mut self, r: &TraceRecord) {
        self.total += 1;
        match r.kind {
            AccessKind::InstrFetch => self.instr += 1,
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.system += u64::from(r.flags.is_system());
        self.lock_refs += u64::from(r.flags.is_lock());
        self.lock_spin_reads += u64::from(r.is_lock_spin());
    }

    /// Fraction of data reads that are lock spins (§4.4: roughly one third
    /// in POPS and THOR).
    pub fn spin_fraction_of_reads(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.lock_spin_reads as f64 / self.reads as f64
        }
    }
}

/// Accumulated statistics over a trace.
///
/// Build one by [`Extend`]ing/[`FromIterator`]-collecting records into it,
/// or by calling [`TraceStats::observe`] per record.
#[derive(Debug, Clone)]
pub struct TraceStats {
    geometry: BlockGeometry,
    counts: RefCounts,
    per_cpu: HashMap<CpuId, u64>,
    processes: HashSet<ProcessId>,
    data_blocks: HashSet<u64>,
}

impl TraceStats {
    /// Creates empty statistics using the paper's block geometry.
    pub fn new() -> Self {
        Self::with_geometry(BlockGeometry::PAPER)
    }

    /// Creates empty statistics with an explicit block geometry.
    pub fn with_geometry(geometry: BlockGeometry) -> Self {
        TraceStats {
            geometry,
            counts: RefCounts::default(),
            per_cpu: HashMap::new(),
            processes: HashSet::new(),
            data_blocks: HashSet::new(),
        }
    }

    /// Accounts for one record.
    pub fn observe(&mut self, r: &TraceRecord) {
        self.counts.observe(r);
        *self.per_cpu.entry(r.cpu).or_insert(0) += 1;
        self.processes.insert(r.pid);
        if r.is_data() {
            self.data_blocks.insert(self.geometry.block_of(r.addr).index());
        }
    }

    /// Total number of references.
    pub fn total(&self) -> u64 {
        self.counts.total
    }

    /// Number of instruction fetches.
    pub fn instr(&self) -> u64 {
        self.counts.instr
    }

    /// Number of data reads.
    pub fn reads(&self) -> u64 {
        self.counts.reads
    }

    /// Number of data writes.
    pub fn writes(&self) -> u64 {
        self.counts.writes
    }

    /// Number of references issued by system code.
    pub fn system(&self) -> u64 {
        self.counts.system
    }

    /// Number of references issued by user code.
    pub fn user(&self) -> u64 {
        self.counts.total - self.counts.system
    }

    /// Number of references that touched a lock word.
    pub fn lock_refs(&self) -> u64 {
        self.counts.lock_refs
    }

    /// Number of lock-test reads (spins).
    pub fn lock_spin_reads(&self) -> u64 {
        self.counts.lock_spin_reads
    }

    /// Number of distinct data blocks referenced (equals the count of
    /// first-reference misses in an infinite cache).
    pub fn distinct_data_blocks(&self) -> usize {
        self.data_blocks.len()
    }

    /// Number of distinct processes observed.
    pub fn distinct_processes(&self) -> usize {
        self.processes.len()
    }

    /// References issued by one CPU.
    pub fn refs_for_cpu(&self, cpu: CpuId) -> u64 {
        self.per_cpu.get(&cpu).copied().unwrap_or(0)
    }

    /// Number of distinct CPUs observed.
    pub fn distinct_cpus(&self) -> usize {
        self.per_cpu.len()
    }

    /// Fraction of references that are instruction fetches.
    pub fn instr_fraction(&self) -> f64 {
        self.frac(self.counts.instr)
    }

    /// Fraction of references that are data reads.
    pub fn read_fraction(&self) -> f64 {
        self.frac(self.counts.reads)
    }

    /// Fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        self.frac(self.counts.writes)
    }

    /// Fraction of references issued by system code.
    pub fn system_fraction(&self) -> f64 {
        self.frac(self.counts.system)
    }

    /// Ratio of data reads to data writes.
    pub fn read_write_ratio(&self) -> f64 {
        if self.counts.writes == 0 {
            f64::INFINITY
        } else {
            self.counts.reads as f64 / self.counts.writes as f64
        }
    }

    /// Fraction of data reads that are lock spins (§4.4: roughly one third
    /// in POPS and THOR).
    pub fn spin_fraction_of_reads(&self) -> f64 {
        self.counts.spin_fraction_of_reads()
    }

    fn frac(&self, n: u64) -> f64 {
        if self.counts.total == 0 {
            0.0
        } else {
            n as f64 / self.counts.total as f64
        }
    }
}

impl Default for TraceStats {
    fn default() -> Self {
        TraceStats::new()
    }
}

impl Extend<TraceRecord> for TraceStats {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        for r in iter {
            self.observe(&r);
        }
    }
}

impl FromIterator<TraceRecord> for TraceStats {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut s = TraceStats::new();
        s.extend(iter);
        s
    }
}

impl<'a> FromIterator<&'a TraceRecord> for TraceStats {
    fn from_iter<I: IntoIterator<Item = &'a TraceRecord>>(iter: I) -> Self {
        let mut s = TraceStats::new();
        for r in iter {
            s.observe(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFlags;
    use dircc_types::Address;

    fn rec(cpu: u16, pid: u16, kind: AccessKind, addr: u64) -> TraceRecord {
        TraceRecord::new(CpuId::new(cpu), ProcessId::new(pid), kind, Address::new(addr))
    }

    #[test]
    fn counts_and_fractions() {
        let recs = [
            rec(0, 0, AccessKind::InstrFetch, 0x100),
            rec(0, 0, AccessKind::Read, 0x200),
            rec(1, 1, AccessKind::Write, 0x200),
            rec(1, 1, AccessKind::Read, 0x210).with_flags(RecordFlags::LOCK),
            rec(1, 1, AccessKind::Write, 0x210).with_flags(RecordFlags::LOCK | RecordFlags::SYSTEM),
        ];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.total(), 5);
        assert_eq!(s.instr(), 1);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.system(), 1);
        assert_eq!(s.user(), 4);
        assert_eq!(s.lock_refs(), 2);
        assert_eq!(s.lock_spin_reads(), 1);
        assert_eq!(s.distinct_cpus(), 2);
        assert_eq!(s.distinct_processes(), 2);
        assert!((s.instr_fraction() - 0.2).abs() < 1e-12);
        assert!((s.spin_fraction_of_reads() - 0.5).abs() < 1e-12);
        assert!((s.read_write_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_blocks_use_geometry() {
        // 0x200 and 0x20c share a 16-byte block; 0x210 does not.
        let recs = [
            rec(0, 0, AccessKind::Read, 0x200),
            rec(0, 0, AccessKind::Read, 0x20c),
            rec(0, 0, AccessKind::Read, 0x210),
            rec(0, 0, AccessKind::InstrFetch, 0x1000),
        ];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.distinct_data_blocks(), 2, "instruction blocks are not counted");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TraceStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.instr_fraction(), 0.0);
        assert_eq!(s.spin_fraction_of_reads(), 0.0);
        assert!(s.read_write_ratio().is_infinite());
    }

    #[test]
    fn per_cpu_counts() {
        let recs = [rec(2, 0, AccessKind::Read, 0), rec(2, 0, AccessKind::Read, 4)];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.refs_for_cpu(CpuId::new(2)), 2);
        assert_eq!(s.refs_for_cpu(CpuId::new(0)), 0);
    }
}
