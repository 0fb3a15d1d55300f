//! Trace records.

use core::fmt;
use dircc_types::{AccessKind, Address, CpuId, ProcessId};

/// Metadata flags attached to a [`TraceRecord`].
///
/// The ATUM traces let the paper's authors identify lock-test reads and
/// operating-system activity; synthetic traces carry the same information
/// explicitly so the §5.2 (spin-lock exclusion) and Table 3 (user/sys split)
/// experiments can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RecordFlags(u8);

impl RecordFlags {
    /// No flags set.
    pub const NONE: RecordFlags = RecordFlags(0);
    /// The reference touches a lock word (test or test-and-set).
    pub const LOCK: RecordFlags = RecordFlags(1);
    /// The reference was issued by operating-system code.
    pub const SYSTEM: RecordFlags = RecordFlags(2);
    /// Every defined flag; bits outside this mask are undefined.
    pub const ALL: RecordFlags = RecordFlags(3);

    /// Creates flags from their raw bit representation (unknown bits kept).
    ///
    /// Trust boundaries must reject undefined bits first, as the trace
    /// reader does: they would otherwise flow unnoticed into shard routing
    /// and filter decisions.
    #[inline]
    pub const fn from_bits(bits: u8) -> Self {
        RecordFlags(bits)
    }

    /// Returns the raw bit representation.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` if every flag in `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: RecordFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns the union of two flag sets.
    #[inline]
    #[must_use]
    pub const fn union(self, other: RecordFlags) -> RecordFlags {
        RecordFlags(self.0 | other.0)
    }

    /// Returns `true` if the lock flag is set.
    #[inline]
    pub const fn is_lock(self) -> bool {
        self.contains(RecordFlags::LOCK)
    }

    /// Returns `true` if the system flag is set.
    #[inline]
    pub const fn is_system(self) -> bool {
        self.contains(RecordFlags::SYSTEM)
    }
}

impl core::ops::BitOr for RecordFlags {
    type Output = RecordFlags;

    fn bitor(self, rhs: RecordFlags) -> RecordFlags {
        self.union(rhs)
    }
}

impl fmt::Display for RecordFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (flag, name) in [(RecordFlags::LOCK, "lock"), (RecordFlags::SYSTEM, "sys")] {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// One memory reference in a multiprocessor address trace.
///
/// Mirrors the information the multiprocessor ATUM extension recorded:
/// interleaved per-CPU address streams with CPU numbers and process
/// identifiers, "so that any address in the trace can be identified as
/// coming from a given CPU and given process".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// The CPU that issued the reference.
    pub cpu: CpuId,
    /// The process that was running on that CPU.
    pub pid: ProcessId,
    /// Instruction fetch, read or write.
    pub kind: AccessKind,
    /// Byte address referenced.
    pub addr: Address,
    /// Lock/system metadata.
    pub flags: RecordFlags,
}

impl TraceRecord {
    /// Creates a record with no flags.
    pub fn new(cpu: CpuId, pid: ProcessId, kind: AccessKind, addr: Address) -> Self {
        TraceRecord { cpu, pid, kind, addr, flags: RecordFlags::NONE }
    }

    /// Returns a copy with the given flags added.
    #[must_use]
    pub fn with_flags(mut self, flags: RecordFlags) -> Self {
        self.flags = self.flags | flags;
        self
    }

    /// Returns `true` for data references (read/write).
    #[inline]
    pub fn is_data(&self) -> bool {
        self.kind.is_data()
    }

    /// Returns `true` if this is a lock-test read (a read with the lock
    /// flag), i.e. the first "test" of a test-and-test-and-set primitive.
    /// These are the references excluded by the paper's §5.2 experiment.
    #[inline]
    pub fn is_lock_spin(&self) -> bool {
        self.kind == AccessKind::Read && self.flags.is_lock()
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {:#x} {}", self.cpu, self.pid, self.kind.code(), self.addr, self.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: AccessKind) -> TraceRecord {
        TraceRecord::new(CpuId::new(1), ProcessId::new(2), kind, Address::new(0x40))
    }

    #[test]
    fn flags_contain_and_union() {
        let f = RecordFlags::LOCK | RecordFlags::SYSTEM;
        assert!(f.is_lock());
        assert!(f.is_system());
        assert!(f.contains(RecordFlags::LOCK));
        assert!(!RecordFlags::NONE.is_lock());
    }

    #[test]
    fn lock_spin_requires_read_and_lock_flag() {
        assert!(rec(AccessKind::Read).with_flags(RecordFlags::LOCK).is_lock_spin());
        assert!(!rec(AccessKind::Write).with_flags(RecordFlags::LOCK).is_lock_spin());
        assert!(!rec(AccessKind::Read).is_lock_spin());
    }

    #[test]
    fn display_is_compact() {
        let r = rec(AccessKind::Read).with_flags(RecordFlags::LOCK);
        assert_eq!(r.to_string(), "cpu1 pid2 R 0x40 lock");
        assert_eq!(rec(AccessKind::InstrFetch).to_string(), "cpu1 pid2 I 0x40 -");
    }

    #[test]
    fn flags_round_trip_bits() {
        let f = RecordFlags::from_bits(3);
        assert_eq!(f.bits(), 3);
        assert!(f.is_lock() && f.is_system());
    }

    #[test]
    fn flags_display() {
        assert_eq!(RecordFlags::NONE.to_string(), "-");
        assert_eq!(RecordFlags::LOCK.to_string(), "lock");
        assert_eq!((RecordFlags::LOCK | RecordFlags::SYSTEM).to_string(), "lock|sys");
    }
}
