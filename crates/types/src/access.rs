//! Memory-access classification.

use core::fmt;

/// The kind of a memory reference.
///
/// The paper's methodology treats instruction fetches as coherence-free
/// ("we assume that instructions do not cause any cache consistency related
/// traffic") but still counts them in the reference total, so they must be
/// present in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Instruction fetch. Never generates coherence traffic.
    InstrFetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl AccessKind {
    /// All access kinds, in trace-encoding order.
    pub const ALL: [AccessKind; 3] = [AccessKind::InstrFetch, AccessKind::Read, AccessKind::Write];

    /// Returns `true` for data references (reads and writes).
    ///
    /// ```
    /// # use dircc_types::AccessKind;
    /// assert!(AccessKind::Read.is_data());
    /// assert!(!AccessKind::InstrFetch.is_data());
    /// ```
    #[inline]
    pub const fn is_data(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// Returns `true` for writes.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Returns a stable single-character code (`I`, `R`, `W`), as a trace
    /// record's `Display` prints it.
    #[inline]
    pub const fn code(self) -> char {
        match self {
            AccessKind::InstrFetch => 'I',
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::InstrFetch => "instr",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_classification() {
        assert!(!AccessKind::InstrFetch.is_data());
        assert!(AccessKind::Read.is_data());
        assert!(AccessKind::Write.is_data());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn display_names() {
        assert_eq!(AccessKind::InstrFetch.to_string(), "instr");
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }
}
