//! The protocol abstraction and the Dir(i)X taxonomy.

use crate::event::{CoherenceStyle, EvictOutcome, Outcome};
use core::fmt;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// A point in the paper's protocol design space.
///
/// The paper classifies directory schemes as `Dir_i_X`: *i* is "the number
/// of indices kept in the directory and X is either B or NB for Broadcast
/// or No Broadcast". Snoopy comparison schemes and the §6 coded-set variant
/// complete the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// `Dir_i_NB`: up to `i` pointers, never broadcasts; the `i`-th+1
    /// sharer forces eviction of an existing copy. `i = 1` is the paper's
    /// `Dir1NB`; `i ≥ n` is the Censier-Feautrier full map (`DirnNB`).
    DirNb {
        /// Pointer count.
        pointers: u32,
    },
    /// `Dir0B`: the Archibald-Baer two-bit scheme — no pointers, broadcast
    /// invalidates and write-back requests.
    Dir0B,
    /// `Dir_i_B` (`i ≥ 1`): up to `i` pointers plus a broadcast bit; falls
    /// back to broadcast when the pointers overflow.
    DirB {
        /// Pointer count.
        pointers: u32,
    },
    /// §6 coded-set directory: `2·log₂(n)`-bit trit code denoting a
    /// superset of the sharers; limited "broadcast" to the coded set.
    CodedSet,
    /// Tang's scheme: full-map state kept as duplicate copies of every
    /// cache directory (same state-change model as `DirnNB`, costlier
    /// directory search).
    Tang,
    /// Yen & Fu refinement of Censier-Feautrier: a per-cache *single* bit
    /// avoids the directory check when writing a clean exclusive block, at
    /// the price of extra bus traffic to maintain the bits.
    YenFu,
    /// Write-Through-With-Invalidate snoopy protocol.
    Wti,
    /// Dragon snoopy update protocol.
    Dragon,
    /// Berkeley Ownership snoopy protocol (dirty blocks supplied
    /// cache-to-cache; memory left stale).
    Berkeley,
    /// Goodman's Write-Once snoopy protocol: first write to a clean block
    /// writes through, later writes are local.
    WriteOnce,
    /// DEC Firefly snoopy update protocol: shared writes update the other
    /// copies *and* main memory.
    Firefly,
    /// The Illinois protocol (Papamarcos & Patel, reference \[5\]) — MESI:
    /// a clean-exclusive state makes the first write to unshared data
    /// free, and caches supply blocks to each other.
    Mesi,
}

impl ProtocolKind {
    /// Returns the coherence style: Dragon and Firefly update, every other
    /// scheme invalidates.
    pub fn style(self) -> CoherenceStyle {
        match self {
            ProtocolKind::Dragon | ProtocolKind::Firefly => CoherenceStyle::Update,
            _ => CoherenceStyle::Invalidate,
        }
    }

    /// Paper-style name, resolved against the machine size `n`: the
    /// [`Display`](fmt::Display) text, except that a full map prints as
    /// `DirnNB`.
    pub fn display_name(self, n_caches: usize) -> String {
        match self {
            ProtocolKind::DirNb { pointers } if pointers as usize >= n_caches => {
                "DirnNB".to_string()
            }
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::DirNb { pointers } => write!(f, "Dir{pointers}NB"),
            ProtocolKind::Dir0B => f.write_str("Dir0B"),
            ProtocolKind::DirB { pointers } => write!(f, "Dir{pointers}B"),
            ProtocolKind::CodedSet => f.write_str("DirCodedNB"),
            ProtocolKind::Tang => f.write_str("Tang"),
            ProtocolKind::YenFu => f.write_str("YenFu"),
            ProtocolKind::Wti => f.write_str("WTI"),
            ProtocolKind::Dragon => f.write_str("Dragon"),
            ProtocolKind::Berkeley => f.write_str("Berkeley"),
            ProtocolKind::WriteOnce => f.write_str("WriteOnce"),
            ProtocolKind::Firefly => f.write_str("Firefly"),
            ProtocolKind::Mesi => f.write_str("MESI"),
        }
    }
}

/// A cache-coherence protocol driven one data reference at a time.
///
/// Implementations maintain all per-cache and directory state internally.
/// The driver (dircc-sim's engine) calls [`Protocol::access`] for every
/// *data* reference in trace order; instruction fetches never reach the
/// protocol (the paper assumes they cause no coherence traffic).
pub trait Protocol {
    /// The taxonomy point this protocol implements.
    fn kind(&self) -> ProtocolKind;

    /// Number of caches in the machine.
    fn num_caches(&self) -> usize;

    /// Applies one data reference and returns what happened.
    ///
    /// `first_ref` is `true` when no CPU has referenced `block` earlier in
    /// the trace (the driver tracks this globally so every protocol sees an
    /// identical classification).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `kind` is [`AccessKind::InstrFetch`]
    /// or `cache` is out of range.
    fn access(
        &mut self,
        cache: CacheId,
        kind: AccessKind,
        block: BlockAddr,
        first_ref: bool,
    ) -> Outcome;

    /// Handles a finite-cache replacement: `cache` drops its copy of
    /// `block`, writing dirty data back and updating directory bookkeeping
    /// (pointer removal). Returns what the eviction cost. Must be a no-op
    /// returning [`EvictOutcome::SILENT`] when the cache holds no copy.
    ///
    /// The paper's infinite-cache experiments never call it; the
    /// finite-cache extension and `dircc-check`'s evict ops do.
    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome;

    /// Pre-sizes per-block state tables for a replay expected to touch
    /// `blocks` distinct (dense) blocks — the interner's count. Purely a
    /// capacity hint; a no-op by default.
    fn reserve_blocks(&mut self, blocks: usize) {
        let _ = blocks;
    }

    /// Which caches currently hold a valid copy of `block`.
    fn holders(&self, block: BlockAddr) -> CacheIdSet;

    /// Appends a canonical encoding of the complete protocol state to
    /// `out`, for state-space deduplication in `dircc-check`.
    ///
    /// Two states of the *same* protocol type must produce equal
    /// encodings if and only if they behave identically under every
    /// future op sequence. The encoding must therefore be
    /// self-delimiting (length-prefix variable sections), must
    /// normalise representation artifacts that cannot affect behavior
    /// (e.g. the arrival order of a `Dir_i_B` entry's pointers), and must
    /// exclude monotonic statistics counters.
    fn encode_state(&self, out: &mut Vec<u64>);

    /// Verifies every internal invariant (single-writer, directory/cache
    /// agreement, pointer-occupancy bounds, …).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    fn check_invariants(&self) -> Result<(), String>;

    /// Paper-style display name.
    fn name(&self) -> String {
        self.kind().display_name(self.num_caches())
    }

    /// Coherence style (invalidate vs update).
    fn style(&self) -> CoherenceStyle {
        self.kind().style()
    }
}

impl fmt::Debug for dyn Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protocol({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_follow_taxonomy() {
        assert_eq!(ProtocolKind::DirNb { pointers: 1 }.to_string(), "Dir1NB");
        assert_eq!(ProtocolKind::DirNb { pointers: 4 }.display_name(4), "DirnNB");
        assert_eq!(ProtocolKind::DirNb { pointers: 2 }.display_name(4), "Dir2NB");
        assert_eq!(ProtocolKind::DirB { pointers: 1 }.to_string(), "Dir1B");
        assert_eq!(ProtocolKind::Dir0B.to_string(), "Dir0B");
        assert_eq!(ProtocolKind::Wti.display_name(4), "WTI");
    }

    #[test]
    fn dragon_is_the_update_protocol() {
        assert_eq!(ProtocolKind::Dragon.style(), CoherenceStyle::Update);
        assert_eq!(ProtocolKind::Firefly.style(), CoherenceStyle::Update);
        assert_eq!(ProtocolKind::WriteOnce.style(), CoherenceStyle::Invalidate);
        assert_eq!(ProtocolKind::Dir0B.style(), CoherenceStyle::Invalidate);
        assert_eq!(ProtocolKind::Berkeley.style(), CoherenceStyle::Invalidate);
    }
}
