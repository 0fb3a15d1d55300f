//! The event taxonomy: how each data reference is classified.
//!
//! The paper's key methodological move is splitting a protocol into a
//! *state-change specification* and a *cost model*: "The frequency with
//! which each of the events ... occurs depends only on the state change
//! specification, not on the method used to implement it." [`Event`] is the
//! state-change half — every protocol classifies each data reference into
//! one of these events (Table 4's rows) — while the bus crate supplies the
//! cost half.

use core::fmt;
use dircc_types::CacheIdSet;

/// Why a miss happened: what the rest of the system held at miss time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissContext {
    /// First reference to this block anywhere in the trace. Counted but
    /// charged zero cost ("these occur in a uniprocessor infinite cache as
    /// well").
    FirstRef,
    /// The block is clean in `copies` other caches; memory is current.
    CleanElsewhere {
        /// Number of other caches holding the block.
        copies: u32,
    },
    /// Another cache owns the block: memory is stale, and the owner has
    /// the current data.
    DirtyElsewhere,
    /// The block has been referenced before but is cached nowhere; memory
    /// is current. (Occurs in protocols that evict copies, e.g. limited-
    /// pointer directories.)
    MemoryOnly,
}

impl MissContext {
    /// Classifies a miss by what the other caches hold: `holders`, one of
    /// which owns the block if it is `dirty`.
    pub(crate) fn of(holders: CacheIdSet, dirty: bool, first_ref: bool) -> Self {
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if dirty {
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

/// What the writer's cache and the rest of the system held on a write hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteHitContext {
    /// The local copy is already dirty (`wh-blk-drty`): proceeds with no
    /// bus traffic in every scheme evaluated.
    Dirty,
    /// The local copy is clean and no other cache has the block.
    CleanExclusive,
    /// The local copy is clean and `others` other caches hold it
    /// (Dragon's `wh-distrib`; an invalidation situation elsewhere).
    CleanShared {
        /// Number of other caches holding the block.
        others: u32,
    },
}

/// Classification of one memory reference under a particular protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Instruction fetch (never generates coherence traffic).
    Instr,
    /// Data read that hit in the local cache.
    ReadHit,
    /// Data read that missed.
    ReadMiss(MissContext),
    /// Data write that hit.
    WriteHit(WriteHitContext),
    /// Data write that missed.
    WriteMiss(MissContext),
}

impl Event {
    /// Returns `true` if this is any kind of miss.
    pub fn is_miss(&self) -> bool {
        matches!(self, Event::ReadMiss(_) | Event::WriteMiss(_))
    }

    /// Returns `true` for first-reference misses, which the paper counts
    /// but excludes from cost ("we exclude the misses caused by the first
    /// reference to a block").
    pub fn is_first_ref(&self) -> bool {
        matches!(
            self,
            Event::ReadMiss(MissContext::FirstRef) | Event::WriteMiss(MissContext::FirstRef)
        )
    }

    /// Returns the Table 4 row label for this event.
    pub fn label(&self) -> &'static str {
        match self {
            Event::Instr => "instr",
            Event::ReadHit => "rd-hit",
            Event::ReadMiss(MissContext::FirstRef) => "rm-first-ref",
            Event::ReadMiss(MissContext::CleanElsewhere { .. }) => "rm-blk-cln",
            Event::ReadMiss(MissContext::DirtyElsewhere) => "rm-blk-drty",
            Event::ReadMiss(MissContext::MemoryOnly) => "rm-blk-mem",
            Event::WriteHit(WriteHitContext::Dirty) => "wh-blk-drty",
            Event::WriteHit(WriteHitContext::CleanExclusive) => "wh-cln-excl",
            Event::WriteHit(WriteHitContext::CleanShared { .. }) => "wh-cln-shrd",
            Event::WriteMiss(MissContext::FirstRef) => "wm-first-ref",
            Event::WriteMiss(MissContext::CleanElsewhere { .. }) => "wm-blk-cln",
            Event::WriteMiss(MissContext::DirtyElsewhere) => "wm-blk-drty",
            Event::WriteMiss(MissContext::MemoryOnly) => "wm-blk-mem",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a protocol maintains coherence by invalidating stale copies or
/// by updating them in place (Dragon, Firefly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceStyle {
    /// Stale copies are removed from other caches.
    Invalidate,
    /// Stale copies are overwritten with the new value.
    Update,
}

/// Everything a protocol did in response to one data reference.
///
/// The simulation engine turns a stream of `Outcome`s into event
/// frequencies (Table 4), bus-cycle costs (Table 5, Figures 2-5) and
/// verification checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The state-change classification of the reference.
    pub event: Event,
    /// Directed one-cycle control messages sent (sequential invalidates,
    /// write-back/flush requests, pointer-eviction invalidates).
    pub control_messages: u32,
    /// `true` if the protocol resorted to a broadcast for invalidation or
    /// write-back request delivery.
    pub used_broadcast: bool,
    /// `true` if a dirty block was written back to memory.
    pub write_back: bool,
    /// `true` if main memory now holds the current data for this block
    /// (write-back, or a write-through write).
    pub memory_updated: bool,
    /// `true` if the missing block was supplied cache-to-cache rather than
    /// from memory.
    pub cache_supplied: bool,
    /// Number of word-update transactions distributed to sharers (Dragon,
    /// Firefly).
    pub updates: u32,
    /// Protocol-specific maintenance messages costing one cycle each
    /// (e.g. Yen & Fu single-bit updates).
    pub aux_messages: u32,
    /// Copies invalidated purely because a limited directory ran out of
    /// pointers (Dir-i-NB overflow evictions). Also included in
    /// `control_messages`.
    pub directory_evictions: u32,
}

impl Outcome {
    /// An outcome with the given event and no side effects.
    pub fn quiet(event: Event) -> Self {
        Outcome {
            event,
            control_messages: 0,
            used_broadcast: false,
            write_back: false,
            memory_updated: false,
            cache_supplied: false,
            updates: 0,
            aux_messages: 0,
            directory_evictions: 0,
        }
    }

    /// Builder-style setter for control messages.
    #[must_use]
    pub fn with_control(mut self, n: u32) -> Self {
        self.control_messages = n;
        self
    }

    /// Builder-style setter marking a write-back (also marks memory
    /// updated).
    #[must_use]
    pub fn with_write_back(mut self) -> Self {
        self.write_back = true;
        self.memory_updated = true;
        self
    }
}

/// What a protocol did when a finite cache replaced (evicted) a block.
///
/// The paper's headline experiments use infinite caches, so evictions
/// never happen there; the finite-cache extension drives this path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictOutcome {
    /// A dirty/owned copy was written back to memory.
    pub write_back: bool,
    /// Directed control messages sent (e.g. a replacement hint clearing a
    /// directory pointer).
    pub control_messages: u32,
}

impl EvictOutcome {
    /// An eviction of a clean, silently droppable copy.
    pub const SILENT: EvictOutcome = EvictOutcome { write_back: false, control_messages: 0 };

    /// An eviction requiring a dirty write-back.
    pub const WRITE_BACK: EvictOutcome = EvictOutcome { write_back: true, control_messages: 0 };

    /// A clean eviction that sends a replacement hint to the directory.
    pub const NOTIFY: EvictOutcome = EvictOutcome { write_back: false, control_messages: 1 };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_ref_detection() {
        assert!(Event::ReadMiss(MissContext::FirstRef).is_first_ref());
        assert!(Event::WriteMiss(MissContext::FirstRef).is_first_ref());
        assert!(!Event::ReadMiss(MissContext::MemoryOnly).is_first_ref());
        assert!(!Event::ReadHit.is_first_ref());
    }

    #[test]
    fn miss_detection() {
        assert!(Event::ReadMiss(MissContext::DirtyElsewhere).is_miss());
        assert!(Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }).is_miss());
        assert!(!Event::WriteHit(WriteHitContext::Dirty).is_miss());
        assert!(!Event::Instr.is_miss());
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(
            Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }).label(),
            "rm-blk-cln"
        );
        assert_eq!(Event::WriteHit(WriteHitContext::Dirty).label(), "wh-blk-drty");
        assert_eq!(Event::WriteMiss(MissContext::DirtyElsewhere).to_string(), "wm-blk-drty");
    }

    #[test]
    fn outcome_builders() {
        let o = Outcome::quiet(Event::ReadHit).with_control(3).with_write_back();
        assert_eq!(o.control_messages, 3);
        assert!(!o.used_broadcast);
        assert!(o.write_back);
        assert!(o.memory_updated, "write-back implies memory updated");
        assert_eq!(o.updates, 0);
    }
}
