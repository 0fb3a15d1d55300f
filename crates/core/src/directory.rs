//! Directory-based coherence protocols: one state machine over four
//! per-block entry formats.
//!
//! "Directory-based protocols keep a separate directory associated with
//! main memory that stores the state of each block of main memory." The
//! paper tells its schemes apart only by what that entry keeps — in
//! `Dir_i_X`, "i is the number of indices kept in the directory and X is
//! either B or NB for Broadcast or No Broadcast" — on top of one
//! state-change specification: many clean copies or one dirty copy.
//! [`Directory`] runs that specification once: the per-cache copy table,
//! miss and write-hit classification, the dirty owner's flush,
//! invalidation, eviction, invariants and the state encoding. Its
//! [`Entry`] decides only how the directory reaches the caches it must
//! invalidate and which copies it can remember:
//!
//! | Entry | Schemes | Per-block state |
//! |---|---|---|
//! | [`Fifo`] | `Dir1NB`, `DiriNB`, `DirnNB` (Censier-Feautrier), Tang, Yen & Fu | up to `i` pointers in arrival order |
//! | [`PtrB`] | `Dir1B`, `DiriB` | up to `i` pointers and a broadcast bit |
//! | [`TwoBit`] | `Dir0B` (Archibald-Baer) | clean in one cache, clean in many, dirty in one |
//! | [`Coded`] | §6 coded set (`DirCodedNB`) | a trit code denoting a superset of the sharers |
//!
//! Tang and Yen & Fu keep the full map's state. Tang "duplicates each of
//! the individual cache directories as his main directory", which changes
//! how the directory is searched (the bus crate prices that), not what
//! happens. Yen & Fu add a per-cache *single* bit, "set if and only if
//! that cache is the only one in the system that contains the block"; the
//! read path charges the bus message that clears it.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockMap, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};
use std::collections::VecDeque;

/// Per-cache copy state: many clean copies or one dirty copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    Clean,
    Dirty,
}

/// How the directory reaches the caches it must invalidate or flush.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reach {
    /// This many directed one-cycle control messages.
    Directed(u32),
    /// One broadcast, however many caches it reaches.
    Broadcast,
}

impl Reach {
    fn charge(self, out: &mut Outcome) {
        match self {
            Reach::Directed(n) => out.control_messages += n,
            Reach::Broadcast => out.used_broadcast = true,
        }
    }
}

/// What a scheme's directory keeps about one block that some cache holds.
///
/// A block no cache holds has no entry. It gets `Self::default()` with
/// its first copy, and [`join`](Entry::join) or [`own`](Entry::own)
/// records that copy before anything reads the entry. `pointers` is the
/// scheme's pointer count (`n` for a full map) and `n` the number of
/// caches.
pub(crate) trait Entry: Clone + Default {
    /// Whether the block is dirty in its one holder.
    fn dirty(&self) -> bool;

    /// How the directory reaches `targets`: the holders of the block
    /// other than `except`, the writer, if it holds a copy.
    fn deliver(&self, targets: CacheIdSet, except: Option<CacheId>, n: usize) -> Reach;

    /// Records `cache` as a clean reader of a block that `others` hold
    /// clean (none, for a new entry), returning the copies a full entry
    /// displaces.
    fn join(&mut self, cache: CacheId, others: CacheIdSet, pointers: usize) -> CacheIdSet;

    /// Records `cache` as the block's one dirty holder.
    fn own(&mut self, cache: CacheId);

    /// Forgets `cache`'s copy, returning what evicting a clean copy
    /// costs: a replacement hint or silence.
    fn drop_copy(&mut self, cache: CacheId) -> EvictOutcome;

    /// Checks the entry against the caches that hold its block.
    fn check(&self, holders: CacheIdSet, pointers: usize, n: usize) -> Result<(), String>;

    /// Appends a canonical encoding: equal exactly when the entries
    /// behave alike.
    fn encode(&self, out: &mut Vec<u64>);
}

/// A directory protocol: every cache's copies plus one `E` per cached
/// block.
#[derive(Debug, Clone)]
pub(crate) struct Directory<E> {
    kind: ProtocolKind,
    /// `i` for `Dir_i_X`; `n` for Tang, Yen & Fu and the entries that
    /// keep no pointers.
    pointers: usize,
    caches: CacheArray<Copy>,
    dir: BlockMap<E>,
}

impl<E: Entry> Directory<E> {
    /// Creates the `kind` scheme over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics on zero pointers — "The one case that does not make sense is
    /// Dir0NB, since there is no way to obtain exclusive access", and a
    /// zero-pointer `DirB` is `Dir0B` — or if `n_caches` is out of
    /// `1..=64`.
    pub(crate) fn new(kind: ProtocolKind, n_caches: usize) -> Self {
        let pointers = match kind {
            ProtocolKind::DirNb { pointers } => {
                assert!(pointers >= 1, "Dir0NB does not make sense (paper, section 2)");
                pointers as usize
            }
            ProtocolKind::DirB { pointers } => {
                assert!(pointers >= 1, "use Dir0B for the zero-pointer broadcast scheme");
                pointers as usize
            }
            _ => n_caches,
        };
        Directory { kind, pointers, caches: CacheArray::new(n_caches), dir: BlockMap::new() }
    }

    fn read(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        if self.caches.state(cache, block).is_some() {
            return Outcome::quiet(Event::ReadHit);
        }
        let holders = self.caches.holders(block);
        let entry = self.dir.entry(block);
        let ctx = MissContext::of(holders, entry.dirty(), first_ref);
        let mut out = Outcome::quiet(Event::ReadMiss(ctx));
        // The dirty owner writes back and keeps a clean copy.
        let flushed = if entry.dirty() {
            entry.deliver(holders, None, self.caches.num_caches()).charge(&mut out);
            out = out.with_write_back();
            let owner = holders.sole().expect("a dirty block has one holder");
            self.caches.set(owner, block, Copy::Clean);
            Some(owner)
        } else {
            None
        };
        // Yen & Fu: a bus message clears the sole clean holder's single bit.
        if self.kind == ProtocolKind::YenFu && ctx == (MissContext::CleanElsewhere { copies: 1 }) {
            out.aux_messages += 1;
        }
        let displaced = entry.join(cache, holders, self.pointers);
        for victim in displaced.iter() {
            self.caches.remove(victim, block);
            // The flush request already reached a displaced owner.
            out.control_messages += u32::from(flushed != Some(victim));
        }
        // Dir1NB's displacement of its one copy is the scheme itself,
        // not a pointer overflow.
        if self.pointers > 1 {
            out.directory_evictions += displaced.len() as u32;
        }
        self.caches.set(cache, block, Copy::Clean);
        out
    }

    fn write(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        let held = self.caches.state(cache, block).copied();
        if held == Some(Copy::Dirty) {
            return Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty));
        }
        let holders = self.caches.holders(block);
        let entry = self.dir.entry(block);
        let (event, except) = if held.is_some() {
            let others = holders.len() as u32 - 1;
            let hit = match others {
                0 => WriteHitContext::CleanExclusive,
                _ => WriteHitContext::CleanShared { others },
            };
            (Event::WriteHit(hit), Some(cache))
        } else {
            (Event::WriteMiss(MissContext::of(holders, entry.dirty(), first_ref)), None)
        };
        let mut out = Outcome::quiet(event);
        let targets = except.map_or(holders, |writer| holders.without(writer));
        // A new entry has no copies to reach.
        if !holders.is_empty() {
            entry.deliver(targets, except, self.caches.num_caches()).charge(&mut out);
            if entry.dirty() {
                out = out.with_write_back();
            }
        }
        entry.own(cache);
        for victim in targets.iter() {
            self.caches.remove(victim, block);
        }
        self.caches.set(cache, block, Copy::Dirty);
        out
    }
}

impl<E: Entry> Protocol for Directory<E> {
    fn kind(&self) -> ProtocolKind {
        self.kind
    }

    fn num_caches(&self) -> usize {
        self.caches.num_caches()
    }

    fn access(
        &mut self,
        cache: CacheId,
        kind: AccessKind,
        block: BlockAddr,
        first_ref: bool,
    ) -> Outcome {
        match kind {
            AccessKind::Read => self.read(cache, block, first_ref),
            AccessKind::Write => self.write(cache, block, first_ref),
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        let Some(copy) = self.caches.remove(cache, block) else {
            return EvictOutcome::SILENT;
        };
        let clean = self.dir.get_mut(block).expect("a held block has an entry").drop_copy(cache);
        if self.caches.holders(block).is_empty() {
            self.dir.remove(block);
        }
        match copy {
            Copy::Clean => clean,
            Copy::Dirty => EvictOutcome::WRITE_BACK,
        }
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
        self.dir.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()?;
        for (block, _) in self.caches.iter_blocks() {
            if !self.dir.contains_key(block) {
                return Err(format!("{block}: cached without a directory entry"));
            }
        }
        for (block, entry) in self.dir.iter() {
            let holders = self.caches.holders(block);
            if holders.is_empty() {
                return Err(format!("{block}: directory entry but nothing cached"));
            }
            if entry.dirty() && holders.len() != 1 {
                return Err(format!("{block}: dirty in {} caches", holders.len()));
            }
            for h in holders.iter() {
                if (self.caches.state(h, block) == Some(&Copy::Dirty)) != entry.dirty() {
                    return Err(format!("{block}: {h}'s copy disagrees with the dirty bit"));
                }
            }
            entry
                .check(holders, self.pointers, self.caches.num_caches())
                .map_err(|e| format!("{block}: {e}"))?;
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| u64::from(*s == Copy::Dirty));
        out.push(self.dir.len() as u64);
        for (block, entry) in self.dir.iter() {
            out.push(block.index());
            entry.encode(out);
        }
    }
}

/// `Dir_i_NB`: up to `i` pointers and no broadcast, so "the number of
/// processors that have copies of a datum must always be less than or
/// equal to i", and a reader past `i` displaces the oldest copy (a
/// *pointer eviction*). `i = 1` is `Dir1NB`, "perhaps the simplest
/// directory-based consistency scheme"; `i ≥ n` is the Censier-Feautrier
/// full map, a valid bit per cache with sequential invalidations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fifo {
    /// Arrival order: the front is the next pointer evicted.
    ptrs: VecDeque<CacheId>,
    dirty: bool,
}

impl Entry for Fifo {
    fn dirty(&self) -> bool {
        self.dirty
    }

    fn deliver(&self, targets: CacheIdSet, _: Option<CacheId>, _: usize) -> Reach {
        Reach::Directed(targets.len() as u32)
    }

    fn join(&mut self, cache: CacheId, _: CacheIdSet, pointers: usize) -> CacheIdSet {
        let mut displaced = CacheIdSet::new();
        while self.ptrs.len() >= pointers {
            displaced.insert(self.ptrs.pop_front().expect("a full entry has pointers"));
        }
        self.ptrs.push_back(cache);
        self.dirty = false;
        displaced
    }

    fn own(&mut self, cache: CacheId) {
        self.ptrs.clear();
        self.ptrs.push_back(cache);
        self.dirty = true;
    }

    fn drop_copy(&mut self, cache: CacheId) -> EvictOutcome {
        // The replacement hint keeps the pointers exact.
        self.ptrs.retain(|c| *c != cache);
        EvictOutcome::NOTIFY
    }

    fn check(&self, holders: CacheIdSet, pointers: usize, _: usize) -> Result<(), String> {
        let set: CacheIdSet = self.ptrs.iter().copied().collect();
        if set != holders || set.len() != self.ptrs.len() {
            return Err(format!("pointers {:?} disagree with holders {holders}", self.ptrs));
        }
        if self.ptrs.len() > pointers {
            return Err(format!("{} pointers exceed the Dir{pointers}NB limit", self.ptrs.len()));
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u64>) {
        // Pointer order is behaviour (the front is the next victim).
        out.push(u64::from(self.dirty));
        out.push(self.ptrs.len() as u64);
        out.extend(self.ptrs.iter().map(|c| u64::from(c.raw())));
    }
}

/// `Dir_i_B` (`i ≥ 1`): up to `i` pointers and a broadcast bit. "If more
/// than one cache has a block the broadcast bit is set"; while it is clear
/// an invalidation goes to the pointed caches, and once it is set the
/// invalidation must be broadcast. A dirty block always has its pointer,
/// so flush requests are directed.
#[derive(Debug, Clone, Default)]
pub(crate) struct PtrB {
    ptrs: Vec<CacheId>,
    broadcast: bool,
    dirty: bool,
}

impl Entry for PtrB {
    fn dirty(&self) -> bool {
        self.dirty
    }

    fn deliver(&self, targets: CacheIdSet, _: Option<CacheId>, _: usize) -> Reach {
        if self.broadcast && !targets.is_empty() {
            Reach::Broadcast
        } else {
            Reach::Directed(targets.len() as u32)
        }
    }

    fn join(&mut self, cache: CacheId, _: CacheIdSet, pointers: usize) -> CacheIdSet {
        if self.ptrs.len() < pointers {
            self.ptrs.push(cache);
        } else {
            self.broadcast = true;
        }
        self.dirty = false;
        CacheIdSet::new()
    }

    fn own(&mut self, cache: CacheId) {
        self.ptrs.clear();
        self.ptrs.push(cache);
        self.broadcast = false;
        self.dirty = true;
    }

    fn drop_copy(&mut self, cache: CacheId) -> EvictOutcome {
        // A pointed copy's hint frees its pointer; an unpointed copy
        // leaves silently, and the broadcast bit stays conservative.
        let pointed = self.ptrs.contains(&cache);
        self.ptrs.retain(|c| *c != cache);
        if pointed {
            EvictOutcome::NOTIFY
        } else {
            EvictOutcome::SILENT
        }
    }

    fn check(&self, holders: CacheIdSet, pointers: usize, _: usize) -> Result<(), String> {
        let set: CacheIdSet = self.ptrs.iter().copied().collect();
        if set.len() != self.ptrs.len() || self.ptrs.len() > pointers {
            return Err(format!("pointers {:?} repeat or exceed {pointers}", self.ptrs));
        }
        if !set.is_subset_of(holders) || (!self.broadcast && set != holders) {
            return Err(format!(
                "pointers {set} with broadcast {} for holders {holders}",
                self.broadcast
            ));
        }
        if self.dirty && self.broadcast {
            return Err("dirty with the broadcast bit set".to_string());
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u64>) {
        // Without a FIFO, pointer order is irrelevant: a bitset
        // canonicalises arrival-order permutations.
        out.push(u64::from(self.dirty));
        out.push(u64::from(self.broadcast));
        out.push(self.ptrs.iter().copied().collect::<CacheIdSet>().bits());
    }
}

/// `Dir0B`, the Archibald-Baer two bits: "block not cached, block clean in
/// exactly one cache, block clean in an unknown number of caches, and
/// block dirty in exactly one cache". *Not cached* is the absent entry.
/// Knowing no cache, the directory broadcasts every invalidation and
/// write-back request; *clean in exactly one cache* is what lets its
/// holder write without one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TwoBit {
    #[default]
    CleanOne = 1,
    CleanMany = 2,
    DirtyOne = 3,
}

impl Entry for TwoBit {
    fn dirty(&self) -> bool {
        *self == TwoBit::DirtyOne
    }

    fn deliver(&self, targets: CacheIdSet, _: Option<CacheId>, _: usize) -> Reach {
        if targets.is_empty() {
            Reach::Directed(0)
        } else {
            Reach::Broadcast
        }
    }

    fn join(&mut self, _: CacheId, others: CacheIdSet, _: usize) -> CacheIdSet {
        *self = if others.is_empty() { TwoBit::CleanOne } else { TwoBit::CleanMany };
        CacheIdSet::new()
    }

    fn own(&mut self, _: CacheId) {
        *self = TwoBit::DirtyOne;
    }

    fn drop_copy(&mut self, _: CacheId) -> EvictOutcome {
        // No pointers to keep exact: clean in many may over-count.
        EvictOutcome::SILENT
    }

    fn check(&self, holders: CacheIdSet, _: usize, _: usize) -> Result<(), String> {
        if *self == TwoBit::CleanOne && holders.len() != 1 {
            return Err(format!("clean in one cache but held by {holders}"));
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }
}

/// The §6 coded set: "a word with d digits where each digit takes on one
/// of three values: 0, 1, and *both*", denoting a superset of the sharers
/// in `2·log₂(n)` bits. Invalidations are limited broadcasts, one directed
/// message to every cache the code denotes, sharer or not.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Coded {
    /// Cache-id digits; don't-cares where `both` is set.
    value: u16,
    /// The digits coded *both*.
    both: u16,
    dirty: bool,
}

impl Coded {
    fn contains(&self, c: CacheId) -> bool {
        (self.value ^ c.raw()) & !self.both == 0
    }

    /// The denoted caches that exist in an `n`-cache machine.
    fn members(&self, n: usize) -> CacheIdSet {
        (0..n as u16).map(CacheId::new).filter(|c| self.contains(*c)).collect()
    }
}

impl Entry for Coded {
    fn dirty(&self) -> bool {
        self.dirty
    }

    fn deliver(&self, _: CacheIdSet, except: Option<CacheId>, n: usize) -> Reach {
        let members = self.members(n);
        Reach::Directed(except.map_or(members, |c| members.without(c)).len() as u32)
    }

    fn join(&mut self, cache: CacheId, others: CacheIdSet, _: usize) -> CacheIdSet {
        if others.is_empty() {
            *self = Coded { value: cache.raw(), both: 0, dirty: false };
        } else {
            // Digits that differ become *both*.
            self.both |= self.value ^ cache.raw();
            self.dirty = false;
        }
        CacheIdSet::new()
    }

    fn own(&mut self, cache: CacheId) {
        *self = Coded { value: cache.raw(), both: 0, dirty: true };
    }

    fn drop_copy(&mut self, _: CacheId) -> EvictOutcome {
        // The code stays a superset of the shrunken holder set.
        EvictOutcome::SILENT
    }

    fn check(&self, holders: CacheIdSet, _: usize, n: usize) -> Result<(), String> {
        let coded = self.members(n);
        if !holders.is_subset_of(coded) {
            return Err(format!("holders {holders} not covered by coded set {coded}"));
        }
        if self.dirty && self.both != 0 {
            return Err("a dirty entry must have an exact code".to_string());
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u64>) {
        // Digits under *both* are don't-cares; masking them makes
        // equivalent codes encode equally.
        out.push(u64::from(self.dirty));
        out.push(u64::from(self.value & !self.both));
        out.push(u64::from(self.both));
    }
}

#[cfg(test)]
mod tests {
    //! Helpers for the scenario tests, which follow grouped by scheme
    //! (`dir_nb::tests`, `dir_b::tests`, ...), plus the body's own tests.
    use super::*;
    use crate::build;

    pub(super) fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    pub(super) fn c(i: u16) -> CacheId {
        CacheId::new(i)
    }
    pub(super) fn read(p: &mut dyn Protocol, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(c(cache), AccessKind::Read, b(blk), first)
    }
    pub(super) fn write(p: &mut dyn Protocol, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(c(cache), AccessKind::Write, b(blk), first)
    }

    const KINDS: [ProtocolKind; 6] = [
        ProtocolKind::DirNb { pointers: 2 },
        ProtocolKind::DirB { pointers: 1 },
        ProtocolKind::Dir0B,
        ProtocolKind::CodedSet,
        ProtocolKind::Tang,
        ProtocolKind::YenFu,
    ];

    #[test]
    fn evicting_every_copy_leaves_no_entry() {
        for kind in KINDS {
            let p = &mut *build(kind, 4);
            let mut fresh = Vec::new();
            p.encode_state(&mut fresh);
            write(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            for cache in 0..3 {
                assert!(!p.evict(c(cache), b(1)).write_back, "{kind}: the flush cleaned it");
                p.check_invariants().unwrap();
            }
            let o = write(p, 3, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::MemoryOnly), "{kind}");
            assert_eq!(p.evict(c(3), b(1)), EvictOutcome::WRITE_BACK, "{kind}");
            assert_eq!(p.evict(c(3), b(1)), EvictOutcome::SILENT, "{kind}: nothing left");
            let mut emptied = Vec::new();
            p.encode_state(&mut emptied);
            assert_eq!(emptied, fresh, "{kind}: an uncached block keeps no directory state");
        }
    }
}

// Scenario tests, one module per scheme family.

#[cfg(test)]
mod dir_nb {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::event::EvictOutcome;
        use crate::{build, Event, MissContext, Outcome, ProtocolKind, WriteHitContext};

        const DIR1NB: ProtocolKind = ProtocolKind::DirNb { pointers: 1 };
        const FULL_MAP: ProtocolKind = ProtocolKind::DirNb { pointers: 4 };

        #[test]
        #[should_panic(expected = "Dir0NB")]
        fn dir0nb_rejected() {
            let _ = build(ProtocolKind::DirNb { pointers: 0 }, 4);
        }

        #[test]
        fn first_reference_classified() {
            let p = &mut *build(DIR1NB, 4);
            let o = read(p, 0, 1, true);
            assert_eq!(o.event, Event::ReadMiss(MissContext::FirstRef));
            assert_eq!(o.control_messages, 0);
            p.check_invariants().unwrap();
        }

        #[test]
        fn dir1nb_allows_single_copy_only() {
            let p = &mut *build(DIR1NB, 4);
            read(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert_eq!(o.control_messages, 1, "the other copy is invalidated");
            assert_eq!(o.directory_evictions, 0, "displacement is Dir1NB itself");
            assert!(!o.write_back);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn dir1nb_dirty_handoff_is_one_message_plus_writeback() {
            let p = &mut *build(DIR1NB, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.write_back);
            assert!(o.memory_updated);
            assert_eq!(
                o.control_messages, 1,
                "invalidate+write-back is a single notification in Dir1NB"
            );
            assert_eq!(o.directory_evictions, 0);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn full_map_allows_many_readers_then_sequential_invalidates() {
            let p = &mut *build(FULL_MAP, 4);
            read(p, 0, 1, true);
            for cache in 1..4 {
                let o = read(p, cache, 1, false);
                assert_eq!(
                    o.event,
                    Event::ReadMiss(MissContext::CleanElsewhere { copies: u32::from(cache) })
                );
                assert_eq!(o.control_messages, 0, "readers join freely in a full map");
            }
            assert_eq!(p.holders(b(1)).len(), 4);
            // Writer invalidates the other three sequentially.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 3 }));
            assert_eq!(o.control_messages, 3);
            assert!(!o.used_broadcast);
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn full_map_read_miss_to_dirty_keeps_owner_clean() {
            let p = &mut *build(FULL_MAP, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.write_back);
            assert_eq!(o.control_messages, 1, "one flush request");
            assert_eq!(p.holders(b(1)).len(), 2, "owner keeps a clean copy");
            // Both copies now clean: a third write hit is a clean-shared hit.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            p.check_invariants().unwrap();
        }

        #[test]
        fn limited_pointers_evict_fifo() {
            let p = &mut *build(ProtocolKind::DirNb { pointers: 2 }, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            // Third reader overflows the 2 pointers: cache 0 (oldest) evicted.
            let o = read(p, 2, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 }));
            assert_eq!(o.control_messages, 1, "one eviction invalidate");
            assert_eq!(o.directory_evictions, 1);
            let holders = p.holders(b(1));
            assert!(!holders.contains(c(0)));
            assert!(holders.contains(c(1)) && holders.contains(c(2)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn evicted_reader_re_misses_as_memory_only_when_none_hold() {
            let p = &mut *build(DIR1NB, 2);
            read(p, 0, 1, true);
            write(p, 1, 1, false); // invalidates cache 0, dirty in 1
            read(p, 0, 1, false); // flushes 1, moves to 0
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
            // Once the last copy is evicted, the block lives in memory only.
            assert_eq!(p.evict(c(1), b(1)), EvictOutcome::WRITE_BACK);
            assert_eq!(read(p, 0, 1, false).event, Event::ReadMiss(MissContext::MemoryOnly));
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_miss_to_dirty_block_costs_one_message() {
            let p = &mut *build(FULL_MAP, 4);
            write(p, 0, 1, true);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
            assert_eq!(o.control_messages, 1);
            assert!(o.write_back);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_hit_dirty_is_free() {
            let p = &mut *build(FULL_MAP, 4);
            write(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o, Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)));
        }

        #[test]
        fn write_hit_clean_exclusive_transitions_to_dirty() {
            let p = &mut *build(FULL_MAP, 4);
            read(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert_eq!(o.control_messages, 0);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
            p.check_invariants().unwrap();
        }

        #[test]
        fn ping_pong_under_dir1nb() {
            let p = &mut *build(DIR1NB, 2);
            write(p, 0, 7, true);
            for _ in 0..10 {
                let o = write(p, 1, 7, false);
                assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
                let o = write(p, 0, 7, false);
                assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
            }
            p.check_invariants().unwrap();
        }

        #[test]
        fn names() {
            assert_eq!(build(DIR1NB, 4).name(), "Dir1NB");
            assert_eq!(build(ProtocolKind::DirNb { pointers: 2 }, 4).name(), "Dir2NB");
            let full = build(ProtocolKind::DirNb { pointers: 8 }, 8);
            assert_eq!(full.name(), "DirnNB");
            assert_eq!(full.kind(), ProtocolKind::DirNb { pointers: 8 });
        }
    }
}

#[cfg(test)]
mod dir_b {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const DIR1B: ProtocolKind = ProtocolKind::DirB { pointers: 1 };

        #[test]
        fn single_sharer_invalidation_is_directed() {
            let p = &mut *build(DIR1B, 4);
            read(p, 0, 1, true);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert_eq!(o.control_messages, 1, "broadcast bit clear: single directed invalidate");
            assert!(!o.used_broadcast);
            p.check_invariants().unwrap();
        }

        #[test]
        fn overflow_sets_broadcast_bit_and_later_broadcasts() {
            let p = &mut *build(DIR1B, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false); // overflows the single pointer
            read(p, 2, 1, false);
            let o = write(p, 3, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 3 }));
            assert!(o.used_broadcast, "broadcast bit was set");
            assert_eq!(o.control_messages, 0);
            assert_eq!(p.holders(b(1)).sole(), Some(c(3)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn dir2b_covers_two_sharers_without_broadcast() {
            let p = &mut *build(ProtocolKind::DirB { pointers: 2 }, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert!(!o.used_broadcast);
            assert_eq!(o.control_messages, 1);
            p.check_invariants().unwrap();
        }

        #[test]
        fn dirty_flush_is_always_directed() {
            let p = &mut *build(DIR1B, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.write_back);
            assert!(!o.used_broadcast, "dirty blocks always have a pointer");
            assert_eq!(o.control_messages, 1);
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_resets_broadcast_bit() {
            let p = &mut *build(DIR1B, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            // Broadcast invalidate; the writer's pointer replaces the bit.
            assert!(write(p, 2, 1, false).used_broadcast);
            let o = read(p, 3, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(!o.used_broadcast, "the bit was reset, so the flush is directed");
            assert_eq!(o.control_messages, 1);
            // Cache 3 joined past the one pointer, setting the bit again.
            let o = write(p, 3, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert!(o.used_broadcast);
            p.check_invariants().unwrap();
        }

        #[test]
        fn exclusive_write_hit_quiet_delivery() {
            let p = &mut *build(DIR1B, 4);
            read(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert_eq!(o.control_messages, 0);
            assert!(!o.used_broadcast);
        }

        #[test]
        #[should_panic(expected = "Dir0B")]
        fn zero_pointers_rejected() {
            let _ = build(ProtocolKind::DirB { pointers: 0 }, 4);
        }
    }
}

#[cfg(test)]
mod dir0b {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, Outcome, ProtocolKind, WriteHitContext};

        const DIR0B: ProtocolKind = ProtocolKind::Dir0B;

        #[test]
        fn multiple_clean_readers_join_quietly() {
            let p = &mut *build(DIR0B, 4);
            read(p, 0, 1, true);
            for cache in 1..4 {
                let o = read(p, cache, 1, false);
                assert!(!o.used_broadcast);
                assert_eq!(o.control_messages, 0);
            }
            assert_eq!(p.holders(b(1)).len(), 4);
            p.check_invariants().unwrap();
        }

        #[test]
        fn clean_exclusive_write_hit_avoids_broadcast() {
            let p = &mut *build(DIR0B, 4);
            read(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert!(
                !o.used_broadcast,
                "the 'clean in exactly one cache' state obviates the broadcast"
            );
            p.check_invariants().unwrap();
        }

        #[test]
        fn clean_shared_write_hit_broadcasts() {
            let p = &mut *build(DIR0B, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
            assert!(o.used_broadcast);
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn read_miss_to_dirty_broadcasts_writeback_request() {
            let p = &mut *build(DIR0B, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.used_broadcast, "Dir0B has no pointer: write-back requests broadcast");
            assert!(o.write_back);
            assert_eq!(p.holders(b(1)).len(), 2);
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_miss_to_dirty_flushes_and_invalidates() {
            let p = &mut *build(DIR0B, 4);
            write(p, 0, 1, true);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
            assert!(o.used_broadcast && o.write_back);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_miss_to_clean_broadcast_invalidates() {
            let p = &mut *build(DIR0B, 4);
            read(p, 0, 1, true);
            read(p, 2, 1, false);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
            assert!(o.used_broadcast);
            assert!(!o.write_back);
            p.check_invariants().unwrap();
        }

        #[test]
        fn dirty_write_hit_is_free() {
            let p = &mut *build(DIR0B, 4);
            write(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o, Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)));
        }

        #[test]
        fn first_and_memory_only_classification() {
            let p = &mut *build(DIR0B, 2);
            let o = write(p, 0, 9, true);
            assert_eq!(o.event, Event::WriteMiss(MissContext::FirstRef));
            // Invalidation installs the writer, so only an eviction leaves
            // the block in memory alone.
            let o = read(p, 1, 9, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            p.evict(c(0), b(9));
            p.evict(c(1), b(9));
            let o = write(p, 0, 9, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::MemoryOnly));
            assert!(!o.used_broadcast, "not cached: nobody to reach");
            p.check_invariants().unwrap();
        }

        #[test]
        fn read_after_flush_hits_clean_many() {
            let p = &mut *build(DIR0B, 4);
            write(p, 0, 1, true);
            read(p, 1, 1, false);
            // Owner kept a clean copy; its next write is a clean-shared hit.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert!(o.used_broadcast);
            p.check_invariants().unwrap();
        }
    }
}

#[cfg(test)]
mod coded {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::directory::{Coded, Entry};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};
        use dircc_types::CacheIdSet;

        const CODED: ProtocolKind = ProtocolKind::CodedSet;

        #[test]
        fn code_widening_denotes_supersets() {
            let mut code = Coded::default();
            code.join(c(0b0101), CacheIdSet::new(), 0);
            assert_eq!(code.members(16).len(), 1);
            let sharers = CacheIdSet::singleton(c(0b0101));
            code.join(c(0b0100), sharers, 0); // differs in one digit
            assert_eq!(code.members(16).len(), 2);
            code.join(c(0b0001), sharers, 0); // another digit goes 'both'
            assert_eq!(code.members(16).len(), 4, "two both-digits denote 4 caches");
            assert!(code.contains(c(0b0000)), "superset includes non-sharers");
        }

        #[test]
        fn single_sharer_invalidation_is_exact() {
            let p = &mut *build(CODED, 8);
            read(p, 3, 1, true);
            let o = write(p, 5, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert_eq!(o.control_messages, 1, "exact code for one sharer");
            p.check_invariants().unwrap();
        }

        #[test]
        fn superset_invalidation_wastes_messages() {
            let p = &mut *build(CODED, 8);
            // Sharers 0b000 and 0b011 widen the code to {000,001,010,011}.
            read(p, 0, 1, true);
            read(p, 3, 1, false);
            let o = write(p, 7, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
            assert_eq!(o.control_messages, 4, "limited broadcast to the coded superset");
            assert_eq!(p.holders(b(1)).sole(), Some(c(7)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn writer_excluded_from_its_own_invalidation() {
            let p = &mut *build(CODED, 8);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert_eq!(o.control_messages, 1, "only cache 1 needs the message");
            p.check_invariants().unwrap();
        }

        #[test]
        fn dirty_flush_uses_exact_pointer() {
            let p = &mut *build(CODED, 8);
            write(p, 2, 1, true);
            let o = read(p, 6, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert_eq!(o.control_messages, 1);
            assert!(o.write_back);
            assert_eq!(p.holders(b(1)).len(), 2);
            p.check_invariants().unwrap();
        }

        #[test]
        fn members_respects_machine_size() {
            let mut code = Coded::default();
            code.join(c(2), CacheIdSet::new(), 0);
            code.join(c(6), CacheIdSet::singleton(c(2)), 0); // both on digit 2 ⇒ {2, 6}
            assert_eq!(code.members(8).len(), 2);
            assert_eq!(code.members(4).len(), 1, "cache 6 doesn't exist in a 4-cache machine");
        }

        #[test]
        fn invariants_hold_over_a_scramble() {
            let p = &mut *build(CODED, 8);
            for i in 0..200u64 {
                let cache = (i * 7 % 8) as u16;
                let blk = i % 5;
                if i % 3 == 0 {
                    write(p, cache, blk, i < 5);
                } else {
                    read(p, cache, blk, i < 5);
                }
                p.check_invariants().unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tang {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind};
        use dircc_types::AccessKind;

        #[test]
        fn events_match_the_full_map() {
            let tang = &mut *build(ProtocolKind::Tang, 4);
            let full = &mut *build(ProtocolKind::DirNb { pointers: 4 }, 4);
            for (cache, kind, first) in [
                (0u16, AccessKind::Write, true),
                (1, AccessKind::Read, false),
                (2, AccessKind::Read, false),
                (1, AccessKind::Write, false),
            ] {
                let a = tang.access(c(cache), kind, b(3), first);
                assert_eq!(a, full.access(c(cache), kind, b(3), first));
            }
            assert_eq!(tang.evict(c(1), b(3)), full.evict(c(1), b(3)));
            tang.check_invariants().unwrap();
        }

        #[test]
        fn kind_and_name_identify_tang() {
            let p = build(ProtocolKind::Tang, 8);
            assert_eq!(p.kind(), ProtocolKind::Tang);
            assert_eq!(p.name(), "Tang");
        }

        #[test]
        fn dirty_block_lives_in_one_cache() {
            let p = &mut *build(ProtocolKind::Tang, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.write_back);
        }
    }
}

#[cfg(test)]
mod yenfu {
    mod tests {
        use crate::directory::tests::{b, c, read, write};
        use crate::{build, Event, ProtocolKind, WriteHitContext};
        use dircc_types::AccessKind;

        const YENFU: ProtocolKind = ProtocolKind::YenFu;

        #[test]
        fn single_bit_reflects_sole_ownership() {
            let p = &mut *build(YENFU, 4);
            read(p, 0, 1, true);
            assert_eq!(read(p, 1, 1, false).aux_messages, 1, "cache 0 was the sole holder");
            assert_eq!(read(p, 2, 1, false).aux_messages, 0, "no holder is alone");
            p.evict(c(1), b(1));
            p.evict(c(2), b(1));
            // Cache 0 is alone again, so its single bit is set again.
            assert_eq!(read(p, 3, 1, false).aux_messages, 1);
        }

        #[test]
        fn second_clean_sharer_costs_a_single_bit_update() {
            let p = &mut *build(YENFU, 4);
            read(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.aux_messages, 1, "old sole holder's single bit cleared");
            let o = read(p, 2, 1, false);
            assert_eq!(o.aux_messages, 0, "no single bit left to clear");
        }

        #[test]
        fn dirty_handoff_needs_no_extra_single_bit_message() {
            let p = &mut *build(YENFU, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.aux_messages, 0, "flush request reaches the owner anyway");
            assert!(o.write_back);
        }

        #[test]
        fn state_transitions_match_full_map() {
            let yf = &mut *build(YENFU, 4);
            let full = &mut *build(ProtocolKind::DirNb { pointers: 4 }, 4);
            let script: &[(u16, AccessKind, u64, bool)] = &[
                (0, AccessKind::Read, 1, true),
                (1, AccessKind::Read, 1, false),
                (2, AccessKind::Write, 1, false),
                (0, AccessKind::Read, 1, false),
                (0, AccessKind::Write, 1, false),
            ];
            for &(cache, kind, blk, first) in script {
                let a = yf.access(c(cache), kind, b(blk), first);
                let o = full.access(c(cache), kind, b(blk), first);
                assert_eq!(a.event, o.event, "events match the full map");
                assert_eq!(yf.holders(b(blk)), full.holders(b(blk)));
            }
            yf.check_invariants().unwrap();
        }

        #[test]
        fn exclusive_clean_write_hit_event_is_distinguishable() {
            // The cost benefit (skip the directory check) requires the event to
            // be classified as CleanExclusive so the schema can zero its cost.
            let p = &mut *build(YENFU, 4);
            read(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        }
    }
}
