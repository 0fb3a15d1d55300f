//! `Dir_i_NB`: limited-pointer directories with **no broadcast**.
//!
//! The directory keeps up to `i` cache pointers per block. Because no
//! broadcast fallback exists, "the number of processors that have copies of
//! a datum must always be less than or equal to i": when an `i+1`-th reader
//! arrives, an existing copy is forcibly invalidated (a *pointer eviction*).
//!
//! Three paper schemes are all points of this one implementation:
//!
//! * `i = 1` — the paper's **Dir1NB** ("perhaps the simplest directory-based
//!   consistency scheme"): a block lives in at most one cache; every miss to
//!   a block held elsewhere invalidates that copy.
//! * `1 < i < n` — **DiriNB** (§6): "trades off a slightly increased miss
//!   rate for avoiding broadcasts altogether".
//! * `i ≥ n` — **DirnNB**, the Censier-Feautrier full map: a valid bit per
//!   cache, sequential invalidations in place of broadcast.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockMap, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};
use std::collections::VecDeque;

/// Per-cache copy state (multiple clean copies, at most one dirty copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    Clean,
    Dirty,
}

/// One directory entry: FIFO-ordered pointers plus the dirty bit.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// Pointers in insertion order (front = oldest = eviction victim).
    ptrs: VecDeque<CacheId>,
    dirty: bool,
}

/// A `Dir_i_NB` limited-pointer no-broadcast directory protocol.
///
/// ```
/// use dircc_core::directory::DirNb;
/// use dircc_core::Protocol;
///
/// let p = DirNb::dir1nb(4);
/// assert_eq!(p.name(), "Dir1NB");
/// let full = DirNb::full_map(4);
/// assert_eq!(full.name(), "DirnNB");
/// ```
#[derive(Debug, Clone)]
pub struct DirNb {
    pointers: u32,
    caches: CacheArray<Copy>,
    dir: BlockMap<Entry>,
}

impl DirNb {
    /// Creates a `Dir_i_NB` protocol with `pointers` directory indices over
    /// `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `pointers == 0` (the paper: "The one case that does not
    /// make sense is Dir0NB, since there is no way to obtain exclusive
    /// access") or `n_caches` is out of `1..=64`.
    pub fn new(pointers: u32, n_caches: usize) -> Self {
        assert!(pointers >= 1, "Dir0NB does not make sense (paper, section 2)");
        DirNb { pointers, caches: CacheArray::new(n_caches), dir: BlockMap::new() }
    }

    /// The paper's `Dir1NB`: a single pointer, at most one cached copy.
    pub fn dir1nb(n_caches: usize) -> Self {
        Self::new(1, n_caches)
    }

    /// The Censier-Feautrier full map (`DirnNB`): one pointer (valid bit)
    /// per cache, sequential invalidates.
    pub fn full_map(n_caches: usize) -> Self {
        Self::new(n_caches as u32, n_caches)
    }

    /// Number of directory pointers per entry.
    pub fn pointers(&self) -> u32 {
        self.pointers
    }

    fn entry(&mut self, block: BlockAddr) -> &mut Entry {
        self.dir.entry(block)
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.dir.get(block).is_some_and(|e| e.dirty) {
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }

    /// Adds `cache` as a clean sharer, evicting the oldest pointer if the
    /// entry is full. `free_victim` is a cache that may be evicted without
    /// an extra control message (it was already notified this transaction).
    /// Returns `(control_messages, directory_evictions)`.
    fn add_sharer(
        &mut self,
        block: BlockAddr,
        cache: CacheId,
        free_victim: Option<CacheId>,
    ) -> (u32, u32) {
        let pointers = self.pointers as usize;
        let mut control = 0;
        let mut evictions = 0;
        // Evict until a pointer is free (a single eviction in practice).
        loop {
            let entry = self.dir.entry(block);
            if entry.ptrs.len() < pointers {
                break;
            }
            let victim = entry.ptrs.pop_front().expect("full entry is nonempty");
            self.caches.remove(victim, block);
            evictions += 1;
            if free_victim != Some(victim) {
                control += 1;
            }
        }
        let entry = self.dir.entry(block);
        entry.ptrs.push_back(cache);
        entry.dirty = false;
        self.caches.set(cache, block, Copy::Clean);
        (control, evictions)
    }

    /// Invalidates every current sharer, returning how many directed
    /// messages that took (excluding `except`, which invalidates for free —
    /// used when the flush request already reached it).
    fn invalidate_all(&mut self, block: BlockAddr, except: Option<CacheId>) -> u32 {
        let holders = self.caches.holders(block);
        let mut control = 0;
        for h in holders.iter() {
            self.caches.remove(h, block);
            if except != Some(h) {
                control += 1;
            }
        }
        self.dir.remove(block);
        control
    }

    fn read(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        if self.caches.state(cache, block).is_some() {
            return Outcome::quiet(Event::ReadHit);
        }
        let ctx = self.classify_miss(block, first_ref);
        let mut out = Outcome::quiet(Event::ReadMiss(ctx));
        match ctx {
            MissContext::DirtyElsewhere => {
                // One message tells the dirty cache to write back (and, if
                // its pointer is about to be evicted, to invalidate too).
                let owner =
                    self.caches.holders(block).sole().expect("dirty block has exactly one holder");
                out.control_messages += 1;
                out = out.with_write_back();
                // The owner retains a clean copy (Censier-Feautrier); the
                // directory clears the dirty bit.
                self.caches.set(owner, block, Copy::Clean);
                self.entry(block).dirty = false;
                let (control, evictions) = self.add_sharer(block, cache, Some(owner));
                out.control_messages += control;
                out.directory_evictions += evictions.saturating_sub(
                    u32::from(self.pointers == 1), // Dir1NB's displacement is inherent
                );
            }
            MissContext::CleanElsewhere { .. }
            | MissContext::FirstRef
            | MissContext::MemoryOnly => {
                let (control, evictions) = self.add_sharer(block, cache, None);
                out.control_messages += control;
                // Dir1NB's displacement of the single copy is inherent to
                // the scheme, not a pointer-overflow eviction.
                out.directory_evictions += evictions.saturating_sub(u32::from(self.pointers == 1));
            }
        }
        out
    }

    fn write(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        match self.caches.state(cache, block) {
            Some(Copy::Dirty) => Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)),
            Some(Copy::Clean) => {
                let others = self.caches.other_holders(cache, block);
                let event = if others.is_empty() {
                    Event::WriteHit(WriteHitContext::CleanExclusive)
                } else {
                    Event::WriteHit(WriteHitContext::CleanShared { others: others.len() as u32 })
                };
                let mut out = Outcome::quiet(event);
                for h in others.iter() {
                    self.caches.remove(h, block);
                    out.control_messages += 1;
                }
                let entry = self.entry(block);
                entry.ptrs.clear();
                entry.ptrs.push_back(cache);
                entry.dirty = true;
                self.caches.set(cache, block, Copy::Dirty);
                out
            }
            None => {
                let ctx = self.classify_miss(block, first_ref);
                let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                match ctx {
                    MissContext::DirtyElsewhere => {
                        let owner = self
                            .caches
                            .holders(block)
                            .sole()
                            .expect("dirty block has exactly one holder");
                        // One message: invalidate + write back.
                        out.control_messages += self.invalidate_all(block, None).min(1);
                        debug_assert!(self.caches.holders(block).is_empty());
                        let _ = owner;
                        out = out.with_write_back();
                    }
                    MissContext::CleanElsewhere { .. } => {
                        out.control_messages += self.invalidate_all(block, None);
                    }
                    MissContext::FirstRef | MissContext::MemoryOnly => {}
                }
                let entry = self.entry(block);
                entry.ptrs.clear();
                entry.ptrs.push_back(cache);
                entry.dirty = true;
                self.caches.set(cache, block, Copy::Dirty);
                out
            }
        }
    }
}

impl Protocol for DirNb {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirNb { pointers: self.pointers }
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
        let entry = self.dir.get_mut(block).expect("held block has an entry");
        entry.ptrs.retain(|c| *c != cache);
        if copy == Copy::Dirty {
            entry.dirty = false;
        }
        if entry.ptrs.is_empty() {
            self.dir.remove(block);
        }
        if copy == Copy::Dirty {
            EvictOutcome::WRITE_BACK
        } else {
            // Clean replacement hint keeps the pointers exact.
            EvictOutcome::NOTIFY
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
        for (block, entry) in self.dir.iter() {
            let holders = self.caches.holders(block);
            let ptr_set: CacheIdSet = entry.ptrs.iter().copied().collect();
            if ptr_set != holders {
                return Err(format!(
                    "{block}: directory pointers {ptr_set} disagree with holders {holders}"
                ));
            }
            if entry.ptrs.len() != ptr_set.len() {
                return Err(format!("{block}: duplicate directory pointers"));
            }
            if entry.ptrs.len() > self.pointers as usize {
                return Err(format!(
                    "{block}: {} pointers exceed the Dir{}NB limit",
                    entry.ptrs.len(),
                    self.pointers
                ));
            }
            if entry.dirty {
                if entry.ptrs.len() != 1 {
                    return Err(format!("{block}: dirty with {} pointers", entry.ptrs.len()));
                }
                let owner = entry.ptrs[0];
                if self.caches.state(owner, block) != Some(&Copy::Dirty) {
                    return Err(format!("{block}: directory dirty but {owner} copy is clean"));
                }
            } else {
                for c in entry.ptrs.iter() {
                    if self.caches.state(*c, block) != Some(&Copy::Clean) {
                        return Err(format!("{block}: directory clean but {c} copy is dirty"));
                    }
                }
            }
        }
        // Every held block must have a directory entry.
        for (block, holders) in self.caches.iter_blocks() {
            if !self.dir.contains_key(block) && !holders.is_empty() {
                return Err(format!("{block}: cached without a directory entry"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| u64::from(*s == Copy::Dirty));
        // Pointer order is behavior (the front is the FIFO eviction
        // victim), so the entries encode in insertion order.
        out.push(self.dir.len() as u64);
        for (block, entry) in self.dir.iter() {
            out.push(block.index());
            out.push(u64::from(entry.dirty));
            out.push(entry.ptrs.len() as u64);
            out.extend(entry.ptrs.iter().map(|c| u64::from(c.raw())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn c(i: u16) -> CacheId {
        CacheId::new(i)
    }
    fn read(p: &mut DirNb, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(c(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut DirNb, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(c(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    #[should_panic(expected = "Dir0NB")]
    fn dir0nb_rejected() {
        let _ = DirNb::new(0, 4);
    }

    #[test]
    fn first_reference_classified() {
        let mut p = DirNb::dir1nb(4);
        let o = read(&mut p, 0, 1, true);
        assert_eq!(o.event, Event::ReadMiss(MissContext::FirstRef));
        assert_eq!(o.control_messages, 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn dir1nb_allows_single_copy_only() {
        let mut p = DirNb::dir1nb(4);
        read(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert_eq!(o.control_messages, 1, "the other copy is invalidated");
        assert!(!o.write_back);
        assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn dir1nb_dirty_handoff_is_one_message_plus_writeback() {
        let mut p = DirNb::dir1nb(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.write_back);
        assert!(o.memory_updated);
        assert_eq!(
            o.control_messages, 1,
            "invalidate+write-back is a single notification in Dir1NB"
        );
        assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn full_map_allows_many_readers_then_sequential_invalidates() {
        let mut p = DirNb::full_map(4);
        read(&mut p, 0, 1, true);
        for cache in 1..4 {
            let o = read(&mut p, cache, 1, false);
            assert_eq!(
                o.event,
                Event::ReadMiss(MissContext::CleanElsewhere { copies: u32::from(cache) })
            );
            assert_eq!(o.control_messages, 0, "readers join freely in a full map");
        }
        assert_eq!(p.holders(b(1)).len(), 4);
        // Writer invalidates the other three sequentially.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 3 }));
        assert_eq!(o.control_messages, 3);
        assert!(!o.used_broadcast);
        assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn full_map_read_miss_to_dirty_keeps_owner_clean() {
        let mut p = DirNb::full_map(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.write_back);
        assert_eq!(o.control_messages, 1, "one flush request");
        let holders = p.holders(b(1));
        assert_eq!(holders.len(), 2, "owner keeps a clean copy");
        // Both copies now clean: a third write hit is a clean-shared hit.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        p.check_invariants().unwrap();
    }

    #[test]
    fn limited_pointers_evict_fifo() {
        let mut p = DirNb::new(2, 4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        // Third reader overflows the 2 pointers: cache 0 (oldest) evicted.
        let o = read(&mut p, 2, 1, false);
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
        let mut p = DirNb::dir1nb(2);
        read(&mut p, 0, 1, true);
        write(&mut p, 1, 1, false); // invalidates cache 0, dirty in 1
        read(&mut p, 0, 1, false); // flushes 1, moves to 0
                                   // Now only cache 0 holds it clean. Invalidate it via cache 1 write,
                                   // then write back... simulate memory-only by removing all:
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_to_dirty_block_costs_one_message() {
        let mut p = DirNb::full_map(4);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
        assert_eq!(o.control_messages, 1);
        assert!(o.write_back);
        assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_hit_dirty_is_free() {
        let mut p = DirNb::full_map(4);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        assert_eq!(o, Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)));
    }

    #[test]
    fn write_hit_clean_exclusive_transitions_to_dirty() {
        let mut p = DirNb::full_map(4);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        assert_eq!(o.control_messages, 0);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        p.check_invariants().unwrap();
    }

    #[test]
    fn ping_pong_under_dir1nb() {
        let mut p = DirNb::dir1nb(2);
        write(&mut p, 0, 7, true);
        for _ in 0..10 {
            let o = write(&mut p, 1, 7, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
            let o = write(&mut p, 0, 7, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
        }
        p.check_invariants().unwrap();
    }

    #[test]
    fn names() {
        assert_eq!(DirNb::dir1nb(4).name(), "Dir1NB");
        assert_eq!(DirNb::new(2, 4).name(), "Dir2NB");
        assert_eq!(DirNb::full_map(8).name(), "DirnNB");
        assert_eq!(DirNb::full_map(8).pointers(), 8);
    }
}
