//! `Dir_i_B` (i ≥ 1): limited pointers **with** a broadcast bit.
//!
//! §6: "The directory maintains exactly one pointer and a broadcast bit per
//! block (Dir1B). If more than one cache has a block the broadcast bit is
//! set. When the directory is queried, a single invalidation request is
//! issued if the broadcast bit is clear; otherwise, the invalidation must be
//! broadcast. ... This scheme can be extended to use i pointers (i > 1) and
//! a broadcast bit (DiriB)."
//!
//! Once the broadcast bit is set the directory no longer knows *who* holds
//! the block, so invalidations (and write-back requests cannot occur —
//! dirty blocks always have a pointer) fall back to broadcast delivery,
//! whose cost the §6 model parameterizes as `b` cycles.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockMap, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    Clean,
    Dirty,
}

/// Directory entry: up to `i` pointers, a broadcast bit, and a dirty bit.
#[derive(Debug, Clone, Default)]
struct Entry {
    ptrs: Vec<CacheId>,
    broadcast: bool,
    dirty: bool,
}

/// A `Dir_i_B` limited-pointer broadcast directory protocol.
///
/// ```
/// use dircc_core::directory::DirB;
/// use dircc_core::Protocol;
///
/// assert_eq!(DirB::dir1b(4).name(), "Dir1B");
/// assert_eq!(DirB::new(2, 8).name(), "Dir2B");
/// ```
#[derive(Debug, Clone)]
pub struct DirB {
    pointers: u32,
    caches: CacheArray<Copy>,
    dir: BlockMap<Entry>,
}

impl DirB {
    /// Creates a `Dir_i_B` protocol with `pointers ≥ 1` indices.
    ///
    /// # Panics
    ///
    /// Panics if `pointers == 0` (that point in the design space is
    /// [`Dir0B`](crate::directory::Dir0B), which has different directory
    /// states) or `n_caches` is out of `1..=64`.
    pub fn new(pointers: u32, n_caches: usize) -> Self {
        assert!(pointers >= 1, "use Dir0B for the zero-pointer broadcast scheme");
        DirB { pointers, caches: CacheArray::new(n_caches), dir: BlockMap::new() }
    }

    /// The §6 `Dir1B` scheme: one pointer plus a broadcast bit.
    pub fn dir1b(n_caches: usize) -> Self {
        Self::new(1, n_caches)
    }

    /// Number of directory pointers per entry.
    pub fn pointers(&self) -> u32 {
        self.pointers
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

    /// Records a new clean sharer: fill a pointer if one is free, else set
    /// the broadcast bit.
    fn add_sharer(&mut self, block: BlockAddr, cache: CacheId) {
        let pointers = self.pointers as usize;
        let entry = self.dir.entry(block);
        entry.dirty = false;
        if entry.ptrs.len() < pointers {
            entry.ptrs.push(cache);
        } else {
            entry.broadcast = true;
        }
        self.caches.set(cache, block, Copy::Clean);
    }

    /// Invalidates all copies (except the requester, if cached): directed
    /// messages when pointers cover everyone, broadcast otherwise. Updates
    /// the outcome's delivery accounting and empties the entry.
    fn invalidate_others(&mut self, block: BlockAddr, except: Option<CacheId>, out: &mut Outcome) {
        let entry = self.dir.entry(block);
        let broadcast = entry.broadcast;
        let victims = match except {
            Some(c) => self.caches.holders(block).without(c),
            None => self.caches.holders(block),
        };
        if victims.is_empty() {
            // Nothing to do; entry bookkeeping handled by caller.
            return;
        }
        if broadcast {
            out.used_broadcast = true;
        } else {
            out.control_messages += victims.len() as u32;
        }
        for v in victims.iter() {
            self.caches.remove(v, block);
        }
    }

    fn set_sole_dirty(&mut self, block: BlockAddr, cache: CacheId) {
        let entry = self.dir.entry(block);
        entry.ptrs.clear();
        entry.ptrs.push(cache);
        entry.broadcast = false;
        entry.dirty = true;
        self.caches.set(cache, block, Copy::Dirty);
    }

    fn read(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        if self.caches.state(cache, block).is_some() {
            return Outcome::quiet(Event::ReadHit);
        }
        let ctx = self.classify_miss(block, first_ref);
        let mut out = Outcome::quiet(Event::ReadMiss(ctx));
        if ctx == MissContext::DirtyElsewhere {
            // Dirty blocks always have a valid pointer (broadcast bit can
            // only be set for clean blocks), so the flush is directed.
            let owner = self.caches.holders(block).sole().expect("dirty has one holder");
            out.control_messages += 1;
            out = out.with_write_back();
            self.caches.set(owner, block, Copy::Clean);
            self.dir.entry(block).dirty = false;
        }
        self.add_sharer(block, cache);
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
                self.invalidate_others(block, Some(cache), &mut out);
                self.set_sole_dirty(block, cache);
                out
            }
            None => {
                let ctx = self.classify_miss(block, first_ref);
                let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                if ctx == MissContext::DirtyElsewhere {
                    out = out.with_write_back();
                }
                self.invalidate_others(block, None, &mut out);
                self.set_sole_dirty(block, cache);
                out
            }
        }
    }
}

impl Protocol for DirB {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirB { pointers: self.pointers }
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
        let was_pointed = entry.ptrs.contains(&cache);
        entry.ptrs.retain(|c| *c != cache);
        if copy == Copy::Dirty {
            entry.dirty = false;
        }
        if self.caches.holders(block).is_empty() {
            self.dir.remove(block);
        }
        if copy == Copy::Dirty {
            EvictOutcome::WRITE_BACK
        } else if was_pointed {
            // Replacement hint frees the pointer slot.
            EvictOutcome::NOTIFY
        } else {
            // Unpointed (broadcast-covered) copies drop silently; the
            // broadcast bit stays conservative.
            EvictOutcome::SILENT
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
            if ptr_set.len() != entry.ptrs.len() {
                return Err(format!("{block}: duplicate pointers"));
            }
            if entry.ptrs.len() > self.pointers as usize {
                return Err(format!("{block}: pointer overflow"));
            }
            if !ptr_set.is_subset_of(holders) {
                return Err(format!(
                    "{block}: pointers {ptr_set} not a subset of holders {holders}"
                ));
            }
            if !entry.broadcast && ptr_set != holders {
                return Err(format!(
                    "{block}: broadcast clear but pointers {ptr_set} != holders {holders}"
                ));
            }
            if entry.dirty {
                if holders.len() != 1 || entry.broadcast {
                    return Err(format!("{block}: dirty entry must be one pointed holder"));
                }
                let owner = entry.ptrs[0];
                if self.caches.state(owner, block) != Some(&Copy::Dirty) {
                    return Err(format!("{block}: dirty entry but clean copy"));
                }
            } else {
                for h in holders.iter() {
                    if self.caches.state(h, block) != Some(&Copy::Clean) {
                        return Err(format!("{block}: clean entry but dirty copy in {h}"));
                    }
                }
            }
        }
        for (block, holders) in self.caches.iter_blocks() {
            if !holders.is_empty() && !self.dir.contains_key(block) {
                return Err(format!("{block}: cached without directory entry"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| u64::from(*s == Copy::Dirty));
        // Unlike Dir_i_NB there is no FIFO eviction, so pointer order is
        // irrelevant; a bitset canonicalises arrival-order permutations.
        out.push(self.dir.len() as u64);
        for (block, entry) in self.dir.iter() {
            let ptr_set: CacheIdSet = entry.ptrs.iter().copied().collect();
            out.push(block.index());
            out.push(u64::from(entry.dirty));
            out.push(u64::from(entry.broadcast));
            out.push(ptr_set.bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut DirB, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut DirB, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn single_sharer_invalidation_is_directed() {
        let mut p = DirB::dir1b(4);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert_eq!(o.control_messages, 1, "broadcast bit clear: single directed invalidate");
        assert!(!o.used_broadcast);
        p.check_invariants().unwrap();
    }

    #[test]
    fn overflow_sets_broadcast_bit_and_later_broadcasts() {
        let mut p = DirB::dir1b(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false); // overflows the single pointer
        read(&mut p, 2, 1, false);
        let o = write(&mut p, 3, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 3 }));
        assert!(o.used_broadcast, "broadcast bit was set");
        assert_eq!(o.control_messages, 0);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(3)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn dir2b_covers_two_sharers_without_broadcast() {
        let mut p = DirB::new(2, 4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert!(!o.used_broadcast);
        assert_eq!(o.control_messages, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn dirty_flush_is_always_directed() {
        let mut p = DirB::dir1b(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.write_back);
        assert!(!o.used_broadcast, "dirty blocks always have a pointer");
        assert_eq!(o.control_messages, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_resets_broadcast_bit() {
        let mut p = DirB::dir1b(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        write(&mut p, 2, 1, false); // broadcast invalidate, now pointed dirty
        let o = read(&mut p, 3, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        let o = write(&mut p, 3, 1, false);
        // Only caches 2,3 hold it (clean); pointer tracked cache 2... pointer
        // overflowed when 3 joined, so broadcast.
        assert!(o.used_broadcast || o.control_messages > 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_write_hit_quiet_delivery() {
        let mut p = DirB::dir1b(4);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        assert_eq!(o.control_messages, 0);
        assert!(!o.used_broadcast);
    }

    #[test]
    #[should_panic(expected = "Dir0B")]
    fn zero_pointers_rejected() {
        let _ = DirB::new(0, 4);
    }
}
