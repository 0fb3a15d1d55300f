//! §6 coded-set directory: a `2·log₂(n)`-bit superset code.
//!
//! "The number of bits in the main memory directory can be reduced by
//! storing a simple code representing a set of caches, which is a superset
//! of all caches with a copy of the block. For example, consider storing a
//! word with d digits where each digit takes on one of three values: 0, 1,
//! and *both*. ... If i digits are coded both, then 2^i caches are denoted.
//! ... Each digit can be coded in 2 bits, thus requiring 2 log(n) bits in a
//! system with n caches."
//!
//! Invalidations are *limited broadcasts*: directed messages to every cache
//! in the coded set (a superset of the true sharers), so some messages are
//! wasted — the price of the compact encoding. The implementation counts
//! those wasted messages so the §6 experiment can report the overshoot.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockMap, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    Clean,
    Dirty,
}

/// The trit code: cache indices matching `value` on every digit outside
/// `both_mask`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Code {
    value: u16,
    both_mask: u16,
}

impl Code {
    fn singleton(c: CacheId) -> Self {
        Code { value: c.raw(), both_mask: 0 }
    }

    /// Widens the code to include `c`: digits that differ become `both`.
    fn widen(&mut self, c: CacheId) {
        self.both_mask |= self.value ^ c.raw();
    }

    fn contains(&self, c: CacheId) -> bool {
        (self.value ^ c.raw()) & !self.both_mask == 0
    }

    /// Enumerates the denoted caches that exist in an `n`-cache machine.
    fn members(&self, n: usize) -> CacheIdSet {
        (0..n as u16).map(CacheId::new).filter(|c| self.contains(*c)).collect()
    }
}

#[derive(Debug, Clone)]
struct Entry {
    code: Code,
    dirty: bool,
}

/// The coded-set limited-broadcast directory protocol (`DirCodedNB`).
///
/// ```
/// use dircc_core::directory::CodedSet;
/// use dircc_core::Protocol;
///
/// assert_eq!(CodedSet::new(8).name(), "DirCodedNB");
/// ```
#[derive(Debug, Clone)]
pub struct CodedSet {
    caches: CacheArray<Copy>,
    dir: BlockMap<Entry>,
    wasted_invalidates: u64,
}

impl CodedSet {
    /// Creates a coded-set directory over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        CodedSet { caches: CacheArray::new(n_caches), dir: BlockMap::new(), wasted_invalidates: 0 }
    }

    /// Invalidation messages sent to caches that did not actually hold the
    /// block (the superset overshoot of §6).
    pub fn wasted_invalidates(&self) -> u64 {
        self.wasted_invalidates
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

    /// Sends directed invalidates to the whole coded set (minus the
    /// requester). Returns the number of messages sent.
    fn invalidate_coded(&mut self, block: BlockAddr, except: Option<CacheId>) -> u32 {
        let Some(entry) = self.dir.get(block) else { return 0 };
        let mut targets = entry.code.members(self.caches.num_caches());
        if let Some(c) = except {
            targets.remove(c);
        }
        let holders = self.caches.holders(block);
        let wasted = targets.difference(holders).len() as u64;
        self.wasted_invalidates += wasted;
        for t in targets.iter() {
            self.caches.remove(t, block);
        }
        targets.len() as u32
    }

    fn read(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        if self.caches.state(cache, block).is_some() {
            return Outcome::quiet(Event::ReadHit);
        }
        let ctx = self.classify_miss(block, first_ref);
        let mut out = Outcome::quiet(Event::ReadMiss(ctx));
        if ctx == MissContext::DirtyElsewhere {
            // A dirty entry's code is exact (a singleton set by
            // construction), so the flush request is one directed message.
            let owner = self.caches.holders(block).sole().expect("dirty has one holder");
            out.control_messages += 1;
            out = out.with_write_back();
            self.caches.set(owner, block, Copy::Clean);
            self.dir.get_mut(block).expect("entry exists").dirty = false;
        }
        match self.dir.get_mut(block) {
            Some(entry) => entry.code.widen(cache),
            None => {
                self.dir.insert(block, Entry { code: Code::singleton(cache), dirty: false });
            }
        }
        self.caches.set(cache, block, Copy::Clean);
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
                out.control_messages += self.invalidate_coded(block, Some(cache));
                self.dir.insert(block, Entry { code: Code::singleton(cache), dirty: true });
                self.caches.set(cache, block, Copy::Dirty);
                out
            }
            None => {
                let ctx = self.classify_miss(block, first_ref);
                let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                if ctx == MissContext::DirtyElsewhere {
                    out = out.with_write_back();
                    // Single directed flush+invalidate to the exact owner.
                    out.control_messages += 1;
                    self.caches.remove_all_except(block, None);
                } else {
                    out.control_messages += self.invalidate_coded(block, None);
                }
                self.dir.insert(block, Entry { code: Code::singleton(cache), dirty: true });
                self.caches.set(cache, block, Copy::Dirty);
                out
            }
        }
    }
}

impl Protocol for CodedSet {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::CodedSet
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
        if self.caches.holders(block).is_empty() {
            self.dir.remove(block);
        } else if copy == Copy::Dirty {
            self.dir.get_mut(block).expect("entry exists").dirty = false;
        }
        if copy == Copy::Dirty {
            EvictOutcome::WRITE_BACK
        } else {
            // The trit code remains a superset of the shrunken holder set.
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
            let coded = entry.code.members(self.caches.num_caches());
            if !holders.is_subset_of(coded) {
                return Err(format!("{block}: holders {holders} not covered by coded set {coded}"));
            }
            if entry.dirty {
                if holders.len() != 1 {
                    return Err(format!("{block}: dirty with {} holders", holders.len()));
                }
                if entry.code.both_mask != 0 {
                    return Err(format!("{block}: dirty entry must have an exact code"));
                }
                let owner = holders.sole().expect("one holder");
                if self.caches.state(owner, block) != Some(&Copy::Dirty) {
                    return Err(format!("{block}: dirty entry but clean copy"));
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
        // `wasted_invalidates` is a monotonic statistic, not state.
        out.push(self.dir.len() as u64);
        for (block, entry) in self.dir.iter() {
            out.push(block.index());
            out.push(u64::from(entry.dirty));
            // Value bits under a 'both' digit are don't-cares; mask them
            // so equivalent codes encode equally.
            out.push(u64::from(entry.code.value & !entry.code.both_mask));
            out.push(u64::from(entry.code.both_mask));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut CodedSet, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut CodedSet, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn code_widening_denotes_supersets() {
        let mut code = Code::singleton(CacheId::new(0b0101));
        assert_eq!(code.members(16).len(), 1);
        code.widen(CacheId::new(0b0100)); // differs in one digit
        assert_eq!(code.members(16).len(), 2);
        code.widen(CacheId::new(0b0001)); // another digit goes 'both'
        assert_eq!(code.members(16).len(), 4, "two both-digits denote 4 caches");
        assert!(code.contains(CacheId::new(0b0000)), "superset includes non-sharers");
    }

    #[test]
    fn single_sharer_invalidation_is_exact() {
        let mut p = CodedSet::new(8);
        read(&mut p, 3, 1, true);
        let o = write(&mut p, 5, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert_eq!(o.control_messages, 1, "exact code for one sharer");
        assert_eq!(p.wasted_invalidates(), 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn superset_invalidation_wastes_messages() {
        let mut p = CodedSet::new(8);
        // Sharers 0b000 and 0b011 widen the code to {000,001,010,011}.
        read(&mut p, 0, 1, true);
        read(&mut p, 3, 1, false);
        let o = write(&mut p, 7, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
        assert_eq!(o.control_messages, 4, "limited broadcast to the coded superset");
        assert_eq!(p.wasted_invalidates(), 2);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(7)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn writer_excluded_from_its_own_invalidation() {
        let mut p = CodedSet::new(8);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert_eq!(o.control_messages, 1, "only cache 1 needs the message");
        p.check_invariants().unwrap();
    }

    #[test]
    fn dirty_flush_uses_exact_pointer() {
        let mut p = CodedSet::new(8);
        write(&mut p, 2, 1, true);
        let o = read(&mut p, 6, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert_eq!(o.control_messages, 1);
        assert!(o.write_back);
        assert_eq!(p.holders(b(1)).len(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn members_respects_machine_size() {
        let mut code = Code::singleton(CacheId::new(2));
        code.widen(CacheId::new(6)); // both on digit 2 ⇒ {2, 6}
        assert_eq!(code.members(4).len(), 1, "cache 6 doesn't exist in a 4-cache machine");
    }

    #[test]
    fn invariants_hold_over_a_scramble() {
        let mut p = CodedSet::new(8);
        for i in 0..200u64 {
            let cache = (i * 7 % 8) as u16;
            let blk = i % 5;
            if i % 3 == 0 {
                write(&mut p, cache, blk, i < 5);
            } else {
                read(&mut p, cache, blk, i < 5);
            }
            p.check_invariants().unwrap();
        }
    }
}
