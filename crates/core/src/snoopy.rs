//! Snoopy coherence protocols (the paper's comparison points): one MOESI
//! state machine for six schemes.
//!
//! "These particular snoopy cache techniques were selected because they
//! represent two extremes of performance and complexity": WTI
//! (write-through-with-invalidate, "generally considered to be one of the
//! lowest-performance snooping cache consistency protocols") and Dragon
//! ("often considered to have the best performance among snoopy cache
//! schemes"). Berkeley is the ownership scheme the paper estimates as an
//! aside in §5; Write-Once (Goodman, reference \[2\]), Firefly (reference
//! \[3\]) and MESI (Illinois, reference \[5\]) round out the snoopy design
//! space its related work surveys.
//!
//! All six belong to Sweazey & Smith's MOESI class: a cached copy is
//! Modified, Owned, Exclusive or Shared, and Invalid is no copy at all.
//! The schemes differ only in which of those states they use and in what
//! a miss or a write does to the other copies. [`Snoopy`] runs the read
//! hit, miss classification, eviction, invariants and state encoding once;
//! each scheme's own rules are its arm in `read_miss` and `write`:
//!
//! | Scheme | States | A write to a block other caches hold |
//! |---|---|---|
//! | WTI | S | writes through; the others invalidate on it for free |
//! | Write-Once | S, E (*reserved*), M (*dirty*) | the first writes through and invalidates; later ones stay local |
//! | MESI | S, E, M | one upgrade transaction invalidates |
//! | Berkeley | S, O | one bus transaction invalidates; the writer owns |
//! | Dragon | S, O | broadcasts a word update; every copy becomes O |
//! | Firefly | S, M | broadcasts a word update that memory also takes |
//!
//! WTI, Write-Once and Berkeley evolve which blocks are where exactly as
//! `Dir0B` does, so their event totals coincide with it (the integration
//! tests assert this); only suppliers and costs differ. The update
//! protocols never invalidate: "once a block is loaded into a cache, it
//! remains there forever" with infinite caches, so their misses are the
//! per-cache cold misses.

use crate::event::{CoherenceStyle, Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::CacheArray;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// A cached copy's MOESI state; a cache without a copy holds it Invalid.
/// The discriminant is the copy's code in [`Protocol::encode_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    /// Valid and not owned: memory or an owner has the current data.
    Shared = 0,
    /// The only copy, consistent with memory.
    Exclusive = 1,
    /// The only copy, newer than memory.
    Modified = 2,
    /// Newer than memory and possibly shared: an owner supplies the block
    /// and writes it back when it leaves.
    Owned = 3,
}

/// A snoopy protocol: every cache's MOESI copies, and the scheme whose
/// rules move them.
#[derive(Debug, Clone)]
pub(crate) struct Snoopy {
    kind: ProtocolKind,
    caches: CacheArray<Copy>,
}

impl Snoopy {
    /// Creates the `kind` scheme over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub(crate) fn new(kind: ProtocolKind, n_caches: usize) -> Self {
        Snoopy { kind, caches: CacheArray::new(n_caches) }
    }

    /// Whether one of `holders` owns `block` (an O or M copy): memory is
    /// stale.
    fn owned(&self, holders: CacheIdSet, block: BlockAddr) -> bool {
        holders
            .iter()
            .any(|c| matches!(self.caches.state(c, block), Some(Copy::Owned | Copy::Modified)))
    }

    fn read(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        if self.caches.state(cache, block).is_some() {
            return Outcome::quiet(Event::ReadHit);
        }
        let holders = self.caches.holders(block);
        let dirty = self.owned(holders, block);
        let mut out = Outcome::quiet(Event::ReadMiss(MissContext::of(holders, dirty, first_ref)));
        let copy = self.read_miss(&mut out, holders, dirty);
        // An E or M copy was the only one; it is shared now.
        if let Some(sole) = holders.sole() {
            if matches!(self.caches.state(sole, block), Some(Copy::Exclusive | Copy::Modified)) {
                self.caches.set(sole, block, Copy::Shared);
            }
        }
        self.caches.set(cache, block, copy);
        out
    }

    /// A read miss's own rules: who supplies the block, what memory
    /// takes, and the copy the reader installs.
    fn read_miss(&self, out: &mut Outcome, holders: CacheIdSet, dirty: bool) -> Copy {
        match self.kind {
            // Memory is always current under write-through.
            ProtocolKind::Wti => Copy::Shared,
            // The owner supplies and keeps ownership; memory stays stale.
            ProtocolKind::Berkeley => {
                out.cache_supplied = dirty;
                Copy::Shared
            }
            // The dirty owner supplies, and memory takes the same transfer.
            ProtocolKind::WriteOnce => {
                if dirty {
                    out.cache_supplied = true;
                    *out = out.with_write_back();
                }
                Copy::Shared
            }
            // The Illinois trick: a block no one else holds installs
            // Exclusive. Otherwise a cache supplies it, a Modified
            // supplier writing back in the same transfer.
            ProtocolKind::Mesi if holders.is_empty() => Copy::Exclusive,
            ProtocolKind::Mesi => {
                out.cache_supplied = true;
                if dirty {
                    *out = out.with_write_back();
                }
                Copy::Shared
            }
            // The shared line has any holder supply the block. A written
            // block stays stale until its last copy leaves, and every copy
            // of it is Owned.
            ProtocolKind::Dragon => {
                out.cache_supplied = !holders.is_empty();
                if dirty {
                    Copy::Owned
                } else {
                    Copy::Shared
                }
            }
            // Any holder supplies; a dirty supplier's transfer refreshes
            // memory.
            ProtocolKind::Firefly => {
                out.cache_supplied = !holders.is_empty();
                out.memory_updated = dirty;
                Copy::Shared
            }
            kind => unreachable!("{kind} is not a snoopy scheme"),
        }
    }

    fn write(&mut self, cache: CacheId, block: BlockAddr, first_ref: bool) -> Outcome {
        let held = self.caches.state(cache, block).copied();
        let holders = self.caches.holders(block);
        let others = holders.without(cache);
        let n = others.len() as u32;
        // Whether another cache owns the block matters only on a miss.
        let dirty = held.is_none() && self.owned(holders, block);
        let event = match held {
            None => Event::WriteMiss(MissContext::of(holders, dirty, first_ref)),
            // A dirty copy no other cache holds writes in place, silently.
            Some(Copy::Modified | Copy::Owned) if n == 0 => {
                return Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty));
            }
            // Write-Once's second write dirties its reserved copy.
            Some(Copy::Exclusive) if self.kind == ProtocolKind::WriteOnce => {
                Event::WriteHit(WriteHitContext::Dirty)
            }
            // MESI pays the upgrade for a Shared copy even when its peers
            // have gone.
            Some(Copy::Shared) if self.kind == ProtocolKind::Mesi => {
                Event::WriteHit(WriteHitContext::CleanShared { others: n })
            }
            Some(_) if n == 0 => Event::WriteHit(WriteHitContext::CleanExclusive),
            Some(_) => Event::WriteHit(WriteHitContext::CleanShared { others: n }),
        };
        let mut out = Outcome::quiet(event);
        let supplied = held.is_none() && n > 0;
        let copy = match self.kind {
            // Every write goes through to memory.
            ProtocolKind::Wti => {
                out.memory_updated = true;
                Copy::Shared
            }
            // The previous owner supplies a write miss; the writer owns.
            ProtocolKind::Berkeley => {
                out.cache_supplied = dirty;
                Copy::Owned
            }
            ProtocolKind::WriteOnce if held == Some(Copy::Exclusive) => Copy::Modified,
            // A first write goes through to memory and leaves the copy
            // reserved (E); a dirty owner supplies a miss and writes back.
            ProtocolKind::WriteOnce => {
                if dirty {
                    out.cache_supplied = true;
                    out = out.with_write_back();
                }
                out.memory_updated = true;
                Copy::Exclusive
            }
            // E upgrades to M silently: the headline MESI benefit.
            ProtocolKind::Mesi if held == Some(Copy::Exclusive) => Copy::Modified,
            ProtocolKind::Mesi if held.is_some() => {
                out.control_messages = 1;
                Copy::Modified
            }
            // The read-for-ownership is supplied by a cache if any holds
            // the block, a Modified supplier writing back.
            ProtocolKind::Mesi => {
                out.cache_supplied = supplied;
                if dirty {
                    out = out.with_write_back();
                }
                Copy::Modified
            }
            // A write to a shared block broadcasts a one-word update.
            ProtocolKind::Dragon => {
                out.cache_supplied = supplied;
                out.updates = u32::from(n > 0);
                Copy::Owned
            }
            // An exclusive write stays local and dirty; a shared one is a
            // one-word bus write that the other copies and memory take.
            ProtocolKind::Firefly if n == 0 => Copy::Modified,
            ProtocolKind::Firefly => {
                out.cache_supplied = supplied;
                out.updates = 1;
                out.memory_updated = true;
                Copy::Shared
            }
            kind => unreachable!("{kind} is not a snoopy scheme"),
        };
        // An invalidation leaves only the writer's copy; an update leaves
        // every copy in the writer's new state, which they already share
        // if the writer's copy was in it.
        let invalidate = self.kind.style() == CoherenceStyle::Invalidate;
        if invalidate || held != Some(copy) {
            for other in others.iter() {
                if invalidate {
                    self.caches.remove(other, block);
                } else {
                    self.caches.set(other, block, copy);
                }
            }
        }
        self.caches.set(cache, block, copy);
        out
    }
}

impl Protocol for Snoopy {
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
        // The last owner to leave writes the block back; S and E copies
        // are consistent with memory or an owner that stays.
        match self.caches.remove(cache, block) {
            Some(Copy::Modified | Copy::Owned)
                if !self.owned(self.caches.holders(block), block) =>
            {
                EvictOutcome::WRITE_BACK
            }
            _ => EvictOutcome::SILENT,
        }
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()?;
        let states: &[Copy] = match self.kind {
            ProtocolKind::Wti => &[Copy::Shared],
            ProtocolKind::Berkeley | ProtocolKind::Dragon => &[Copy::Shared, Copy::Owned],
            ProtocolKind::Firefly => &[Copy::Shared, Copy::Modified],
            ProtocolKind::WriteOnce | ProtocolKind::Mesi => {
                &[Copy::Shared, Copy::Exclusive, Copy::Modified]
            }
            kind => unreachable!("{kind} is not a snoopy scheme"),
        };
        for (block, &holders) in self.caches.iter_blocks() {
            let copies = || holders.iter().filter_map(|c| self.caches.state(c, block));
            if let Some(copy) = copies().find(|copy| !states.contains(copy)) {
                return Err(format!("{block}: {} has no {copy:?} copies", self.kind));
            }
            let exclusive = copies().any(|s| matches!(s, Copy::Exclusive | Copy::Modified));
            if exclusive && holders.len() > 1 {
                return Err(format!("{block}: an E or M copy shares with {holders}"));
            }
            // This model refreshes Dragon's memory only when a written
            // block's last copy leaves, so every copy of it owns.
            let owners = copies().filter(|s| matches!(s, Copy::Owned | Copy::Modified)).count();
            let allowed = match self.kind {
                ProtocolKind::Dragon => owners == 0 || owners == holders.len(),
                _ => owners <= 1,
            };
            if !allowed {
                return Err(format!("{block}: {owners} owners among {holders}"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |copy| *copy as u64);
    }
}

#[cfg(test)]
mod tests {
    //! Helpers for the scenario tests, which follow grouped by scheme
    //! (`wti::tests`, `dragon::tests`, ...), plus the body's own tests.
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

    #[test]
    fn the_last_owner_to_leave_writes_back() {
        // Which eviction of caches 0, 1 and 2 writes back, in that order.
        let kinds = [
            (ProtocolKind::Wti, None),
            (ProtocolKind::Dragon, Some(2)),
            (ProtocolKind::Berkeley, Some(0)),
            (ProtocolKind::WriteOnce, None),
            (ProtocolKind::Firefly, None),
            (ProtocolKind::Mesi, None),
        ];
        for (kind, writes_back) in kinds {
            let p = &mut *build(kind, 4);
            let mut fresh = Vec::new();
            p.encode_state(&mut fresh);
            write(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            for cache in 0..3 {
                let o = p.evict(c(cache), b(1));
                assert_eq!(o.write_back, writes_back == Some(cache), "{kind}: evicting {cache}");
                assert_eq!(o.control_messages, 0, "{kind}: snoopy caches leave silently");
                p.check_invariants().unwrap();
            }
            assert_eq!(p.evict(c(0), b(1)), EvictOutcome::SILENT, "{kind}: nothing left");
            let mut emptied = Vec::new();
            p.encode_state(&mut emptied);
            assert_eq!(emptied, fresh, "{kind}: an uncached block keeps no state");
        }
    }

    #[test]
    fn each_scheme_holds_only_its_own_states() {
        let all = [Copy::Shared, Copy::Exclusive, Copy::Modified, Copy::Owned];
        let kinds = [
            (ProtocolKind::Wti, "S"),
            (ProtocolKind::Dragon, "SO"),
            (ProtocolKind::Berkeley, "SO"),
            (ProtocolKind::WriteOnce, "SEM"),
            (ProtocolKind::Firefly, "SM"),
            (ProtocolKind::Mesi, "SEM"),
        ];
        for (kind, states) in kinds {
            for copy in all {
                let mut p = Snoopy::new(kind, 2);
                p.caches.set(c(0), b(1), copy);
                let letter = &format!("{copy:?}")[..1];
                assert_eq!(
                    p.check_invariants().is_ok(),
                    states.contains(letter),
                    "{kind}: {copy:?}"
                );
            }
        }
    }
}

// Scenario tests, one module per scheme.

#[cfg(test)]
mod wti {
    mod tests {
        use crate::snoopy::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const WTI: ProtocolKind = ProtocolKind::Wti;

        #[test]
        fn every_write_updates_memory() {
            let p = &mut *build(WTI, 4);
            assert!(write(p, 0, 1, true).memory_updated);
            assert!(write(p, 0, 1, false).memory_updated);
            read(p, 1, 1, false);
            assert!(write(p, 1, 1, false).memory_updated);
        }

        #[test]
        fn writes_invalidate_other_copies_for_free() {
            let p = &mut *build(WTI, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
            assert_eq!(o.control_messages, 0, "snooped invalidations are free");
            assert!(!o.used_broadcast);
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
        }

        #[test]
        fn no_block_is_ever_dirty() {
            let p = &mut *build(WTI, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(
                o.event,
                Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }),
                "memory is current: never a dirty-elsewhere miss"
            );
            assert!(!o.write_back);
        }

        #[test]
        fn write_allocate_installs_the_block() {
            let p = &mut *build(WTI, 2);
            let o = write(p, 0, 1, true);
            assert_eq!(o.event, Event::WriteMiss(MissContext::FirstRef));
            assert_eq!(read(p, 0, 1, false).event, Event::ReadHit);
        }

        #[test]
        fn repeat_exclusive_writes_classify_clean_exclusive() {
            let p = &mut *build(WTI, 2);
            write(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        }

        #[test]
        fn invariants_hold() {
            let p = &mut *build(WTI, 3);
            for i in 0..100u64 {
                let cache = (i % 3) as u16;
                if i % 4 == 0 {
                    write(p, cache, i % 7, i < 7);
                } else {
                    read(p, cache, i % 7, i < 7);
                }
            }
            p.check_invariants().unwrap();
        }
    }
}

#[cfg(test)]
mod dragon {
    mod tests {
        use crate::snoopy::tests::{b, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const DRAGON: ProtocolKind = ProtocolKind::Dragon;

        #[test]
        fn copies_are_never_invalidated() {
            let p = &mut *build(DRAGON, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
            assert_eq!(o.updates, 1, "one word-update broadcast");
            assert_eq!(p.holders(b(1)).len(), 3, "all copies remain");
            p.check_invariants().unwrap();
        }

        #[test]
        fn misses_only_happen_once_per_cache() {
            let p = &mut *build(DRAGON, 2);
            assert!(read(p, 0, 1, true).event.is_miss());
            assert!(read(p, 1, 1, false).event.is_miss());
            for _ in 0..10 {
                assert_eq!(read(p, 0, 1, false).event, Event::ReadHit);
                assert_eq!(read(p, 1, 1, false).event, Event::ReadHit);
                assert!(!write(p, 0, 1, false).event.is_miss());
            }
        }

        #[test]
        fn cache_supplies_when_any_holder_exists() {
            let p = &mut *build(DRAGON, 4);
            read(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert!(o.cache_supplied);
            // After a write, further cold misses classify dirty-elsewhere.
            write(p, 0, 1, false);
            let o = read(p, 2, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied);
            assert!(!o.write_back, "Dragon never writes back in an infinite cache");
        }

        #[test]
        fn exclusive_writes_are_quiet() {
            let p = &mut *build(DRAGON, 4);
            write(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
            assert_eq!(o.updates, 0);
            assert_eq!(o.control_messages, 0);
        }

        #[test]
        fn write_miss_to_shared_block_updates() {
            let p = &mut *build(DRAGON, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 2, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
            assert_eq!(o.updates, 1);
            assert!(o.cache_supplied);
            assert_eq!(p.holders(b(1)).len(), 3);
        }

        #[test]
        fn memory_never_freshened() {
            let p = &mut *build(DRAGON, 2);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert!(!o.memory_updated);
            p.check_invariants().unwrap();
        }

        #[test]
        fn clean_exclusive_write_hit_after_read() {
            let p = &mut *build(DRAGON, 2);
            read(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert_eq!(o.updates, 0);
        }
    }
}

#[cfg(test)]
mod berkeley {
    mod tests {
        use crate::snoopy::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const BERKELEY: ProtocolKind = ProtocolKind::Berkeley;

        #[test]
        fn owner_supplies_without_write_back() {
            let p = &mut *build(BERKELEY, 4);
            write(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied, "the owner supplies the block");
            assert!(!o.write_back, "memory stays stale: that's the Berkeley point");
            assert!(!o.memory_updated);
            assert_eq!(p.holders(b(1)).len(), 2);
            p.check_invariants().unwrap();
        }

        #[test]
        fn ownership_persists_through_sharing() {
            let p = &mut *build(BERKELEY, 4);
            write(p, 0, 1, true);
            read(p, 1, 1, false);
            // Cache 0 is shared-dirty: its next write must invalidate cache 1.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn ownership_transfers_on_write_miss() {
            let p = &mut *build(BERKELEY, 4);
            write(p, 0, 1, true);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied);
            assert!(!o.write_back);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            // New owner writes silently now.
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        }

        #[test]
        fn unowned_shared_read_comes_from_memory() {
            let p = &mut *build(BERKELEY, 4);
            read(p, 0, 1, true);
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert!(!o.cache_supplied, "no owner: memory supplies");
        }

        #[test]
        fn shared_write_hit_takes_ownership() {
            let p = &mut *build(BERKELEY, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
            p.check_invariants().unwrap();
        }
    }
}

#[cfg(test)]
mod write_once {
    mod tests {
        use crate::snoopy::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const WRITE_ONCE: ProtocolKind = ProtocolKind::WriteOnce;

        #[test]
        fn first_write_goes_through_second_stays_local() {
            let p = &mut *build(WRITE_ONCE, 4);
            read(p, 0, 1, true);
            let o1 = write(p, 0, 1, false);
            assert_eq!(o1.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert!(o1.memory_updated, "the first write is written through");
            let o2 = write(p, 0, 1, false);
            assert_eq!(o2.event, Event::WriteHit(WriteHitContext::Dirty));
            assert!(!o2.memory_updated, "later writes stay local");
            p.check_invariants().unwrap();
        }

        #[test]
        fn first_write_invalidates_sharers_for_free() {
            let p = &mut *build(WRITE_ONCE, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            read(p, 2, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
            assert_eq!(o.control_messages, 0, "snooped off the write-through");
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
        }

        #[test]
        fn dirty_owner_supplies_and_memory_freshens() {
            let p = &mut *build(WRITE_ONCE, 4);
            read(p, 0, 1, true);
            write(p, 0, 1, false); // reserved
            write(p, 0, 1, false); // dirty
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied && o.write_back && o.memory_updated);
            assert_eq!(p.holders(b(1)).len(), 2);
            // The old owner's copy is now plain Valid: its next write is a
            // first write again.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            p.check_invariants().unwrap();
        }

        #[test]
        fn reserved_copy_loses_exclusivity_on_shared_read() {
            let p = &mut *build(WRITE_ONCE, 4);
            write(p, 0, 1, true); // miss -> reserved
            let o = read(p, 1, 1, false);
            // Reserved means memory is current: a clean miss, no write-back.
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert!(!o.write_back);
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_miss_takes_reserved_ownership() {
            let p = &mut *build(WRITE_ONCE, 4);
            read(p, 0, 1, true);
            let o = write(p, 1, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert!(o.memory_updated);
            assert_eq!(p.holders(b(1)).sole(), Some(c(1)));
            // Next write is local.
            assert_eq!(write(p, 1, 1, false).event, Event::WriteHit(WriteHitContext::Dirty));
        }
    }
}

#[cfg(test)]
mod firefly {
    mod tests {
        use crate::snoopy::tests::{b, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const FIREFLY: ProtocolKind = ProtocolKind::Firefly;

        #[test]
        fn shared_writes_update_memory() {
            let p = &mut *build(FIREFLY, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert_eq!(o.updates, 1);
            assert!(o.memory_updated, "Firefly updates memory on shared writes");
            assert_eq!(p.holders(b(1)).len(), 2, "no copy is invalidated");
            p.check_invariants().unwrap();
        }

        #[test]
        fn exclusive_writes_stay_local_and_stale() {
            let p = &mut *build(FIREFLY, 4);
            write(p, 0, 1, true);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
            assert!(!o.memory_updated);
            // A later reader forces the supply to refresh memory.
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied && o.memory_updated);
            // Now shared and clean: writes are one-word bus updates.
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            p.check_invariants().unwrap();
        }

        #[test]
        fn shared_blocks_never_have_stale_memory() {
            let p = &mut *build(FIREFLY, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            for _ in 0..5 {
                write(p, 0, 1, false);
                write(p, 1, 1, false);
                p.check_invariants().unwrap();
            }
            // A third cache's miss is clean (memory current).
            let o = read(p, 2, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 }));
        }

        #[test]
        fn copies_never_disappear() {
            let p = &mut *build(FIREFLY, 4);
            for cache in 0..4u16 {
                read(p, cache, 1, cache == 0);
            }
            write(p, 2, 1, false);
            assert_eq!(p.holders(b(1)).len(), 4);
        }
    }
}

#[cfg(test)]
mod mesi {
    mod tests {
        use crate::snoopy::tests::{b, c, read, write};
        use crate::{build, Event, MissContext, ProtocolKind, WriteHitContext};

        const MESI: ProtocolKind = ProtocolKind::Mesi;

        #[test]
        fn exclusive_upgrade_is_silent() {
            let p = &mut *build(MESI, 4);
            read(p, 0, 1, true); // E
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
            assert_eq!(o.control_messages, 0, "E->M costs no bus transaction");
            assert!(!o.used_broadcast && !o.memory_updated);
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
            p.check_invariants().unwrap();
        }

        #[test]
        fn shared_upgrade_costs_one_transaction() {
            let p = &mut *build(MESI, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false); // both Shared now
            let o = write(p, 0, 1, false);
            assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
            assert_eq!(o.control_messages, 1);
            assert_eq!(p.holders(b(1)).sole(), Some(c(0)));
            p.check_invariants().unwrap();
        }

        #[test]
        fn second_reader_demotes_exclusive_and_is_cache_supplied() {
            let p = &mut *build(MESI, 4);
            read(p, 0, 1, true); // E in cache 0
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
            assert!(o.cache_supplied, "Illinois: caches supply each other");
            assert!(!o.write_back, "clean supplier, memory already current");
            // The old E copy is now S: its write costs a transaction.
            let o = write(p, 0, 1, false);
            assert_eq!(o.control_messages, 1);
            p.check_invariants().unwrap();
        }

        #[test]
        fn modified_supplier_writes_back_while_supplying() {
            let p = &mut *build(MESI, 4);
            write(p, 0, 1, true); // M
            let o = read(p, 1, 1, false);
            assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
            assert!(o.cache_supplied && o.write_back && o.memory_updated);
            assert_eq!(p.holders(b(1)).len(), 2);
            p.check_invariants().unwrap();
        }

        #[test]
        fn write_miss_invalidates_via_rfo() {
            let p = &mut *build(MESI, 4);
            read(p, 0, 1, true);
            read(p, 1, 1, false);
            let o = write(p, 2, 1, false);
            assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
            assert_eq!(o.control_messages, 0, "invalidation rides the fetch");
            assert!(o.cache_supplied);
            assert_eq!(p.holders(b(1)).sole(), Some(c(2)));
        }

        #[test]
        fn single_me_copy_invariant_holds_under_stress() {
            let p = &mut *build(MESI, 4);
            for i in 0..500u64 {
                let cache = (i % 4) as u16;
                if i % 3 == 0 {
                    write(p, cache, i % 6, i < 6);
                } else {
                    read(p, cache, i % 6, i < 6);
                }
                p.check_invariants().unwrap();
            }
        }
    }
}
