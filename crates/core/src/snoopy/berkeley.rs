//! The Berkeley Ownership snoopy protocol.
//!
//! The paper estimates Berkeley's performance from the `Dir0B` event
//! frequencies "by trivially setting the directory access cost to 0 bus
//! cycles", noting that "the Berkeley scheme, in addition, uses a different
//! state for a dirty block that becomes shared to enable the cache to
//! supply a block rather than memory."
//!
//! This module implements the protocol itself: an invalidation snoopy
//! scheme with *ownership* — the owner of a dirty block supplies it
//! cache-to-cache on a miss and keeps ownership (state *shared-dirty*);
//! memory is never updated while the block stays cached. Because the
//! which-blocks-are-where evolution matches `Dir0B`'s state-change model,
//! the rm/wm/wh event totals coincide with `Dir0B` (asserted by
//! integration tests); only suppliers and costs differ.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::CacheArray;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// Per-cache copy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    /// Valid, not owned (memory or some owner has the canonical copy).
    Shared,
    /// Owned: this cache supplies the block and must eventually write it
    /// back (never, with infinite caches). May coexist with `Shared`
    /// copies (the shared-dirty state).
    Owned,
}

/// The Berkeley Ownership protocol.
///
/// ```
/// use dircc_core::snoopy::Berkeley;
/// use dircc_core::Protocol;
///
/// assert_eq!(Berkeley::new(4).name(), "Berkeley");
/// ```
#[derive(Debug, Clone)]
pub struct Berkeley {
    caches: CacheArray<Copy>,
}

impl Berkeley {
    /// Creates a Berkeley protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Berkeley { caches: CacheArray::new(n_caches) }
    }

    fn owner(&self, block: BlockAddr) -> Option<CacheId> {
        self.caches
            .holders(block)
            .iter()
            .find(|c| self.caches.state(*c, block) == Some(&Copy::Owned))
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.owner(block).is_some() {
            // An owner exists: memory is stale, the owner supplies.
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

impl Protocol for Berkeley {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Berkeley
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
            AccessKind::Read => {
                if self.caches.state(cache, block).is_some() {
                    return Outcome::quiet(Event::ReadHit);
                }
                let ctx = self.classify_miss(block, first_ref);
                let mut out = Outcome::quiet(Event::ReadMiss(ctx));
                // The owner (if any) supplies the block and *keeps
                // ownership* — no write-back to memory. Without an owner,
                // memory supplies.
                out.cache_supplied = self.owner(block).is_some();
                self.caches.set(cache, block, Copy::Shared);
                out
            }
            AccessKind::Write => {
                let local = self.caches.state(cache, block).copied();
                let others = self.caches.other_holders(cache, block);
                let event = match local {
                    Some(Copy::Owned) if others.is_empty() => {
                        // Exclusive owner: write proceeds silently.
                        return Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty));
                    }
                    Some(_) => {
                        // Shared (or shared-dirty) hit: one bus transaction
                        // invalidates the other copies.
                        if others.is_empty() {
                            Event::WriteHit(WriteHitContext::CleanExclusive)
                        } else {
                            Event::WriteHit(WriteHitContext::CleanShared {
                                others: others.len() as u32,
                            })
                        }
                    }
                    None => Event::WriteMiss(self.classify_miss(block, first_ref)),
                };
                let mut out = Outcome::quiet(event);
                // On a write miss, the previous owner (if any) supplies.
                if local.is_none() {
                    out.cache_supplied = self.owner(block).is_some();
                }
                // Invalidations are snooped off the single bus transaction.
                for h in others.iter() {
                    self.caches.remove(h, block);
                }
                self.caches.set(cache, block, Copy::Owned);
                out
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        match self.caches.remove(cache, block) {
            // Ownership returns to memory with the data.
            Some(Copy::Owned) => EvictOutcome::WRITE_BACK,
            Some(Copy::Shared) => EvictOutcome::SILENT,
            None => EvictOutcome::SILENT,
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
        // At most one owner per block.
        for (block, holders) in self.caches.iter_blocks() {
            let owners = holders
                .iter()
                .filter(|c| self.caches.state(*c, block) == Some(&Copy::Owned))
                .count();
            if owners > 1 {
                return Err(format!("{block}: {owners} owners"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| u64::from(*s == Copy::Owned));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut Berkeley, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut Berkeley, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn owner_supplies_without_write_back() {
        let mut p = Berkeley::new(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied, "the owner supplies the block");
        assert!(!o.write_back, "memory stays stale: that's the Berkeley point");
        assert!(!o.memory_updated);
        assert_eq!(p.holders(b(1)).len(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn ownership_persists_through_sharing() {
        let mut p = Berkeley::new(4);
        write(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        // Cache 0 is shared-dirty: its next write must invalidate cache 1.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(0)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn ownership_transfers_on_write_miss() {
        let mut p = Berkeley::new(4);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied);
        assert!(!o.write_back);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(1)));
        // New owner writes silently now.
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
    }

    #[test]
    fn unowned_shared_read_comes_from_memory() {
        let mut p = Berkeley::new(4);
        read(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert!(!o.cache_supplied, "no owner: memory supplies");
    }

    #[test]
    fn shared_write_hit_takes_ownership() {
        let mut p = Berkeley::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(1)));
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        p.check_invariants().unwrap();
    }
}
