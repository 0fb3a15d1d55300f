//! Write-Through-With-Invalidate (WTI).
//!
//! "A simple snoopy cache protocol that relies on a write-through (as
//! opposed to copy-back) cache policy ... All writes to cache blocks are
//! transmitted to main memory. Other caches snooping on the bus check to
//! see if they have the block that is being written; if so, they invalidate
//! that block in their own cache. ... Like Dir0B, multiple cached copies of
//! clean blocks can exist simultaneously."
//!
//! Because every write goes to memory, memory is never stale and no block
//! is ever dirty; invalidations are free (piggy-backed on the snooped
//! write). The paper notes WTI shares `Dir0B`'s state-change model, so
//! their rm/wm/wh event totals are identical — an equivalence the
//! integration tests assert.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::CacheArray;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// The WTI snoopy protocol.
///
/// ```
/// use dircc_core::snoopy::Wti;
/// use dircc_core::Protocol;
///
/// assert_eq!(Wti::new(4).name(), "WTI");
/// ```
#[derive(Debug, Clone)]
pub struct Wti {
    caches: CacheArray<()>,
}

impl Wti {
    /// Creates a WTI protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Wti { caches: CacheArray::new(n_caches) }
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else {
            // Memory is always current under write-through, so a cached
            // block is by definition clean.
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

impl Protocol for Wti {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Wti
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
                    Outcome::quiet(Event::ReadHit)
                } else {
                    let ctx = self.classify_miss(block, first_ref);
                    self.caches.set(cache, block, ());
                    Outcome::quiet(Event::ReadMiss(ctx))
                }
            }
            AccessKind::Write => {
                let hit = self.caches.state(cache, block).is_some();
                let others = self.caches.other_holders(cache, block);
                let event = if hit {
                    if others.is_empty() {
                        Event::WriteHit(WriteHitContext::CleanExclusive)
                    } else {
                        Event::WriteHit(WriteHitContext::CleanShared {
                            others: others.len() as u32,
                        })
                    }
                } else {
                    Event::WriteMiss(self.classify_miss(block, first_ref))
                };
                // Snooping caches invalidate for free on the write-through.
                for h in others.iter() {
                    self.caches.remove(h, block);
                }
                self.caches.set(cache, block, ());
                let mut out = Outcome::quiet(event);
                out.memory_updated = true; // the write-through itself
                out
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        // Write-through: memory is always current; evictions are silent.
        self.caches.remove(cache, block);
        EvictOutcome::SILENT
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        // Write-through: residency is the whole state.
        self.caches.encode_states(out, |()| 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut Wti, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut Wti, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn every_write_updates_memory() {
        let mut p = Wti::new(4);
        assert!(write(&mut p, 0, 1, true).memory_updated);
        assert!(write(&mut p, 0, 1, false).memory_updated);
        read(&mut p, 1, 1, false);
        assert!(write(&mut p, 1, 1, false).memory_updated);
    }

    #[test]
    fn writes_invalidate_other_copies_for_free() {
        let mut p = Wti::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        read(&mut p, 2, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
        assert_eq!(o.control_messages, 0, "snooped invalidations are free");
        assert!(!o.used_broadcast);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(0)));
    }

    #[test]
    fn no_block_is_ever_dirty() {
        let mut p = Wti::new(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(
            o.event,
            Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }),
            "memory is current: never a dirty-elsewhere miss"
        );
        assert!(!o.write_back);
    }

    #[test]
    fn write_allocate_installs_the_block() {
        let mut p = Wti::new(2);
        let o = write(&mut p, 0, 1, true);
        assert_eq!(o.event, Event::WriteMiss(MissContext::FirstRef));
        assert_eq!(read(&mut p, 0, 1, false).event, Event::ReadHit);
    }

    #[test]
    fn repeat_exclusive_writes_classify_clean_exclusive() {
        let mut p = Wti::new(2);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
    }

    #[test]
    fn invariants_hold() {
        let mut p = Wti::new(3);
        for i in 0..100u64 {
            let cache = (i % 3) as u16;
            if i % 4 == 0 {
                write(&mut p, cache, i % 7, i < 7);
            } else {
                read(&mut p, cache, i % 7, i < 7);
            }
        }
        p.check_invariants().unwrap();
    }
}
