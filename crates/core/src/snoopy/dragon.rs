//! The Dragon snoopy **update** protocol.
//!
//! "Dragon is an update protocol, i.e., it maintains consistency by
//! updating stale cached data with the new value rather than by
//! invalidating the stale data. The cache keeps state with each block to
//! indicate whether or not each block is shared; all writes to shared
//! blocks must be broadcast on the bus so that the other copies can be
//! updated. Dragon uses a special 'shared' line to determine whether a
//! block is currently being shared."
//!
//! With infinite caches copies never disappear, so "once a block is loaded
//! into a cache, it remains there forever" — Dragon's misses are only the
//! per-cache cold misses, and its dominant bus events are the write
//! updates (`wh-distrib`).

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockSet, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// The Dragon update protocol.
///
/// ```
/// use dircc_core::snoopy::Dragon;
/// use dircc_core::{CoherenceStyle, Protocol};
///
/// let p = Dragon::new(4);
/// assert_eq!(p.name(), "Dragon");
/// assert_eq!(p.style(), CoherenceStyle::Update);
/// ```
#[derive(Debug, Clone)]
pub struct Dragon {
    caches: CacheArray<()>,
    /// Blocks whose memory copy is stale (written at least once; with
    /// infinite caches a written block is never flushed back).
    memory_stale: BlockSet,
}

impl Dragon {
    /// Creates a Dragon protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Dragon { caches: CacheArray::new(n_caches), memory_stale: BlockSet::new() }
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.memory_stale.contains(block) {
            // An owner (shared-dirty) copy exists; it supplies the data.
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

impl Protocol for Dragon {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Dragon
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
                // The shared line tells the holders to supply the block
                // cache-to-cache whenever one exists.
                out.cache_supplied = !self.caches.holders(block).is_empty();
                self.caches.set(cache, block, ());
                out
            }
            AccessKind::Write => {
                let hit = self.caches.state(cache, block).is_some();
                let others = self.caches.other_holders(cache, block);
                let mut out = if hit {
                    let event = if others.is_empty() {
                        if self.memory_stale.contains(block) {
                            Event::WriteHit(WriteHitContext::Dirty)
                        } else {
                            Event::WriteHit(WriteHitContext::CleanExclusive)
                        }
                    } else {
                        Event::WriteHit(WriteHitContext::CleanShared {
                            others: others.len() as u32,
                        })
                    };
                    Outcome::quiet(event)
                } else {
                    let ctx = self.classify_miss(block, first_ref);
                    let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                    out.cache_supplied = !others.is_empty();
                    out
                };
                // Writes to shared blocks broadcast a one-word update; no
                // copy is ever invalidated.
                if !others.is_empty() {
                    out.updates = 1;
                }
                self.caches.set(cache, block, ());
                self.memory_stale.insert(block);
                out
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        if self.caches.remove(cache, block).is_none() {
            return EvictOutcome::SILENT;
        }
        // Update protocol: every copy is current, so the *last* copy of a
        // stale-memory block must flush on its way out.
        if self.caches.holders(block).is_empty() && self.memory_stale.remove(block) {
            EvictOutcome::WRITE_BACK
        } else {
            EvictOutcome::SILENT
        }
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
        self.memory_stale.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()?;
        // A stale-memory block must still be cached somewhere (infinite
        // caches: the writer's copy cannot have vanished).
        for block in self.memory_stale.iter() {
            if self.caches.holders(block).is_empty() {
                return Err(format!("{block}: memory stale but no cached copy"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |()| 0);
        out.push(self.memory_stale.len() as u64);
        out.extend(self.memory_stale.iter().map(|b| b.index()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut Dragon, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut Dragon, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn copies_are_never_invalidated() {
        let mut p = Dragon::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        read(&mut p, 2, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
        assert_eq!(o.updates, 1, "one word-update broadcast");
        assert_eq!(p.holders(b(1)).len(), 3, "all copies remain");
        p.check_invariants().unwrap();
    }

    #[test]
    fn misses_only_happen_once_per_cache() {
        let mut p = Dragon::new(2);
        assert!(read(&mut p, 0, 1, true).event.is_miss());
        assert!(read(&mut p, 1, 1, false).event.is_miss());
        for _ in 0..10 {
            assert_eq!(read(&mut p, 0, 1, false).event, Event::ReadHit);
            assert_eq!(read(&mut p, 1, 1, false).event, Event::ReadHit);
            assert!(!write(&mut p, 0, 1, false).event.is_miss());
        }
    }

    #[test]
    fn cache_supplies_when_any_holder_exists() {
        let mut p = Dragon::new(4);
        read(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert!(o.cache_supplied);
        // After a write, further cold misses classify dirty-elsewhere.
        write(&mut p, 0, 1, false);
        let o = read(&mut p, 2, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied);
        assert!(!o.write_back, "Dragon never writes back in an infinite cache");
    }

    #[test]
    fn exclusive_writes_are_quiet() {
        let mut p = Dragon::new(4);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        assert_eq!(o.updates, 0);
        assert_eq!(o.control_messages, 0);
    }

    #[test]
    fn write_miss_to_shared_block_updates() {
        let mut p = Dragon::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 2, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
        assert_eq!(o.updates, 1);
        assert!(o.cache_supplied);
        assert_eq!(p.holders(b(1)).len(), 3);
    }

    #[test]
    fn memory_never_freshened() {
        let mut p = Dragon::new(2);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert!(!o.memory_updated);
        p.check_invariants().unwrap();
    }

    #[test]
    fn clean_exclusive_write_hit_after_read() {
        let mut p = Dragon::new(2);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        assert_eq!(o.updates, 0);
    }
}
