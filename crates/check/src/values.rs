//! The data-value oracle shared by the replay engine and the checker.
//!
//! Every write bumps its block's version, and memory and each cached copy
//! remember the version they last took. A read must observe the latest
//! version, a miss must be supplied it (from memory only when memory is
//! current), an invalidation protocol may leave no other copy behind a
//! write, and an eviction may write back only the latest version. The
//! engine in `dircc-sim` records each `Err` as a violation and replays on;
//! the checker stops at the first.

use dircc_core::{CoherenceStyle, Event, Outcome, Protocol};
use dircc_types::{AccessKind, BlockAddr, CacheId};
use std::fmt::Display;

/// Version tables indexed by (dense) block index. They start `blocks`
/// long and grow on demand; an absent entry reads as version 0, the
/// block's initial state.
#[derive(Debug, Clone)]
pub struct ValueModel {
    /// `version[b]`: latest version of block `b`.
    version: Vec<u64>,
    /// `memory[b]`: version main memory holds.
    memory: Vec<u64>,
    /// `copy[c][b]`: version cache `c` last observed for block `b`.
    /// Stale entries stay after an invalidation or eviction.
    copy: Vec<Vec<u64>>,
}

fn get(table: &[u64], b: usize) -> u64 {
    table.get(b).copied().unwrap_or(0)
}

fn set(table: &mut Vec<u64>, b: usize, ver: u64) {
    if table.len() <= b {
        table.resize(b + 1, 0);
    }
    table[b] = ver;
}

impl ValueModel {
    /// Tables for `caches` caches, each sized for `blocks` blocks.
    pub fn new(caches: usize, blocks: usize) -> Self {
        ValueModel {
            version: vec![0; blocks],
            memory: vec![0; blocks],
            copy: vec![vec![0; blocks]; caches],
        }
    }

    /// Judges one data access `protocol` has just answered with `out`,
    /// and updates the tables. `shown` names the block in messages.
    ///
    /// # Errors
    ///
    /// The first rule the access breaks. The tables are updated either
    /// way, so a caller that keeps going judges later accesses against
    /// what the protocol actually did.
    pub fn access<P: Protocol + ?Sized>(
        &mut self,
        protocol: &P,
        cache: CacheId,
        kind: AccessKind,
        block: BlockAddr,
        shown: impl Display,
        out: &Outcome,
    ) -> Result<(), String> {
        let (b, c) = (block.index() as usize, cache.index());
        let holders = protocol.holders(block);
        if !holders.contains(cache) {
            return Err(format!("{cache} accessed {shown} but is not a holder afterwards"));
        }
        let cur = get(&self.version, b);
        match kind {
            AccessKind::Write => {
                let new_ver = cur + 1;
                set(&mut self.version, b, new_ver);
                set(&mut self.copy[c], b, new_ver);
                if out.memory_updated {
                    set(&mut self.memory, b, new_ver);
                }
                match protocol.style() {
                    // Updates reach every current holder.
                    CoherenceStyle::Update => {
                        for h in holders.iter() {
                            set(&mut self.copy[h.index()], b, new_ver);
                        }
                    }
                    // Single-writer: no other copy may survive a write.
                    CoherenceStyle::Invalidate if holders.len() != 1 => {
                        return Err(format!(
                            "invalidation protocol left {} copies of {shown} after a write",
                            holders.len()
                        ));
                    }
                    CoherenceStyle::Invalidate => {}
                }
            }
            AccessKind::Read => match out.event {
                Event::ReadHit => {
                    let held = get(&self.copy[c], b);
                    if held != cur {
                        return Err(format!(
                            "read hit observed version {held} of {shown}, latest is {cur}"
                        ));
                    }
                }
                Event::ReadMiss(_) => {
                    // Where did the data come from?
                    if out.memory_updated {
                        set(&mut self.memory, b, cur);
                    }
                    let supplied = if out.cache_supplied || out.write_back {
                        cur
                    } else {
                        get(&self.memory, b)
                    };
                    set(&mut self.copy[c], b, supplied);
                    if supplied != cur {
                        return Err(format!(
                            "miss on {shown} supplied version {supplied}, latest is {cur}"
                        ));
                    }
                }
                other => return Err(format!("read classified as {other}")),
            },
            AccessKind::InstrFetch => unreachable!("instruction fetches never reach a protocol"),
        }
        Ok(())
    }

    /// Judges an eviction of `cache`'s copy of `block` that wrote it
    /// back: memory takes the copy's version, which must be the latest.
    ///
    /// # Errors
    ///
    /// The write-back carried a stale version (memory takes it anyway).
    pub fn write_back(
        &mut self,
        cache: CacheId,
        block: BlockAddr,
        shown: impl Display,
    ) -> Result<(), String> {
        let b = block.index() as usize;
        let held = get(&self.copy[cache.index()], b);
        set(&mut self.memory, b, held);
        let cur = get(&self.version, b);
        if held != cur {
            return Err(format!("eviction wrote back version {held} of {shown}, latest is {cur}"));
        }
        Ok(())
    }

    /// Appends every table to a state key: versions, memory, then each
    /// cache's copies.
    pub fn encode(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.version);
        out.extend_from_slice(&self.memory);
        for c in &self.copy {
            out.extend_from_slice(c);
        }
    }
}
