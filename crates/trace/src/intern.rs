//! Block interning: dense ids for the blocks a trace actually touches.
//!
//! Trace addresses are sparse — whatever the generator's region layout
//! produces. Replaying through hash-mapped per-block state pays a
//! SipHash probe for every table on every reference. A [`BlockInterner`]
//! assigns each distinct block a dense [`BlockId`] in first-appearance
//! order as a stream is ingested; replay then sees dense ids only, so every
//! per-block structure (tag arrays, directory entries, first-reference
//! set, verifier tables) becomes a flat vector. The inverse table
//! ([`BlockInterner::block_addr`]) gives finite-cache set selection and
//! diagnostics a dense id's original block.
//!
//! The renaming is a bijection per (trace, geometry). Protocols only ever
//! compare blocks for identity, so dense replay produces bit-identical
//! event counts — pinned by `dircc-sim`'s interned-vs-raw equality tests.

use dircc_types::{BlockAddr, BlockGeometry, BlockId};
use std::collections::HashMap;

/// A dense renaming of the blocks in one (trace, geometry) stream.
#[derive(Debug, Clone)]
pub struct BlockInterner {
    geometry: BlockGeometry,
    ids: HashMap<u64, u32>,
    /// Dense id → original block index.
    blocks: Vec<u64>,
}

impl BlockInterner {
    /// Creates an empty interner for incremental use: streaming replay
    /// interns blocks chunk by chunk via [`BlockInterner::intern`] as it
    /// first sees them, never holding the whole stream.
    pub fn new(geometry: BlockGeometry) -> Self {
        BlockInterner { geometry, ids: HashMap::new(), blocks: Vec::new() }
    }

    /// Interns `block`, returning its dense id and whether this is the
    /// block's first appearance. Ids are assigned in first-appearance
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the stream touches more than `u32::MAX` distinct blocks.
    #[inline]
    pub fn intern(&mut self, block: BlockAddr) -> (u32, bool) {
        let next = self.ids.len();
        let mut first = false;
        let id = *self.ids.entry(block.index()).or_insert_with(|| {
            first = true;
            u32::try_from(next).expect("more than u32::MAX distinct blocks")
        });
        if first {
            self.blocks.push(block.index());
        }
        (id, first)
    }

    /// The geometry the interner was built with.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// Number of distinct blocks interned — the exact capacity hint for
    /// dense per-block tables.
    pub fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// Returns the dense id of `block`, if the stream touches it.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<BlockId> {
        self.ids.get(&block.index()).map(|&id| BlockId::new(id))
    }

    /// The original block of dense id `id`: the inverse of
    /// [`intern`](Self::intern). Panics if `id` was never assigned.
    #[inline]
    pub fn block_addr(&self, id: u32) -> BlockAddr {
        BlockAddr::from_index(self.blocks[id as usize])
    }

    /// Bytes the renaming holds on the heap: the map's slots (key, value
    /// and control byte each) and the inverse table.
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * (std::mem::size_of::<(u64, u32)>() + 1) + 8 * self.blocks.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::record::TraceRecord;
    use crate::soa::DataRefs;
    use crate::stats::TraceStats;

    fn trace() -> Vec<TraceRecord> {
        Generator::new(Profile::pops().with_total_refs(20_000), 7).collect()
    }

    /// The renaming an ingest of `records` builds.
    fn interned(records: &[TraceRecord], geometry: BlockGeometry) -> BlockInterner {
        DataRefs::ingest(records.iter().copied(), geometry, |_| ()).1
    }

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let interner = interned(&records, geometry);
        assert!(interner.num_blocks() > 0);
        assert_eq!(interner.geometry(), geometry);
        // First data record's block must be id 0; ids cover 0..n densely.
        let first_block =
            records.iter().find(|r| r.is_data()).map(|r| geometry.block_of(r.addr)).unwrap();
        assert_eq!(interner.get(first_block), Some(BlockId::new(0)));
        let mut seen = vec![false; interner.num_blocks()];
        for r in records.iter().filter(|r| r.is_data()) {
            let id = interner.get(geometry.block_of(r.addr)).expect("every data block interned");
            seen[id.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every dense id in 0..n is used");
    }

    #[test]
    fn count_matches_trace_stats() {
        let records = trace();
        let interner = interned(&records, BlockGeometry::PAPER);
        let stats: TraceStats = records.iter().collect();
        assert_eq!(interner.num_blocks(), stats.distinct_data_blocks());
    }

    #[test]
    fn incremental_interning_matches_batch() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let batch = interned(&records, geometry);
        let mut inc = BlockInterner::new(geometry);
        let mut firsts = 0usize;
        for r in records.iter().filter(|r| r.is_data()) {
            let block = geometry.block_of(r.addr);
            let (id, first) = inc.intern(block);
            if first {
                firsts += 1;
            }
            assert_eq!(batch.get(block).unwrap().index(), id as usize);
        }
        assert_eq!(inc.num_blocks(), batch.num_blocks());
        assert_eq!(firsts, batch.num_blocks(), "one first-appearance per block");
    }

    #[test]
    fn block_addr_inverts_the_renaming() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let interner = interned(&records, geometry);
        for r in records.iter().filter(|r| r.is_data()) {
            let block = geometry.block_of(r.addr);
            assert_eq!(interner.block_addr(interner.get(block).unwrap().raw()), block);
        }
        assert!(interner.heap_bytes() >= 8 * interner.num_blocks());
    }

    #[test]
    fn unknown_block_is_none() {
        let records = trace();
        let interner = interned(&records, BlockGeometry::PAPER);
        assert_eq!(interner.get(BlockAddr::from_index(u64::MAX >> 5)), None);
    }
}
