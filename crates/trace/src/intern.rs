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
//!
//! Each lookup hashes a block index by one multiply-fold, not SipHash: the
//! 128-bit product `(index ^ key) * K`, high half XOR low half. The key is
//! drawn per interner from [`RandomState`]: `dircc replay --in` reads files
//! from outside, and under a fixed key a crafted trace could put all its
//! blocks in one probe sequence. Ids follow first appearance whatever the
//! key, so no id, counter or digest depends on it.

use dircc_types::{BlockAddr, BlockGeometry, BlockId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The keyed multiply-fold that hashes block indices, and its own builder.
#[derive(Debug, Clone, Copy)]
struct Fold {
    key: u64,
    hash: u64,
}

impl BuildHasher for Fold {
    type Hasher = Fold;

    fn build_hasher(&self) -> Fold {
        *self
    }
}

impl Hasher for Fold {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        // 2^64 over the golden ratio: odd, with well-spread bits.
        let product = u128::from(x ^ self.key) * 0x9e37_79b9_7f4a_7c15;
        self.hash = (product >> 64) as u64 ^ product as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Block indices hash through `write_u64`; other input folds bytewise.
        for &b in bytes {
            self.write_u64(self.hash ^ u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A dense renaming of the blocks in one (trace, geometry) stream.
#[derive(Debug, Clone)]
pub struct BlockInterner {
    geometry: BlockGeometry,
    ids: HashMap<u64, u32, Fold>,
    /// Dense id → original block index.
    blocks: Vec<u64>,
}

impl BlockInterner {
    /// Creates an empty interner for incremental use: streaming replay
    /// interns blocks chunk by chunk via [`BlockInterner::intern`] as it
    /// first sees them, never holding the whole stream.
    pub fn new(geometry: BlockGeometry) -> Self {
        let fold = Fold { key: RandomState::new().hash_one(0u64), hash: 0 };
        BlockInterner { geometry, ids: HashMap::with_hasher(fold), blocks: Vec::new() }
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

    /// An interner whose hash uses `key`.
    fn keyed(geometry: BlockGeometry, key: u64) -> BlockInterner {
        BlockInterner {
            geometry,
            ids: HashMap::with_hasher(Fold { key, hash: 0 }),
            blocks: Vec::new(),
        }
    }

    #[test]
    fn the_fold_spreads_strided_blocks_over_the_low_bits() {
        // The map picks a bucket from a hash's low bits. An unmixed
        // multiply sends indices 2^12 apart to a single low-12-bit bucket;
        // the fold of the product's high half into its low half must
        // spread them at every stride.
        for key in [0, 0x0123_4567_89ab_cdef] {
            let fold = Fold { key, hash: 0 };
            for shift in 0..=40 {
                let mut buckets = std::collections::HashSet::new();
                for i in 0..4096u64 {
                    buckets.insert(fold.hash_one(i << shift) & 0xfff);
                }
                assert!(buckets.len() >= 1024, "stride 2^{shift}: {} buckets", buckets.len());
            }
        }
    }

    #[test]
    fn ids_do_not_depend_on_the_key() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let (mut a, mut b) = (keyed(geometry, 1), keyed(geometry, 0xdead_beef_f00d_cafe));
        for r in records.iter().filter(|r| r.is_data()) {
            let block = geometry.block_of(r.addr);
            assert_eq!(a.intern(block), b.intern(block));
        }
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.blocks, interned(&records, geometry).blocks, "as a randomly keyed ingest");
    }

    #[test]
    fn unknown_block_is_none() {
        let records = trace();
        let interner = interned(&records, BlockGeometry::PAPER);
        assert_eq!(interner.get(BlockAddr::from_index(u64::MAX >> 5)), None);
    }
}
