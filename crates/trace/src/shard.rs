//! Block-sharded sub-streams for intra-run parallel replay.
//!
//! With infinite caches, the protocol state touched by block *b* never
//! interacts with the state of any other block, so a data-reference
//! stream can be partitioned by any pure function of the block into `S`
//! sub-streams that replay independently and whose [`EventCounters`]
//! merge back bit-identically (counters are purely additive). A
//! [`ShardedStream`] holds that partition of one [`SoaStream`]:
//!
//! * every data reference lands in the shard its block routes to, with
//!   per-shard order preserved;
//! * instruction fetches reach no shard: the partition keeps the
//!   stream's count of them, which the merge adds once;
//! * block ids are renamed to *shard-local* dense ids in first-appearance
//!   order, so each shard's tables are sized for its blocks only, and
//!   `global_ids` leads each back to the stream's id (and through the
//!   stream's renaming to its block, for finite-cache set selection and
//!   diagnostics);
//! * each shard is itself a [`SoaStream`] holding its references' columns,
//!   so the partition is the one in-memory replay representation;
//! * every reference keeps its 1-based *global* reference number, read off
//!   the stream's data bits, which merges findings and errors back in
//!   trace order.
//!
//! The router must be a pure function of the block (the builder asserts
//! it): the engine uses `block_id % S` for infinite caches and
//! `set_index % S` for finite ones (eviction is confined to a set, so
//! set-sharding preserves LRU victim choice exactly).
//!
//! [`EventCounters`]: https://docs.rs/dircc-core

use crate::soa::{vec_bytes, DataRefs, SoaStream};
use std::sync::Arc;

/// One shard of a partitioned data-reference stream.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's data references, in global trace order: shard-local
    /// dense block ids and first-reference bits, the stream's renaming
    /// and sharing model, no instruction fetches. Its `num_blocks` counts
    /// the distinct data blocks routed here.
    pub soa: SoaStream,
    /// 1-based global reference numbers, aligned with `soa`: entry `j` is
    /// reference `global_refs[j]` of the whole stream.
    pub global_refs: Vec<u64>,
    /// Maps each shard-local dense id back to the stream's global dense
    /// id (one entry per distinct block), so shard-local replay can
    /// report diagnostics in global terms.
    pub global_ids: Vec<u32>,
}

/// A data-reference stream partitioned into per-block shards.
#[derive(Debug, Clone)]
pub struct ShardedStream {
    shards: Vec<Shard>,
    instr: u64,
}

impl ShardedStream {
    /// Partitions `soa` into `shards` sub-streams. `route(dense_id)` is
    /// called for every data reference and must return the same shard for
    /// every occurrence of a block.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, the router returns an out-of-range
    /// shard, or the router is not a pure function of the block.
    pub fn build<F>(soa: &SoaStream, shards: usize, mut route: F) -> Self
    where
        F: FnMut(u32) -> usize,
    {
        assert!(shards >= 1, "need at least one shard");
        let (data, num_blocks) = (&*soa.data, soa.data.num_blocks);
        let mut out = vec![(DataRefs::default(), Vec::new(), Vec::new()); shards];
        // Shard-local renaming: ascending global id order within a shard
        // IS first-appearance order within the shard, so the rank map
        // below assigns shard-local ids in first-appearance order too.
        const UNSEEN: u32 = u32::MAX;
        let mut local = vec![UNSEEN; num_blocks];
        let mut owner = vec![UNSEEN; num_blocks];
        let positions = (0..data.refs() as usize).filter(|&i| data.is_data(i));
        for (j, i) in positions.enumerate() {
            let gid = data.block_id[j];
            let g = gid as usize;
            assert!(g < num_blocks, "dense id {gid} out of range for {num_blocks} blocks");
            let s = route(gid);
            assert!(s < shards, "router sent block {gid} to shard {s} of {shards}");
            let (part, global_refs, global_ids) = &mut out[s];
            // A block's first appearance anywhere is its first appearance
            // in the one shard it routes to.
            let first = owner[g] == UNSEEN;
            if first {
                owner[g] = s as u32;
                local[g] = u32::try_from(part.num_blocks).expect("more than u32::MAX shard blocks");
                global_ids.push(gid);
                part.num_blocks += 1;
            } else {
                assert_eq!(
                    owner[g], s as u32,
                    "router must be a pure function of the block (block {g})"
                );
            }
            part.push_data(data.kind[j], local[g], first, data.cpu[j], data.pid[j]);
            global_refs.push((i + 1) as u64);
        }
        let shards = out
            .into_iter()
            .map(|(part, global_refs, global_ids)| Shard {
                soa: SoaStream::new(Arc::new(part), Arc::clone(&soa.blocks), soa.sharing),
                global_refs,
                global_ids,
            })
            .collect();
        ShardedStream { shards, instr: data.instr }
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards (as requested at build time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The stream's instruction fetches, which no shard holds.
    pub fn instr(&self) -> u64 {
        self.instr
    }

    /// Bytes the shards hold on the heap (the renaming they share with
    /// the stream excluded).
    pub fn heap_bytes(&self) -> usize {
        let shard = |s: &Shard| {
            s.soa.data.heap_bytes() + vec_bytes(&s.global_refs) + vec_bytes(&s.global_ids)
        };
        self.shards.iter().map(shard).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::record::TraceRecord;
    use dircc_types::{BlockGeometry, SharingModel};

    fn stream() -> (Vec<TraceRecord>, SoaStream) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(4_000), 5).collect();
        let soa = SoaStream::build(
            records.iter().copied(),
            BlockGeometry::PAPER,
            SharingModel::Processor,
        );
        (records, soa)
    }

    #[test]
    fn shards_partition_the_stream_preserving_order() {
        let (records, soa) = stream();
        let data: Vec<u64> =
            (1..=records.len() as u64).filter(|&g| records[(g - 1) as usize].is_data()).collect();
        for shards in [1, 2, 3, 8] {
            let s = ShardedStream::build(&soa, shards, |gid| gid as usize % shards);
            assert_eq!(s.num_shards(), shards);
            let blocks: usize = s.shards().iter().map(|sh| sh.soa.data.num_blocks).sum();
            assert_eq!(blocks, soa.data.num_blocks);
            assert_eq!(s.instr() + data.len() as u64, records.len() as u64);
            // Every data reference appears exactly once; global refs are
            // strictly increasing within a shard (order preserved) and
            // merge back to exactly the data references' numbers.
            let mut all: Vec<u64> = Vec::new();
            for sh in s.shards() {
                assert_eq!(sh.soa.len(), sh.global_refs.len());
                assert!(sh.global_refs.windows(2).all(|w| w[0] < w[1]));
                for (j, &g) in sh.global_refs.iter().enumerate() {
                    let r = &records[(g - 1) as usize];
                    assert_eq!(sh.soa.data.kind[j], r.kind, "reference kept its identity");
                    assert_eq!(sh.soa.cache_idx()[j], r.cpu.raw(), "reference kept its cache");
                }
                all.extend(&sh.global_refs);
            }
            all.sort_unstable();
            assert_eq!(all, data);
        }
    }

    #[test]
    fn shard_local_ids_are_dense_and_first_appearance_ordered() {
        let (records, soa) = stream();
        let s = ShardedStream::build(&soa, 3, |gid| gid as usize % 3);
        // The whole stream's dense id per global reference number.
        let mut dense = vec![u32::MAX; records.len() + 1];
        let data_refs = (1..=records.len()).filter(|&g| records[g - 1].is_data());
        for (g, &id) in data_refs.zip(&soa.data.block_id) {
            dense[g] = id;
        }
        for (s_idx, sh) in s.shards().iter().enumerate() {
            let mut next = 0u32;
            for &lid in &sh.soa.data.block_id {
                assert!(lid <= next, "ids appear in first-appearance order");
                if lid == next {
                    next += 1;
                }
            }
            assert_eq!(next as usize, sh.soa.data.num_blocks);
            // global_ids inverts the shard-local renaming: every data
            // reference's global dense id is recoverable from its local id.
            assert_eq!(sh.global_ids.len(), sh.soa.data.num_blocks);
            for (&lid, &g) in sh.soa.data.block_id.iter().zip(&sh.global_refs) {
                let gid = sh.global_ids[lid as usize];
                assert_eq!(gid, dense[g as usize]);
                assert_eq!(gid as usize % 3, s_idx, "router consistency");
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let (_, soa) = stream();
        let s = ShardedStream::build(&soa, 1, |_| 0);
        // With one shard, local ids equal global ids and the shard is the
        // whole data-reference stream.
        let sh = &s.shards()[0];
        assert_eq!(sh.soa.cache_idx(), soa.cache_idx());
        assert_eq!(sh.soa.data.kind, soa.data.kind);
        assert_eq!(sh.soa.data.block_id, soa.data.block_id);
        assert_eq!(sh.soa.data.first_ref, soa.data.first_ref);
        assert_eq!(sh.soa.data.num_blocks, soa.data.num_blocks);
        assert_eq!(sh.global_ids.len(), soa.data.num_blocks);
    }

    #[test]
    #[should_panic(expected = "pure function")]
    fn inconsistent_router_is_rejected() {
        let (_, soa) = stream();
        let mut flip = 0usize;
        let _ = ShardedStream::build(&soa, 2, |_| {
            flip += 1;
            flip % 2
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let (_, soa) = stream();
        let _ = ShardedStream::build(&soa, 0, |gid| gid as usize);
    }
}
