//! Block-sharded sub-streams for intra-run parallel replay.
//!
//! With infinite caches, the protocol state touched by block *b* never
//! interacts with the state of any other block, so a dense-id stream can
//! be partitioned by any pure function of the block into `S` sub-streams
//! that replay independently and whose [`EventCounters`] merge back
//! bit-identically (counters are purely additive). A [`ShardedStream`]
//! holds that partition:
//!
//! * every *data* record lands in the shard its block routes to, with
//!   per-shard record order preserved;
//! * instruction fetches (which never reach a protocol) are dealt
//!   round-robin so their counter bumps spread evenly;
//! * block ids are renamed to *shard-local* dense ids in first-appearance
//!   order, so each shard's tables are sized for its blocks only;
//! * each shard's stream is split into a [`SoaStream`] as it is routed,
//!   so the partition is the one in-memory replay representation;
//! * every record keeps its 1-based *global* reference number, so
//!   verifier findings and errors merge back in trace order.
//!
//! The router must be a pure function of the block (the builder asserts
//! it): the engine uses `block_id % S` for infinite caches and
//! `set_index % S` for finite ones (eviction is confined to a set, so
//! set-sharding preserves LRU victim choice exactly).
//!
//! [`EventCounters`]: https://docs.rs/dircc-core

use crate::record::TraceRecord;
use crate::soa::SoaStream;
use dircc_types::SharingModel;

/// One shard of a partitioned dense-id stream.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's records, in global trace order (read by replay only on
    /// its cold paths: finite-cache set selection and diagnostics).
    pub records: Vec<TraceRecord>,
    /// The shard's structure-of-arrays split, aligned with `records`:
    /// shard-local dense block ids, shard-local first-reference bits and
    /// cache indices under the partition's sharing model. Its
    /// `num_blocks` counts the distinct data blocks routed here.
    pub soa: SoaStream,
    /// 1-based global reference numbers, aligned with `records`.
    pub global_refs: Vec<u64>,
    /// Maps each shard-local dense id back to the stream's global dense
    /// id (one entry per distinct block), so shard-local replay can
    /// report diagnostics in global terms.
    pub global_ids: Vec<u32>,
}

/// A dense-id stream partitioned into per-block shards.
#[derive(Debug, Clone)]
pub struct ShardedStream {
    shards: Vec<Shard>,
    total_records: usize,
    total_blocks: usize,
}

impl ShardedStream {
    /// Partitions a record stream and its aligned dense-id stream into
    /// `shards` sub-streams, each split under `sharing`.
    /// `route(record, dense_id)` is called for every
    /// *data* record and must return the same shard for every occurrence
    /// of a block; instruction fetches are dealt round-robin by record
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, `dense` is not aligned with `records`,
    /// the router returns an out-of-range shard, or the router is not a
    /// pure function of the block.
    pub fn build<F>(
        records: &[TraceRecord],
        dense: &[u32],
        num_blocks: usize,
        shards: usize,
        sharing: SharingModel,
        mut route: F,
    ) -> Self
    where
        F: FnMut(&TraceRecord, u32) -> usize,
    {
        assert!(shards >= 1, "need at least one shard");
        assert_eq!(records.len(), dense.len(), "dense-id stream must align with the record stream");
        let mut out: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                records: Vec::new(),
                soa: SoaStream::new(sharing),
                global_refs: Vec::new(),
                global_ids: Vec::new(),
            })
            .collect();
        // Shard-local renaming: ascending global id order within a shard
        // IS first-appearance order within the shard, so the rank map
        // below assigns shard-local ids in first-appearance order too.
        const UNSEEN: u32 = u32::MAX;
        let mut local = vec![UNSEEN; num_blocks];
        let mut owner = vec![UNSEEN; num_blocks];
        for (i, r) in records.iter().enumerate() {
            let gref = (i + 1) as u64;
            // A block's first appearance anywhere is its first appearance
            // in the one shard it routes to.
            let (s, lid, first) = if r.is_data() {
                let gid = dense[i] as usize;
                assert!(gid < num_blocks, "dense id {gid} out of range for {num_blocks} blocks");
                let s = route(r, dense[i]);
                assert!(s < shards, "router sent block {gid} to shard {s} of {shards}");
                let first = owner[gid] == UNSEEN;
                if first {
                    owner[gid] = s as u32;
                    let sh = &mut out[s];
                    local[gid] =
                        u32::try_from(sh.soa.num_blocks).expect("more than u32::MAX shard blocks");
                    sh.global_ids.push(dense[i]);
                    sh.soa.num_blocks += 1;
                } else {
                    assert_eq!(
                        owner[gid], s as u32,
                        "router must be a pure function of the block (block {gid})"
                    );
                }
                (s, local[gid], first)
            } else {
                (i % shards, 0, false)
            };
            out[s].records.push(*r);
            out[s].soa.push(r, lid, first);
            out[s].global_refs.push(gref);
        }
        let total_blocks = out.iter().map(|s| s.soa.num_blocks).sum();
        ShardedStream { shards: out, total_records: records.len(), total_blocks }
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards (as requested at build time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards (= the input stream's length).
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Total distinct data blocks across all shards.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::intern::BlockInterner;
    use dircc_types::BlockGeometry;

    const SHARING: SharingModel = SharingModel::Processor;

    fn stream() -> (Vec<TraceRecord>, Vec<u32>, usize) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(4_000), 5).collect();
        let interner = BlockInterner::from_records(records.iter(), BlockGeometry::PAPER);
        let dense = interner.dense_stream(&records);
        let n = interner.num_blocks();
        (records, dense, n)
    }

    #[test]
    fn shards_partition_the_stream_preserving_order() {
        let (records, dense, n) = stream();
        for shards in [1, 2, 3, 8] {
            let s = ShardedStream::build(&records, &dense, n, shards, SHARING, |_, gid| {
                gid as usize % shards
            });
            assert_eq!(s.num_shards(), shards);
            assert_eq!(s.total_records(), records.len());
            assert_eq!(s.total_blocks(), n);
            // Every record appears exactly once; global refs are strictly
            // increasing within a shard (order preserved) and merge back
            // to exactly 1..=len.
            let mut all: Vec<u64> = Vec::new();
            for sh in s.shards() {
                assert_eq!(sh.records.len(), sh.soa.len());
                assert_eq!(sh.records.len(), sh.global_refs.len());
                assert!(sh.global_refs.windows(2).all(|w| w[0] < w[1]));
                for (r, &g) in sh.records.iter().zip(&sh.global_refs) {
                    assert_eq!(*r, records[(g - 1) as usize], "record kept its identity");
                }
                all.extend(&sh.global_refs);
            }
            all.sort_unstable();
            assert_eq!(all, (1..=records.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_local_ids_are_dense_and_first_appearance_ordered() {
        let (records, dense, n) = stream();
        let s = ShardedStream::build(&records, &dense, n, 3, SHARING, |_, gid| gid as usize % 3);
        for (s_idx, sh) in s.shards().iter().enumerate() {
            let mut next = 0u32;
            for (r, &lid) in sh.records.iter().zip(&sh.soa.block_id) {
                if !r.is_data() {
                    continue;
                }
                assert!(lid <= next, "ids appear in first-appearance order");
                if lid == next {
                    next += 1;
                }
            }
            assert_eq!(next as usize, sh.soa.num_blocks);
            // global_ids inverts the shard-local renaming: every data
            // record's global dense id is recoverable from its local id.
            assert_eq!(sh.global_ids.len(), sh.soa.num_blocks);
            for (i, (r, &lid)) in sh.records.iter().zip(&sh.soa.block_id).enumerate() {
                if r.is_data() {
                    let gid = sh.global_ids[lid as usize];
                    assert_eq!(gid, dense[(sh.global_refs[i] - 1) as usize]);
                    assert_eq!(gid as usize % 3, s_idx, "router consistency");
                }
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let (records, dense, n) = stream();
        let s = ShardedStream::build(&records, &dense, n, 1, SHARING, |_, _| 0);
        assert_eq!(s.shards()[0].records, records);
        // With one shard, local ids equal global ids on data records.
        for (i, r) in records.iter().enumerate() {
            if r.is_data() {
                assert_eq!(s.shards()[0].soa.block_id[i], dense[i]);
            }
        }
        assert_eq!(s.shards()[0].soa.num_blocks, n);
    }

    #[test]
    #[should_panic(expected = "pure function")]
    fn inconsistent_router_is_rejected() {
        let (records, dense, n) = stream();
        let mut flip = 0usize;
        let _ = ShardedStream::build(&records, &dense, n, 2, SHARING, |_, _| {
            flip += 1;
            flip % 2
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let (records, dense, n) = stream();
        let _ = ShardedStream::build(&records, &dense, n, 0, SHARING, |_, gid| gid as usize);
    }
}
