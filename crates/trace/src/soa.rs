//! Structure-of-arrays replay streams.
//!
//! The dense-id rewrite (see [`crate::intern`]) removed hashing from the
//! replay loop but still walks 16-byte [`TraceRecord`]s and redoes the
//! sharing-model match plus `geometry.block_of` address math per
//! reference. A [`SoaStream`] finishes the job: it splits a record stream
//! into four flat arrays — `kind` / `cache_idx` / `block_id` /
//! `first_ref` — with the sharing-model cache index and the
//! first-reference bit precomputed, so a replay loop touches no
//! `TraceRecord` and performs no address math at all.
//!
//! `max_cache_idx` is the maximum over *data* references: when it is
//! below the protocol's cache count the per-reference bounds check is
//! provably dead and a replay loop may skip it entirely; otherwise the
//! replay falls back to the checking loop (with its exact error message,
//! which needs the original records).
//!
//! The same type serves as a whole in-memory stream, as one shard of a
//! [`ShardedStream`](crate::shard::ShardedStream), and as the reusable
//! per-chunk batch a streaming replay refills with [`SoaStream::push`].

use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockGeometry, SharingModel};

/// A dense-id record stream split into flat per-field arrays, with the
/// sharing-model cache index and first-reference bit precomputed.
///
/// All arrays have one entry per record, in trace order. Entries for
/// instruction fetches carry placeholders in `cache_idx` / `block_id` /
/// `first_ref` that replay never reads (exactly as the dense-id stream
/// carries a placeholder id for them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaStream {
    /// Access kind per record.
    pub kind: Vec<AccessKind>,
    /// Cache index per record under the stream's sharing model
    /// (`cpu` for [`SharingModel::Processor`], `pid` for
    /// [`SharingModel::Process`]).
    pub cache_idx: Vec<u16>,
    /// Dense block id per record (shard-local for shard sub-streams).
    pub block_id: Vec<u32>,
    /// Whether the record is its block's first reference in this stream.
    pub first_ref: Vec<bool>,
    /// Distinct data blocks in the stream — sizes replay tables.
    pub num_blocks: usize,
    /// The sharing model `cache_idx` was computed under.
    pub sharing: SharingModel,
    /// Maximum `cache_idx` over data references (0 if there are none):
    /// if this is below the protocol's cache count, no reference can
    /// fail the bounds check.
    pub max_cache_idx: u16,
}

impl SoaStream {
    /// An empty stream under `sharing`, to be filled with
    /// [`push`](Self::push).
    pub fn new(sharing: SharingModel) -> Self {
        SoaStream {
            kind: Vec::new(),
            cache_idx: Vec::new(),
            block_id: Vec::new(),
            first_ref: Vec::new(),
            num_blocks: 0,
            sharing,
            max_cache_idx: 0,
        }
    }

    /// Splits a record stream and its aligned dense-id stream (from
    /// [`crate::intern::BlockInterner::dense_stream`]) into flat arrays
    /// under `sharing`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not aligned with `records` or a dense id is
    /// out of range for `num_blocks`.
    pub fn build(
        records: &[TraceRecord],
        dense: &[u32],
        num_blocks: usize,
        sharing: SharingModel,
    ) -> Self {
        assert_eq!(records.len(), dense.len(), "dense-id stream must align with the record stream");
        let mut soa = SoaStream::new(sharing);
        soa.reserve(records.len());
        soa.num_blocks = num_blocks;
        let mut seen = FirstRefs::new(num_blocks);
        for (r, &id) in records.iter().zip(dense) {
            if r.is_data() {
                assert!(
                    (id as usize) < num_blocks,
                    "dense id {id} out of range for {num_blocks} blocks"
                );
                soa.push(r, id, seen.first(id));
            } else {
                soa.push(r, 0, false);
            }
        }
        soa
    }

    /// Appends one record with its dense block id and first-reference bit
    /// (both ignored for instruction fetches, which get placeholders),
    /// keeping `max_cache_idx` current.
    pub fn push(&mut self, r: &TraceRecord, id: u32, first_ref: bool) {
        self.kind.push(r.kind);
        if r.is_data() {
            let idx = match self.sharing {
                SharingModel::Processor => r.cpu.raw(),
                SharingModel::Process => r.pid.raw(),
            };
            self.max_cache_idx = self.max_cache_idx.max(idx);
            self.cache_idx.push(idx);
            self.block_id.push(id);
            self.first_ref.push(first_ref);
        } else {
            self.cache_idx.push(0);
            self.block_id.push(0);
            self.first_ref.push(false);
        }
    }

    /// Empties the stream for refilling, keeping its allocations and
    /// sharing model.
    pub fn clear(&mut self) {
        self.kind.clear();
        self.cache_idx.clear();
        self.block_id.clear();
        self.first_ref.clear();
        self.max_cache_idx = 0;
    }

    fn reserve(&mut self, n: usize) {
        self.kind.reserve(n);
        self.cache_idx.reserve(n);
        self.block_id.reserve(n);
        self.first_ref.reserve(n);
    }

    /// Number of records in the stream.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }
}

/// A first-reference bit vector over dense block ids.
struct FirstRefs(Vec<u64>);

impl FirstRefs {
    /// A bit vector sized for `num_blocks` ids.
    fn new(num_blocks: usize) -> Self {
        FirstRefs(vec![0; num_blocks.div_ceil(64)])
    }

    /// Marks `id` seen, returning whether this was its first reference.
    fn first(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        let first = self.0[word] & bit == 0;
        self.0[word] |= bit;
        first
    }
}

/// Recomputes the reference values a [`SoaStream`] must match, straight
/// from the AoS records — shared by this module's tests and the sim
/// crate's property suite so both pin the same definition.
pub fn soa_reference_values(
    records: &[TraceRecord],
    geometry: BlockGeometry,
    sharing: SharingModel,
) -> (Vec<u16>, Vec<bool>) {
    // Derived from raw addresses, not dense ids: renaming is a bijection,
    // so address-level and dense-id first references must agree.
    let mut cache_idx = Vec::with_capacity(records.len());
    let mut first_ref = Vec::with_capacity(records.len());
    let mut seen = std::collections::HashSet::new();
    for r in records {
        if r.is_data() {
            cache_idx.push(match sharing {
                SharingModel::Processor => r.cpu.raw(),
                SharingModel::Process => r.pid.raw(),
            });
            first_ref.push(seen.insert(geometry.block_of(r.addr)));
        } else {
            cache_idx.push(0);
            first_ref.push(false);
        }
    }
    (cache_idx, first_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::intern::BlockInterner;
    use crate::shard::ShardedStream;
    use dircc_types::BlockGeometry;

    fn stream() -> (Vec<TraceRecord>, Vec<u32>, usize) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::thor().with_total_refs(4_000), 11).collect();
        let interner = BlockInterner::from_records(records.iter(), BlockGeometry::PAPER);
        let dense = interner.dense_stream(&records);
        let n = interner.num_blocks();
        (records, dense, n)
    }

    #[test]
    fn soa_matches_aos_derivation() {
        let (records, dense, n) = stream();
        for sharing in [SharingModel::Processor, SharingModel::Process] {
            let soa = SoaStream::build(&records, &dense, n, sharing);
            assert_eq!(soa.len(), records.len());
            assert_eq!(soa.num_blocks, n);
            assert_eq!(soa.sharing, sharing);
            let (cache_idx, first_ref) =
                soa_reference_values(&records, BlockGeometry::PAPER, sharing);
            assert_eq!(soa.cache_idx, cache_idx);
            assert_eq!(soa.first_ref, first_ref);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(soa.kind[i], r.kind);
                if r.is_data() {
                    assert_eq!(soa.block_id[i], dense[i]);
                }
            }
            let max = records
                .iter()
                .zip(&soa.cache_idx)
                .filter(|(r, _)| r.is_data())
                .map(|(_, &c)| c)
                .max()
                .unwrap_or(0);
            assert_eq!(soa.max_cache_idx, max);
        }
    }

    #[test]
    fn first_ref_bits_appear_once_per_block() {
        let (records, dense, n) = stream();
        let soa = SoaStream::build(&records, &dense, n, SharingModel::Processor);
        let firsts = records.iter().zip(&soa.first_ref).filter(|(r, &f)| r.is_data() && f).count();
        assert_eq!(firsts, n, "exactly one first reference per distinct block");
    }

    #[test]
    fn shard_splits_match_a_fresh_build() {
        // Each shard's inline split equals a fresh build over the shard's
        // own records and (shard-local) ids.
        let (records, dense, n) = stream();
        let sharded =
            ShardedStream::build(&records, &dense, n, 3, SharingModel::Process, |_, gid| {
                gid as usize % 3
            });
        for sh in sharded.shards() {
            let so = &sh.soa;
            assert_eq!(so.len(), sh.records.len());
            assert_eq!(so.sharing, SharingModel::Process);
            let expect = SoaStream::build(&sh.records, &so.block_id, so.num_blocks, so.sharing);
            assert_eq!(*so, expect);
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_dense_rejected() {
        let (records, dense, n) = stream();
        let _ = SoaStream::build(&records, &dense[1..], n, SharingModel::Processor);
    }
}
