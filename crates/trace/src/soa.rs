//! Structure-of-arrays replay streams over data references only.
//!
//! The dense-id rewrite (see [`crate::intern`]) removed hashing from the
//! replay loop but still walks 16-byte [`TraceRecord`]s and redoes the
//! sharing-model match plus `geometry.block_of` address math per
//! reference. A [`SoaStream`] finishes the job: it keeps one entry per
//! *data* reference in four flat arrays — `kind` / `cache_idx` /
//! `block_id` / `first_ref` — with the sharing-model cache index and the
//! first-reference bit precomputed, so a replay loop touches no
//! `TraceRecord` and performs no address math at all.
//!
//! Instruction fetches never reach a protocol and the paper prices them
//! at nothing (§4), so the stream only counts them ([`DataRefs::instr`]);
//! a loop that must see every reference walks the records alongside.
//! [`DataRefs`] holds the sharing-independent arrays behind an `Arc`: the
//! trace store builds them once per (trace, filter, geometry) and each
//! sharing model adds its own `cache_idx`. `max_cache_idx` below the
//! protocol's cache count proves the per-reference bounds check dead. The
//! same type serves as a whole in-memory stream, as one shard of a
//! [`ShardedStream`](crate::shard::ShardedStream), and as the reusable
//! per-chunk batch a streaming replay refills with [`SoaStream::refill`].

use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockAddr, BlockGeometry, SharingModel};
use std::sync::Arc;

/// The sharing-independent half of a [`SoaStream`]: one entry per data
/// reference, in trace order, plus the count of instruction fetches
/// skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataRefs {
    /// Access kind per data reference (a read or a write).
    pub kind: Vec<AccessKind>,
    /// Dense block id per data reference (shard-local for shard
    /// sub-streams).
    pub block_id: Vec<u32>,
    /// Whether the reference is its block's first in this stream.
    pub first_ref: Vec<bool>,
    /// Instruction fetches skipped: counted, never stored.
    pub instr: u64,
    /// Distinct data blocks in the stream — sizes replay tables.
    pub num_blocks: usize,
}

impl DataRefs {
    /// [`SoaStream::build`] without the cache indices.
    pub(crate) fn build(records: &[TraceRecord], interner: &BlockInterner) -> Self {
        let mut data = DataRefs { num_blocks: interner.num_blocks(), ..DataRefs::default() };
        let mut seen = vec![false; data.num_blocks];
        data.extend(records, interner.geometry(), |block| {
            let id = interner.get(block).unwrap_or_else(|| panic!("{block}: not interned")).raw();
            (id, !std::mem::replace(&mut seen[id as usize], true))
        });
        data
    }

    /// Appends the data references of `records` into arrays reserved
    /// exactly, `block` naming each one's dense id and first-reference
    /// bit, and counts the rest.
    fn extend<F>(&mut self, records: &[TraceRecord], geometry: BlockGeometry, mut block: F)
    where
        F: FnMut(BlockAddr) -> (u32, bool),
    {
        let n = records.iter().filter(|r| r.is_data()).count();
        self.kind.reserve_exact(n);
        self.block_id.reserve_exact(n);
        self.first_ref.reserve_exact(n);
        for r in records {
            if r.is_data() {
                let (id, first) = block(geometry.block_of(r.addr));
                self.kind.push(r.kind);
                self.block_id.push(id);
                self.first_ref.push(first);
            } else {
                self.instr += 1;
            }
        }
    }
}

/// A data-reference stream split into flat per-field arrays, with the
/// sharing-model cache index and first-reference bit precomputed.
///
/// Every array has one entry per data reference, in trace order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaStream {
    /// Kinds, dense block ids, first-reference bits and the instruction
    /// count: shared by every sharing model of one stream.
    pub data: Arc<DataRefs>,
    /// Cache index per data reference under the stream's sharing model
    /// (`cpu` for [`SharingModel::Processor`], `pid` for
    /// [`SharingModel::Process`]).
    pub cache_idx: Vec<u16>,
    /// The sharing model `cache_idx` was computed under.
    pub sharing: SharingModel,
    /// Maximum `cache_idx` (0 if there are no data references): if this
    /// is below the protocol's cache count, no reference can fail the
    /// bounds check.
    pub max_cache_idx: u16,
}

/// The cache a record's reference maps to under `sharing`.
fn cache_of(r: &TraceRecord, sharing: SharingModel) -> u16 {
    match sharing {
        SharingModel::Processor => r.cpu.raw(),
        SharingModel::Process => r.pid.raw(),
    }
}

impl SoaStream {
    /// An empty batch under `sharing`, to be filled with
    /// [`refill`](Self::refill).
    pub fn new(sharing: SharingModel) -> Self {
        Self::with_sharing(Arc::default(), &[], sharing)
    }

    /// The data references of `records` under `sharing`, named by
    /// `interner`'s dense ids: one lookup per data reference, into arrays
    /// reserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if a data reference's block was not interned (i.e. `records`
    /// is not drawn from the stream `interner` was built over).
    pub fn build(records: &[TraceRecord], interner: &BlockInterner, sharing: SharingModel) -> Self {
        Self::with_sharing(Arc::new(DataRefs::build(records, interner)), records, sharing)
    }

    /// Adds `sharing`'s cache indices to `data`, which must have been
    /// built from `records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` holds a different number of data references.
    pub(crate) fn with_sharing(
        data: Arc<DataRefs>,
        records: &[TraceRecord],
        sharing: SharingModel,
    ) -> Self {
        let cache_idx = Vec::with_capacity(data.kind.len());
        let mut soa = SoaStream { data, cache_idx, sharing, max_cache_idx: 0 };
        soa.index_caches(records);
        assert_eq!(soa.cache_idx.len(), soa.len(), "data references must come from `records`");
        soa
    }

    /// Replaces the stream with the data references of `records`, keeping
    /// its allocations and sharing model: `block` names each one's dense
    /// id and first-reference bit (a streaming replay interns as it goes).
    ///
    /// # Panics
    ///
    /// Panics if the stream's arrays are shared with another stream.
    pub fn refill<F>(&mut self, records: &[TraceRecord], geometry: BlockGeometry, block: F)
    where
        F: FnMut(BlockAddr) -> (u32, bool),
    {
        let data = Arc::get_mut(&mut self.data).expect("a refilled stream is not shared");
        data.kind.clear();
        data.block_id.clear();
        data.first_ref.clear();
        data.instr = 0;
        data.extend(records, geometry, block);
        self.index_caches(records);
    }

    /// Recomputes `cache_idx` and `max_cache_idx` from the data
    /// references of `records`.
    fn index_caches(&mut self, records: &[TraceRecord]) {
        let sharing = self.sharing;
        self.cache_idx.clear();
        self.cache_idx.extend(records.iter().filter(|r| r.is_data()).map(|r| cache_of(r, sharing)));
        self.max_cache_idx = self.cache_idx.iter().copied().max().unwrap_or(0);
    }

    /// Number of data references in the stream.
    pub fn len(&self) -> usize {
        self.data.kind.len()
    }

    /// Whether the stream holds no data reference.
    pub fn is_empty(&self) -> bool {
        self.data.kind.is_empty()
    }

    /// References the stream covers: its data references plus the
    /// instruction fetches it skipped.
    pub fn refs(&self) -> u64 {
        self.len() as u64 + self.data.instr
    }
}

/// The values a [`SoaStream`] must hold, recomputed from the records and
/// raw addresses (no interner): per data reference its kind, cache index
/// and first-reference bit, then the instruction count. Shared by this
/// module's tests and the sim crate's, so both pin one definition.
pub fn soa_reference_values(
    records: &[TraceRecord],
    geometry: BlockGeometry,
    sharing: SharingModel,
) -> (Vec<AccessKind>, Vec<u16>, Vec<bool>, u64) {
    // Derived from raw addresses, not dense ids: renaming is a bijection,
    // so address-level and dense-id first references must agree.
    let mut seen = std::collections::HashSet::new();
    let data: Vec<&TraceRecord> = records.iter().filter(|r| r.is_data()).collect();
    (
        data.iter().map(|r| r.kind).collect(),
        data.iter().map(|r| cache_of(r, sharing)).collect(),
        data.iter().map(|r| seen.insert(geometry.block_of(r.addr))).collect(),
        (records.len() - data.len()) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::shard::ShardedStream;
    use dircc_types::BlockGeometry;

    fn stream() -> (Vec<TraceRecord>, BlockInterner) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::thor().with_total_refs(4_000), 11).collect();
        let interner = BlockInterner::from_records(records.iter(), BlockGeometry::PAPER);
        (records, interner)
    }

    #[test]
    fn soa_matches_aos_derivation() {
        let (records, interner) = stream();
        let n = interner.num_blocks();
        for sharing in [SharingModel::Processor, SharingModel::Process] {
            let soa = SoaStream::build(&records, &interner, sharing);
            let (kind, cache_idx, first_ref, instr) =
                soa_reference_values(&records, BlockGeometry::PAPER, sharing);
            assert!(instr > 0, "THOR carries instruction fetches");
            assert_eq!(soa.len(), kind.len());
            assert_eq!(soa.refs(), records.len() as u64);
            assert_eq!(soa.data.num_blocks, n);
            assert_eq!(soa.sharing, sharing);
            assert_eq!(soa.data.kind, kind);
            assert_eq!(soa.cache_idx, cache_idx);
            assert_eq!(soa.data.first_ref, first_ref);
            assert_eq!(soa.data.instr, instr);
            let data = records.iter().filter(|r| r.is_data());
            for (r, &id) in data.zip(&soa.data.block_id) {
                assert_eq!(interner.get(BlockGeometry::PAPER.block_of(r.addr)).unwrap().raw(), id);
            }
            assert_eq!(soa.max_cache_idx, cache_idx.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn first_ref_bits_appear_once_per_block() {
        let (records, interner) = stream();
        let soa = SoaStream::build(&records, &interner, SharingModel::Processor);
        let firsts = soa.data.first_ref.iter().filter(|&&f| f).count();
        assert_eq!(firsts, interner.num_blocks(), "exactly one first reference per distinct block");
    }

    #[test]
    fn refill_matches_a_build_over_the_same_records() {
        // A batch refilled by incremental interning equals a build over
        // the same records, however often it is refilled.
        let (records, interner) = stream();
        let mut batch = SoaStream::new(SharingModel::Process);
        for _ in 0..2 {
            let mut inc = BlockInterner::new(BlockGeometry::PAPER);
            batch.refill(&records, BlockGeometry::PAPER, |b| inc.intern(b));
            let mut want = SoaStream::build(&records, &interner, SharingModel::Process);
            Arc::make_mut(&mut want.data).num_blocks = 0;
            assert_eq!(batch, want);
        }
    }

    #[test]
    fn shard_splits_match_a_fresh_build() {
        // Each shard holds exactly the whole stream's entries at its
        // global reference numbers, with shard-local ids.
        let (records, interner) = stream();
        let soa = SoaStream::build(&records, &interner, SharingModel::Process);
        let sharded = ShardedStream::build(&records, &soa, 3, |_, gid| gid as usize % 3);
        assert_eq!(sharded.instr(), soa.data.instr);
        for sh in sharded.shards() {
            let so = &sh.soa;
            assert_eq!(so.len(), sh.global_refs.len());
            assert_eq!((so.sharing, so.data.instr), (SharingModel::Process, 0));
            for (j, &g) in sh.global_refs.iter().enumerate() {
                let r = &records[(g - 1) as usize];
                assert!(r.is_data(), "shards hold data references only");
                assert_eq!(so.data.kind[j], r.kind);
                assert_eq!(so.cache_idx[j], r.pid.raw());
                let gid = sh.global_ids[so.data.block_id[j] as usize];
                assert_eq!(interner.get(BlockGeometry::PAPER.block_of(r.addr)).unwrap().raw(), gid);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn misaligned_dense_rejected() {
        // An interner that has seen none of these blocks cannot name them.
        let (records, _) = stream();
        let interner = BlockInterner::new(BlockGeometry::PAPER);
        let _ = SoaStream::build(&records, &interner, SharingModel::Processor);
    }
}
