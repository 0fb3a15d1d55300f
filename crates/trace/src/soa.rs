//! Structure-of-arrays streams of data references: the one in-memory
//! representation of a trace.
//!
//! The paper's simulator acts on a reference by its kind, its block and
//! its cache (§4.1), and charges instruction fetches nothing. A
//! [`DataRefs`] keeps one entry per *data* reference in flat columns —
//! `kind` / `block_id` / `first_ref` / `cpu` / `pid` — and one bit per
//! reference that places the instruction fetches, which are only counted,
//! for reference numbers, windows and the invariant cadence. Blocks get
//! dense ids as references are appended ([`DataRefs::extend`]); the trace
//! store ingests a generated trace through [`DataRefs::ingest`], and a
//! streaming replay refills one batch with the same `extend`.
//!
//! A [`SoaStream`] is what the replay loop reads: the columns, the
//! renaming back to original blocks ([`BlockInterner::block_addr`]), and
//! a sharing model whose cache index is the matching column (`cpu` or
//! `pid`, not a copy). `max_cache_idx` below the protocol's cache count
//! proves the per-reference bounds check dead. The same type serves as a
//! whole stream and as the batch a streaming replay refills with
//! [`SoaStream::refill`].

use crate::chunk::BATCH_RECORDS;
use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockGeometry, SharingModel};
use std::sync::Arc;

/// The sharing-independent columns of a [`SoaStream`]: one entry per data
/// reference, in trace order, plus one bit per reference and the count of
/// instruction fetches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataRefs {
    /// Access kind per data reference (a read or a write).
    pub kind: Vec<AccessKind>,
    /// Dense block id per data reference.
    pub block_id: Vec<u32>,
    /// Whether the reference is its block's first in this stream.
    pub first_ref: Vec<bool>,
    /// Issuing CPU per data reference.
    pub cpu: Vec<u16>,
    /// Issuing process per data reference.
    pub pid: Vec<u16>,
    /// One bit per reference in stream order (bit `j % 64` of word
    /// `j / 64`), set for a data reference.
    pub data_bits: Vec<u64>,
    /// Instruction fetches skipped: counted, never stored.
    pub instr: u64,
    /// Distinct data blocks in the stream — sizes replay tables.
    pub num_blocks: usize,
}

/// Appends bit number `n` (the count pushed so far) to `bits`.
pub(crate) fn push_bit(bits: &mut Vec<u64>, n: usize, set: bool) {
    if n.is_multiple_of(64) {
        bits.push(0);
    }
    if set {
        *bits.last_mut().expect("a word per 64 bits") |= 1 << (n % 64);
    }
}

/// Bit `j` of `bits`.
#[inline]
pub(crate) fn bit(bits: &[u64], j: usize) -> bool {
    bits[j / 64] >> (j % 64) & 1 != 0
}

/// Heap bytes of `v`'s allocation.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl DataRefs {
    /// References the stream covers: its data references plus its
    /// instruction fetches.
    pub fn refs(&self) -> u64 {
        self.kind.len() as u64 + self.instr
    }

    /// Whether reference `j` (0-based, in stream order) is a data
    /// reference.
    #[inline]
    pub fn is_data(&self, j: usize) -> bool {
        bit(&self.data_bits, j)
    }

    /// Appends `records`: each data reference's columns, its block
    /// interned into `blocks` (a first appearance sets `first_ref`), and
    /// a bit per record; instruction fetches are counted.
    pub fn extend(&mut self, records: &[TraceRecord], blocks: &mut BlockInterner) {
        let geometry = blocks.geometry();
        for r in records {
            if r.is_data() {
                let (id, first) = blocks.intern(geometry.block_of(r.addr));
                self.push_data(r.kind, id, first, r.cpu.raw(), r.pid.raw());
            } else {
                self.push_instr();
            }
        }
        self.num_blocks = blocks.num_blocks();
    }

    /// The one ingest: `records` in [`BATCH_RECORDS`] batches, each shown
    /// to `observe` and then [appended](Self::extend) with its blocks
    /// renamed under `geometry`. Returns the columns, trimmed to their
    /// length, and the renaming.
    pub fn ingest<I: IntoIterator<Item = TraceRecord>>(
        records: I,
        geometry: BlockGeometry,
        mut observe: impl FnMut(&[TraceRecord]),
    ) -> (DataRefs, BlockInterner) {
        let (mut data, mut blocks) = (DataRefs::default(), BlockInterner::new(geometry));
        let mut records = records.into_iter();
        let mut batch = Vec::with_capacity(BATCH_RECORDS);
        loop {
            batch.clear();
            batch.extend(records.by_ref().take(BATCH_RECORDS));
            if batch.is_empty() {
                break;
            }
            observe(&batch);
            data.extend(&batch, &mut blocks);
        }
        data.shrink_to_fit();
        (data, blocks)
    }

    /// Appends one data reference.
    pub(crate) fn push_data(&mut self, kind: AccessKind, id: u32, first: bool, cpu: u16, pid: u16) {
        let n = self.refs() as usize;
        push_bit(&mut self.data_bits, n, true);
        self.kind.push(kind);
        self.block_id.push(id);
        self.first_ref.push(first);
        self.cpu.push(cpu);
        self.pid.push(pid);
    }

    /// Appends one instruction fetch.
    pub(crate) fn push_instr(&mut self) {
        let n = self.refs() as usize;
        push_bit(&mut self.data_bits, n, false);
        self.instr += 1;
    }

    /// Trims every column to its length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.kind.shrink_to_fit();
        self.block_id.shrink_to_fit();
        self.first_ref.shrink_to_fit();
        self.cpu.shrink_to_fit();
        self.pid.shrink_to_fit();
        self.data_bits.shrink_to_fit();
    }

    /// Bytes the columns hold on the heap.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.kind)
            + vec_bytes(&self.block_id)
            + vec_bytes(&self.first_ref)
            + vec_bytes(&self.cpu)
            + vec_bytes(&self.pid)
            + vec_bytes(&self.data_bits)
    }
}

/// A data-reference stream as the replay loop reads it: the columns, the
/// renaming their block ids index, and a sharing model.
#[derive(Debug, Clone)]
pub struct SoaStream {
    /// Kinds, dense block ids, first-reference bits, cpus, pids, the data
    /// bits and the instruction count: shared by every sharing model of
    /// one stream.
    pub data: Arc<DataRefs>,
    /// The renaming of the whole stream: dense id → original block.
    pub blocks: Arc<BlockInterner>,
    /// The sharing model [`cache_idx`](Self::cache_idx) follows.
    pub sharing: SharingModel,
    /// Maximum cache index (0 if there are no data references): if this
    /// is below the protocol's cache count, no reference can fail the
    /// bounds check.
    pub max_cache_idx: u16,
}

impl SoaStream {
    /// The stream of `data`, whose ids `blocks` renamed, under `sharing`.
    pub fn new(data: Arc<DataRefs>, blocks: Arc<BlockInterner>, sharing: SharingModel) -> Self {
        let mut soa = SoaStream { data, blocks, sharing, max_cache_idx: 0 };
        soa.max_cache_idx = soa.cache_idx().iter().copied().max().unwrap_or(0);
        soa
    }

    /// [Ingests](DataRefs::ingest) `records` under `geometry` into a
    /// stream under `sharing`.
    pub fn build<I: IntoIterator<Item = TraceRecord>>(
        records: I,
        geometry: BlockGeometry,
        sharing: SharingModel,
    ) -> Self {
        let (data, blocks) = DataRefs::ingest(records, geometry, |_| ());
        Self::new(Arc::new(data), Arc::new(blocks), sharing)
    }

    /// Cache index per data reference under the stream's sharing model:
    /// the `cpu` column for [`SharingModel::Processor`], `pid` for
    /// [`SharingModel::Process`].
    pub fn cache_idx(&self) -> &[u16] {
        match self.sharing {
            SharingModel::Processor => &self.data.cpu,
            SharingModel::Process => &self.data.pid,
        }
    }

    /// Replaces the stream with `records`, keeping its allocations, its
    /// renaming (a streaming replay interns as it goes) and its sharing
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the stream's columns or renaming are shared with another
    /// stream.
    pub fn refill(&mut self, records: &[TraceRecord]) {
        let data = Arc::get_mut(&mut self.data).expect("a refilled stream is not shared");
        let blocks = Arc::get_mut(&mut self.blocks).expect("a refilled stream is not shared");
        data.kind.clear();
        data.block_id.clear();
        data.first_ref.clear();
        data.cpu.clear();
        data.pid.clear();
        data.data_bits.clear();
        data.instr = 0;
        data.extend(records, blocks);
        self.max_cache_idx = self.cache_idx().iter().copied().max().unwrap_or(0);
    }

    /// Number of data references in the stream.
    pub fn len(&self) -> usize {
        self.data.kind.len()
    }

    /// Whether the stream holds no data reference.
    pub fn is_empty(&self) -> bool {
        self.data.kind.is_empty()
    }

    /// References the stream covers: its data references plus its
    /// instruction fetches.
    pub fn refs(&self) -> u64 {
        self.data.refs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use dircc_types::BlockGeometry;

    fn records() -> Vec<TraceRecord> {
        Generator::new(Profile::thor().with_total_refs(4_000), 11).collect()
    }

    #[test]
    fn soa_matches_aos_derivation() {
        let records = records();
        let geometry = BlockGeometry::PAPER;
        for sharing in [SharingModel::Processor, SharingModel::Process] {
            let soa = SoaStream::build(records.iter().copied(), geometry, sharing);
            let data: Vec<&TraceRecord> = records.iter().filter(|r| r.is_data()).collect();
            assert!(data.len() < records.len(), "THOR carries instruction fetches");
            assert_eq!(soa.len(), data.len());
            assert_eq!(soa.refs(), records.len() as u64);
            assert_eq!(soa.data.instr, (records.len() - data.len()) as u64);
            assert_eq!(soa.sharing, sharing);
            // Derived from raw addresses, not dense ids: renaming is a
            // bijection, so both must agree on first references.
            let mut seen = std::collections::HashSet::new();
            for (d, r) in data.iter().enumerate() {
                let block = geometry.block_of(r.addr);
                let cache =
                    if sharing == SharingModel::Process { r.pid.raw() } else { r.cpu.raw() };
                assert_eq!(soa.data.kind[d], r.kind);
                assert_eq!(soa.cache_idx()[d], cache);
                assert_eq!(soa.data.first_ref[d], seen.insert(block));
                assert_eq!(soa.blocks.block_addr(soa.data.block_id[d]), block);
                assert_eq!((soa.data.cpu[d], soa.data.pid[d]), (r.cpu.raw(), r.pid.raw()));
            }
            assert_eq!(soa.data.num_blocks, seen.len());
            for (j, r) in records.iter().enumerate() {
                assert_eq!(soa.data.is_data(j), r.is_data(), "data bit of reference {j}");
            }
            assert_eq!(soa.max_cache_idx, soa.cache_idx().iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn first_ref_bits_appear_once_per_block() {
        let soa = SoaStream::build(records(), BlockGeometry::PAPER, SharingModel::Processor);
        let firsts = soa.data.first_ref.iter().filter(|&&f| f).count();
        assert_eq!(firsts, soa.blocks.num_blocks(), "exactly one first reference per block");
    }

    #[test]
    fn ingest_shows_every_batch_and_trims_the_columns() {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::thor().with_total_refs(10_000), 11).collect();
        let mut seen = Vec::new();
        let (data, _) = DataRefs::ingest(records.iter().copied(), BlockGeometry::PAPER, |b| {
            seen.push(b.len());
        });
        assert_eq!(seen, [BATCH_RECORDS, BATCH_RECORDS, records.len() - 2 * BATCH_RECORDS]);
        assert_eq!(data.data_bits.len(), records.len().div_ceil(64));
        let n = data.kind.len();
        assert_eq!(data.heap_bytes(), 10 * n + 8 * data.data_bits.len(), "10 B per data ref");
    }

    #[test]
    fn refill_matches_a_build_over_the_same_records() {
        // A batch refilled piece by piece keeps its renaming, so its
        // successive contents join up to a build over the whole stream.
        let records = records();
        let (geometry, sharing) = (BlockGeometry::PAPER, SharingModel::Process);
        let whole = SoaStream::build(records.iter().copied(), geometry, sharing);
        let mut batch = SoaStream::build([], geometry, sharing);
        let mut joined = DataRefs::default();
        for piece in records.chunks(1_000) {
            batch.refill(piece);
            assert_eq!(batch.refs(), piece.len() as u64);
            let b = &batch.data;
            let mut d = 0;
            for j in 0..piece.len() {
                if b.is_data(j) {
                    joined.push_data(b.kind[d], b.block_id[d], b.first_ref[d], b.cpu[d], b.pid[d]);
                    d += 1;
                } else {
                    joined.push_instr();
                }
            }
            let max = batch.cache_idx().iter().copied().max().unwrap_or(0);
            assert_eq!(batch.max_cache_idx, max);
        }
        joined.num_blocks = batch.data.num_blocks;
        assert_eq!(joined, *whole.data);
        assert_eq!(batch.blocks.num_blocks(), whole.blocks.num_blocks());
    }
}
