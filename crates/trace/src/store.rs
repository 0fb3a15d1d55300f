//! The shared trace store: ingest once, replay by column.
//!
//! The paper's methodology is one simulation run per (protocol, trace)
//! pair, re-priced under any hardware model, so a trace must not be
//! regenerated per run. [`TraceStore`] streams each generated trace once
//! per block geometry through [`DataRefs::ingest`], interning blocks and
//! taking Table 3's counts and a lock-spin bit per data reference in the
//! same pass, and keeps the data-reference columns: nothing per record.
//! The no-spins stream is derived from the full stream's columns on first
//! use, never by regenerating ([`TraceStore::generations`] pins that).
//! [`TraceStore::records`] regenerates records for the cold paths that
//! read them. Replay streams are memoized next to the columns, every
//! sharing model sharing one [`DataRefs`]; concurrent requests block on
//! a [`OnceLock`] instead of duplicating work.

use crate::gen::{Generator, Profile};
use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use crate::soa::{bit, push_bit, vec_bytes, DataRefs, SoaStream};
use crate::stats::RefCounts;
use dircc_types::{BlockGeometry, SharingModel};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Trace preprocessing applied before replay.
///
/// Lives next to the store so every layer (trace store, workbench, CLI)
/// shares one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFilter {
    /// The full trace.
    Full,
    /// Lock-test reads removed (the §5.2 experiment).
    ExcludeLockSpins,
}

impl TraceFilter {
    /// All filters, in stable (paper) order.
    pub const ALL: [TraceFilter; 2] = [TraceFilter::Full, TraceFilter::ExcludeLockSpins];
}

/// One trace's ingest under one geometry.
#[derive(Debug)]
struct Ingest {
    blocks: Arc<BlockInterner>,
    full: Arc<DataRefs>,
    /// One bit per data reference of `full`, set for a lock spin.
    spins: Vec<u64>,
    counts: RefCounts,
    /// The no-spins stream, derived on first use.
    no_spins: OnceLock<Arc<DataRefs>>,
}

/// A mutex-guarded map of memo cells: the cell is cloned out under the
/// lock and initialized outside it, so builders never serialize.
type MemoMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The value memoized under `key`, built by `init` on first use.
fn memo<K: Eq + Hash, V: Clone>(map: &MemoMap<K, V>, key: K, init: impl FnOnce() -> V) -> V {
    let cell = map.lock().expect("memo poisoned").entry(key).or_default().clone();
    cell.get_or_init(init).clone()
}

/// The no-spins stream of `full`: its references less those `spins`
/// marks, first references recomputed, the full stream's renaming kept.
fn without_spins(full: &DataRefs, spins: &[u64]) -> DataRefs {
    let mut out = DataRefs { num_blocks: full.num_blocks, ..DataRefs::default() };
    let mut seen = vec![false; full.num_blocks];
    let mut d = 0;
    for j in 0..full.refs() as usize {
        if !full.is_data(j) {
            out.push_instr();
            continue;
        }
        if !bit(spins, d) {
            let id = full.block_id[d];
            let first = !std::mem::replace(&mut seen[id as usize], true);
            out.push_data(full.kind[d], id, first, full.cpu[d], full.pid[d]);
        }
        d += 1;
    }
    out.shrink_to_fit();
    out
}

/// Thread-safe, ingest-once storage for the synthetic trace suite.
///
/// ```
/// use dircc_trace::gen::Profile;
/// use dircc_trace::store::{TraceFilter, TraceStore};
/// use dircc_types::BlockGeometry;
///
/// let store = TraceStore::new(vec![Profile::pero().with_total_refs(1_000)], 7);
/// let a = store.data(0, TraceFilter::Full, BlockGeometry::PAPER);
/// let b = store.data(0, TraceFilter::Full, BlockGeometry::PAPER);
/// assert!(std::sync::Arc::ptr_eq(&a, &b) && store.generations() == 1);
/// // Records are regenerated, not stored.
/// assert_eq!(store.records(0, TraceFilter::Full).iter().count(), 1_000);
/// assert_eq!(store.generations(), 2);
/// ```
#[derive(Debug)]
pub struct TraceStore {
    profiles: Vec<Profile>,
    seed: u64,
    /// Number of generator executions (not stream requests).
    generations: AtomicU64,
    /// Memoized ingests, one per (trace, geometry).
    ingests: MemoMap<(usize, BlockGeometry), Arc<Ingest>>,
    /// Memoized replay streams, one per
    /// (trace, filter, geometry, sharing model).
    soa: MemoMap<(usize, TraceFilter, BlockGeometry, SharingModel), Arc<SoaStream>>,
}

/// The records of one (trace, filter) pair, regenerated on every
/// [`iter`](RecordStream::iter): the store holds no record.
#[derive(Debug, Clone, Copy)]
pub struct RecordStream<'a> {
    store: &'a TraceStore,
    trace: usize,
    filter: TraceFilter,
}

impl RecordStream<'_> {
    /// Runs the generator, then drops lock spins under the no-spins filter
    /// (as [`crate::filter::exclude_lock_spins`]); counts a generation.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> {
        let keep_spins = self.filter == TraceFilter::Full;
        self.store.generate(self.trace).filter(move |r| keep_spins || !r.is_lock_spin())
    }
}

impl TraceStore {
    /// Creates a store over `profiles`, generating with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one trace profile");
        TraceStore {
            profiles,
            seed,
            generations: AtomicU64::new(0),
            ingests: Mutex::new(HashMap::new()),
            soa: Mutex::new(HashMap::new()),
        }
    }

    /// The profiles this store generates.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of traces.
    pub fn num_traces(&self) -> usize {
        self.profiles.len()
    }

    /// The record stream of one (trace, filter) pair, as a handle that
    /// regenerates it on every iteration.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn records(&self, trace: usize, filter: TraceFilter) -> RecordStream<'_> {
        assert!(trace < self.profiles.len(), "trace {trace} out of range");
        RecordStream { store: self, trace, filter }
    }

    /// How many times a generator actually executed: once per ingest and
    /// once per record iteration (filters don't count).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// A fresh generator of one trace's full record stream; counts a
    /// generation.
    fn generate(&self, trace: usize) -> Generator {
        self.generations.fetch_add(1, Ordering::Relaxed);
        Generator::new(self.profiles[trace].clone(), self.seed)
    }

    /// The one pass over one trace under `geometry`: columns, renaming,
    /// lock-spin bits and Table 3's counts, read straight off the
    /// generator.
    fn ingest(&self, trace: usize, geometry: BlockGeometry) -> Arc<Ingest> {
        assert!(trace < self.profiles.len(), "trace {trace} out of range");
        memo(&self.ingests, (trace, geometry), || {
            let (mut counts, mut spins) = (RefCounts::default(), Vec::new());
            let (full, blocks) = DataRefs::ingest(self.generate(trace), geometry, |batch| {
                for r in batch {
                    if r.is_data() {
                        let n = (counts.reads + counts.writes) as usize;
                        push_bit(&mut spins, n, r.is_lock_spin());
                    }
                    counts.observe(r);
                }
            });
            spins.shrink_to_fit();
            let (blocks, full, no_spins) = (Arc::new(blocks), Arc::new(full), OnceLock::new());
            Arc::new(Ingest { blocks, full, spins, counts, no_spins })
        })
    }

    /// Table 3's counts of one trace, taken by its ingest under the
    /// paper's block geometry. Panics if `trace` is out of range.
    pub fn counts(&self, trace: usize) -> RefCounts {
        self.ingest(trace, BlockGeometry::PAPER).counts
    }

    /// The dense block renaming of one trace under `geometry`, built by
    /// its ingest over the full stream and shared thereafter, so every
    /// derived (filtered) stream of the same trace maps through it.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn interner(&self, trace: usize, geometry: BlockGeometry) -> Arc<BlockInterner> {
        Arc::clone(&self.ingest(trace, geometry).blocks)
    }

    /// The data-reference columns of one (trace, filter) stream under
    /// `geometry`: the ingest's for the full stream, derived from them
    /// on first use for the no-spins stream. Shared by every sharing
    /// model's [`soa`](TraceStore::soa).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn data(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
    ) -> Arc<DataRefs> {
        let i = self.ingest(trace, geometry);
        Arc::clone(match filter {
            TraceFilter::Full => &i.full,
            TraceFilter::ExcludeLockSpins => {
                i.no_spins.get_or_init(|| Arc::new(without_spins(&i.full, &i.spins)))
            }
        })
    }

    /// The per-reference dense block ids of one (trace, filter) stream
    /// under `geometry`, one per reference in stream order (instruction
    /// fetches get a placeholder 0). Expanded from the memoized columns on
    /// every call; the store keeps no copy.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn dense_blocks(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
    ) -> Arc<[u32]> {
        let data = self.data(trace, filter, geometry);
        let mut ids = data.block_id.iter().copied();
        let id = |j| if data.is_data(j) { ids.next().expect("an id per data ref") } else { 0 };
        (0..data.refs() as usize).map(id).collect()
    }

    /// The replay stream of one (trace, filter) pair under `geometry` and
    /// `sharing`: the [`data`](TraceStore::data) columns, the trace's
    /// renaming, and the cache index column `sharing` picks (see
    /// [`SoaStream`]). Memoized per key; it copies no column.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn soa(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
        sharing: SharingModel,
    ) -> Arc<SoaStream> {
        memo(&self.soa, (trace, filter, geometry, sharing), || {
            let data = self.data(trace, filter, geometry);
            Arc::new(SoaStream::new(data, self.interner(trace, geometry), sharing))
        })
    }

    /// Bytes the store's memos hold on the heap: every ingest's columns,
    /// renaming and spin bits, and the derived no-spins columns. Replay
    /// streams add no column of their own.
    pub fn heap_bytes(&self) -> usize {
        let ingest = |i: &Arc<Ingest>| {
            let no_spins = i.no_spins.get().map_or(0, |d| d.heap_bytes());
            i.full.heap_bytes() + i.blocks.heap_bytes() + vec_bytes(&i.spins) + no_spins
        };
        let ingests = self.ingests.lock().expect("memo poisoned");
        ingests.values().filter_map(|cell| cell.get()).map(ingest).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: BlockGeometry = BlockGeometry::PAPER;

    fn store() -> TraceStore {
        TraceStore::new(
            vec![Profile::pops().with_total_refs(5_000), Profile::thor().with_total_refs(5_000)],
            3,
        )
    }

    #[test]
    fn streams_are_shared_not_regenerated() {
        let s = store();
        let a = s.data(0, TraceFilter::Full, G);
        let b = s.data(0, TraceFilter::Full, G);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(s.generations(), 1);
        assert_eq!(a.refs(), 5_000);
        let processor = s.soa(0, TraceFilter::Full, G, SharingModel::Processor);
        let process = s.soa(0, TraceFilter::Full, G, SharingModel::Process);
        assert!(Arc::ptr_eq(&processor.data, &a) && Arc::ptr_eq(&process.data, &a));
        assert_eq!(s.generations(), 1, "replay streams reuse the ingest");
    }

    #[test]
    fn filtered_stream_derives_from_full_without_regenerating() {
        let s = store();
        let filtered = s.data(1, TraceFilter::ExcludeLockSpins, G);
        let full = s.data(1, TraceFilter::Full, G);
        assert_eq!(s.generations(), 1, "filter must not re-run the generator");
        assert!(filtered.kind.len() < full.kind.len(), "THOR has spins to drop");
        assert_eq!(filtered.num_blocks, full.num_blocks, "the full stream's renaming");
        // The same columns as an ingest of the regenerated filtered records,
        // up to the renaming.
        let fresh = SoaStream::build(
            s.records(1, TraceFilter::ExcludeLockSpins).iter(),
            G,
            SharingModel::Processor,
        );
        let (blocks, f) = (s.interner(1, G), &fresh.data);
        assert_eq!((filtered.refs(), filtered.instr), (f.refs(), f.instr));
        assert_eq!(filtered.data_bits, f.data_bits);
        assert_eq!((&filtered.kind, &filtered.first_ref), (&f.kind, &f.first_ref));
        assert_eq!((&filtered.cpu, &filtered.pid), (&f.cpu, &f.pid));
        for (&a, &b) in filtered.block_id.iter().zip(&f.block_id) {
            assert_eq!(blocks.block_addr(a), fresh.blocks.block_addr(b));
        }
    }

    #[test]
    fn concurrent_requests_generate_once() {
        let s = store();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for t in 0..s.num_traces() {
                        for f in TraceFilter::ALL {
                            let _ = s.data(t, f, G);
                        }
                    }
                });
            }
        });
        assert_eq!(s.generations(), s.num_traces() as u64);
    }

    #[test]
    fn matches_a_fresh_generator() {
        let s = store();
        let stored: Vec<TraceRecord> = s.records(0, TraceFilter::Full).iter().collect();
        let fresh: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(5_000), 3).collect();
        assert_eq!(stored, fresh);
        let filtered = s.records(1, TraceFilter::ExcludeLockSpins);
        assert!(filtered.iter().all(|r| !r.is_lock_spin()));
        assert_eq!(s.generations(), 2, "each iteration regenerates");
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_profiles_rejected() {
        let _ = TraceStore::new(vec![], 0);
    }

    #[test]
    fn interner_is_memoized_per_geometry() {
        let s = store();
        let a = s.interner(0, G);
        let b = s.interner(0, G);
        assert!(Arc::ptr_eq(&a, &b), "same (trace, geometry) shares the interner");
        let wide = s.interner(0, BlockGeometry::new(5));
        assert!(!Arc::ptr_eq(&a, &wide));
        assert!(wide.num_blocks() <= a.num_blocks(), "wider blocks cannot increase count");
        assert_eq!(s.generations(), 2, "one ingest per geometry");
    }

    #[test]
    fn soa_streams_are_memoized_per_sharing_model() {
        let s = store();
        let a = s.soa(0, TraceFilter::Full, G, SharingModel::Processor);
        let b = s.soa(0, TraceFilter::Full, G, SharingModel::Processor);
        assert!(Arc::ptr_eq(&a, &b), "same key shares the stream");
        let proc = s.soa(0, TraceFilter::Full, G, SharingModel::Process);
        assert!(!Arc::ptr_eq(&a, &proc), "sharing model is part of the key");
        assert!(Arc::ptr_eq(&a.data, &proc.data), "sharing models share the data references");
        assert_eq!((a.cache_idx(), proc.cache_idx()), (&a.data.cpu[..], &a.data.pid[..]));
        assert_eq!(a.data.num_blocks, s.interner(0, G).num_blocks());
        assert_eq!(s.generations(), 1, "the split reuses the ingest");
        let records: Vec<TraceRecord> = s.records(0, TraceFilter::Full).iter().collect();
        assert_eq!(a.len(), records.iter().filter(|r| r.is_data()).count(), "data references only");
        assert_eq!(a.refs(), records.len() as u64);
    }

    #[test]
    fn dense_blocks_align_with_records_for_every_filter() {
        let s = store();
        let interner = s.interner(1, G);
        for f in TraceFilter::ALL {
            let dense = s.dense_blocks(1, f, G);
            let again = s.dense_blocks(1, f, G);
            assert_eq!(dense, again);
            assert!(!Arc::ptr_eq(&dense, &again), "the store keeps no dense-id stream");
            let records: Vec<TraceRecord> = s.records(1, f).iter().collect();
            assert_eq!(dense.len(), records.len());
            for (r, &id) in records.iter().zip(dense.iter()) {
                if r.is_data() {
                    let expect = interner.get(G.block_of(r.addr)).unwrap();
                    assert_eq!(expect.raw(), id);
                }
            }
        }
        assert_eq!(s.generations(), 1 + 2, "one ingest, two record iterations");
    }

    #[test]
    fn counts_are_table_3s_columns() {
        let s = store();
        for t in 0..s.num_traces() {
            let mut want = RefCounts::default();
            s.records(t, TraceFilter::Full).iter().for_each(|r| want.observe(&r));
            assert_eq!(s.counts(t), want);
        }
        assert!(s.counts(1).lock_spin_reads > 0, "THOR spins");
    }

    /// The store's bytes at a fixed scale: the paper suite at 200,000
    /// references per trace, both filters, with the process-sharing
    /// stream. At most 14 bytes per data reference; records add nothing.
    #[test]
    fn heap_bytes_stay_within_14_bytes_per_data_reference() {
        let profiles = Profile::paper_suite().into_iter().map(|p| p.with_total_refs(200_000));
        let s = TraceStore::new(profiles.collect(), 1988);
        let mut data_refs = 0;
        for t in 0..s.num_traces() {
            for f in TraceFilter::ALL {
                data_refs += s.soa(t, f, G, SharingModel::Process).len();
            }
        }
        let bytes = s.heap_bytes();
        assert!(bytes <= 14 * data_refs, "{bytes} B for {data_refs} data references");
        let generations = s.generations();
        for _ in 0..2 {
            assert_eq!(
                s.records(0, TraceFilter::ExcludeLockSpins).iter().count(),
                s.soa(0, TraceFilter::ExcludeLockSpins, G, SharingModel::Process).refs() as usize
            );
        }
        assert_eq!(s.generations(), generations + 2);
        assert_eq!(s.heap_bytes(), bytes, "records are regenerated, not held");
    }
}
