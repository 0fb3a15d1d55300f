//! The shared trace store: generate once, replay by slice.
//!
//! The paper's methodology is one simulation run per (protocol, trace)
//! pair, re-priced under any hardware model. That makes the experiment
//! matrix embarrassingly parallel — but only if the trace itself is not
//! regenerated for every run. [`TraceStore`] materializes each
//! (trace, filter) record stream exactly once into an
//! `Arc<[TraceRecord]>` and hands out cheap slices; concurrent requests
//! for the same stream block on a [`OnceLock`] instead of duplicating
//! generator work.
//!
//! The filtered stream ([`TraceFilter::ExcludeLockSpins`]) is derived from
//! the full stream rather than re-running the generator, so the generator
//! executes at most once per trace per process — observable through
//! [`TraceStore::generations`], which tests use to pin the
//! "generated exactly once" guarantee.
//!
//! Replay streams of data references ([`SoaStream`]) are memoized next
//! to the records: one interner lookup per data reference per (trace,
//! filter, geometry), shared by every sharing model. No per-record
//! dense-id array is kept.

use crate::filter::exclude_lock_spins;
use crate::gen::{Generator, Profile};
use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use crate::shard::ShardedStream;
use crate::soa::{DataRefs, SoaStream};
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

    fn slot(self) -> usize {
        match self {
            TraceFilter::Full => 0,
            TraceFilter::ExcludeLockSpins => 1,
        }
    }
}

/// One trace's lazily-materialized streams, one slot per filter.
#[derive(Debug, Default)]
struct TraceSlot {
    streams: [OnceLock<Arc<[TraceRecord]>>; 2],
}

/// A mutex-guarded map of memo cells: the cell is cloned out under the
/// lock and initialized outside it, so builders never serialize.
type MemoMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The `n` records of `records` in one shared slice, allocated once: a
/// range is `TrustedLen`, so `collect` needs no `Vec` to copy from.
fn collect_exact(n: usize, mut records: impl Iterator<Item = TraceRecord>) -> Arc<[TraceRecord]> {
    (0..n).map(|_| records.next().expect("the source yields `n` records")).collect()
}

/// The value memoized under `key`, built by `init` on first use.
fn memo<K: Eq + Hash, V: Clone>(map: &MemoMap<K, V>, key: K, init: impl FnOnce() -> V) -> V {
    let cell = map.lock().expect("memo poisoned").entry(key).or_default().clone();
    cell.get_or_init(init).clone()
}

/// Thread-safe, generate-once storage for the synthetic trace suite.
///
/// ```
/// use dircc_trace::gen::Profile;
/// use dircc_trace::store::{TraceFilter, TraceStore};
///
/// let store = TraceStore::new(vec![Profile::pero().with_total_refs(1_000)], 7);
/// let a = store.records(0, TraceFilter::Full);
/// let b = store.records(0, TraceFilter::Full);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second call reuses the slice");
/// assert_eq!(store.generations(), 1);
/// ```
#[derive(Debug)]
pub struct TraceStore {
    profiles: Vec<Profile>,
    seed: u64,
    slots: Vec<TraceSlot>,
    /// Number of generator executions (not stream requests).
    generations: AtomicU64,
    /// Memoized dense renamings, one per (trace, geometry).
    interners: MemoMap<(usize, BlockGeometry), Arc<BlockInterner>>,
    /// Memoized sharing-independent data references, one per
    /// (trace, filter, geometry).
    data: MemoMap<(usize, usize, BlockGeometry), Arc<DataRefs>>,
    /// Memoized block-sharded partitions, one per
    /// (trace, filter, geometry, shard count, sharing model).
    sharded: MemoMap<(usize, usize, BlockGeometry, usize, SharingModel), Arc<ShardedStream>>,
    /// Memoized structure-of-arrays streams, one per
    /// (trace, filter, geometry, sharing model).
    soa: MemoMap<(usize, usize, BlockGeometry, SharingModel), Arc<SoaStream>>,
}

impl TraceStore {
    /// Creates a store over `profiles`, generating with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one trace profile");
        let slots = profiles.iter().map(|_| TraceSlot::default()).collect();
        TraceStore {
            profiles,
            seed,
            slots,
            generations: AtomicU64::new(0),
            interners: Mutex::new(HashMap::new()),
            data: Mutex::new(HashMap::new()),
            sharded: Mutex::new(HashMap::new()),
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

    /// The materialized record stream of one (trace, filter) pair.
    ///
    /// The first call per pair generates (or derives) the stream; later
    /// calls — from any thread — return the same shared slice.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn records(&self, trace: usize, filter: TraceFilter) -> Arc<[TraceRecord]> {
        let slot = &self.slots[trace];
        slot.streams[filter.slot()]
            .get_or_init(|| match filter {
                TraceFilter::Full => {
                    self.generations.fetch_add(1, Ordering::Relaxed);
                    let profile = self.profiles[trace].clone();
                    let n = usize::try_from(profile.total_refs).expect("trace fits in memory");
                    collect_exact(n, Generator::new(profile, self.seed))
                }
                TraceFilter::ExcludeLockSpins => {
                    // Derived from the full stream: no second generator run.
                    let full = self.records(trace, TraceFilter::Full);
                    let n = exclude_lock_spins(full.iter().copied()).count();
                    collect_exact(n, exclude_lock_spins(full.iter().copied()))
                }
            })
            .clone()
    }

    /// How many times a generator actually executed (for the
    /// generated-exactly-once guarantee; filters don't count).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// The dense block renaming of one trace under `geometry`, built once
    /// over the full stream and shared thereafter.
    ///
    /// Built over [`TraceFilter::Full`] so every derived (filtered) stream
    /// of the same trace maps through the same renaming.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn interner(&self, trace: usize, geometry: BlockGeometry) -> Arc<BlockInterner> {
        assert!(trace < self.slots.len(), "trace {trace} out of range");
        memo(&self.interners, (trace, geometry), || {
            let records = self.records(trace, TraceFilter::Full);
            Arc::new(BlockInterner::from_records(records.iter(), geometry))
        })
    }

    /// The sharing-independent data references of one (trace, filter)
    /// stream under `geometry`: each looked up once in the trace's
    /// [`interner`](TraceStore::interner). Materialized once and shared
    /// by every sharing model's [`soa`](TraceStore::soa).
    fn data(&self, trace: usize, filter: TraceFilter, geometry: BlockGeometry) -> Arc<DataRefs> {
        memo(&self.data, (trace, filter.slot(), geometry), || {
            let interner = self.interner(trace, geometry);
            Arc::new(DataRefs::build(&self.records(trace, filter), &interner))
        })
    }

    /// The per-record dense block ids of one (trace, filter) stream under
    /// `geometry`, aligned one-to-one with
    /// [`records(trace, filter)`](TraceStore::records) (instruction
    /// fetches get a placeholder 0). Expanded from the memoized data
    /// references on every call, without hashing; the store keeps no copy.
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
        let (data, records) = (self.data(trace, filter, geometry), self.records(trace, filter));
        let mut ids = data.block_id.iter().copied();
        records
            .iter()
            .map(|r| if r.is_data() { ids.next().expect("an id per reference") } else { 0 })
            .collect()
    }

    /// The block-sharded partition of one (trace, filter) stream's
    /// [`soa`](TraceStore::soa) under `geometry` and `sharing` — `shards`
    /// sub-streams routed by `block_id % shards` (the infinite-cache
    /// router), with shard-local dense ids and global reference numbers.
    /// Materialized once per (trace, filter, geometry, shards, sharing)
    /// and shared thereafter, alongside the unsharded streams.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or `shards` is zero.
    pub fn sharded(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
        shards: usize,
        sharing: SharingModel,
    ) -> Arc<ShardedStream> {
        assert!(shards >= 1, "need at least one shard");
        memo(&self.sharded, (trace, filter.slot(), geometry, shards, sharing), || {
            let soa = self.soa(trace, filter, geometry, sharing);
            let records = self.records(trace, filter);
            Arc::new(ShardedStream::build(&records, &soa, shards, |_, gid| gid as usize % shards))
        })
    }

    /// The structure-of-arrays split of one (trace, filter) stream under
    /// `geometry` and `sharing` — flat `kind`/`cache_idx`/`block_id`/
    /// `first_ref` arrays over its data references, with the
    /// sharing-model cache index and address math precomputed (see
    /// [`SoaStream`]). Materialized once per key and shared thereafter;
    /// every sharing model shares one [`DataRefs`].
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
        memo(&self.soa, (trace, filter.slot(), geometry, sharing), || {
            let data = self.data(trace, filter, geometry);
            Arc::new(SoaStream::with_sharing(data, &self.records(trace, filter), sharing))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TraceStore {
        TraceStore::new(
            vec![Profile::pops().with_total_refs(5_000), Profile::thor().with_total_refs(5_000)],
            3,
        )
    }

    #[test]
    fn streams_are_shared_not_regenerated() {
        let s = store();
        let a = s.records(0, TraceFilter::Full);
        let b = s.records(0, TraceFilter::Full);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(s.generations(), 1);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn filtered_stream_derives_from_full_without_regenerating() {
        let s = store();
        let filtered = s.records(1, TraceFilter::ExcludeLockSpins);
        let full = s.records(1, TraceFilter::Full);
        assert_eq!(s.generations(), 1, "filter must not re-run the generator");
        assert!(filtered.len() < full.len(), "THOR has spins to drop");
        assert!(filtered.iter().all(|r| !r.is_lock_spin()));
    }

    #[test]
    fn concurrent_requests_generate_once() {
        let s = store();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for t in 0..s.num_traces() {
                        for f in TraceFilter::ALL {
                            let _ = s.records(t, f);
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
        let stored = s.records(0, TraceFilter::Full);
        let fresh: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(5_000), 3).collect();
        assert_eq!(&stored[..], &fresh[..]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_profiles_rejected() {
        let _ = TraceStore::new(vec![], 0);
    }

    #[test]
    fn interner_is_memoized_per_geometry() {
        let s = store();
        let a = s.interner(0, BlockGeometry::PAPER);
        let b = s.interner(0, BlockGeometry::PAPER);
        assert!(Arc::ptr_eq(&a, &b), "same (trace, geometry) shares the interner");
        let wide = s.interner(0, BlockGeometry::new(5));
        assert!(!Arc::ptr_eq(&a, &wide));
        assert!(wide.num_blocks() <= a.num_blocks(), "wider blocks cannot increase count");
        assert_eq!(s.generations(), 1, "interning reuses the stored stream");
    }

    #[test]
    fn sharded_streams_are_memoized_and_partition_the_stream() {
        let s = store();
        let g = BlockGeometry::PAPER;
        let a = s.sharded(0, TraceFilter::Full, g, 4, SharingModel::Process);
        let b = s.sharded(0, TraceFilter::Full, g, 4, SharingModel::Process);
        assert!(Arc::ptr_eq(&a, &b), "same (trace, filter, shards) shares the partition");
        let other = s.sharded(0, TraceFilter::Full, g, 2, SharingModel::Process);
        assert!(!Arc::ptr_eq(&a, &other), "shard count is part of the key");
        let proc = s.sharded(0, TraceFilter::Full, g, 4, SharingModel::Processor);
        assert!(!Arc::ptr_eq(&a, &proc), "sharing model is part of the key");
        let records = s.records(0, TraceFilter::Full);
        assert_eq!(a.total_records(), records.len());
        assert_eq!(a.total_blocks(), s.interner(0, g).num_blocks());
        assert_eq!(s.generations(), 1, "sharding reuses the stored stream");
        // The mod router: every data reference's original dense id maps to
        // shard gid % 4, i.e. local ids stride the global id space.
        let dense = s.dense_blocks(0, TraceFilter::Full, g);
        for (i, sh) in a.shards().iter().enumerate() {
            for &g_ref in &sh.global_refs {
                assert!(records[(g_ref - 1) as usize].is_data());
                assert_eq!(dense[(g_ref - 1) as usize] as usize % 4, i);
            }
        }
    }

    #[test]
    fn soa_streams_are_memoized_per_sharing_model() {
        let s = store();
        let g = BlockGeometry::PAPER;
        let a = s.soa(0, TraceFilter::Full, g, SharingModel::Processor);
        let b = s.soa(0, TraceFilter::Full, g, SharingModel::Processor);
        assert!(Arc::ptr_eq(&a, &b), "same key shares the split");
        let proc = s.soa(0, TraceFilter::Full, g, SharingModel::Process);
        assert!(!Arc::ptr_eq(&a, &proc), "sharing model is part of the key");
        assert!(Arc::ptr_eq(&a.data, &proc.data), "sharing models share the data references");
        let records = s.records(0, TraceFilter::Full);
        assert_eq!(a.len(), records.iter().filter(|r| r.is_data()).count(), "data references only");
        assert_eq!(a.refs(), records.len() as u64);
        assert_eq!(a.data.num_blocks, s.interner(0, g).num_blocks());
        assert_eq!(s.generations(), 1, "the split reuses the stored stream");
        let sh = s.sharded(0, TraceFilter::Full, g, 3, SharingModel::Process);
        assert_eq!(sh.num_shards(), 3);
        let total: usize = sh.shards().iter().map(|s| s.soa.len()).sum();
        assert_eq!(total, a.len());
    }

    #[test]
    fn dense_blocks_align_with_records_for_every_filter() {
        let s = store();
        let geometry = BlockGeometry::PAPER;
        let interner = s.interner(1, geometry);
        for f in TraceFilter::ALL {
            let records = s.records(1, f);
            let dense = s.dense_blocks(1, f, geometry);
            assert_eq!(dense.len(), records.len());
            let again = s.dense_blocks(1, f, geometry);
            assert_eq!(dense, again);
            assert!(!Arc::ptr_eq(&dense, &again), "the store keeps no dense-id stream");
            for (r, &id) in records.iter().zip(dense.iter()) {
                if r.is_data() {
                    let expect = interner.get(geometry.block_of(r.addr)).unwrap();
                    assert_eq!(expect.raw(), id);
                }
            }
        }
        assert_eq!(s.generations(), 1);
    }
}
