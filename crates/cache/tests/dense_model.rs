//! A/B property tests: the dense (flat-vector) containers against naive
//! map-based reference models on randomized operation sequences.
//!
//! `CacheArray`, `BlockMap` and `BlockSet` replaced hash maps on the
//! replay hot path; these tests pin the claim that the dense rewrite is
//! observationally identical to the map semantics it replaced. Likewise
//! the recency-ordered `SetAssocCache` replaced a tag store that stamped
//! every way with a clock, and is pinned against that store, kept here.

use dircc_cache::{
    BlockMap, BlockSet, CacheArray, Eviction, FiniteCacheConfig, Lookup, SetAssocCache,
};
use dircc_types::{BlockAddr, CacheId, CacheIdSet};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};

const CPUS: u16 = 4;
const BLOCKS: u64 = 48;

#[derive(Debug, Clone, Copy)]
enum Op {
    Set { cache: u16, block: u64, value: u8 },
    Remove { cache: u16, block: u64 },
    RemoveAllExcept { block: u64, keep: u16 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3, 0u16..CPUS, 0u64..BLOCKS, any::<u8>()).prop_map(|(op, cache, block, value)| {
            match op {
                0 => Op::Set { cache, block, value },
                1 => Op::Remove { cache, block },
                _ => Op::RemoveAllExcept { block, keep: cache },
            }
        }),
        1..200,
    )
}

/// The reference model: per-cache hash maps, holders derived by scan.
#[derive(Debug, Default)]
struct MapModel {
    caches: Vec<HashMap<u64, u8>>,
}

impl MapModel {
    fn new(n: usize) -> Self {
        MapModel { caches: vec![HashMap::new(); n] }
    }

    fn holders(&self, block: u64) -> CacheIdSet {
        self.caches
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains_key(&block))
            .map(|(c, _)| CacheId::new(c as u16))
            .collect()
    }

    fn distinct_blocks(&self) -> usize {
        self.caches.iter().flat_map(|m| m.keys()).collect::<HashSet<_>>().len()
    }
}

fn b(i: u64) -> BlockAddr {
    BlockAddr::from_index(i)
}

/// The retired set-associative tag store, the reference for
/// `SetAssocCache`: one `Vec` per set, every way stamped with a clock on
/// each touch, and the minimum stamp evicted.
struct StampLru<S> {
    config: FiniteCacheConfig,
    sets: Vec<Vec<(BlockAddr, S, u64)>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S: Copy> StampLru<S> {
    fn new(config: FiniteCacheConfig) -> Self {
        let sets = (0..config.sets).map(|_| Vec::with_capacity(config.ways)).collect();
        StampLru { config, sets, clock: 0, hits: 0, misses: 0, evictions: 0 }
    }

    fn get(&mut self, block: BlockAddr) -> Option<S> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.config.set_of(block);
        match self.sets[set].iter_mut().find(|w| w.0 == block) {
            Some(w) => {
                w.2 = clock;
                self.hits += 1;
                Some(w.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn peek(&self, block: BlockAddr) -> Option<S> {
        let set = self.config.set_of(block);
        self.sets[set].iter().find(|w| w.0 == block).map(|w| w.1)
    }

    fn insert(&mut self, block: BlockAddr, state: S) -> Option<Eviction<S>> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.config.ways;
        let set = &mut self.sets[self.config.set_of(block)];
        if let Some(w) = set.iter_mut().find(|w| w.0 == block) {
            w.1 = state;
            w.2 = clock;
            return None;
        }
        let evicted = if set.len() == ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).expect("nonempty set");
            let (block, state, _) = set.swap_remove(lru);
            self.evictions += 1;
            Some(Eviction { block, state })
        } else {
            None
        };
        set.push((block, state, clock));
        evicted
    }

    fn lookup_or_insert(&mut self, block: BlockAddr, state: S) -> Lookup<S> {
        match self.get(block) {
            Some(_) => Lookup::Hit,
            None => Lookup::Inserted { evicted: self.insert(block, state) },
        }
    }

    fn remove(&mut self, block: BlockAddr) -> Option<S> {
        let set = &mut self.sets[self.config.set_of(block)];
        let pos = set.iter().position(|w| w.0 == block)?;
        Some(set.swap_remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The tag-store shapes the LRU property runs, `(sets, ways)`.
const LRU_SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 2), (64, 4)];

#[derive(Debug, Clone, Copy)]
enum TagOp {
    Get(u64),
    Peek(u64),
    Insert(u64, u8),
    LookupOrInsert(u64, u8),
    Remove(u64),
}

fn arb_tag_ops() -> impl Strategy<Value = Vec<TagOp>> {
    prop::collection::vec(
        (0u8..10, any::<u16>(), any::<u8>()).prop_map(|(op, block, value)| {
            let block = u64::from(block);
            match op {
                0 | 1 => TagOp::Get(block),
                2 => TagOp::Peek(block),
                3..=5 => TagOp::Insert(block, value),
                6..=8 => TagOp::LookupOrInsert(block, value),
                _ => TagOp::Remove(block),
            }
        }),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_array_matches_the_map_model(ops in arb_ops()) {
        let mut dense: CacheArray<u8> = CacheArray::new(usize::from(CPUS));
        let mut model = MapModel::new(usize::from(CPUS));
        for op in &ops {
            match *op {
                Op::Set { cache, block, value } => {
                    dense.set(CacheId::new(cache), b(block), value);
                    model.caches[usize::from(cache)].insert(block, value);
                }
                Op::Remove { cache, block } => {
                    let got = dense.remove(CacheId::new(cache), b(block));
                    let want = model.caches[usize::from(cache)].remove(&block);
                    prop_assert_eq!(got, want);
                }
                Op::RemoveAllExcept { block, keep } => {
                    dense.remove_all_except(b(block), Some(CacheId::new(keep)));
                    for (c, m) in model.caches.iter_mut().enumerate() {
                        if c != usize::from(keep) {
                            m.remove(&block);
                        }
                    }
                }
            }
            // Full observational equality after every step.
            for cache in 0..CPUS {
                for block in 0..BLOCKS {
                    prop_assert_eq!(
                        dense.state(CacheId::new(cache), b(block)),
                        model.caches[usize::from(cache)].get(&block),
                        "state({cache}, {block})",
                    );
                }
                prop_assert_eq!(
                    dense.blocks_in(CacheId::new(cache)),
                    model.caches[usize::from(cache)].len()
                );
            }
            for block in 0..BLOCKS {
                prop_assert_eq!(dense.holders(b(block)), model.holders(block));
            }
            prop_assert_eq!(dense.distinct_blocks(), model.distinct_blocks());
            dense.check_residency().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn block_map_matches_hash_map(ops in prop::collection::vec(
        (0u8..2, 0u64..BLOCKS, any::<u8>()), 1..200)
    ) {
        let mut dense: BlockMap<u8> = BlockMap::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(op, block, value) in &ops {
            if op == 0 {
                prop_assert_eq!(dense.insert(b(block), value), model.insert(block, value));
            } else {
                prop_assert_eq!(dense.remove(b(block)), model.remove(&block));
            }
            prop_assert_eq!(dense.len(), model.len());
            for blk in 0..BLOCKS {
                prop_assert_eq!(dense.get(b(blk)), model.get(&blk));
            }
            let mut got: Vec<(u64, u8)> = dense.iter().map(|(k, v)| (k.index(), *v)).collect();
            let mut want: Vec<(u64, u8)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn block_set_matches_hash_set(ops in prop::collection::vec(
        (0u8..2, 0u64..BLOCKS), 1..200)
    ) {
        let mut dense = BlockSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for &(op, block) in &ops {
            if op == 0 {
                prop_assert_eq!(dense.insert(b(block)), model.insert(block));
            } else {
                prop_assert_eq!(dense.remove(b(block)), model.remove(&block));
            }
            prop_assert_eq!(dense.len(), model.len());
            for blk in 0..BLOCKS {
                prop_assert_eq!(dense.contains(b(blk)), model.contains(&blk));
            }
            let mut got: Vec<u64> = dense.iter().map(|blk| blk.index()).collect();
            let mut want: Vec<u64> = model.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn recency_ordered_tag_store_is_true_lru(ops in arb_tag_ops()) {
        for (sets, ways) in LRU_SHAPES {
            let config = FiniteCacheConfig::new(sets, ways);
            let mut flat: SetAssocCache<u8> = SetAssocCache::new(config);
            let mut model: StampLru<u8> = StampLru::new(config);
            // Two more blocks than ways per set, so every set thrashes.
            let universe = (sets * (ways + 2)) as u64;
            for (i, op) in ops.iter().enumerate() {
                let at = format!("{sets}x{ways} step {i} {op:?}");
                match *op {
                    TagOp::Get(blk) => {
                        let blk = b(blk % universe);
                        prop_assert_eq!(flat.get(blk).copied(), model.get(blk), "{}", at);
                    }
                    TagOp::Peek(blk) => {
                        let blk = b(blk % universe);
                        prop_assert_eq!(flat.peek(blk).copied(), model.peek(blk), "{}", at);
                    }
                    TagOp::Insert(blk, v) => {
                        let blk = b(blk % universe);
                        prop_assert_eq!(flat.insert(blk, v), model.insert(blk, v), "{}", at);
                    }
                    TagOp::LookupOrInsert(blk, v) => {
                        let blk = b(blk % universe);
                        let (got, want) = (flat.lookup_or_insert(blk, v), model.lookup_or_insert(blk, v));
                        prop_assert_eq!(got, want, "{}", at);
                    }
                    TagOp::Remove(blk) => {
                        let blk = b(blk % universe);
                        prop_assert_eq!(flat.remove(blk), model.remove(blk), "{}", at);
                    }
                }
                prop_assert_eq!(flat.len(), model.len(), "{}", at);
                prop_assert_eq!(flat.is_empty(), model.len() == 0, "{}", at);
                prop_assert_eq!(flat.hits(), model.hits, "{}", at);
                prop_assert_eq!(flat.misses(), model.misses, "{}", at);
                prop_assert_eq!(flat.evictions(), model.evictions, "{}", at);
            }
            // Every block's residency and state agree at the end.
            for blk in 0..universe {
                prop_assert_eq!(flat.peek(b(blk)).copied(), model.peek(b(blk)));
            }
        }
    }
}
