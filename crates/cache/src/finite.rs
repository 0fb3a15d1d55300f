//! Finite set-associative caches with LRU replacement.
//!
//! The headline experiments use infinite caches, but the paper notes that
//! "the performance of a system with smaller caches can be estimated to
//! first order by adding the costs due to the finite cache size".
//! [`SetAssocCache`] supports that extension: the ablation benches replay
//! traces through finite caches to measure the replacement-miss component.

use dircc_types::BlockAddr;

/// Shape of a finite cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiniteCacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl FiniteCacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        FiniteCacheConfig { sets, ways }
    }

    /// Total block capacity.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// The set `block` maps to — the same computation every
    /// [`SetAssocCache`] of this shape uses internally. Exposed so the
    /// sharded replay engine can partition a stream by set index (LRU
    /// eviction is confined to a set, so set-sharding preserves victim
    /// choice exactly).
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.sets - 1)
    }

    /// Configuration for a cache of `capacity_blocks` with `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a nonzero power of two.
    pub fn with_capacity(capacity_blocks: usize, ways: usize) -> Self {
        assert!(ways > 0 && capacity_blocks.is_multiple_of(ways), "capacity must divide by ways");
        Self::new(capacity_blocks / ways, ways)
    }
}

/// A block evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<S> {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its state at eviction.
    pub state: S,
}

/// Result of a combined [`SetAssocCache::lookup_or_insert`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup<S> {
    /// The block was already resident (LRU order refreshed).
    Hit,
    /// The block was inserted, evicting the LRU way if the set was full.
    Inserted {
        /// The LRU victim, if the set was full.
        evicted: Option<Eviction<S>>,
    },
}

/// A set-associative cache with true-LRU replacement, mapping blocks to a
/// protocol-defined state `S`.
///
/// The tag store is one flat array of `sets × ways` ways, set `s` at
/// `s * ways..`, plus each set's occupancy. Every set keeps its occupied
/// ways in recency order, most recent first: a touch (a hit, an insert,
/// an overwrite) rotates its way to the front, and a full set evicts its
/// last way. No stamps or clock are kept, and a hit on the most recent
/// way costs one compare. The victim is exactly the one a per-way
/// "last touched" stamp would choose (the minimum stamp is the least
/// recently touched way, and the last of a recency-ordered set is that
/// way), so replacement is true LRU.
///
/// ```
/// use dircc_cache::{FiniteCacheConfig, SetAssocCache};
/// use dircc_types::BlockAddr;
///
/// let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
/// assert!(c.insert(BlockAddr::from_index(1), 0).is_none());
/// assert!(c.insert(BlockAddr::from_index(2), 0).is_none());
/// // Touch block 1 so block 2 becomes LRU.
/// c.get(BlockAddr::from_index(1));
/// let ev = c.insert(BlockAddr::from_index(3), 0).unwrap();
/// assert_eq!(ev.block, BlockAddr::from_index(2));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    config: FiniteCacheConfig,
    /// `sets × ways` ways; a set's first `occupied[set]` are resident,
    /// most recently touched first.
    ways: Vec<(BlockAddr, S)>,
    /// Resident ways per set.
    occupied: Vec<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S: Copy + Default> SetAssocCache<S> {
    /// Creates an empty cache.
    pub fn new(config: FiniteCacheConfig) -> Self {
        SetAssocCache {
            config,
            ways: vec![(BlockAddr::from_index(0), S::default()); config.capacity_blocks()],
            occupied: vec![0; config.sets],
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// `block`'s set, the index of the set's first way in `ways`, and
    /// `block`'s position among the set's resident ways, if resident.
    #[inline]
    fn find(&self, block: BlockAddr) -> (usize, usize, Option<usize>) {
        let set = self.config.set_of(block);
        let base = set * self.config.ways;
        let resident = &self.ways[base..base + self.occupied[set]];
        (set, base, resident.iter().position(|w| w.0 == block))
    }

    /// Moves resident way `pos` of the set at `base` to the front.
    #[inline]
    fn touch(&mut self, base: usize, pos: usize) {
        if pos > 0 {
            self.ways[base..=base + pos].rotate_right(1);
        }
    }

    /// Puts a block that is not resident at the front of its set,
    /// evicting the set's last (least recent) way if the set is full.
    #[inline]
    fn push_front(&mut self, set: usize, base: usize, way: (BlockAddr, S)) -> Option<Eviction<S>> {
        let len = self.occupied[set];
        let evicted = if len == self.config.ways {
            let (block, state) = self.ways[base + len - 1];
            self.evictions += 1;
            Some(Eviction { block, state })
        } else {
            self.occupied[set] = len + 1;
            None
        };
        let end = base + self.occupied[set];
        self.ways[base..end].rotate_right(1);
        self.ways[base] = way;
        evicted
    }

    /// Looks up a block, updating LRU order and hit/miss statistics.
    pub fn get(&mut self, block: BlockAddr) -> Option<&mut S> {
        match self.find(block) {
            (_, base, Some(pos)) => {
                self.touch(base, pos);
                self.hits += 1;
                Some(&mut self.ways[base].1)
            }
            (_, _, None) => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a block without touching LRU order or statistics.
    pub fn peek(&self, block: BlockAddr) -> Option<&S> {
        let (_, base, pos) = self.find(block);
        pos.map(|pos| &self.ways[base + pos].1)
    }

    /// Inserts (or overwrites) a block, returning the LRU eviction if the
    /// set was full. Overwriting an existing block never evicts.
    pub fn insert(&mut self, block: BlockAddr, state: S) -> Option<Eviction<S>> {
        match self.find(block) {
            (_, base, Some(pos)) => {
                self.touch(base, pos);
                self.ways[base].1 = state;
                None
            }
            (set, base, None) => self.push_front(set, base, (block, state)),
        }
    }

    /// Combined probe: looks `block` up and, on a miss, inserts it with
    /// `state`, walking the set once where `get` then `insert` would walk
    /// it twice. Statistics and LRU order end exactly as that two-call
    /// sequence leaves them.
    #[inline]
    pub fn lookup_or_insert(&mut self, block: BlockAddr, state: S) -> Lookup<S> {
        match self.find(block) {
            (_, base, Some(pos)) => {
                self.touch(base, pos);
                self.hits += 1;
                Lookup::Hit
            }
            (set, base, None) => {
                self.misses += 1;
                Lookup::Inserted { evicted: self.push_front(set, base, (block, state)) }
            }
        }
    }

    /// Removes a block (e.g. an invalidation), returning its state.
    pub fn remove(&mut self, block: BlockAddr) -> Option<S> {
        let (set, base, pos) = self.find(block);
        let pos = pos?;
        let end = base + self.occupied[set];
        let state = self.ways[base + pos].1;
        self.ways[base + pos..end].rotate_left(1);
        self.occupied[set] -= 1;
        Some(state)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.occupied.iter().sum()
    }

    /// Returns `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(4, 2));
        assert!(c.get(b(1)).is_none());
        c.insert(b(1), 7);
        assert_eq!(c.get(b(1)), Some(&mut 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(1, 3));
        c.insert(b(1), ());
        c.insert(b(2), ());
        c.insert(b(3), ());
        c.get(b(1)); // order now: 2 (LRU), 3, 1
        let ev = c.insert(b(4), ()).unwrap();
        assert_eq!(ev.block, b(2));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn same_set_conflicts_only() {
        // 2 sets: even blocks to set 0, odd to set 1.
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(2, 1));
        c.insert(b(0), ());
        c.insert(b(1), ());
        assert_eq!(c.len(), 2, "different sets don't conflict");
        let ev = c.insert(b(2), ()).unwrap();
        assert_eq!(ev.block, b(0), "same-set block evicted");
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 1));
        c.insert(b(1), 1);
        assert!(c.insert(b(1), 2).is_none());
        assert_eq!(c.peek(b(1)), Some(&2));
    }

    #[test]
    fn remove_invalidates() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
        c.insert(b(1), 9);
        assert_eq!(c.remove(b(1)), Some(9));
        assert_eq!(c.remove(b(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
        c.insert(b(1), ());
        c.insert(b(2), ());
        assert!(c.peek(b(1)).is_some());
        // LRU is still block 1 because peek didn't touch it.
        let ev = c.insert(b(3), ()).unwrap();
        assert_eq!(ev.block, b(1));
    }

    #[test]
    fn with_capacity_config() {
        let cfg = FiniteCacheConfig::with_capacity(1024, 4);
        assert_eq!(cfg.sets, 256);
        assert_eq!(cfg.capacity_blocks(), 1024);
    }

    #[test]
    fn set_of_matches_residency() {
        // Blocks whose set_of agree conflict; others never do.
        let cfg = FiniteCacheConfig::new(4, 1);
        assert_eq!(cfg.set_of(b(5)), 1);
        assert_eq!(cfg.set_of(b(9)), 1);
        assert_eq!(cfg.set_of(b(6)), 2);
        let mut c: SetAssocCache<()> = SetAssocCache::new(cfg);
        c.insert(b(5), ());
        let ev = c.insert(b(9), ()).expect("same set evicts");
        assert_eq!(ev.block, b(5));
        assert!(c.insert(b(6), ()).is_none(), "different set never conflicts");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_rejected() {
        let _ = FiniteCacheConfig::new(3, 1);
    }

    #[test]
    fn lookup_or_insert_matches_get_then_insert() {
        // Replay the same access sequence through the single-probe path
        // and the historical get+insert double walk; every observable
        // (hits, misses, evictions, eviction victims) must agree.
        let cfg = FiniteCacheConfig::new(2, 2);
        let mut single: SetAssocCache<u64> = SetAssocCache::new(cfg);
        let mut double: SetAssocCache<u64> = SetAssocCache::new(cfg);
        // A deterministic thrashing sequence with revisits.
        let seq: Vec<u64> = (0..200).map(|i| (i * 7 + i / 3) % 11).collect();
        for (i, &blk) in seq.iter().enumerate() {
            let expected =
                if double.get(b(blk)).is_none() { double.insert(b(blk), i as u64) } else { None };
            let got = match single.lookup_or_insert(b(blk), i as u64) {
                Lookup::Hit => None,
                Lookup::Inserted { evicted } => evicted,
            };
            assert_eq!(got, expected, "step {i} block {blk}");
        }
        assert_eq!(single.hits(), double.hits());
        assert_eq!(single.misses(), double.misses());
        assert_eq!(single.evictions(), double.evictions());
        assert_eq!(single.len(), double.len());
    }
}
