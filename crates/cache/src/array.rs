//! The infinite-cache array with residency oracle, on dense block tables.
//!
//! Replay feeds protocols *interned* block addresses (dense indices in
//! first-appearance order, see `dircc-trace`'s interner), so per-cache
//! state and the residency oracle live in flat `Vec`s indexed by the block
//! index — no hashing anywhere on the access path. The tables grow on
//! demand, so hand-built test traces with small literal block numbers work
//! without an interner.

use dircc_types::{BlockAddr, CacheId, CacheIdSet};

/// Largest block index the dense tables will grow to. Dense ids from an
/// interner are `u32` by construction; a raw (un-interned) block address
/// beyond this bound indicates a sparse stream that must be interned
/// before replay.
const MAX_DENSE_INDEX: u64 = u32::MAX as u64;

fn dense_index(block: BlockAddr) -> usize {
    let i = block.index();
    assert!(
        i <= MAX_DENSE_INDEX,
        "{block}: block index exceeds the dense-table bound; intern the trace first"
    );
    i as usize
}

/// An array of infinite caches, one per [`CacheId`], each mapping blocks to
/// a protocol-defined state `S`, plus a residency oracle.
///
/// Invariant: `holders(b)` contains exactly the caches for which
/// `state(c, b)` is `Some`. The oracle is maintained internally and is what
/// makes O(1) "who has this block" queries possible for snoopy protocols,
/// verification, and statistics.
#[derive(Debug, Clone)]
pub struct CacheArray<S> {
    /// `caches[c][b]` is the state of block `b` in cache `c` (`None` = not
    /// resident). Each cache's table grows on demand.
    caches: Vec<Vec<Option<S>>>,
    /// `residency[b]` is the set of caches holding block `b`.
    residency: Vec<CacheIdSet>,
}

impl<S> CacheArray<S> {
    /// Creates `n` empty caches.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds 64 (the [`CacheIdSet`] width).
    pub fn new(n: usize) -> Self {
        assert!((1..=64).contains(&n), "cache count must be in 1..=64");
        CacheArray { caches: (0..n).map(|_| Vec::new()).collect(), residency: Vec::new() }
    }

    /// Pre-allocates every table for `blocks` dense block indices (the
    /// capacity hint an interner provides), avoiding growth reallocations
    /// during replay.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        for tags in &mut self.caches {
            if tags.len() < blocks {
                tags.reserve(blocks - tags.len());
            }
        }
        if self.residency.len() < blocks {
            self.residency.reserve(blocks - self.residency.len());
        }
    }

    /// Number of caches.
    pub fn num_caches(&self) -> usize {
        self.caches.len()
    }

    /// Returns the state of `block` in `cache`, if present.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    #[inline]
    pub fn state(&self, cache: CacheId, block: BlockAddr) -> Option<&S> {
        self.caches[cache.index()].get(dense_index(block)).and_then(Option::as_ref)
    }

    /// Installs or updates `block` in `cache` with state `s`, returning the
    /// previous state if the block was already present.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    #[inline]
    pub fn set(&mut self, cache: CacheId, block: BlockAddr, s: S) -> Option<S> {
        let b = dense_index(block);
        let tags = &mut self.caches[cache.index()];
        if tags.len() <= b {
            tags.resize_with(b + 1, || None);
        }
        let prev = tags[b].replace(s);
        if prev.is_none() {
            if self.residency.len() <= b {
                self.residency.resize(b + 1, CacheIdSet::new());
            }
            self.residency[b].insert(cache);
        }
        prev
    }

    /// Removes `block` from `cache`, returning its state if present.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    #[inline]
    pub fn remove(&mut self, cache: CacheId, block: BlockAddr) -> Option<S> {
        let b = dense_index(block);
        let prev = self.caches[cache.index()].get_mut(b).and_then(Option::take);
        if prev.is_some() {
            self.residency[b].remove(cache);
        }
        prev
    }

    /// Returns the set of caches currently holding `block`.
    #[inline]
    pub fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.residency.get(dense_index(block)).copied().unwrap_or_default()
    }

    /// Iterates over every block resident anywhere, with its holder set,
    /// in block order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, &CacheIdSet)> {
        self.residency
            .iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
            .map(|(b, set)| (BlockAddr::from_index(b as u64), set))
    }

    /// Appends a canonical, self-delimiting encoding of every resident
    /// copy to `out`: a resident-block count, then per block (in block
    /// order) the block index, the holder bitset, and one `code(state)`
    /// word per holder in cache-id order. Two arrays encode equally iff
    /// they hold the same blocks in the same caches with `code`-equal
    /// states — the building block for `Protocol::encode_state`.
    pub fn encode_states(&self, out: &mut Vec<u64>, mut code: impl FnMut(&S) -> u64) {
        let count = out.len();
        out.push(0);
        for (block, holders) in self.iter_blocks() {
            out[count] += 1;
            out.push(block.index());
            out.push(holders.bits());
            for cache in holders.iter() {
                out.push(code(self.state(cache, block).expect("oracle-listed holder has state")));
            }
        }
    }

    /// Checks the internal residency-oracle invariant; used by tests and
    /// the protocol invariant checkers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_residency(&self) -> Result<(), String> {
        for (b, set) in self.residency.iter().enumerate() {
            for cache in set.iter() {
                if self.caches[cache.index()].get(b).is_none_or(Option::is_none) {
                    let block = BlockAddr::from_index(b as u64);
                    return Err(format!("{block}: oracle claims {cache} but tag store disagrees"));
                }
            }
        }
        for (i, tags) in self.caches.iter().enumerate() {
            let cache = CacheId::new(i as u16);
            for (b, s) in tags.iter().enumerate() {
                let block = BlockAddr::from_index(b as u64);
                if s.is_some() && !self.holders(block).contains(cache) {
                    return Err(format!("{block}: in {cache} tag store but not in oracle"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn c(i: u16) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn set_and_get() {
        let mut a: CacheArray<u32> = CacheArray::new(2);
        assert_eq!(a.set(c(0), b(1), 7), None);
        assert_eq!(a.set(c(0), b(1), 9), Some(7));
        assert_eq!(a.state(c(0), b(1)), Some(&9));
        assert_eq!(a.state(c(1), b(1)), None);
    }

    #[test]
    fn holders_tracks_residency() {
        let mut a: CacheArray<()> = CacheArray::new(4);
        a.set(c(0), b(5), ());
        a.set(c(2), b(5), ());
        a.set(c(2), b(6), ());
        assert_eq!(a.holders(b(5)).len(), 2);
        assert_eq!(a.holders(b(5)).without(c(0)).sole(), Some(c(2)));
        a.remove(c(0), b(5));
        assert_eq!(a.holders(b(5)).sole(), Some(c(2)));
        a.remove(c(2), b(5));
        assert!(a.holders(b(5)).is_empty());
        assert_eq!(a.iter_blocks().count(), 1);
        a.check_residency().unwrap();
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut a: CacheArray<()> = CacheArray::new(1);
        assert_eq!(a.remove(c(0), b(1)), None);
        a.check_residency().unwrap();
    }

    #[test]
    fn remove_all_except_keeps_one() {
        // An invalidating write: every holder but the writer drops out.
        let mut a: CacheArray<u8> = CacheArray::new(4);
        for i in 0..4 {
            a.set(c(i), b(9), i as u8);
        }
        let removed = a.holders(b(9)).without(c(2));
        for victim in removed.iter() {
            assert_eq!(a.remove(victim, b(9)), Some(victim.raw() as u8));
        }
        assert_eq!(removed.len(), 3);
        assert_eq!(a.holders(b(9)).sole(), Some(c(2)));
        a.check_residency().unwrap();
    }

    #[test]
    fn remove_all_clears_block() {
        let mut a: CacheArray<u8> = CacheArray::new(3);
        a.set(c(0), b(9), 0);
        a.set(c(1), b(9), 0);
        for victim in a.holders(b(9)).iter() {
            a.remove(victim, b(9));
        }
        assert!(a.holders(b(9)).is_empty());
        assert_eq!(a.iter_blocks().count(), 0);
        a.check_residency().unwrap();
    }

    #[test]
    fn iter_blocks_covers_everything() {
        let mut a: CacheArray<()> = CacheArray::new(2);
        a.set(c(0), b(1), ());
        a.set(c(1), b(2), ());
        let mut blocks: Vec<u64> = a.iter_blocks().map(|(blk, _)| blk.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![1, 2]);
    }

    #[test]
    fn capacity_hint_preallocates() {
        let mut a: CacheArray<u8> = CacheArray::new(2);
        a.reserve_blocks(128);
        for i in 0..128 {
            a.set(c(0), b(i), 0);
        }
        assert_eq!(a.iter_blocks().count(), 128);
        a.reserve_blocks(256);
        a.check_residency().unwrap();
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_caches_rejected() {
        let _: CacheArray<()> = CacheArray::new(0);
    }

    #[test]
    #[should_panic(expected = "dense-table bound")]
    fn sparse_block_index_rejected() {
        let mut a: CacheArray<()> = CacheArray::new(1);
        a.set(c(0), b(1 << 40), ());
    }

    #[test]
    fn encode_states_is_canonical() {
        let mut a: CacheArray<u8> = CacheArray::new(3);
        a.set(c(0), b(1), 7);
        a.set(c(2), b(1), 9);
        let mut x = Vec::new();
        a.encode_states(&mut x, |s| u64::from(*s));
        // 1 block; block 1 held by caches {0, 2} with states 7 and 9.
        assert_eq!(x, vec![1, 1, 0b101, 7, 9]);

        // A grown-then-emptied table encodes identically to a fresh one.
        let mut grown: CacheArray<u8> = CacheArray::new(3);
        grown.set(c(1), b(5), 3);
        grown.remove(c(1), b(5));
        let (mut g, mut f) = (Vec::new(), Vec::new());
        grown.encode_states(&mut g, |s| u64::from(*s));
        CacheArray::<u8>::new(3).encode_states(&mut f, |s| u64::from(*s));
        assert_eq!(g, f);
    }
}
