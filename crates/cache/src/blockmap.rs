//! A dense per-block container for directory state.
//!
//! Directory protocols keep one entry per cached block (pointer lists,
//! broadcast and dirty bits). Replay feeds them interned block addresses,
//! so that table can be a flat vector indexed by the dense block index —
//! the same trick [`crate::CacheArray`] uses for per-cache tag state. It
//! grows on demand so hand-built traces with small literal block numbers
//! work without an interner.

use dircc_types::BlockAddr;

fn dense_index(block: BlockAddr) -> usize {
    let i = block.index();
    assert!(
        i <= u32::MAX as u64,
        "{block}: block index exceeds the dense-table bound; intern the trace first"
    );
    i as usize
}

/// A map from blocks to directory entries, backed by a flat `Vec`.
///
/// ```
/// use dircc_cache::BlockMap;
/// use dircc_types::BlockAddr;
///
/// let mut m: BlockMap<u32> = BlockMap::new();
/// let b = BlockAddr::from_index(3);
/// *m.entry(b) += 7;
/// assert_eq!(m.get(b), Some(&7));
/// assert_eq!(m.remove(b), Some(7));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> BlockMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        BlockMap { slots: Vec::new(), len: 0 }
    }

    /// Pre-allocates for `blocks` dense block indices.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        if self.slots.len() < blocks {
            self.slots.reserve(blocks - self.slots.len());
        }
    }

    /// Number of entries present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the entry for `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&V> {
        self.slots.get(dense_index(block)).and_then(Option::as_ref)
    }

    /// Returns the entry for `block` mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut V> {
        self.slots.get_mut(dense_index(block)).and_then(Option::as_mut)
    }

    /// Returns `true` if `block` has an entry.
    #[inline]
    pub fn contains_key(&self, block: BlockAddr) -> bool {
        self.get(block).is_some()
    }

    /// Inserts an entry, returning the previous one if present.
    #[inline]
    pub fn insert(&mut self, block: BlockAddr, value: V) -> Option<V> {
        let b = dense_index(block);
        if self.slots.len() <= b {
            self.slots.resize_with(b + 1, || None);
        }
        let prev = self.slots[b].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes the entry for `block`, returning it if present.
    #[inline]
    pub fn remove(&mut self, block: BlockAddr) -> Option<V> {
        let prev = self.slots.get_mut(dense_index(block)).and_then(Option::take);
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Iterates over `(block, entry)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(b, v)| Some((BlockAddr::from_index(b as u64), v.as_ref()?)))
    }
}

impl<V: Default> BlockMap<V> {
    /// Returns the entry for `block`, inserting a default if absent.
    #[inline]
    pub fn entry(&mut self, block: BlockAddr) -> &mut V {
        let b = dense_index(block);
        if self.slots.len() <= b {
            self.slots.resize_with(b + 1, || None);
        }
        if self.slots[b].is_none() {
            self.slots[b] = Some(V::default());
            self.len += 1;
        }
        self.slots[b].as_mut().expect("slot just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn map_insert_get_remove() {
        let mut m: BlockMap<u8> = BlockMap::new();
        assert_eq!(m.insert(b(2), 5), None);
        assert_eq!(m.insert(b(2), 6), Some(5));
        assert_eq!(m.get(b(2)), Some(&6));
        assert!(m.contains_key(b(2)));
        assert!(!m.contains_key(b(99)));
        *m.get_mut(b(2)).unwrap() = 7;
        assert_eq!(m.remove(b(2)), Some(7));
        assert_eq!(m.remove(b(2)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn map_entry_defaults() {
        let mut m: BlockMap<Vec<u8>> = BlockMap::new();
        m.entry(b(3)).push(1);
        m.entry(b(3)).push(2);
        assert_eq!(m.get(b(3)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_iterates_in_block_order() {
        let mut m: BlockMap<u8> = BlockMap::new();
        m.insert(b(9), 9);
        m.insert(b(1), 1);
        let pairs: Vec<(u64, u8)> = m.iter().map(|(blk, v)| (blk.index(), *v)).collect();
        assert_eq!(pairs, vec![(1, 1), (9, 9)]);
        m.reserve_blocks(64);
        assert_eq!(m.len(), 2);
    }
}
