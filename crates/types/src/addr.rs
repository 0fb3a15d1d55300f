//! Byte addresses, block addresses and block geometry.

use core::fmt;

/// A byte address in the shared physical address space.
///
/// Addresses are plain 64-bit byte addresses; the traces the paper used were
/// VAX (32-bit) but nothing in the methodology depends on the width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte address.
    ///
    /// ```
    /// # use dircc_types::Address;
    /// assert_eq!(Address::new(16).raw(), 16);
    /// ```
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow (debug builds), wrapping otherwise,
    /// matching standard integer arithmetic semantics.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Address(self.0 + bytes)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<Address> for u64 {
    fn from(a: Address) -> Self {
        a.0
    }
}

/// The address of a cache block (an [`Address`] with the intra-block offset
/// bits stripped).
///
/// A `BlockAddr` is only meaningful relative to the [`BlockGeometry`] that
/// produced it; all dircc components use a single geometry per simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address directly from a block index.
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        BlockAddr(index)
    }

    /// Returns the block index (address divided by block size).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// A dense block index assigned by an interner.
///
/// [`BlockAddr`]s are sparse — whatever block numbers a trace's address
/// stream happens to touch. A `BlockId` is the dense renaming of those
/// blocks in first-appearance order (`0..num_blocks`), which lets every
/// per-block table in the replay hot path be a flat `Vec` instead of a
/// hash map. The mapping is bijective per (trace, geometry), so replaying
/// with dense ids produces bit-identical event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a dense block id.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        BlockId(raw)
    }

    /// Returns the raw dense index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the dense index widened to `usize` for container indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Index of a word within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordIndex(u8);

impl WordIndex {
    /// Creates a word index. The caller is responsible for keeping it below
    /// the geometry's words-per-block.
    #[inline]
    pub const fn new(i: u8) -> Self {
        WordIndex(i)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }
}

/// Block geometry: how byte addresses map onto cache blocks.
///
/// The paper fixes 4-word (16-byte) blocks; that is the [`Default`]. Other
/// powers of two are supported for ablation studies.
///
/// ```
/// use dircc_types::{Address, BlockGeometry};
///
/// let geom = BlockGeometry::new(5); // 32-byte blocks
/// assert_eq!(geom.block_bytes(), 32);
/// assert_eq!(geom.block_of(Address::new(63)).index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockGeometry {
    offset_bits: u32,
}

impl BlockGeometry {
    /// Creates a geometry with `offset_bits` low address bits inside a block
    /// (block size = `2^offset_bits` bytes).
    ///
    /// # Panics
    ///
    /// Panics if `offset_bits >= 32` (blocks of 4 GiB or more are certainly
    /// a configuration error).
    pub const fn new(offset_bits: u32) -> Self {
        assert!(offset_bits < 32, "unreasonable block size");
        BlockGeometry { offset_bits }
    }

    /// The paper's geometry: 16-byte (4-word) blocks.
    pub const PAPER: BlockGeometry = BlockGeometry::new(4);

    /// Returns the number of bytes per block.
    #[inline]
    pub const fn block_bytes(self) -> u64 {
        1 << self.offset_bits
    }

    /// Returns the number of 32-bit words per block.
    #[inline]
    pub const fn block_words(self) -> u64 {
        self.block_bytes() / crate::WORD_BYTES
    }

    /// Returns the number of intra-block offset bits.
    #[inline]
    pub const fn offset_bits(self) -> u32 {
        self.offset_bits
    }

    /// Maps a byte address to its containing block.
    #[inline]
    pub const fn block_of(self, a: Address) -> BlockAddr {
        BlockAddr(a.raw() >> self.offset_bits)
    }

    /// Returns the first byte address of a block.
    #[inline]
    pub const fn block_base(self, b: BlockAddr) -> Address {
        Address::new(b.index() << self.offset_bits)
    }

    /// Returns the word-within-block of a byte address.
    #[inline]
    pub const fn word_of(self, a: Address) -> WordIndex {
        WordIndex(((a.raw() >> 2) & ((1 << (self.offset_bits - 2)) - 1)) as u8)
    }
}

impl Default for BlockGeometry {
    /// Returns [`BlockGeometry::PAPER`] (16-byte blocks).
    fn default() -> Self {
        BlockGeometry::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_16_bytes() {
        let g = BlockGeometry::default();
        assert_eq!(g.block_bytes(), 16);
        assert_eq!(g.block_words(), 4);
        assert_eq!(g.offset_bits(), 4);
    }

    #[test]
    fn block_mapping_round_trips() {
        let g = BlockGeometry::PAPER;
        for raw in [0u64, 1, 15, 16, 17, 0xffff, 0x1234_5678] {
            let a = Address::new(raw);
            let b = g.block_of(a);
            let base = g.block_base(b);
            assert!(base.raw() <= raw);
            assert!(raw < base.raw() + g.block_bytes());
        }
    }

    #[test]
    fn word_of_extracts_word_within_block() {
        let g = BlockGeometry::PAPER;
        assert_eq!(g.word_of(Address::new(0)).raw(), 0);
        assert_eq!(g.word_of(Address::new(4)).raw(), 1);
        assert_eq!(g.word_of(Address::new(7)).raw(), 1);
        assert_eq!(g.word_of(Address::new(12)).raw(), 3);
        assert_eq!(g.word_of(Address::new(16)).raw(), 0);
    }

    #[test]
    fn address_offset_advances() {
        let a = Address::new(100);
        assert_eq!(a.offset(28).raw(), 128);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(0x10).to_string(), "0x10");
        assert_eq!(BlockAddr::from_index(0x2).to_string(), "blk:0x2");
    }

    #[test]
    fn larger_geometry() {
        let g = BlockGeometry::new(6); // 64-byte blocks
        assert_eq!(g.block_bytes(), 64);
        assert_eq!(g.block_words(), 16);
        assert_eq!(g.block_of(Address::new(64)).index(), 1);
        assert_eq!(g.word_of(Address::new(60)).raw(), 15);
    }

    #[test]
    fn conversions() {
        let a: Address = 42u64.into();
        let r: u64 = a.into();
        assert_eq!(r, 42);
    }

    #[test]
    fn block_id_round_trips() {
        let id = BlockId::new(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "blk#7");
        assert!(BlockId::new(1) < BlockId::new(2));
    }
}
