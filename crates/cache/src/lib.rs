//! # dircc-cache
//!
//! Cache tag-store substrates for the dircc coherence simulator.
//!
//! The paper's methodology simulates **infinite caches** ("to eliminate the
//! traffic caused by interference in finite caches"); [`CacheArray`] is that
//! model: one unbounded tag store per cache, with a residency oracle that
//! answers *which caches hold this block* in O(1). Coherence protocols store
//! their per-block, per-cache state here and the simulation engine uses the
//! oracle for verification.
//!
//! [`SetAssocCache`] is the finite set-associative LRU cache used by the
//! finite-cache extension experiments (the paper estimates finite-cache
//! behaviour "to first order by adding the costs due to the finite cache
//! size"). Its tag store is one flat, recency-ordered array per cache,
//! with no stamps or clock; its docs say why its victims are exactly
//! true LRU's.
//!
//! [`BlockMap`] and [`BlockSet`] are dense per-block containers for
//! directory state: replay feeds protocols *interned* (dense) block
//! addresses, so per-block tables are flat vectors instead of hash maps.
//!
//! # Examples
//!
//! ```
//! use dircc_cache::CacheArray;
//! use dircc_types::{BlockAddr, CacheId};
//!
//! let mut caches: CacheArray<bool> = CacheArray::new(4);
//! let b = BlockAddr::from_index(7);
//! caches.set(CacheId::new(0), b, false);
//! caches.set(CacheId::new(2), b, true);
//! assert_eq!(caches.holders(b).len(), 2);
//! ```

mod array;
mod blockmap;
mod finite;

pub use array::CacheArray;
pub use blockmap::{BlockMap, BlockSet};
pub use finite::{Eviction, FiniteCacheConfig, Lookup, SetAssocCache};
