//! # dircc-core
//!
//! Cache-coherence protocols from *"An Evaluation of Directory Schemes for
//! Cache Coherence"* (Agarwal, Simoni, Hennessy, Horowitz — ISCA 1988).
//!
//! The paper classifies directory schemes as **Dir_i_X**: *i* cache
//! pointers per directory entry, with (`B`) or without (`NB`) a broadcast
//! fallback. This crate implements that whole design space plus the snoopy
//! protocols the paper compares against:
//!
//! * [`directory::DirNb`] — `Dir1NB`, `DiriNB`, `DirnNB` (Censier-Feautrier)
//! * [`directory::Dir0B`] — Archibald-Baer two-bit broadcast scheme
//! * [`directory::DirB`] — `Dir1B` / `DiriB` limited pointers + broadcast bit
//! * [`directory::CodedSet`] — §6 coded-set limited broadcast
//! * [`directory::Tang`], [`directory::YenFu`] — the reviewed prior schemes
//! * [`snoopy::Wti`], [`snoopy::Dragon`], [`snoopy::Berkeley`]
//!
//! Each protocol consumes data references one at a time (via
//! [`Protocol::access`]) and returns an [`Outcome`]: the event
//! classification (Table 4's rows) plus everything that costs bus cycles.
//! Event frequencies accumulate in [`EventCounters`]; the `dircc-bus`
//! crate prices outcomes into bus cycles; `dircc-sim` drives traces.
//!
//! # Examples
//!
//! ```
//! use dircc_core::{build, ProtocolKind};
//! use dircc_types::{AccessKind, BlockAddr, CacheId};
//!
//! let mut p = build(ProtocolKind::Dir0B, 4);
//! let b = BlockAddr::from_index(9);
//! let o = p.access(CacheId::new(0), AccessKind::Write, b, true);
//! assert!(o.event.is_first_ref());
//! assert_eq!(p.holders(b).len(), 1);
//! p.check_invariants().unwrap();
//! ```

pub mod counters;
pub mod directory;
pub mod event;
pub mod protocol;
pub mod snoopy;
pub mod storage;

pub use counters::{EventCounters, MAX_HISTOGRAM};
pub use event::{CoherenceStyle, Event, MissContext, Outcome, WriteHitContext};
pub use protocol::{Protocol, ProtocolKind};
pub use storage::{directory_bits_per_block, directory_overhead_fraction};

/// Builds a protocol instance from its taxonomy point.
///
/// # Panics
///
/// Panics on invalid parameters: `DirNb`/`DirB` with zero pointers, or
/// `n_caches` outside `1..=64`.
///
/// ```
/// # use dircc_core::{build, ProtocolKind};
/// let p = build(ProtocolKind::DirB { pointers: 2 }, 8);
/// assert_eq!(p.name(), "Dir2B");
/// ```
pub fn build(kind: ProtocolKind, n_caches: usize) -> Box<dyn Protocol> {
    match kind {
        ProtocolKind::DirNb { pointers } => Box::new(directory::DirNb::new(pointers, n_caches)),
        ProtocolKind::Dir0B => Box::new(directory::Dir0B::new(n_caches)),
        ProtocolKind::DirB { pointers } => Box::new(directory::DirB::new(pointers, n_caches)),
        ProtocolKind::CodedSet => Box::new(directory::CodedSet::new(n_caches)),
        ProtocolKind::Tang => Box::new(directory::Tang::new(n_caches)),
        ProtocolKind::YenFu => Box::new(directory::YenFu::new(n_caches)),
        ProtocolKind::Wti => Box::new(snoopy::Wti::new(n_caches)),
        ProtocolKind::Dragon => Box::new(snoopy::Dragon::new(n_caches)),
        ProtocolKind::Berkeley => Box::new(snoopy::Berkeley::new(n_caches)),
        ProtocolKind::WriteOnce => Box::new(snoopy::WriteOnce::new(n_caches)),
        ProtocolKind::Firefly => Box::new(snoopy::Firefly::new(n_caches)),
        ProtocolKind::Mesi => Box::new(snoopy::Mesi::new(n_caches)),
    }
}

/// As [`build`], but pre-sizes every per-block table for a replay that
/// will touch `blocks` distinct (dense) blocks — pass the interner's
/// count to avoid rehash/regrow churn in the replay hot loop.
pub fn build_sized(kind: ProtocolKind, n_caches: usize, blocks: usize) -> Box<dyn Protocol> {
    let mut p = build(kind, n_caches);
    p.reserve_blocks(blocks);
    p
}

/// A computation generic over the *concrete* protocol type.
///
/// [`dispatch`] resolves a [`ProtocolKind`] to its concrete type exactly
/// once and hands the visitor a sized instance, so `visit::<P>` is
/// monomorphized per scheme: a replay loop written inside `visit` calls
/// [`Protocol::access`] statically — inlinable, no per-reference vtable
/// indirection — while [`build`]'s `Box<dyn Protocol>` path stays
/// available as the dynamic reference implementation.
pub trait ProtocolVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation over a concrete protocol instance.
    fn visit<P: Protocol>(self, protocol: P) -> Self::Output;
}

/// Resolves `kind` to its concrete protocol type (the same 12-arm mapping
/// as [`build`]) and runs `visitor` over a fresh instance — the
/// monomorphizing twin of [`build`].
///
/// # Panics
///
/// As [`build`].
pub fn dispatch<V: ProtocolVisitor>(kind: ProtocolKind, n_caches: usize, visitor: V) -> V::Output {
    match kind {
        ProtocolKind::DirNb { pointers } => {
            visitor.visit(directory::DirNb::new(pointers, n_caches))
        }
        ProtocolKind::Dir0B => visitor.visit(directory::Dir0B::new(n_caches)),
        ProtocolKind::DirB { pointers } => visitor.visit(directory::DirB::new(pointers, n_caches)),
        ProtocolKind::CodedSet => visitor.visit(directory::CodedSet::new(n_caches)),
        ProtocolKind::Tang => visitor.visit(directory::Tang::new(n_caches)),
        ProtocolKind::YenFu => visitor.visit(directory::YenFu::new(n_caches)),
        ProtocolKind::Wti => visitor.visit(snoopy::Wti::new(n_caches)),
        ProtocolKind::Dragon => visitor.visit(snoopy::Dragon::new(n_caches)),
        ProtocolKind::Berkeley => visitor.visit(snoopy::Berkeley::new(n_caches)),
        ProtocolKind::WriteOnce => visitor.visit(snoopy::WriteOnce::new(n_caches)),
        ProtocolKind::Firefly => visitor.visit(snoopy::Firefly::new(n_caches)),
        ProtocolKind::Mesi => visitor.visit(snoopy::Mesi::new(n_caches)),
    }
}

/// Pre-sizes the instance via [`Protocol::reserve_blocks`] before
/// delegating to the inner visitor — [`dispatch_sized`]'s adapter.
struct SizedVisitor<V> {
    blocks: usize,
    inner: V,
}

impl<V: ProtocolVisitor> ProtocolVisitor for SizedVisitor<V> {
    type Output = V::Output;

    fn visit<P: Protocol>(self, mut protocol: P) -> V::Output {
        protocol.reserve_blocks(self.blocks);
        self.inner.visit(protocol)
    }
}

/// As [`dispatch`], but pre-sizes every per-block table for `blocks`
/// distinct (dense) blocks — the monomorphizing twin of [`build_sized`].
///
/// # Panics
///
/// As [`build`].
pub fn dispatch_sized<V: ProtocolVisitor>(
    kind: ProtocolKind,
    n_caches: usize,
    blocks: usize,
    visitor: V,
) -> V::Output {
    dispatch(kind, n_caches, SizedVisitor { blocks, inner: visitor })
}

/// The four schemes of the paper's main evaluation (§3), in its order:
/// `Dir1NB`, `WTI`, `Dir0B`, `Dragon`.
pub fn paper_schemes(n_caches: usize) -> Vec<Box<dyn Protocol>> {
    vec![
        build(ProtocolKind::DirNb { pointers: 1 }, n_caches),
        build(ProtocolKind::Wti, n_caches),
        build(ProtocolKind::Dir0B, n_caches),
        build(ProtocolKind::Dragon, n_caches),
    ]
}

/// Every protocol kind this crate implements, instantiated for `n_caches`
/// (limited-pointer schemes at representative points `i ∈ {1, 2}`).
pub fn all_schemes(n_caches: usize) -> Vec<Box<dyn Protocol>> {
    let mut v = vec![
        build(ProtocolKind::DirNb { pointers: 1 }, n_caches),
        build(ProtocolKind::DirNb { pointers: 2 }, n_caches),
        build(ProtocolKind::DirNb { pointers: n_caches as u32 }, n_caches),
        build(ProtocolKind::Dir0B, n_caches),
        build(ProtocolKind::DirB { pointers: 1 }, n_caches),
        build(ProtocolKind::DirB { pointers: 2 }, n_caches),
        build(ProtocolKind::CodedSet, n_caches),
        build(ProtocolKind::Tang, n_caches),
        build(ProtocolKind::YenFu, n_caches),
        build(ProtocolKind::Wti, n_caches),
        build(ProtocolKind::Dragon, n_caches),
        build(ProtocolKind::Berkeley, n_caches),
        build(ProtocolKind::WriteOnce, n_caches),
        build(ProtocolKind::Firefly, n_caches),
        build(ProtocolKind::Mesi, n_caches),
    ];
    // Deduplicate Dir2NB when n == 2 (it would equal the full map).
    v.dedup_by_key(|p| p.name());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_every_kind() {
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::CodedSet,
            ProtocolKind::Tang,
            ProtocolKind::YenFu,
            ProtocolKind::Wti,
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            ProtocolKind::WriteOnce,
            ProtocolKind::Firefly,
            ProtocolKind::Mesi,
        ] {
            let p = build(kind, 4);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.num_caches(), 4);
            p.check_invariants().unwrap();
        }
    }

    #[test]
    fn dispatch_resolves_the_same_concrete_type_as_build() {
        struct KindOf;
        impl ProtocolVisitor for KindOf {
            type Output = (ProtocolKind, String, usize);
            fn visit<P: Protocol>(self, p: P) -> Self::Output {
                (p.kind(), p.name(), p.num_caches())
            }
        }
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::DirB { pointers: 2 },
            ProtocolKind::CodedSet,
            ProtocolKind::Tang,
            ProtocolKind::YenFu,
            ProtocolKind::Wti,
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            ProtocolKind::WriteOnce,
            ProtocolKind::Firefly,
            ProtocolKind::Mesi,
        ] {
            let boxed = build(kind, 4);
            let (k, name, n) = dispatch(kind, 4, KindOf);
            assert_eq!(k, boxed.kind());
            assert_eq!(name, boxed.name());
            assert_eq!(n, 4);
            let (k2, ..) = dispatch_sized(kind, 4, 100, KindOf);
            assert_eq!(k2, kind);
        }
    }

    #[test]
    fn paper_schemes_are_the_four_evaluated() {
        let names: Vec<String> = paper_schemes(4).iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Dir1NB", "WTI", "Dir0B", "Dragon"]);
    }

    #[test]
    fn all_schemes_have_unique_names() {
        let names: Vec<String> = all_schemes(4).iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
        assert!(names.len() >= 14);
    }
}
