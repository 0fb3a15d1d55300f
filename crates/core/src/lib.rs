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
//! * the directory schemes, as one state machine (many clean copies or one
//!   dirty copy) over four per-block entry formats: FIFO pointers for
//!   `Dir1NB`, `DiriNB`, `DirnNB` (Censier-Feautrier), Tang and Yen & Fu;
//!   pointers plus a broadcast bit for `Dir1B` / `DiriB`; the
//!   Archibald-Baer two bits for `Dir0B`; and the §6 coded set. They are
//!   built by [`ProtocolKind`], through [`build`] or [`dispatch`].
//! * the snoopy schemes (WTI, Dragon, Berkeley, Write-Once, Firefly and
//!   MESI), as one MOESI state machine: each copy is Modified, Owned,
//!   Exclusive or Shared, and each scheme is the rules for what a read
//!   miss and a write do to the copies. The directory body stays
//!   separate, because shared owned copies and update writes break its
//!   many-clean-or-one-dirty rule.
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
mod directory;
pub mod event;
pub mod protocol;
mod snoopy;
pub mod storage;

pub use counters::{EventCounters, MAX_HISTOGRAM};
pub use event::{CoherenceStyle, Event, MissContext, Outcome, WriteHitContext};
pub use protocol::{Protocol, ProtocolKind};
pub use storage::{directory_bits_per_block, directory_overhead_fraction};

/// The four schemes of the paper's main evaluation (§3), in its order:
/// `Dir1NB`, `WTI`, `Dir0B`, `Dragon`.
pub const PAPER_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::DirNb { pointers: 1 },
    ProtocolKind::Wti,
    ProtocolKind::Dir0B,
    ProtocolKind::Dragon,
];

/// Builds a protocol instance from its taxonomy point, behind a trait
/// object: [`dispatch`] into a `Box<dyn Protocol>`.
///
/// # Panics
///
/// As [`dispatch`].
///
/// ```
/// # use dircc_core::{build, ProtocolKind};
/// let p = build(ProtocolKind::DirB { pointers: 2 }, 8);
/// assert_eq!(p.name(), "Dir2B");
/// ```
pub fn build(kind: ProtocolKind, n_caches: usize) -> Box<dyn Protocol> {
    struct Boxed;
    impl ProtocolVisitor for Boxed {
        type Output = Box<dyn Protocol>;
        fn visit<P: Protocol + Clone + 'static>(self, protocol: P) -> Box<dyn Protocol> {
            Box::new(protocol)
        }
    }
    dispatch(kind, n_caches, Boxed)
}

/// A computation generic over the *concrete* protocol type.
///
/// [`dispatch`] resolves a [`ProtocolKind`] to its concrete type exactly
/// once and hands the visitor a fresh instance, so `visit::<P>` is
/// monomorphized per scheme: a replay loop written inside `visit` calls
/// [`Protocol::access`] statically (inlinable, no per-reference vtable
/// indirection), and an explorer can fork states with [`Clone`].
pub trait ProtocolVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation over a concrete protocol instance.
    fn visit<P: Protocol + Clone + 'static>(self, protocol: P) -> Self::Output;
}

/// Resolves `kind` to its concrete protocol type and runs `visitor` over
/// a fresh instance for `n_caches` caches. This is the crate's only
/// mapping from a taxonomy point to a type; [`build`] goes through it.
///
/// # Panics
///
/// Panics on invalid parameters: `DirNb`/`DirB` with zero pointers, or
/// `n_caches` outside `1..=64`.
pub fn dispatch<V: ProtocolVisitor>(kind: ProtocolKind, n_caches: usize, visitor: V) -> V::Output {
    use directory::{Coded, Directory, Fifo, PtrB, TwoBit};
    use snoopy::Snoopy;
    match kind {
        ProtocolKind::DirNb { .. } | ProtocolKind::Tang | ProtocolKind::YenFu => {
            visitor.visit(Directory::<Fifo>::new(kind, n_caches))
        }
        ProtocolKind::DirB { .. } => visitor.visit(Directory::<PtrB>::new(kind, n_caches)),
        ProtocolKind::Dir0B => visitor.visit(Directory::<TwoBit>::new(kind, n_caches)),
        ProtocolKind::CodedSet => visitor.visit(Directory::<Coded>::new(kind, n_caches)),
        ProtocolKind::Wti
        | ProtocolKind::Dragon
        | ProtocolKind::Berkeley
        | ProtocolKind::WriteOnce
        | ProtocolKind::Firefly
        | ProtocolKind::Mesi => visitor.visit(Snoopy::new(kind, n_caches)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_every_kind() {
        // Every kind the repo checks or replays, including the pointer
        // variants whose names depend on the machine size (`DirnNB`).
        for n in [1, 2, 4, 8] {
            for kind in [
                ProtocolKind::DirNb { pointers: 1 },
                ProtocolKind::DirNb { pointers: 2 },
                ProtocolKind::DirNb { pointers: 4 },
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
                let p = build(kind, n);
                assert_eq!(p.kind(), kind);
                assert_eq!(p.num_caches(), n);
                assert_eq!(p.name(), kind.display_name(n), "{kind} at n = {n}");
                p.check_invariants().unwrap();
            }
        }
        let names = PAPER_KINDS.map(|k| k.display_name(4));
        assert_eq!(names, ["Dir1NB", "WTI", "Dir0B", "Dragon"]);
    }
}
