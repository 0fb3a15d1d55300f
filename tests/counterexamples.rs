//! Minimized counterexample-style sequences, pinned per directory scheme.
//!
//! Each test replays the shortest op sequence that exercises one scheme's
//! signature hard case — the exact shapes the `dircc check` model checker
//! explores — and pins the resulting events and message counters. Every
//! sequence is cross-checked three ways:
//!
//! 1. the pinned `Outcome` assertions below (the scheme's contract);
//! 2. the checker's value model, via `dircc::check::replay` (no
//!    coherence violation);
//! 3. the sim engine with per-reference verification enabled.
//!
//! Keeping them as plain tests means the cases run on every `cargo test`
//! even when nobody runs the model checker.

use dircc::check::{replay, Op, OpKind};
use dircc::core::{build, Event, MissContext, ProtocolKind, WriteHitContext};
use dircc::sim::engine::{run, RunConfig};
use dircc::trace::TraceRecord;
use dircc::types::{AccessKind, Address, BlockAddr, CacheId, CpuId, ProcessId};

const CPUS: usize = 3;

fn b0() -> BlockAddr {
    BlockAddr::from_index(0)
}

fn op(cache: u16, kind: OpKind, block: u64) -> Op {
    Op { cache: CacheId::new(cache), kind, block: BlockAddr::from_index(block) }
}

/// Replays `ops` through the checker's value model and the sim engine
/// (verifier on); both must find the sequence coherent.
fn cross_check(kind: ProtocolKind, ops: &[Op]) {
    assert_eq!(
        replay(build(kind, CPUS).as_mut(), CPUS, ops),
        None,
        "{kind}: the checker's value model must accept the pinned sequence"
    );
    let trace: Vec<TraceRecord> = ops
        .iter()
        .filter(|o| o.kind != OpKind::Evict) // the engine evicts on capacity, not on demand
        .map(|o| {
            let access = if o.kind == OpKind::Write { AccessKind::Write } else { AccessKind::Read };
            let cpu = CpuId::new(o.cache.raw());
            TraceRecord::new(
                cpu,
                ProcessId::new(o.cache.raw()),
                access,
                Address::new(o.block.index() * 16),
            )
        })
        .collect();
    let mut p = build(kind, CPUS);
    let res = run(p.as_mut(), trace.iter().copied(), &RunConfig::verifying(1))
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    assert!(res.violations.is_empty(), "{kind}: {:?}", res.violations);
}

/// `Dir_1_B`: the second reader overflows the single pointer and sets the
/// broadcast bit; the next write must fall back to a broadcast
/// invalidate — the scheme's defining cost.
#[test]
fn dir1b_broadcast_fallback() {
    let kind = ProtocolKind::DirB { pointers: 1 };
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    let o = p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
    assert!(!o.used_broadcast, "overflow itself is silent; only the write pays");
    let o = p.access(CacheId::new(0), AccessKind::Write, b0(), false);
    assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
    assert!(o.used_broadcast, "overflowed entry must invalidate by broadcast");
    assert_eq!(p.holders(b0()).len(), 1, "the broadcast reclaims exclusivity");
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0), op(0, OpKind::Write, 0)]);
}

/// `Dir_2_NB`: the third reader overflows both pointers, so the directory
/// evicts the FIFO-front copy (cache 0) with one invalidation message —
/// no broadcast exists in a no-broadcast scheme.
#[test]
fn dir2nb_pointer_overflow_evicts_fifo_front() {
    let kind = ProtocolKind::DirNb { pointers: 2 };
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    let o = p.access(CacheId::new(2), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 }));
    assert_eq!(o.control_messages, 1, "one invalidate to the displaced copy");
    assert_eq!(o.directory_evictions, 1, "pointer overflow is a directory eviction");
    assert!(!o.used_broadcast);
    let holders = p.holders(b0());
    assert_eq!(holders.len(), 2);
    assert!(!holders.contains(CacheId::new(0)), "FIFO front (first reader) is the victim");
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0), op(2, OpKind::Read, 0)]);
}

/// `Dir_1_NB`: with a single pointer, every new reader displaces the old
/// one. The displacement costs an invalidate but is *not* counted as a
/// directory eviction (it is inherent to i=1, not an overflow — the
/// paper's Figure 5 depends on this distinction).
#[test]
fn dir1nb_displacement_is_not_an_eviction() {
    let kind = ProtocolKind::DirNb { pointers: 1 };
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    let o = p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
    assert_eq!(o.control_messages, 1, "the displaced copy is invalidated");
    assert_eq!(o.directory_evictions, 0, "i=1 displacement is not an overflow eviction");
    assert_eq!(p.holders(b0()).len(), 1);
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0)]);
}

/// `Dir_0_B`: with zero pointers every write to a shared block must
/// broadcast, even when only one other copy exists.
#[test]
fn dir0b_always_broadcasts_on_shared_writes() {
    let kind = ProtocolKind::Dir0B;
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    let o = p.access(CacheId::new(0), AccessKind::Write, b0(), false);
    assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
    assert!(o.used_broadcast, "no pointers means no targeted invalidate");
    assert_eq!(o.control_messages, 0);
    assert_eq!(p.holders(b0()).len(), 1);
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0), op(0, OpKind::Write, 0)]);
}

/// Coded set: the same two-sharer write resolves to one *targeted*
/// invalidate (the code pins the other sharer exactly) — the contrast
/// with `Dir_0_B`'s broadcast above.
#[test]
fn coded_set_write_invalidates_by_pointer_not_broadcast() {
    let kind = ProtocolKind::CodedSet;
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    let o = p.access(CacheId::new(0), AccessKind::Write, b0(), false);
    assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
    assert!(!o.used_broadcast, "the coded set resolves the sharer exactly");
    assert_eq!(o.control_messages, 1);
    assert_eq!(p.holders(b0()).len(), 1);
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0), op(0, OpKind::Write, 0)]);
}

/// Tang's full map: three sharers fit without any eviction, and a write
/// sends exactly one invalidate per other sharer.
#[test]
fn tang_full_map_never_overflows() {
    let kind = ProtocolKind::Tang;
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    let o = p.access(CacheId::new(2), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 }));
    assert_eq!(o.directory_evictions, 0, "a full map holds every sharer");
    assert_eq!(o.control_messages, 0);
    let o = p.access(CacheId::new(0), AccessKind::Write, b0(), false);
    assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
    assert_eq!(o.control_messages, 2, "one targeted invalidate per other sharer");
    assert!(!o.used_broadcast);
    p.check_invariants().unwrap();
    cross_check(
        kind,
        &[
            op(0, OpKind::Read, 0),
            op(1, OpKind::Read, 0),
            op(2, OpKind::Read, 0),
            op(0, OpKind::Write, 0),
        ],
    );
}

/// Yen & Fu: the second reader costs an auxiliary message to clear the
/// old sole holder's single bit, and a write to a clean-exclusive copy is
/// free (the single bit proves exclusivity without asking the directory).
#[test]
fn yenfu_single_bit_costs_and_savings() {
    let kind = ProtocolKind::YenFu;
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    let o = p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
    assert_eq!(o.aux_messages, 1, "clearing the old holder's single bit");

    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Read, b0(), true);
    let o = p.access(CacheId::new(0), AccessKind::Write, b0(), false);
    assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
    assert_eq!(o.control_messages, 0, "the single bit makes this write free");
    assert_eq!(o.aux_messages, 0);
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Read, 0), op(1, OpKind::Read, 0)]);
    cross_check(kind, &[op(0, OpKind::Read, 0), op(0, OpKind::Write, 0)]);
}

/// A dirty copy displaced by pointer overflow must write back — the
/// checker's value model and the engine verifier both confirm no data is
/// lost (reading the block again observes the latest write).
#[test]
fn dirty_displacement_writes_back() {
    let kind = ProtocolKind::DirNb { pointers: 1 };
    let mut p = build(kind, CPUS);
    p.access(CacheId::new(0), AccessKind::Write, b0(), true);
    let o = p.access(CacheId::new(1), AccessKind::Read, b0(), false);
    assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
    assert!(o.write_back, "the displaced dirty copy must reach memory");
    assert!(o.memory_updated);
    p.check_invariants().unwrap();
    cross_check(kind, &[op(0, OpKind::Write, 0), op(1, OpKind::Read, 0), op(2, OpKind::Read, 0)]);
}
