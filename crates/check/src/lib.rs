//! # dircc-check
//!
//! Bounded exhaustive state-space exploration of the dircc coherence
//! protocols.
//!
//! The replay engine in `dircc-sim` can only witness states the
//! synthetic traces happen to reach. This crate instead enumerates *every*
//! interleaving of `{read, write, evict} × N cpus × M blocks` up to a
//! depth bound — breadth-first, deduplicating canonicalized states — and
//! asserts at every transition:
//!
//! * **SWMR** — after a write under an invalidation protocol, the writer
//!   holds the only copy (no readers alongside a writable copy);
//! * **directory/cache agreement** — every protocol's own
//!   [`Protocol::check_invariants`] (pointer sets, dirty bits, broadcast
//!   bits and coded sets versus the actual cache contents);
//! * **data-value coherence** — the [`ValueModel`] version tags, the same
//!   oracle the engine's verifier consults: reads must observe the latest
//!   version, misses must be supplied current data from the correct
//!   source, write-backs must carry the latest version;
//! * **classification** — a first reference must be classified
//!   `FirstRef` and vice versa;
//! * **cost sanity** — every emitted outcome prices to finite,
//!   nonnegative cycle counts under both paper bus models.
//!
//! [`check`] explores any concrete protocol type, forking each state
//! with [`Clone`]; [`check_protocol`] resolves a taxonomy point to its
//! type through [`dircc_core::dispatch`].
//!
//! A violation is reported as a [`Counterexample`]: the exact (minimal,
//! by BFS order) op sequence from the initial state, replayable with
//! [`replay`] on a fresh instance, concrete or `dyn Protocol`.
//!
//! The state key includes the protocol's canonical encoding
//! ([`Protocol::encode_state`]), the first-reference set, and the full
//! version tables, so dedup never merges states the checker could still
//! distinguish.

mod values;

pub use values::ValueModel;

use dircc_bus::{price, CostConfig, CostModel};
use dircc_core::{dispatch, EventCounters, Protocol, ProtocolKind, ProtocolVisitor};
use dircc_types::{AccessKind, BlockAddr, CacheId};
use std::collections::HashSet;
use std::fmt;

/// Exploration bounds: the op alphabet is
/// `{read, write, evict} × cpus × blocks` and every sequence of up to
/// `depth` ops is covered (modulo state dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Number of cpus (= caches) issuing ops.
    pub cpus: usize,
    /// Number of distinct blocks the ops touch.
    pub blocks: usize,
    /// Maximum op-sequence length.
    pub depth: usize,
}

impl Default for CheckConfig {
    /// The `dircc check` defaults: 3 cpus × 2 blocks × depth 8.
    fn default() -> Self {
        CheckConfig { cpus: 3, blocks: 2, depth: 8 }
    }
}

impl CheckConfig {
    /// A reduced configuration for CI smoke runs (seconds, not minutes).
    pub fn smoke() -> Self {
        CheckConfig { cpus: 2, blocks: 2, depth: 6 }
    }
}

/// What a single op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Data read by a cpu.
    Read,
    /// Data write by a cpu.
    Write,
    /// Finite-cache replacement of a held block.
    Evict,
}

/// One step of an exploration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The acting cpu/cache.
    pub cache: CacheId,
    /// Read, write or evict.
    pub kind: OpKind,
    /// The block acted on.
    pub block: BlockAddr,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
            OpKind::Evict => 'E',
        };
        write!(f, "C{} {k} b{}", self.cache.raw(), self.block.index())
    }
}

/// A minimal failing op sequence plus the invariant it violates.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Ops from the initial (empty) state, in order; the last op
    /// triggers the violation.
    pub ops: Vec<Op>,
    /// Human-readable description of the violated invariant.
    pub violation: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for op in &self.ops {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "{op}")?;
            first = false;
        }
        write!(f, " -> {}", self.violation)
    }
}

/// The result of exploring one scheme.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Paper-style scheme name (resolved against the cpu count).
    pub name: String,
    /// The taxonomy point checked.
    pub kind: ProtocolKind,
    /// Deduplicated reachable states (including the initial state).
    pub states: u64,
    /// Transitions taken (every op applied to every frontier state).
    pub transitions: u64,
    /// `None` if every invariant held at every reachable state.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// Did every reachable state satisfy every invariant?
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The 12 protocol kinds `dircc check` explores by default: one point
/// per scheme family (`DirNb { 1 }` stands for the limited-pointer
/// family; the full map is Tang's state model).
pub fn default_kinds() -> [ProtocolKind; 12] {
    [
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
    ]
}

/// One BFS node: protocol state, value model, first-reference set, path.
struct Node<P> {
    protocol: P,
    values: ValueModel,
    seen: u64,
    path: Vec<Op>,
}

fn state_key<P: Protocol>(protocol: &P, values: &ValueModel, seen: u64) -> Vec<u64> {
    let mut key = Vec::with_capacity(48);
    protocol.encode_state(&mut key);
    key.push(seen);
    values.encode(&mut key);
    key
}

/// Prices `counters` under both paper bus models and reports the first
/// non-finite or negative cycle count.
fn check_costs(
    kind: ProtocolKind,
    n_caches: usize,
    counters: &EventCounters,
) -> Result<(), String> {
    for model in CostModel::paper_pair() {
        let breakdown = price(kind, n_caches, counters, &model, &CostConfig::PAPER);
        for (label, cycles) in breakdown.rows() {
            if !cycles.is_finite() || cycles < 0.0 {
                return Err(format!("cost row '{label}' is {cycles} under {model:?}"));
            }
        }
    }
    Ok(())
}

/// Applies `op` to `protocol`/`values`/`seen` and checks every invariant;
/// the value rules are the [`ValueModel`]'s.
fn step<P: Protocol + ?Sized>(
    protocol: &mut P,
    values: &mut ValueModel,
    seen: &mut u64,
    op: Op,
) -> Result<(), String> {
    let b = op.block.index() as usize;
    let shown = format_args!("b{b}");
    let mut counters = EventCounters::new();

    if op.kind == OpKind::Evict {
        let held = protocol.holders(op.block).contains(op.cache);
        let evo = protocol.evict(op.cache, op.block);
        counters.observe_eviction(&evo);
        if !held && (evo.write_back || evo.control_messages != 0) {
            return Err(format!("eviction of a non-held block cost {evo:?}"));
        }
        if protocol.holders(op.block).contains(op.cache) {
            return Err(format!("{} still holds {shown} after evicting it", op.cache));
        }
        if evo.write_back {
            values.write_back(op.cache, op.block, shown)?;
        }
    } else {
        let access = match op.kind {
            OpKind::Read => AccessKind::Read,
            OpKind::Write => AccessKind::Write,
            OpKind::Evict => unreachable!("handled above"),
        };
        let first_ref = *seen & (1 << b) == 0;
        *seen |= 1 << b;
        let out = protocol.access(op.cache, access, op.block, first_ref);
        counters.observe(&out);
        if out.event.is_miss() && out.event.is_first_ref() != first_ref {
            return Err(format!(
                "first_ref={first_ref} but the miss was classified {}",
                out.event.label()
            ));
        }
        if first_ref && !out.event.is_miss() {
            return Err(format!("first reference classified as a hit ({})", out.event.label()));
        }
        values.access(&*protocol, op.cache, access, op.block, shown, &out)?;
    }

    check_costs(protocol.kind(), protocol.num_caches(), &counters)?;
    protocol.check_invariants().map_err(|e| format!("invariant violation: {e}"))
}

/// Explores `initial` under `cfg`, forking each frontier state with
/// [`Clone`] and deduplicating on [`Protocol::encode_state`].
///
/// # Panics
///
/// Panics if `cfg.cpus`/`cfg.blocks` is 0 or `cfg.cpus` exceeds the
/// protocol's cache count.
pub fn check<P: Protocol + Clone>(initial: P, cfg: &CheckConfig) -> CheckReport {
    assert!(cfg.cpus >= 1 && cfg.blocks >= 1, "need at least one cpu and block");
    assert!(cfg.cpus <= initial.num_caches(), "more cpus than caches");
    assert!(cfg.blocks <= 64, "the first-reference set is a 64-bit mask");
    let name = initial.name();
    let kind = initial.kind();

    let mut ops = Vec::with_capacity(cfg.cpus * 3 * cfg.blocks);
    for cache in 0..cfg.cpus {
        for kind in [OpKind::Read, OpKind::Write, OpKind::Evict] {
            for block in 0..cfg.blocks {
                ops.push(Op {
                    cache: CacheId::new(cache as u16),
                    kind,
                    block: BlockAddr::from_index(block as u64),
                });
            }
        }
    }

    let values = ValueModel::new(cfg.cpus, cfg.blocks);
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    visited.insert(state_key(&initial, &values, 0));
    let mut frontier = vec![Node { protocol: initial, values, seen: 0, path: Vec::new() }];
    let mut transitions = 0u64;

    for _ in 0..cfg.depth {
        let mut next = Vec::new();
        for node in &frontier {
            for &op in &ops {
                // Evicting a non-held block is a silent no-op (a self
                // loop): skip it instead of exploring it.
                if op.kind == OpKind::Evict && !node.protocol.holders(op.block).contains(op.cache) {
                    continue;
                }
                transitions += 1;
                let mut protocol = node.protocol.clone();
                let mut values = node.values.clone();
                let mut seen = node.seen;
                if let Err(violation) = step(&mut protocol, &mut values, &mut seen, op) {
                    let mut ops = node.path.clone();
                    ops.push(op);
                    return CheckReport {
                        name,
                        kind,
                        states: visited.len() as u64,
                        transitions,
                        counterexample: Some(Counterexample { ops, violation }),
                    };
                }
                if visited.insert(state_key(&protocol, &values, seen)) {
                    let mut path = node.path.clone();
                    path.push(op);
                    next.push(Node { protocol, values, seen, path });
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break; // closed under the op alphabet before the depth bound
        }
    }

    CheckReport { name, kind, states: visited.len() as u64, transitions, counterexample: None }
}

/// Explores one taxonomy point built over `cfg.cpus` caches, resolved to
/// its concrete type through [`dispatch`].
pub fn check_protocol(kind: ProtocolKind, cfg: &CheckConfig) -> CheckReport {
    struct Check<'a>(&'a CheckConfig);
    impl ProtocolVisitor for Check<'_> {
        type Output = CheckReport;
        fn visit<P: Protocol + Clone + 'static>(self, protocol: P) -> CheckReport {
            check(protocol, self.0)
        }
    }
    dispatch(kind, cfg.cpus, Check(cfg))
}

/// Re-runs a counterexample's op sequence on a fresh protocol instance,
/// returning the violation it reproduces (`None` if every op passes —
/// which, for a genuine counterexample, indicates nondeterminism).
pub fn replay<P: Protocol + ?Sized>(protocol: &mut P, cpus: usize, ops: &[Op]) -> Option<String> {
    let mut values = ValueModel::new(cpus.max(protocol.num_caches()), 0);
    let mut seen = 0u64;
    for op in ops {
        if let Err(violation) = step(protocol, &mut values, &mut seen, *op) {
            return Some(violation);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_cache::CacheArray;
    use dircc_core::event::EvictOutcome;
    use dircc_core::snoopy::Berkeley;
    use dircc_core::{Event, Outcome};
    use dircc_types::CacheIdSet;

    fn smoke() -> CheckConfig {
        CheckConfig { cpus: 2, blocks: 2, depth: 5 }
    }

    #[test]
    fn every_default_kind_passes_the_smoke_config() {
        // The (states, transitions) each kind reaches, pinned so that an
        // explorer that forks, deduplicates or orders states differently
        // fails here.
        let reached: [(u64, u64); 12] = [
            (1100, 4168), // Dir1NB
            (1248, 4692), // Dir0B
            (1596, 5904), // Dir1B
            (1248, 4692), // DirCodedNB
            (1292, 5048), // Tang
            (1292, 5048), // YenFu
            (784, 3460),  // WTI
            (1003, 3856), // Dragon
            (1409, 5072), // Berkeley
            (1032, 4032), // WriteOnce
            (829, 3492),  // Firefly
            (1248, 4692), // MESI
        ];
        for (kind, expected) in default_kinds().into_iter().zip(reached) {
            let report = check_protocol(kind, &smoke());
            assert!(
                report.passed(),
                "{}: {}",
                report.name,
                report.counterexample.expect("failed report has a counterexample")
            );
            assert_eq!((report.states, report.transitions), expected, "{}", report.name);
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check_protocol(ProtocolKind::Mesi, &smoke());
        let b = check_protocol(ProtocolKind::Mesi, &smoke());
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn op_and_counterexample_render_readably() {
        let ce = Counterexample {
            ops: vec![
                Op { cache: CacheId::new(0), kind: OpKind::Write, block: BlockAddr::from_index(0) },
                Op { cache: CacheId::new(1), kind: OpKind::Read, block: BlockAddr::from_index(1) },
                Op { cache: CacheId::new(1), kind: OpKind::Evict, block: BlockAddr::from_index(1) },
            ],
            violation: "boom".to_string(),
        };
        assert_eq!(ce.to_string(), "C0 W b0; C1 R b1; C1 E b1 -> boom");
    }

    /// A deliberately broken protocol: writes never invalidate the other
    /// copies (it claims a write-through update that never happens), so
    /// stale readers survive.
    #[derive(Debug, Clone)]
    struct NeverInvalidates {
        caches: CacheArray<()>,
    }

    impl Protocol for NeverInvalidates {
        fn kind(&self) -> ProtocolKind {
            ProtocolKind::Wti
        }
        fn num_caches(&self) -> usize {
            self.caches.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            kind: AccessKind,
            block: BlockAddr,
            first_ref: bool,
        ) -> Outcome {
            use dircc_core::{MissContext, WriteHitContext};
            let hit = self.caches.state(cache, block).is_some();
            let ctx = if first_ref { MissContext::FirstRef } else { MissContext::MemoryOnly };
            self.caches.set(cache, block, ());
            // Bug: other holders keep their (now stale) copies, and the
            // write claims memory was updated without touching them.
            match (kind, hit) {
                (AccessKind::Read, true) => Outcome::quiet(Event::ReadHit),
                (AccessKind::Read, false) => Outcome::quiet(Event::ReadMiss(ctx)),
                (AccessKind::Write, true) => {
                    let mut out = Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty));
                    out.memory_updated = true;
                    out
                }
                (AccessKind::Write, false) => {
                    let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                    out.memory_updated = true;
                    out
                }
                (AccessKind::InstrFetch, _) => unreachable!(),
            }
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            self.caches.remove(cache, block);
            EvictOutcome::SILENT
        }
        fn holders(&self, block: BlockAddr) -> CacheIdSet {
            self.caches.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.caches.check_residency()
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.caches.encode_states(out, |()| 0);
        }
    }

    #[test]
    fn broken_protocol_yields_a_minimal_replayable_counterexample() {
        let cfg = CheckConfig::default();
        let report = check(NeverInvalidates { caches: CacheArray::new(cfg.cpus) }, &cfg);
        let ce = report.counterexample.expect("the broken protocol must fail");
        assert!(ce.ops.len() <= cfg.depth, "counterexample longer than the depth bound");
        // SWMR breaks as soon as a writer leaves a second copy alive:
        // minimal sequences are 2 ops (e.g. C0 R b0; C1 W b0).
        assert_eq!(ce.ops.len(), 2, "BFS must find the shortest sequence: {ce}");
        let replayed =
            replay(&mut NeverInvalidates { caches: CacheArray::new(cfg.cpus) }, cfg.cpus, &ce.ops)
                .expect("replay reproduces the violation");
        assert_eq!(replayed, ce.violation);
    }

    /// A protocol that silently loses dirty data on eviction: the value
    /// model (not SWMR) must catch the stale re-read.
    #[derive(Debug, Clone)]
    struct DropsDirtyData {
        inner: Berkeley,
    }

    impl DropsDirtyData {
        fn new(cpus: usize) -> Self {
            DropsDirtyData { inner: Berkeley::new(cpus) }
        }
    }

    impl Protocol for DropsDirtyData {
        fn kind(&self) -> ProtocolKind {
            self.inner.kind()
        }
        fn num_caches(&self) -> usize {
            self.inner.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            kind: AccessKind,
            block: BlockAddr,
            first_ref: bool,
        ) -> Outcome {
            self.inner.access(cache, kind, block, first_ref)
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            // Bug: the dirty owner drops its copy without writing back.
            let mut out = self.inner.evict(cache, block);
            out.write_back = false;
            out
        }
        fn holders(&self, block: BlockAddr) -> CacheIdSet {
            self.inner.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.inner.check_invariants()
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.inner.encode_state(out);
        }
    }

    #[test]
    fn lost_write_back_is_caught_by_the_value_model() {
        let cfg = CheckConfig::default();
        let report = check(DropsDirtyData::new(cfg.cpus), &cfg);
        let ce = report.counterexample.expect("dropping dirty data must fail");
        // W, E, then a re-read misses against stale memory: 3 ops.
        assert_eq!(ce.ops.len(), 3, "{ce}");
        assert!(ce.violation.contains("supplied version"), "{ce}");
        let replayed = replay(&mut DropsDirtyData::new(cfg.cpus), cfg.cpus, &ce.ops)
            .expect("replay reproduces the violation");
        assert_eq!(replayed, ce.violation);
    }
}
