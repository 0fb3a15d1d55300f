//! The trace-replay engine.
//!
//! "The simulator reads a reference from a trace and takes a set of actions
//! depending on the type of the reference, the state of the referenced
//! block, and the given cache consistency protocol." (§4.1)
//!
//! The engine:
//!
//! * maps each reference to a cache (per *processor*, or per *process* —
//!   the paper's preferred sharing model, §4.4);
//! * tracks global first references so every protocol sees the identical
//!   first-reference classification;
//! * feeds data references to the protocol and accumulates
//!   [`EventCounters`];
//! * optionally verifies **value-level coherence** against [`ValueModel`],
//!   the oracle the model checker consults too: every read must observe
//!   the globally latest write, stale copies must never survive a write in
//!   an invalidation protocol, data must never be supplied from stale
//!   memory, and evictions must never write back a stale copy.
//!
//! # One loop, several batch sources
//!
//! Every entry point drives the same loop, `Core::replay`, with
//! structure-of-arrays batches ([`SoaStream`]): flat columns over the
//! batch's *data* references, one bit per reference placing its
//! instruction fetches, the renaming back to original blocks and, for
//! shard sub-streams, global reference numbers; no record reaches the
//! loop. The loop is generic over `P: Protocol + ?Sized`, so a
//! `Box<dyn Protocol>` is just another type argument. Per batch it takes
//! a quiet body when every cold path is provably dead — no window, no
//! verifier, no invariant cadence, and a batch `max_cache_idx` below the
//! cache count — which walks the data references only and adds the
//! instruction count in bulk, and otherwise the full checking body,
//! which observes each reference one at a time. Finite caches take
//! either body: per data reference both run [`Protocol::access`], count
//! its outcome, probe the accessing cache's tag store with the original
//! block and, when that probe evicts an LRU victim, run
//! [`Protocol::evict`] and count the eviction, in that order. For
//! infinite caches the quiet body's tag step compiles away.
//!
//! The sources differ only in how a batch is filled:
//!
//! * [`run_indexed`] replays a prebuilt stream (e.g. the
//!   [`TraceStore::soa`](dircc_trace::TraceStore::soa) memo) as one batch
//!   through an instance of the scheme resolved to its concrete type
//!   ([`dispatch`]), so `access` is statically dispatched;
//! * [`run_chunked_many`] streams a [`ChunkSource`] once for several
//!   protocols: each batch is decoded, interned (blocks renamed on the
//!   fly in first-appearance order) and split once, then replayed through
//!   every protocol still running; [`run_chunked`] and [`run`] are its
//!   one-protocol case;
//! * [`run_sharded`] replays in-memory block shards on scoped threads and
//!   merges them exactly, adding the stream's instruction fetches once.
//!
//! Renaming blocks to dense ids is a bijection and protocols only compare
//! blocks for identity, so every source produces bit-identical counters;
//! finite tag stores still key on the **original** block, read back from
//! the renaming, because set selection uses raw address bits.
//!
//! # Observability
//!
//! A nonzero [`RunConfig::window`] makes the loop sample the cumulative
//! counters after every reference into a [`WindowedRecorder`], and
//! [`RunResult::windows`] returns the per-window deltas, which partition
//! the run. Windows are a slice of the global reference stream, so
//! [`run_sharded`] rejects them. With the window off, the quiet body runs
//! (the `benchcmp` CI gate pins the counters against the checked-in
//! baseline).

use crate::par::par_map_indexed;
use dircc_cache::{FiniteCacheConfig, Lookup, SetAssocCache};
use dircc_check::ValueModel;
use dircc_core::{
    dispatch, Event, EventCounters, Outcome, Protocol, ProtocolKind, ProtocolVisitor,
};
use dircc_obs::{WindowSample, WindowedRecorder};
use dircc_trace::chunk::{IterChunks, BATCH_RECORDS};
use dircc_trace::{ChunkSource, ShardedStream, SoaStream, TraceRecord};
use dircc_types::{BlockAddr, BlockGeometry, CacheId, CpuId, ProcessId};
use std::time::{Duration, Instant};

pub use dircc_types::SharingModel;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// CPU→cache mapping model.
    pub sharing: SharingModel,
    /// Block geometry (the paper's 16-byte blocks by default).
    pub geometry: BlockGeometry,
    /// Enable the value-level coherence verifier (slower; used by tests).
    pub verify: bool,
    /// Run the protocol's invariant checker every N references (0 = never).
    pub check_invariants_every: u64,
    /// Sample counter deltas every N references into
    /// [`RunResult::windows`] (0 = off).
    pub window: u64,
    /// Simulate finite per-cache tag stores of this shape: LRU replacements
    /// call [`Protocol::evict`], generating write-backs and replacement
    /// hints (the paper's finite-cache extension; `None` = infinite caches,
    /// the paper's model).
    pub finite_cache: Option<FiniteCacheConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sharing: SharingModel::Processor,
            geometry: BlockGeometry::PAPER,
            verify: false,
            check_invariants_every: 0,
            window: 0,
            finite_cache: None,
        }
    }
}

impl RunConfig {
    /// A verifying configuration for tests: value verification plus
    /// invariant checks every `every` references.
    pub fn verifying(every: u64) -> Self {
        RunConfig { verify: true, check_invariants_every: every, ..RunConfig::default() }
    }

    /// Returns a copy using the process-sharing model.
    #[must_use]
    pub fn with_process_sharing(mut self) -> Self {
        self.sharing = SharingModel::Process;
        self
    }

    /// Returns a copy simulating finite caches of the given shape.
    #[must_use]
    pub fn with_finite_caches(mut self, config: FiniteCacheConfig) -> Self {
        self.finite_cache = Some(config);
        self
    }
}

/// Result of replaying one trace through one protocol.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Accumulated event frequencies (Table 4's raw material).
    pub counters: EventCounters,
    /// Total references replayed.
    pub refs: u64,
    /// Coherence violations found by the verifier (empty when disabled or
    /// when the protocol is correct). At most [`MAX_VIOLATIONS`] retained.
    pub violations: Vec<String>,
    /// Counter deltas per [`RunConfig::window`] references, the last
    /// window possibly shorter (empty when windowing is off).
    pub windows: Vec<WindowSample>,
}

/// Cap on retained verifier violation messages.
pub const MAX_VIOLATIONS: usize = 16;

/// Internal run result before violation formatting: each finding keeps
/// its 1-based global reference number so sharded runs can merge findings
/// back into trace order before applying the [`MAX_VIOLATIONS`] cap.
pub(crate) struct CoreResult {
    pub(crate) counters: EventCounters,
    pub(crate) refs: u64,
    pub(crate) violations: Vec<(u64, String)>,
    pub(crate) windows: Vec<WindowSample>,
}

/// Internal engine error: the 1-based global reference number it occurred
/// at (`u64::MAX` for the end-of-run invariant check), for deterministic
/// first-error selection across shards.
pub(crate) struct EngineError {
    pub(crate) gref: u64,
    pub(crate) msg: String,
}

pub(crate) fn finish_result(raw: CoreResult) -> RunResult {
    let violations = raw.violations.into_iter().map(|(gref, msg)| format!("ref {gref}: {msg}"));
    RunResult {
        counters: raw.counters,
        refs: raw.refs,
        violations: violations.collect(),
        windows: raw.windows,
    }
}

/// Replays `records` through `protocol`, returning counters and any
/// verifier findings.
///
/// Blocks are interned on the fly, one batch at a time: the interning map
/// doubles as the first-reference set, so the loop pays exactly one hash
/// probe per data reference and the protocol sees dense block addresses
/// throughout.
///
/// # Errors
///
/// Returns an error string if a reference names a cache the protocol does
/// not have or a protocol invariant check fails (the verifier's
/// value-level findings are reported in [`RunResult::violations`] instead,
/// so a run can surface several).
pub fn run<P: Protocol + ?Sized, I: IntoIterator<Item = TraceRecord>>(
    protocol: &mut P,
    records: I,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    run_chunked(protocol, &mut IterChunks::new(records.into_iter().map(Ok), BATCH_RECORDS), cfg)
}

/// Replays a streamed trace — any [`ChunkSource`], e.g. a
/// [`ChunkedReader`](dircc_trace::ChunkedReader) over an on-disk v2 file —
/// through `protocol`: the one-protocol case of [`run_chunked_many`].
///
/// # Errors
///
/// As [`run`]; additionally reports I/O and decode errors from the source.
pub fn run_chunked<P: Protocol + ?Sized, S: ChunkSource>(
    protocol: &mut P,
    source: &mut S,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    let mut results = run_chunked_many(&mut [protocol], source, cfg);
    results.pop().expect("one result per protocol")
}

/// Replays a streamed trace through several protocols in one pass over
/// `source`, holding one piece from the source (one batch, for the trace
/// reader) and one SoA batch in memory.
///
/// Each batch the source yields is interned and split once, then replayed
/// through every protocol in turn. Blocks are interned incrementally, in
/// the same first-appearance order the in-memory paths use, so each
/// protocol's counters are bit-identical to [`run_indexed`] on the same
/// records (pinned by this crate's streaming equality tests).
///
/// Returns one result per protocol, in input order. Each equals what
/// [`run_chunked`] alone would return for that protocol: a protocol that
/// errs stops there while the others replay on, and a source error ends
/// every protocol still running. The source is read no further once
/// every protocol has stopped.
pub fn run_chunked_many<P: Protocol + ?Sized, S: ChunkSource>(
    protocols: &mut [&mut P],
    source: &mut S,
    cfg: &RunConfig,
) -> Vec<Result<RunResult, String>> {
    let mut records = Vec::new();
    let mut batch = SoaStream::build([], cfg.geometry, cfg.sharing);
    // `Ok` while a protocol replays; its error once it has stopped.
    let mut runs: Vec<Result<Core<'_, P>, String>> =
        protocols.iter_mut().map(|p| Ok(Core::new(&mut **p, cfg, 0, None))).collect();
    while runs.iter().any(Result::is_ok) {
        match source.next_chunk(&mut records) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                let msg = format!("trace read failed: {e}");
                for run in runs.iter_mut().filter(|run| run.is_ok()) {
                    *run = Err(msg.clone());
                }
                break;
            }
        }
        // Cache-sized batches: each is filled once and replayed through
        // every protocol while hot.
        for chunk in records.chunks(BATCH_RECORDS) {
            batch.refill(chunk);
            for run in &mut runs {
                if let Ok(core) = run {
                    if let Err(e) = core.replay(&batch, None) {
                        *run = Err(e.msg);
                    }
                }
            }
        }
    }
    runs.into_iter()
        .map(|run| run.and_then(|core| core.finish().map(finish_result).map_err(|e| e.msg)))
        .collect()
}

/// Replays a structure-of-arrays stream (e.g. a
/// [`TraceStore::soa`](dircc_trace::TraceStore::soa) memo) through a
/// fresh instance of `kind` sized for the stream's blocks, resolved to
/// its concrete type so the loop is monomorphized per scheme.
///
/// # Errors
///
/// As [`run`]; additionally errs if `soa` was built under a different
/// sharing model than `cfg` uses.
pub fn run_indexed(
    kind: ProtocolKind,
    n_caches: usize,
    soa: &SoaStream,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    check_sharing(soa.sharing, cfg)?;
    replay_dispatched(kind, n_caches, soa, None, cfg).map(finish_result).map_err(|e| e.msg)
}

/// Checks that a stream was built under `cfg`'s sharing model.
fn check_sharing(sharing: SharingModel, cfg: &RunConfig) -> Result<(), String> {
    if sharing != cfg.sharing {
        return Err(format!(
            "soa stream was built under {sharing:?} sharing but the run uses {:?}; rebuild it \
             for this sharing model",
            cfg.sharing
        ));
    }
    Ok(())
}

/// Builds the block-sharded partition of `soa`, built under `cfg`'s
/// sharing model.
///
/// Infinite-cache runs shard by `block_id % shards` — the same router
/// [`dircc_trace::TraceStore::sharded`] memoizes, so engine-level and
/// store-level partitions agree. Finite-cache runs shard by the tag
/// store's *set index* of the original block (read back from the
/// stream's renaming) instead: LRU eviction is
/// confined to a set, so keeping every set's accesses in one shard
/// preserves victim choice exactly. A finite config cannot honour more
/// shards than it has sets, so the shard count is clamped to `sets`
/// (falling back to 1 shard for a single-set cache).
pub fn shard_stream(soa: &SoaStream, shards: usize, cfg: &RunConfig) -> ShardedStream {
    let shards = shards.max(1);
    match cfg.finite_cache {
        None => ShardedStream::build(soa, shards, |gid| gid as usize % shards),
        Some(fc) => {
            let shards = shards.min(fc.sets);
            ShardedStream::build(soa, shards, |gid| fc.set_of(soa.blocks.block_addr(gid)) % shards)
        }
    }
}

/// Replays a block-sharded stream through one monomorphized instance of
/// `kind` per shard and folds the per-shard results into one
/// [`RunResult`] **bit-identical to [`run_indexed`]** on the unsharded
/// stream.
///
/// Why the fold is exact:
///
/// * with infinite caches every per-block table (cache states, directory
///   entries, verifier versions, first-ref bits) is touched by exactly
///   one shard, and shard-local renaming preserves first-appearance
///   order, so each shard computes exactly the slice of state the serial
///   run would;
/// * [`EventCounters`] are purely additive, so merging per-shard counters
///   in shard order reproduces the serial totals;
/// * verifier findings carry global reference numbers; merging them in
///   trace order and then applying the [`MAX_VIOLATIONS`] cap retains
///   exactly the serial run's first `MAX_VIOLATIONS` findings (a finding
///   within the first 16 globally is within the first 16 of its shard);
/// * finite-cache runs are sharded by set index (see [`shard_stream`]),
///   which preserves relative LRU-stamp order within every set and hence
///   eviction choice.
///
/// The only intentional divergence: `check_invariants_every` cadences on
/// the *shard-local* count of data references, so a broken protocol may
/// be caught at a different reference than serially. Correct protocols
/// are unaffected.
///
/// Shards replay on [`std::thread::scope`] workers (inline when there is
/// only one shard).
///
/// # Errors
///
/// As [`run_indexed`], checked per shard; across shards the error with
/// the smallest global reference number wins, deterministically. A
/// nonzero [`RunConfig::window`] is an error: a window is a slice of the
/// global reference stream, which no shard replays.
pub fn run_sharded(
    kind: ProtocolKind,
    n_caches: usize,
    sharded: &ShardedStream,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    run_sharded_with(kind, n_caches, sharded, cfg, |_, _, _, _| ())
}

/// [`run_sharded`] with an observer called once per shard replay —
/// `observe(shard, started, wall, refs)`, `refs` counting the shard's
/// data references — from the thread that replayed it, so callers can
/// attribute per-shard spans. Counters are unaffected by the observer.
///
/// # Errors
///
/// As [`run_sharded`].
pub fn run_sharded_with<O>(
    kind: ProtocolKind,
    n_caches: usize,
    sharded: &ShardedStream,
    cfg: &RunConfig,
    observe: O,
) -> Result<RunResult, String>
where
    O: Fn(usize, Instant, Duration, u64) + Sync,
{
    if cfg.window > 0 {
        return Err("sharded replay rejects a window: windowed sampling observes the global \
                    reference stream, which no shard replays; replay serially"
            .to_string());
    }
    let shards = sharded.shards();
    for sh in shards {
        check_sharing(sh.soa.sharing, cfg)?;
    }
    fan_out(shards.len(), sharded.instr(), |idx| {
        let sh = &shards[idx];
        let started = Instant::now();
        let shard = Some((&sh.global_refs[..], &sh.global_ids[..]));
        let res = replay_dispatched(kind, n_caches, &sh.soa, shard, cfg);
        let refs = res.as_ref().map_or(sh.soa.refs(), |o| o.refs);
        observe(idx, started, started.elapsed(), refs);
        res
    })
}

/// Replays shards `0..shards` — `replay_shard(idx)` each — one scoped
/// thread per shard ([`par_map_indexed`]; inline for one shard) and
/// merges the results with [`merge_shard_results`], adding the stream's
/// `instr` instruction fetches once: the fan-out behind
/// [`run_sharded_with`].
fn fan_out<F>(shards: usize, instr: u64, replay_shard: F) -> Result<RunResult, String>
where
    F: Fn(usize) -> Result<CoreResult, EngineError> + Sync,
{
    let mut merged = merge_shard_results(par_map_indexed(shards, shards, replay_shard))?;
    merged.counters.observe_instr_fetches(instr);
    merged.refs += instr;
    Ok(merged)
}

/// Folds per-shard replay results into one [`RunResult`] — additive
/// counter merge in shard order, findings re-sorted by global reference
/// number then capped, smallest `(gref, shard)` error winning.
fn merge_shard_results(results: Vec<Result<CoreResult, EngineError>>) -> Result<RunResult, String> {
    let mut counters = EventCounters::new();
    let mut refs = 0u64;
    let mut findings: Vec<(u64, String)> = Vec::new();
    let mut first_err: Option<(u64, usize, String)> = None;
    for (idx, res) in results.into_iter().enumerate() {
        match res {
            Ok(o) => {
                counters.merge(&o.counters);
                refs += o.refs;
                findings.extend(o.violations);
            }
            Err(e) => {
                if first_err.as_ref().is_none_or(|(g, s, _)| (e.gref, idx) < (*g, *s)) {
                    first_err = Some((e.gref, idx, e.msg));
                }
            }
        }
    }
    if let Some((_, _, msg)) = first_err {
        return Err(msg);
    }
    findings.sort_by_key(|(gref, _)| *gref);
    findings.truncate(MAX_VIOLATIONS);
    Ok(finish_result(CoreResult { counters, refs, violations: findings, windows: Vec::new() }))
}

/// Replays one in-memory stream (or shard sub-stream, whose `shard`
/// carries its global reference numbers and shard-local → global dense
/// ids) through a fresh instance of `kind` sized for the stream's blocks
/// and resolved to its concrete type ([`dispatch`]), so
/// [`Protocol::access`] is statically dispatched and inlinable.
fn replay_dispatched(
    kind: ProtocolKind,
    n_caches: usize,
    soa: &SoaStream,
    shard: Option<(&[u64], &[u32])>,
    cfg: &RunConfig,
) -> Result<CoreResult, EngineError> {
    struct Replay<'a> {
        soa: &'a SoaStream,
        shard: Option<(&'a [u64], &'a [u32])>,
        cfg: &'a RunConfig,
    }
    impl ProtocolVisitor for Replay<'_> {
        type Output = Result<CoreResult, EngineError>;
        fn visit<P: Protocol + Clone + 'static>(self, mut protocol: P) -> Self::Output {
            let Replay { soa, shard, cfg } = self;
            protocol.reserve_blocks(soa.data.num_blocks);
            replay_memory(&mut protocol, soa, shard, cfg)
        }
    }
    dispatch(kind, n_caches, Replay { soa, shard, cfg })
}

/// Replays one in-memory stream (or shard sub-stream) as a single batch.
fn replay_memory<P: Protocol + ?Sized>(
    protocol: &mut P,
    soa: &SoaStream,
    shard: Option<(&[u64], &[u32])>,
    cfg: &RunConfig,
) -> Result<CoreResult, EngineError> {
    let mut core = Core::new(protocol, cfg, soa.data.num_blocks, shard.map(|s| s.1));
    core.replay(soa, shard.map(|s| s.0))?;
    core.finish()
}

/// The replay loop's state, carried across the batches of one stream.
struct Core<'a, P: ?Sized> {
    protocol: &'a mut P,
    cfg: &'a RunConfig,
    /// Shard-local → global dense ids (`None` for unsharded streams), so
    /// sharded violation text names blocks exactly as the serial run does.
    global_ids: Option<&'a [u32]>,
    counters: EventCounters,
    /// The value oracle, when the config verifies.
    values: Option<ValueModel>,
    /// Its findings, each at its global reference number, capped at
    /// [`MAX_VIOLATIONS`].
    violations: Vec<(u64, String)>,
    /// Counter snapshots every [`RunConfig::window`] references.
    windows: Option<WindowedRecorder>,
    /// Finite-mode tag stores mirror each cache's resident blocks; LRU
    /// victims are evicted from the protocol. Tags invalidated by remote
    /// writes linger until replaced (as in real caches). Set selection
    /// uses raw address bits, so the stores are keyed on the ORIGINAL
    /// block (from the stream's renaming) and carry the dense address as
    /// their state.
    tag_stores: Option<Vec<SetAssocCache<BlockAddr>>>,
    /// References replayed so far.
    refs: u64,
}

impl<'a, P: Protocol + ?Sized> Core<'a, P> {
    /// `block_capacity` pre-sizes the value oracle's dense tables.
    fn new(
        protocol: &'a mut P,
        cfg: &'a RunConfig,
        block_capacity: usize,
        global_ids: Option<&'a [u32]>,
    ) -> Self {
        let n = protocol.num_caches();
        Core {
            values: cfg.verify.then(|| ValueModel::new(n, block_capacity)),
            windows: (cfg.window > 0).then(|| WindowedRecorder::new(cfg.window)),
            tag_stores: cfg.finite_cache.map(|fc| (0..n).map(|_| SetAssocCache::new(fc)).collect()),
            protocol,
            cfg,
            global_ids,
            counters: EventCounters::new(),
            violations: Vec::new(),
            refs: 0,
        }
    }

    /// The replay loop: the one place references reach
    /// [`Protocol::access`]. Replays one batch — `soa`, with `grefs` the
    /// 1-based *global* reference numbers of a shard sub-stream's entries
    /// (`None`: the running reference count), used in error and violation
    /// messages so sharded findings merge back in trace order. The window
    /// recorder sees the cumulative counters once per reference, after
    /// every counter mutation that reference caused (eviction traffic
    /// included), so windowed deltas partition the run exactly.
    fn replay(&mut self, soa: &SoaStream, grefs: Option<&[u64]>) -> Result<(), EngineError> {
        let n = self.protocol.num_caches();
        let data = &*soa.data;
        let len = soa.len();
        let cache_idx = &soa.cache_idx()[..len];
        let base = self.refs;
        let cfg = self.cfg;
        let every = cfg.check_invariants_every;

        // Every cold branch constant-false? Then no reference can error
        // (max_cache_idx proves the bounds check dead), no state beyond
        // the protocol, the counters and any tag stores exists, and the
        // batch specializes down to the quiet loop over data references.
        let is_quiet = self.windows.is_none()
            && self.values.is_none()
            && every == 0
            && usize::from(soa.max_cache_idx) < n;
        if is_quiet {
            let (protocol, counters) = (&mut *self.protocol, &mut self.counters);
            match self.tag_stores.as_mut() {
                None => quiet(protocol, counters, soa, ()),
                Some(stores) => {
                    let probe = TagProbe { stores, soa, global_ids: self.global_ids };
                    quiet(protocol, counters, soa, probe);
                }
            }
            self.refs = base + soa.refs();
            return Ok(());
        }

        // Full loop: every check, reference for reference, with the
        // invariant modulo test hoisted to segment boundaries (segments
        // end exactly where the cadence checks). It walks the references,
        // the data bits placing the instruction fetches and `d` indexing
        // the columns; a shard holds data references only.
        let positions = soa.refs() as usize;
        // The original block behind a (possibly shard-local) dense id.
        let global_ids = self.global_ids;
        let orig = |block: BlockAddr| {
            soa.blocks.block_addr(global_block(global_ids, block).index() as u32)
        };
        let mut d = 0usize;
        let mut i = 0usize;
        while i < positions {
            // Next running count that is a multiple of `every` (or the
            // whole batch when the cadence is off).
            let end = match every {
                0 => positions,
                _ => {
                    let next = ((base + i as u64) / every + 1) * every;
                    ((next - base) as usize).min(positions)
                }
            };
            let mut ends_on_data = false;
            for j in i..end {
                let refs = base + j as u64 + 1;
                ends_on_data = data.is_data(j);
                if !ends_on_data {
                    self.counters.observe(&Outcome::quiet(Event::Instr));
                    if let Some(w) = self.windows.as_mut() {
                        w.record(refs, &self.counters);
                    }
                    continue;
                }
                let gref = grefs.map_or(refs, |g| g[d]);
                let (k, c) = (data.kind[d], cache_idx[d]);
                let block = BlockAddr::from_index(u64::from(data.block_id[d]));
                if usize::from(c) >= n {
                    // The store holds no byte offset: name the block's base.
                    let at = soa.blocks.geometry().block_base(orig(block));
                    let (cpu, pid) = (CpuId::new(data.cpu[d]), ProcessId::new(data.pid[d]));
                    return Err(EngineError {
                        gref,
                        msg: format!(
                            "reference {gref}: cache index {c} out of range for {n} caches \
                             ({cpu}, {pid}, {k:?} at {at}; did you size the protocol for the \
                             sharing model?)"
                        ),
                    });
                }
                let cache = CacheId::new(c);
                let out = self.protocol.access(cache, k, block, data.first_ref[d]);
                d += 1;
                self.counters.observe(&out);

                if let Some(values) = self.values.as_mut() {
                    let shown = global_block(self.global_ids, block);
                    let verdict = values.access(&*self.protocol, cache, k, block, shown, &out);
                    note(&mut self.violations, gref, verdict);
                }
                if let Some(stores) = self.tag_stores.as_mut() {
                    let store = &mut stores[cache.index()];
                    if let Lookup::Inserted { evicted: Some(victim) } =
                        store.lookup_or_insert(orig(block), block)
                    {
                        let evo = self.protocol.evict(cache, victim.state);
                        self.counters.observe_eviction(&evo);
                        if let Some(values) = self.values.as_mut().filter(|_| evo.write_back) {
                            let shown = global_block(self.global_ids, victim.state);
                            let verdict = values.write_back(cache, victim.state, shown);
                            note(&mut self.violations, gref, verdict);
                        }
                    }
                }
                if let Some(w) = self.windows.as_mut() {
                    w.record(refs, &self.counters);
                }
            }
            i = end;
            // The cadence only checks when the boundary reference is a
            // data reference (the instruction path skips the check).
            let done = base + i as u64;
            if every > 0 && done.is_multiple_of(every) && ends_on_data {
                if let Err(e) = self.protocol.check_invariants() {
                    let gref = grefs.map_or(done, |g| g[d - 1]);
                    return Err(EngineError {
                        gref,
                        msg: format!("invariant violation at reference {gref}: {e}"),
                    });
                }
            }
        }
        self.refs = base + positions as u64;
        Ok(())
    }

    /// Ends the stream: the final invariant check (when a cadence is set)
    /// and the last, possibly shorter, window.
    fn finish(self) -> Result<CoreResult, EngineError> {
        if self.cfg.check_invariants_every > 0 {
            self.protocol.check_invariants().map_err(|e| EngineError {
                gref: u64::MAX,
                msg: format!("final invariant violation: {e}"),
            })?;
        }
        let windows = self.windows.map_or_else(Vec::new, |w| w.finish(self.refs, &self.counters));
        Ok(CoreResult {
            counters: self.counters,
            refs: self.refs,
            violations: self.violations,
            windows,
        })
    }
}

/// The quiet body of [`Core::replay`], a function of its own so that the
/// hot loop is optimized apart from the checking body. `after` runs once
/// per data reference, after its access is counted: `()` for infinite
/// caches, where it compiles away, or a [`TagProbe`] for finite ones.
#[inline(never)]
fn quiet<P: Protocol + ?Sized, A: AfterAccess>(
    protocol: &mut P,
    counters: &mut EventCounters,
    soa: &SoaStream,
    mut after: A,
) {
    let (data, len) = (&*soa.data, soa.len());
    let cache_idx = &soa.cache_idx()[..len];
    let (kind, block_id, first_ref) =
        (&data.kind[..len], &data.block_id[..len], &data.first_ref[..len]);
    for j in 0..len {
        let block = BlockAddr::from_index(u64::from(block_id[j]));
        let cache = CacheId::new(cache_idx[j]);
        let out = protocol.access(cache, kind[j], block, first_ref[j]);
        counters.observe(&out);
        after.after(protocol, counters, cache, block);
    }
    counters.observe_instr_fetches(data.instr);
}

/// The quiet body's per-reference step after the access is counted.
trait AfterAccess {
    /// Runs after `cache`'s access to (dense) `block` is counted; by
    /// default nothing happens, as for infinite caches.
    #[inline(always)]
    fn after<P: Protocol + ?Sized>(
        &mut self,
        _protocol: &mut P,
        _counters: &mut EventCounters,
        _cache: CacheId,
        _block: BlockAddr,
    ) {
    }
}

/// Infinite caches.
impl AfterAccess for () {}

/// Finite caches: the checking body's tag-store step without its
/// verifier. The accessing cache's store is probed with the original
/// block, and an LRU victim is evicted from the protocol and counted.
struct TagProbe<'a> {
    stores: &'a mut [SetAssocCache<BlockAddr>],
    soa: &'a SoaStream,
    global_ids: Option<&'a [u32]>,
}

impl AfterAccess for TagProbe<'_> {
    #[inline(always)]
    fn after<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
        counters: &mut EventCounters,
        cache: CacheId,
        block: BlockAddr,
    ) {
        let orig = self.soa.blocks.block_addr(global_block(self.global_ids, block).index() as u32);
        if let Lookup::Inserted { evicted: Some(victim) } =
            self.stores[cache.index()].lookup_or_insert(orig, block)
        {
            counters.observe_eviction(&protocol.evict(cache, victim.state));
        }
    }
}

/// The block a finding names: `block` itself, or for a shard sub-stream
/// (`global_ids` set) its global dense id, as the serial run names it.
fn global_block(global_ids: Option<&[u32]>, block: BlockAddr) -> BlockAddr {
    match global_ids {
        None => block,
        Some(g) => BlockAddr::from_index(u64::from(g[block.index() as usize])),
    }
}

/// Keeps a value-oracle finding at reference `gref`, up to the cap.
fn note(violations: &mut Vec<(u64, String)>, gref: u64, verdict: Result<(), String>) {
    if let Err(msg) = verdict {
        if violations.len() < MAX_VIOLATIONS {
            violations.push((gref, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_core::event::EvictOutcome;
    use dircc_core::{build, ProtocolKind};
    use dircc_trace::gen::patterns;
    use dircc_types::{AccessKind, Address, CpuId, ProcessId};

    /// A deliberately broken protocol: every access is a write hit on a
    /// clean exclusive copy, so nothing is ever invalidated and every
    /// other holder goes stale.
    #[derive(Debug)]
    struct Stale(dircc_cache::CacheArray<()>);

    impl Protocol for Stale {
        fn kind(&self) -> ProtocolKind {
            ProtocolKind::Wti
        }
        fn num_caches(&self) -> usize {
            self.0.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            _kind: AccessKind,
            block: BlockAddr,
            _first: bool,
        ) -> Outcome {
            self.0.set(cache, block, ());
            Outcome::quiet(Event::WriteHit(dircc_core::WriteHitContext::CleanExclusive))
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            self.0.remove(cache, block);
            EvictOutcome::SILENT
        }
        fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
            self.0.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            Ok(())
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.0.encode_states(out, |()| 0);
        }
    }

    fn run_verified(kind: ProtocolKind, trace: Vec<TraceRecord>) -> RunResult {
        let mut p = build(kind, 4);
        let res = run(p.as_mut(), trace, &RunConfig::verifying(1)).expect("run succeeds");
        assert!(res.violations.is_empty(), "{}: {:?}", p.name(), res.violations);
        res
    }

    #[test]
    fn all_protocols_stay_coherent_on_every_pattern() {
        let patterns: Vec<(&str, Vec<TraceRecord>)> = vec![
            ("ping_pong", patterns::ping_pong(25)),
            ("read_only", patterns::read_only_sharing(4, 8, 5)),
            ("migratory", patterns::migratory(4, 40)),
            ("prodcons", patterns::producer_consumer(30, 4)),
            ("private", patterns::private_only(4, 10)),
            ("spinlock", patterns::spinlock_contention(3, 15)),
        ];
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::DirNb { pointers: 4 },
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
            for (name, trace) in &patterns {
                let mut p = build(kind, 4);
                let res = run(p.as_mut(), trace.clone(), &RunConfig::verifying(1)).expect("run");
                assert!(res.violations.is_empty(), "{} on {name}: {:?}", p.name(), res.violations);
            }
        }
    }

    #[test]
    fn first_references_counted_once_globally() {
        let res = run_verified(ProtocolKind::Dir0B, patterns::read_only_sharing(4, 3, 2));
        assert_eq!(res.counters.rm_first_ref(), 3, "3 blocks, each first-referenced once");
        // Every other cache's cold miss is a sharing miss, not a first ref.
        assert_eq!(res.counters.rm_blk_cln(), 9);
    }

    #[test]
    fn instr_fetches_bypass_the_protocol() {
        let trace = patterns::with_instr_stream(patterns::ping_pong(5));
        let res = run_verified(ProtocolKind::Dir0B, trace);
        assert_eq!(res.counters.instr(), 10);
        assert_eq!(res.counters.total(), 20);
    }

    #[test]
    fn process_sharing_uses_pid() {
        // One CPU, two processes time-sharing it: with processor sharing
        // there is no sharing at all; with process sharing the two
        // processes' caches ping-pong.
        let mk = |pid: u16| {
            TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(pid),
                AccessKind::Write,
                Address::new(0x100),
            )
        };
        let trace: Vec<TraceRecord> = (0..10).map(|i| mk(i % 2)).collect();

        let mut p = build(ProtocolKind::Dir0B, 4);
        let proc_res = run(p.as_mut(), trace.clone(), &RunConfig::default()).unwrap();
        assert_eq!(proc_res.counters.wm(), 0, "processor model sees one cache");

        let mut p = build(ProtocolKind::Dir0B, 4);
        let cfg = RunConfig::default().with_process_sharing();
        let res = run(p.as_mut(), trace, &cfg).unwrap();
        assert!(res.counters.wm() > 0, "process model exposes the sharing");
    }

    #[test]
    fn finite_caches_generate_evictions_and_write_backs() {
        use dircc_cache::FiniteCacheConfig;
        // A 2-block direct-mapped cache forced to thrash: each CPU cycles
        // through 4 conflicting blocks, writing each.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            let block = (i % 4) * 2; // all map to set 0 of a 2-set cache
            trace.push(TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(0),
                AccessKind::Write,
                Address::new(block * 16),
            ));
        }
        let cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 1));
        let mut p = build(ProtocolKind::Dir0B, 4);
        let res = run(p.as_mut(), trace, &RunConfig { verify: true, ..cfg }).unwrap();
        assert!(res.counters.cache_evictions() > 100, "thrash must evict");
        assert!(res.counters.write_backs() > 100, "dirty evictions flush");
        assert!(
            res.counters.rm() + res.counters.wm() > 100,
            "replacement misses reappear as memory-only misses"
        );
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn finite_caches_stay_coherent_for_every_protocol() {
        use dircc_cache::FiniteCacheConfig;
        let trace = patterns::migratory(4, 200);
        for kind in [
            ProtocolKind::Dir0B,
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 4 },
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
            let mut p = build(kind, 4);
            let cfg = RunConfig {
                verify: true,
                check_invariants_every: 1,
                ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 2))
            };
            let res =
                run(p.as_mut(), trace.clone(), &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(res.violations.is_empty(), "{kind}: {:?}", res.violations);
        }
    }

    #[test]
    fn infinite_runs_report_zero_evictions() {
        let mut p = build(ProtocolKind::Dir0B, 4);
        let res = run(p.as_mut(), patterns::migratory(4, 50), &RunConfig::default()).unwrap();
        assert_eq!(res.counters.cache_evictions(), 0);
    }

    #[test]
    fn out_of_range_cache_is_an_error() {
        let trace = vec![TraceRecord::new(
            CpuId::new(7),
            ProcessId::new(7),
            AccessKind::Read,
            Address::new(0),
        )];
        let mut p = build(ProtocolKind::Dir0B, 4);
        assert!(run(p.as_mut(), trace, &RunConfig::default()).is_err());
    }

    #[test]
    fn bounds_error_names_the_block_base_of_an_unaligned_reference() {
        // The store keeps blocks, not byte offsets: a reference to 0x1234
        // is reported at its 16-byte block's base, 0x1230, on every path.
        let trace = vec![
            TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(0),
                AccessKind::InstrFetch,
                Address::new(0),
            ),
            TraceRecord::new(
                CpuId::new(5),
                ProcessId::new(6),
                AccessKind::Write,
                Address::new(0x1234),
            ),
        ];
        let want = "reference 2: cache index 5 out of range for 4 caches (cpu5, pid6, Write at \
                    0x1230; did you size the protocol for the sharing model?)";
        let cfg = RunConfig::default();
        let mut p = build(ProtocolKind::Dir0B, 4);
        assert_eq!(run(p.as_mut(), trace.clone(), &cfg).unwrap_err(), want);
        let soa = soa(&trace, &cfg);
        assert_eq!(run_indexed(ProtocolKind::Dir0B, 4, &soa, &cfg).unwrap_err(), want);
        let sharded = shard_stream(&soa, 2, &cfg);
        assert_eq!(run_sharded(ProtocolKind::Dir0B, 4, &sharded, &cfg).unwrap_err(), want);
    }

    #[test]
    fn verifier_catches_a_broken_protocol() {
        /// A deliberately broken protocol: never invalidates other copies.
        #[derive(Debug)]
        struct Broken {
            caches: dircc_cache::CacheArray<()>,
        }
        impl Protocol for Broken {
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
            ) -> dircc_core::Outcome {
                use dircc_core::{MissContext, WriteHitContext};
                let hit = self.caches.state(cache, block).is_some();
                self.caches.set(cache, block, ());
                let event = match (kind, hit, first_ref) {
                    (AccessKind::Read, true, _) => Event::ReadHit,
                    (AccessKind::Read, false, true) => Event::ReadMiss(MissContext::FirstRef),
                    (AccessKind::Read, false, false) => Event::ReadMiss(MissContext::MemoryOnly),
                    (AccessKind::Write, true, _) => {
                        Event::WriteHit(WriteHitContext::CleanExclusive)
                    }
                    (AccessKind::Write, false, true) => Event::WriteMiss(MissContext::FirstRef),
                    (AccessKind::Write, false, false) => Event::WriteMiss(MissContext::MemoryOnly),
                    _ => unreachable!(),
                };
                dircc_core::Outcome::quiet(event)
            }
            fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
                self.caches.remove(cache, block);
                EvictOutcome::SILENT
            }
            fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
                self.caches.holders(block)
            }
            fn check_invariants(&self) -> Result<(), String> {
                Ok(())
            }
            fn encode_state(&self, out: &mut Vec<u64>) {
                self.caches.encode_states(out, |()| 0);
            }
        }

        let mut broken = Broken { caches: dircc_cache::CacheArray::new(4) };
        let res = run(&mut broken, patterns::ping_pong(5), &RunConfig::verifying(0)).unwrap();
        assert!(!res.violations.is_empty(), "stale copies must be detected");
    }

    /// The SoA split of `records` under `cfg`'s geometry and sharing.
    fn soa(records: &[TraceRecord], cfg: &RunConfig) -> SoaStream {
        SoaStream::build(records.iter().copied(), cfg.geometry, cfg.sharing)
    }

    #[test]
    fn windowed_recorder_reconstructs_final_counters() {
        use dircc_cache::FiniteCacheConfig;
        // Finite caches so eviction traffic flows through the counters
        // too; instruction fetches so every record kind is covered.
        let trace = patterns::with_instr_stream(patterns::migratory(4, 120));
        let plain_cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 2));
        let cfg = RunConfig { window: 17, ..plain_cfg };
        let kind = ProtocolKind::WriteOnce;
        let res = run_indexed(kind, 4, &soa(&trace, &cfg), &cfg).unwrap();
        let samples = &res.windows;
        assert!(samples.len() > 2, "windowing at 17 refs must produce several windows");
        assert_eq!(samples.last().unwrap().end_ref, res.refs);
        let mut sum = EventCounters::new();
        for s in samples {
            sum.merge(&s.counters);
        }
        assert_eq!(sum, res.counters, "window deltas must partition the run exactly");
        // Windowing never perturbs the run itself.
        let mut p = build(ProtocolKind::WriteOnce, 4);
        let plain = run(p.as_mut(), trace.clone(), &plain_cfg).unwrap();
        assert_eq!(plain.counters, res.counters);
        assert!(plain.windows.is_empty(), "no window, no samples");
        // The streaming path samples the same windows.
        let mut p = build(ProtocolKind::WriteOnce, 4);
        assert_eq!(run(p.as_mut(), trace, &cfg).unwrap().windows, res.windows);
    }

    #[test]
    fn windowed_recorder_works_on_the_indexed_path() {
        use dircc_trace::gen::Profile;
        use dircc_trace::store::{TraceFilter, TraceStore};
        let store = TraceStore::new(vec![Profile::pops().with_total_refs(5_000)], 11);
        let cfg = RunConfig { window: 512, ..RunConfig::default().with_process_sharing() };
        let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
        let res = run_indexed(ProtocolKind::Dir0B, 4, &soa, &cfg).unwrap();
        let mut sum = EventCounters::new();
        for s in &res.windows {
            sum.merge(&s.counters);
        }
        assert_eq!(sum, res.counters);
        assert_eq!(res.windows.len(), 5_000usize.div_ceil(512));
    }

    #[test]
    fn sharded_replay_is_bit_identical_for_every_scheme() {
        use dircc_trace::gen::{Generator, Profile};
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(6_000), 9).collect();
        let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
        let soa = soa(&records, &cfg);
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 4 },
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
            let serial = run_indexed(kind, 4, &soa, &cfg).unwrap();
            for shards in [1, 2, 3, 8] {
                let sharded = shard_stream(&soa, shards, &cfg);
                assert_eq!(sharded.num_shards(), shards, "infinite caches honour the count");
                let res = run_sharded(kind, 4, &sharded, &cfg).unwrap();
                assert_eq!(serial.counters, res.counters, "{kind} at {shards} shards");
                assert_eq!(serial.refs, res.refs);
                assert_eq!(serial.violations, res.violations);
            }
        }
    }

    #[test]
    fn set_sharded_finite_caches_are_bit_identical() {
        use dircc_cache::FiniteCacheConfig;
        // Four CPUs cycling writes through 24 blocks — 6 blocks per set of
        // a 4-set × 2-way cache, so every set thrashes and evicts.
        let trace: Vec<TraceRecord> = (0..1200u64)
            .map(|i| {
                let cpu = (i % 4) as u16;
                let block = (i / 4 * 5 + i % 4) % 24;
                TraceRecord::new(
                    CpuId::new(cpu),
                    ProcessId::new(cpu),
                    if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read },
                    Address::new(block * 16),
                )
            })
            .collect();
        let cfg = RunConfig {
            verify: true,
            ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(4, 2))
        };
        let soa = soa(&trace, &cfg);
        for kind in [ProtocolKind::Dir0B, ProtocolKind::Berkeley, ProtocolKind::Mesi] {
            let serial = run_indexed(kind, 4, &soa, &cfg).unwrap();
            assert!(serial.counters.cache_evictions() > 0, "exercise eviction traffic");
            for shards in [2, 3, 4, 8] {
                let sharded = shard_stream(&soa, shards, &cfg);
                assert!(sharded.num_shards() <= 4, "clamped to the set count");
                let res = run_sharded(kind, 4, &sharded, &cfg).unwrap();
                assert_eq!(serial.counters, res.counters, "{kind} at {shards} shards");
                assert_eq!(serial.violations, res.violations);
            }
        }
    }

    /// A finite run with no verifier, window or cadence takes the quiet
    /// body; forcing the checking body with the verifier (which never
    /// changes counters) must give the same counters, serially, streamed
    /// and set-sharded, and every scheme the same eviction count.
    #[test]
    fn quiet_finite_runs_match_the_checking_body() {
        use dircc_cache::FiniteCacheConfig;
        use dircc_trace::gen::{Generator, Profile};
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(12_000), 9).collect();
        for (sets, ways) in [(2, 2), (4, 2), (64, 4)] {
            let quiet = RunConfig::default()
                .with_process_sharing()
                .with_finite_caches(FiniteCacheConfig::new(sets, ways));
            let checking = RunConfig { verify: true, ..quiet };
            let soa = soa(&records, &quiet);
            let mut evictions = None;
            for kind in [
                ProtocolKind::Dir0B,
                ProtocolKind::DirNb { pointers: 1 },
                ProtocolKind::DirNb { pointers: 4 },
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
                let at = format!("{kind} at {sets}x{ways}");
                let want = run_indexed(kind, 4, &soa, &checking).unwrap();
                assert!(want.violations.is_empty(), "{at}: {:?}", want.violations);
                let got = run_indexed(kind, 4, &soa, &quiet).unwrap();
                assert_eq!(got.counters, want.counters, "{at} indexed");
                let mut p = build(kind, 4);
                let streamed = run(p.as_mut(), records.iter().copied(), &quiet).unwrap();
                assert_eq!(streamed.counters, want.counters, "{at} streamed");
                for shards in [2, 3] {
                    let sharded = shard_stream(&soa, shards, &quiet);
                    let got = run_sharded(kind, 4, &sharded, &quiet).unwrap();
                    assert_eq!(got.counters, want.counters, "{at} at {shards} shards");
                }
                // The tag stores see every data reference and never the
                // protocol, so every scheme evicts alike.
                let n = want.counters.cache_evictions();
                assert!(n > 0, "{at}: exercise eviction traffic");
                assert_eq!(*evictions.get_or_insert(n), n, "{at}: eviction count");
            }
        }
    }

    #[test]
    fn finite_single_set_falls_back_to_one_shard() {
        use dircc_cache::FiniteCacheConfig;
        let trace = patterns::migratory(4, 40);
        let cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(1, 2));
        let sharded = shard_stream(&soa(&trace, &cfg), 8, &cfg);
        assert_eq!(sharded.num_shards(), 1);
    }

    #[test]
    fn sharded_violations_merge_in_trace_order_with_the_serial_cap() {
        // The Stale protocol violates on every access; over many
        // blocks the violations land in different shards, so this pins
        // the cap-after-merge semantics: exactly the serial run's first
        // MAX_VIOLATIONS findings, in its order.
        use dircc_types::{Address, CpuId, ProcessId};
        let trace: Vec<TraceRecord> = (0..120u64)
            .map(|i| {
                TraceRecord::new(
                    CpuId::new((i % 4) as u16),
                    ProcessId::new((i % 4) as u16),
                    if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read },
                    Address::new((i % 9) * 16),
                )
            })
            .collect();
        let cfg = RunConfig::verifying(0);
        let soa = soa(&trace, &cfg);
        let mut p = Stale(dircc_cache::CacheArray::new(4));
        let serial = run(&mut p, trace.clone(), &cfg).unwrap();
        assert_eq!(serial.violations.len(), MAX_VIOLATIONS);
        for shards in [2, 3, 5] {
            let sharded = shard_stream(&soa, shards, &cfg);
            let res = fan_out(shards, sharded.instr(), |idx| {
                let sh = &sharded.shards()[idx];
                let mut p = Stale(dircc_cache::CacheArray::new(4));
                let shard = Some((&sh.global_refs[..], &sh.global_ids[..]));
                replay_memory(&mut p, &sh.soa, shard, &cfg)
            })
            .unwrap();
            assert_eq!(serial.violations, res.violations, "{shards} shards");
        }
    }

    #[test]
    fn sharded_error_is_the_serial_first_error() {
        // An out-of-range CPU in the middle of the stream: whichever shard
        // it lands in, the reported error must be the serial one.
        use dircc_types::{Address, CpuId, ProcessId};
        let mut trace = patterns::migratory(4, 60);
        trace.insert(
            30,
            TraceRecord::new(CpuId::new(9), ProcessId::new(9), AccessKind::Read, Address::new(0)),
        );
        let cfg = RunConfig::default();
        let soa = soa(&trace, &cfg);
        let serial = run_indexed(ProtocolKind::Dir0B, 4, &soa, &cfg).unwrap_err();
        for shards in [1, 2, 4] {
            let sharded = shard_stream(&soa, shards, &cfg);
            let err = run_sharded(ProtocolKind::Dir0B, 4, &sharded, &cfg).unwrap_err();
            assert_eq!(serial, err, "{shards} shards");
        }
    }

    #[test]
    fn sharded_observer_sees_every_shard_once() {
        use std::sync::Mutex;
        let trace = patterns::migratory(4, 200);
        let cfg = RunConfig::default();
        let sharded = shard_stream(&soa(&trace, &cfg), 3, &cfg);
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let observe = |shard, _, _, refs| seen.lock().unwrap().push((shard, refs));
        let res = run_sharded_with(ProtocolKind::Mesi, 4, &sharded, &cfg, observe).unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(seen.iter().map(|(_, r)| *r).sum::<u64>(), res.refs);
    }

    #[test]
    fn violations_are_capped() {
        let trace = patterns::ping_pong(100);
        let mut p = Stale(dircc_cache::CacheArray::new(4));
        let res = run(&mut p, trace, &RunConfig::verifying(0)).unwrap();
        assert_eq!(res.violations.len(), MAX_VIOLATIONS);
    }

    /// Dir0B, except that every eviction claims to write its copy back,
    /// even a copy a remote write has already made stale.
    struct WritesBackStale(Box<dyn Protocol>);

    impl Protocol for WritesBackStale {
        fn kind(&self) -> ProtocolKind {
            self.0.kind()
        }
        fn num_caches(&self) -> usize {
            self.0.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            kind: AccessKind,
            block: BlockAddr,
            first: bool,
        ) -> Outcome {
            self.0.access(cache, kind, block, first)
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            EvictOutcome { write_back: true, ..self.0.evict(cache, block) }
        }
        fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
            self.0.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.0.check_invariants()
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.0.encode_state(out);
        }
    }

    #[test]
    fn stale_eviction_write_back_is_a_violation_at_its_reference() {
        use dircc_cache::FiniteCacheConfig;
        let at = |cpu: u16, kind, block: u64| {
            TraceRecord::new(CpuId::new(cpu), ProcessId::new(cpu), kind, Address::new(block * 16))
        };
        // Blocks 0 and 2 share set 0 of a 2-set direct-mapped cache. CPU 1's
        // write invalidates CPU 0's copy of block 0, whose tag lingers until
        // CPU 0's miss on block 2 replaces it at reference 3.
        let trace = vec![
            at(0, AccessKind::Read, 0),
            at(1, AccessKind::Write, 0),
            at(0, AccessKind::Read, 2),
        ];
        let cfg = RunConfig {
            verify: true,
            ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 1))
        };
        let mut p = WritesBackStale(build(ProtocolKind::Dir0B, 4));
        let res = run(&mut p, trace, &cfg).unwrap();
        assert_eq!(
            res.violations,
            ["ref 3: eviction wrote back version 0 of blk:0x0, latest is 1"]
        );
    }

    /// A real protocol whose invariant check fails from its
    /// `fail_from`th access on, naming how many accesses it has seen.
    struct FailsFrom {
        inner: Box<dyn Protocol>,
        accesses: u64,
        fail_from: u64,
    }

    impl Protocol for FailsFrom {
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
            first: bool,
        ) -> Outcome {
            self.accesses += 1;
            self.inner.access(cache, kind, block, first)
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            self.inner.evict(cache, block)
        }
        fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
            self.inner.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            match self.accesses >= self.fail_from {
                true => Err(format!("{} accesses", self.accesses)),
                false => Ok(()),
            }
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.inner.encode_state(out);
        }
    }

    /// `(cadence, error)` for [`FailsFrom`] over Dir0B failing from its
    /// 1,234th access, on 20k POPS refs (seed 5, instruction fetches
    /// included), recorded from the full-length stream that still carried
    /// an entry per instruction fetch. A cadence boundary that lands on an
    /// instruction fetch checks nothing, so the report moves to the next
    /// boundary on a data reference (reference 2464 is one, for cadence
    /// 7); cadence 4096 checks at the last reference of the first batch.
    const GOLDEN_CADENCE: [(u64, &str); 4] = [
        (1, "invariant violation at reference 2461: 1234 accesses"),
        (7, "invariant violation at reference 2471: 1239 accesses"),
        (500, "invariant violation at reference 2500: 1255 accesses"),
        (4096, "invariant violation at reference 4096: 2057 accesses"),
    ];

    #[test]
    fn invariant_cadence_reports_the_recorded_reference() {
        use dircc_trace::gen::{Generator, Profile};
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(20_000), 5).collect();
        assert!(records.iter().any(|r| !r.is_data()), "the trace must carry instruction fetches");
        let fresh =
            || FailsFrom { inner: build(ProtocolKind::Dir0B, 4), accesses: 0, fail_from: 1_234 };
        for (every, want) in GOLDEN_CADENCE {
            let cfg = RunConfig {
                check_invariants_every: every,
                ..RunConfig::default().with_process_sharing()
            };
            // Source pieces smaller than, equal to and larger than a batch.
            for piece in [1_000, BATCH_RECORDS, 10_000] {
                let mut source = IterChunks::new(records.iter().copied().map(Ok), piece);
                let err = run_chunked(&mut fresh(), &mut source, &cfg).unwrap_err();
                assert_eq!(err, want, "cadence {every}, pieces of {piece}");
            }
            let soa = soa(&records, &cfg);
            let err = replay_memory(&mut fresh(), &soa, None, &cfg);
            assert_eq!(
                err.err().map(|e| e.msg).as_deref(),
                Some(want),
                "cadence {every}, in memory"
            );
        }
    }
}
