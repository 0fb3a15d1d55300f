//! Shard-equivalence properties of the block-sharded replay engine.
//!
//! The tentpole guarantee: for every protocol, `run_sharded` at any shard
//! count produces **bit-identical** results to the serial `run_indexed` —
//! same [`EventCounters`] (first-ref classification included: the
//! `rm_first_ref`/`wm_first_ref` counters and the first-ref events they
//! classify are part of the counter state), same verifier verdicts, same
//! errors. Random op sequences probe the engine across every scheme at
//! shards ∈ {1, 2, 3, 8}, with and without finite caches (set-index
//! sharding); a pinned matrix covers every scheme × trace × filter
//! through the `Workbench`.

use dircc_cache::FiniteCacheConfig;
use dircc_core::ProtocolKind;
use dircc_sim::{run_indexed, run_sharded, shard_stream, RunConfig, TraceFilter, Workbench};
use dircc_trace::{SoaStream, TraceRecord};
use dircc_types::{AccessKind, Address, CpuId, ProcessId};
use proptest::prelude::*;

const CPUS: usize = 4;

/// Every taxonomy point the simulator replays.
const KINDS: [ProtocolKind; 13] = [
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
];

#[derive(Debug, Clone, Copy)]
struct Op {
    cpu: u16,
    kind: u8,
    block: u64,
}

impl Op {
    fn record(self) -> TraceRecord {
        let kind = match self.kind {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => AccessKind::InstrFetch,
        };
        TraceRecord::new(
            CpuId::new(self.cpu),
            ProcessId::new(self.cpu),
            kind,
            Address::new(self.block * 16),
        )
    }
}

fn arb_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    // Reads and writes dominate; block range 0..24 keeps contention high
    // enough that shards genuinely interleave per-block histories.
    prop::collection::vec(
        (0..CPUS as u16, 0u8..5, 0u64..24).prop_map(|(cpu, k, block)| {
            Op { cpu, kind: if k >= 2 { k % 2 } else { k }, block }.record()
        }),
        20..200,
    )
}

/// Serial vs sharded replay of one trace under one config, for one kind.
fn assert_shard_equivalent(kind: ProtocolKind, records: &[TraceRecord], cfg: &RunConfig) {
    let soa = SoaStream::build(records.iter().copied(), cfg.geometry, cfg.sharing);
    let serial = run_indexed(kind, CPUS, &soa, cfg);
    for shards in [1usize, 2, 3, 8] {
        let sharded = shard_stream(&soa, shards, cfg);
        let split = run_sharded(kind, CPUS, &sharded, cfg);
        match (&serial, &split) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.counters, b.counters, "{kind} counters at {shards} shards");
                assert_eq!(a.refs, b.refs, "{kind} refs at {shards} shards");
                assert_eq!(a.violations, b.violations, "{kind} verdicts at {shards} shards");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{kind} error at {shards} shards"),
            (a, b) => panic!("{kind} at {shards} shards: serial {a:?} vs sharded {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Infinite caches + verifier: every scheme, every shard count, the
    /// full result (counters, first-ref classes, verdicts) is identical.
    #[test]
    fn sharded_replay_matches_serial_on_random_traces(records in arb_trace()) {
        let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
        for kind in KINDS {
            assert_shard_equivalent(kind, &records, &cfg);
        }
    }

    /// Finite caches shard by set index: eviction order, write-backs and
    /// verifier verdicts survive sharding exactly.
    #[test]
    fn set_sharded_finite_replay_matches_serial(records in arb_trace()) {
        let cfg = RunConfig {
            verify: true,
            ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(4, 2))
        };
        for kind in [ProtocolKind::Dir0B, ProtocolKind::Berkeley, ProtocolKind::Mesi] {
            assert_shard_equivalent(kind, &records, &cfg);
        }
    }
}

/// Pinned matrix: every scheme × every trace × both filters through the
/// `Workbench`, shards=4 vs shards=1, must agree counter for counter
/// (the `dircc bench --shards N` byte-identity guarantee).
#[test]
fn workbench_shard_matrix_is_bit_identical() {
    let serial = Workbench::paper_scaled(20_000, 1988);
    let sharded = Workbench::paper_scaled(20_000, 1988).with_shards(4);
    for kind in KINDS {
        for trace in 0..serial.num_traces() {
            for filter in TraceFilter::ALL {
                let a = serial.counters(kind, trace, filter);
                let b = sharded.counters(kind, trace, filter);
                assert_eq!(*a, *b, "{kind} trace {trace} {filter:?} diverged at 4 shards");
            }
        }
    }
}

/// Shard counts beyond the block count degrade gracefully: empty shards
/// replay zero records and merge an empty counter set.
#[test]
fn more_shards_than_blocks_still_merges_exactly() {
    let records: Vec<TraceRecord> = (0..40u64)
        .map(|i| Op { cpu: (i % 4) as u16, kind: (i % 2) as u8, block: i % 3 }.record())
        .collect();
    let cfg = RunConfig { verify: true, ..RunConfig::default() };
    let soa = SoaStream::build(records, cfg.geometry, cfg.sharing);
    assert!(soa.blocks.num_blocks() < 8);
    let serial = run_indexed(ProtocolKind::Mesi, CPUS, &soa, &cfg).unwrap();
    let sharded = shard_stream(&soa, 8, &cfg);
    let split = run_sharded(ProtocolKind::Mesi, CPUS, &sharded, &cfg).unwrap();
    assert_eq!(serial.counters, split.counters);
    assert_eq!(split.counters.total(), 40);
}
