//! Bit-identity gates for the streaming replay paths: a trace replayed
//! chunk-by-chunk (from memory or from an on-disk v2 file) must produce
//! counters, refs and violation text byte-identical to the in-memory
//! `run_indexed`/`run_sharded` paths, for every scheme and filter.

use dircc_check::default_kinds;
use dircc_core::build;
use dircc_sim::engine::{
    run_chunked, run_indexed, run_sharded, run_sharded_spilled, shard_stream, spill_sharded,
    RunConfig,
};
use dircc_trace::chunk::{ChunkedReader, ChunkedWriter, SliceChunks};
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::{BlockInterner, TraceFilter, TraceRecord, TraceStore};
use std::path::PathBuf;

fn store() -> TraceStore {
    TraceStore::new(
        vec![
            Profile::pops().with_total_refs(8_000),
            Profile::thor().with_total_refs(8_000),
            Profile::pero().with_total_refs(8_000),
        ],
        1988,
    )
}

fn cfg() -> RunConfig {
    RunConfig { verify: true, ..RunConfig::default().with_process_sharing() }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dircc_streaming_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn chunked_replay_is_bit_identical_for_every_scheme_trace_and_filter() {
    let store = store();
    let cfg = cfg();
    for trace in 0..store.num_traces() {
        for filter in [TraceFilter::Full, TraceFilter::ExcludeLockSpins] {
            let records = store.records(trace, filter);
            let soa = store.soa(trace, filter, cfg.geometry, cfg.sharing);
            for kind in default_kinds() {
                let serial = run_indexed(kind, 4, &records, &soa, &cfg).unwrap();
                // Odd chunk size exercises chunk-boundary handling. The
                // streaming path interns its own (filtered) stream order
                // while the store's dense ids come from the full stream —
                // both are bijective renamings, so counters must agree.
                let mut source = SliceChunks::new(&records[..], 997);
                let mut p = build(kind, 4);
                let streamed = run_chunked(p.as_mut(), &mut source, &cfg).unwrap();
                assert_eq!(serial.counters, streamed.counters, "{kind} trace {trace} {filter:?}");
                assert_eq!(serial.refs, streamed.refs);
                assert_eq!(serial.violations, streamed.violations);
            }
        }
    }
}

#[test]
fn v2_file_replay_is_bit_identical_to_in_memory() {
    let store = store();
    let cfg = cfg();
    let records = store.records(1, TraceFilter::Full);
    let soa = store.soa(1, TraceFilter::Full, cfg.geometry, cfg.sharing);
    // Encode to an in-memory v2 "file" with a small chunk size, then
    // stream it back through the engine.
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), 1_024);
    w.write_all(records.iter()).unwrap();
    let bytes = w.finish().unwrap();
    for kind in default_kinds() {
        let serial = run_indexed(kind, 4, &records, &soa, &cfg).unwrap();
        let mut reader = ChunkedReader::new(&bytes[..]).unwrap();
        let mut p = build(kind, 4);
        let streamed = run_chunked(p.as_mut(), &mut reader, &cfg).unwrap();
        assert_eq!(serial.counters, streamed.counters, "{kind}");
        assert_eq!(serial.refs, streamed.refs);
        assert_eq!(serial.violations, streamed.violations);
    }
}

#[test]
fn spilled_sharded_replay_is_bit_identical_to_in_memory_sharding() {
    let store = store();
    let cfg = cfg();
    let records = store.records(0, TraceFilter::Full);
    let dense = store.dense_blocks(0, TraceFilter::Full, cfg.geometry);
    let num_blocks = store.interner(0, cfg.geometry).num_blocks();
    let dir = tmpdir("sharded");
    for shards in [1, 2, 3, 8] {
        let mut source = SliceChunks::new(&records[..], 513);
        let spilled = spill_sharded(&mut source, shards, &cfg, &dir).unwrap();
        let sharded = shard_stream(&records, &dense, num_blocks, shards, &cfg);
        for kind in default_kinds() {
            let mem = run_sharded(kind, 4, &sharded, &cfg).unwrap();
            let ooc = run_sharded_spilled(kind, 4, &spilled, &cfg).unwrap();
            assert_eq!(mem.counters, ooc.counters, "{kind} at {shards} shards");
            assert_eq!(mem.refs, ooc.refs);
            assert_eq!(mem.violations, ooc.violations);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spilled_finite_cache_sharding_matches_in_memory() {
    use dircc_cache::FiniteCacheConfig;
    use dircc_core::ProtocolKind;
    let records: Vec<TraceRecord> =
        Generator::new(Profile::pops().with_total_refs(5_000), 3).collect();
    let cfg = RunConfig {
        verify: true,
        ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(4, 2))
    };
    let interner = BlockInterner::from_records(records.iter(), cfg.geometry);
    let dense = interner.dense_stream(&records);
    let num_blocks = interner.num_blocks();
    let dir = tmpdir("finite");
    for shards in [2, 4, 8] {
        let mut source = SliceChunks::new(&records[..], 769);
        let spilled = spill_sharded(&mut source, shards, &cfg, &dir).unwrap();
        let sharded = shard_stream(&records, &dense, num_blocks, shards, &cfg);
        assert_eq!(spilled.num_shards(), sharded.num_shards(), "same set-count clamping");
        for kind in [ProtocolKind::Dir0B, ProtocolKind::Berkeley, ProtocolKind::Mesi] {
            let mem = run_sharded(kind, 4, &sharded, &cfg).unwrap();
            let ooc = run_sharded_spilled(kind, 4, &spilled, &cfg).unwrap();
            assert_eq!(mem.counters, ooc.counters, "{kind} at {shards} shards");
            assert_eq!(mem.violations, ooc.violations);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_v2_stream_is_an_error_not_a_short_trace() {
    let records: Vec<TraceRecord> =
        Generator::new(Profile::pops().with_total_refs(2_000), 7).collect();
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), 256);
    w.write_all(records.iter()).unwrap();
    let bytes = w.finish().unwrap();
    // Drop the footer and half the final chunk: the engine must surface a
    // read error, not silently replay a shorter trace.
    let cut = bytes.len() - 40;
    let mut reader = ChunkedReader::new(&bytes[..cut]).unwrap();
    let mut p = build(dircc_check::default_kinds()[0], 4);
    let err = run_chunked(p.as_mut(), &mut reader, &RunConfig::default()).unwrap_err();
    assert!(err.contains("trace read failed"), "got: {err}");
}
