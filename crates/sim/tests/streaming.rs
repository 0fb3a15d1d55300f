//! Bit-identity gates for the streaming replay path: a trace replayed
//! chunk-by-chunk (from memory or from an on-disk v2 file) must produce
//! counters, refs and violation text byte-identical to the in-memory
//! `run_indexed` path, for every scheme and filter.

use dircc_check::default_kinds;
use dircc_core::build;
use dircc_sim::engine::{run_chunked, run_indexed, RunConfig};
use dircc_trace::chunk::{ChunkedReader, ChunkedWriter, IterChunks};
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::{TraceFilter, TraceRecord, TraceStore};

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
                let mut source = IterChunks::new(records.iter().copied().map(Ok), 997);
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
