//! Bit-identity gates for the streaming replay path: a trace replayed
//! chunk-by-chunk (from memory or from an on-disk v2 file) must produce
//! counters, refs and violation text byte-identical to the in-memory
//! `run_indexed` path, for every scheme and filter — and one pass driving
//! every scheme at once must give each scheme exactly its lone result,
//! errors included.

use dircc_check::default_kinds;
use dircc_core::{build, Protocol, ProtocolKind};
use dircc_sim::engine::{run_chunked, run_chunked_many, run_indexed, RunConfig, RunResult};
use dircc_trace::chunk::{ChunkSource, ChunkedReader, ChunkedWriter, IterChunks};
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::{TraceFilter, TraceRecord, TraceStore};
use dircc_types::{AccessKind, Address, CpuId, ProcessId};

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

fn encode(records: &[TraceRecord], chunk: usize) -> Vec<u8> {
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), chunk);
    w.write_all(records.iter()).unwrap();
    w.finish().unwrap()
}

/// One streaming pass of `source` through a fresh instance of each
/// `(kind, caches)`.
fn one_pass<S: ChunkSource>(
    protocols: &[(ProtocolKind, usize)],
    source: &mut S,
    cfg: &RunConfig,
) -> Vec<Result<RunResult, String>> {
    let mut boxed: Vec<Box<dyn Protocol>> =
        protocols.iter().map(|&(kind, caches)| build(kind, caches)).collect();
    let mut protocols: Vec<&mut dyn Protocol> = boxed.iter_mut().map(|p| p.as_mut()).collect();
    run_chunked_many(&mut protocols, source, cfg)
}

fn assert_same(want: &Result<RunResult, String>, got: &Result<RunResult, String>, what: &str) {
    match (want, got) {
        (Ok(w), Ok(g)) => {
            assert_eq!(w.counters, g.counters, "{what}");
            assert_eq!(w.refs, g.refs, "{what}");
            assert_eq!(w.violations, g.violations, "{what}");
        }
        (Err(w), Err(g)) => assert_eq!(w, g, "{what}"),
        _ => panic!("{what}: expected {:?}, got {:?}", want.as_ref().err(), got.as_ref().err()),
    }
}

#[test]
fn chunked_replay_is_bit_identical_for_every_scheme_trace_and_filter() {
    let store = store();
    let kinds = default_kinds();
    let four: Vec<(ProtocolKind, usize)> = kinds.iter().map(|&kind| (kind, 4)).collect();
    for cfg in [cfg(), RunConfig::verifying(500)] {
        for trace in 0..store.num_traces() {
            for filter in [TraceFilter::Full, TraceFilter::ExcludeLockSpins] {
                let records: Vec<TraceRecord> = store.records(trace, filter).iter().collect();
                let soa = store.soa(trace, filter, cfg.geometry, cfg.sharing);
                // Odd chunk size exercises chunk-boundary handling. The
                // streaming path interns its own (filtered) stream order
                // while the store's dense ids come from the full stream —
                // both are bijective renamings, so counters must agree.
                let source = || IterChunks::new(records.iter().copied().map(Ok), 997);
                let together = one_pass(&four, &mut source(), &cfg);
                for (&kind, together) in kinds.iter().zip(&together) {
                    let what = format!("{kind} trace {trace} {filter:?} {:?}", cfg.sharing);
                    let serial = Ok(run_indexed(kind, 4, &soa, &cfg).unwrap());
                    let mut p = build(kind, 4);
                    let lone = run_chunked(p.as_mut(), &mut source(), &cfg);
                    assert_same(&serial, &lone, &format!("lone: {what}"));
                    assert_same(&serial, together, &format!("one pass: {what}"));
                }
            }
        }
    }
}

#[test]
fn v2_file_replay_is_bit_identical_to_in_memory() {
    let store = store();
    let cfg = cfg();
    let records: Vec<TraceRecord> = store.records(1, TraceFilter::Full).iter().collect();
    let soa = store.soa(1, TraceFilter::Full, cfg.geometry, cfg.sharing);
    // Encode to an in-memory v2 "file" with a small chunk size, then
    // stream it back through the engine.
    let bytes = encode(&records, 1_024);
    for kind in default_kinds() {
        let serial = run_indexed(kind, 4, &soa, &cfg).unwrap();
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
    let bytes = encode(&records, 256);
    // Drop the footer and half the final chunk: the engine must surface a
    // read error, not silently replay a shorter trace.
    let cut = bytes.len() - 40;
    let mut reader = ChunkedReader::new(&bytes[..cut]).unwrap();
    let mut p = build(dircc_check::default_kinds()[0], 4);
    let err = run_chunked(p.as_mut(), &mut reader, &RunConfig::default()).unwrap_err();
    assert!(err.contains("trace read failed"), "got: {err}");
}

/// Byte offset of record `k`'s tag in the first chunk of a v2 file: past
/// the file and chunk headers, then `k` records of a tag byte and three
/// LEB128 fields (cpu, pid, address delta).
fn tag_offset(bytes: &[u8], k: usize) -> usize {
    let mut at = 5 + 17;
    for _ in 0..k {
        at += 1;
        for _ in 0..3 {
            while bytes[at] & 0x80 != 0 {
                at += 1;
            }
            at += 1;
        }
    }
    at
}

/// Error precedence in one pass: each protocol's result — an error at a
/// protocol, a read error, or a clean finish — is exactly its lone
/// `run_chunked` result, and one protocol's error stops no other.
#[test]
fn one_pass_errors_match_lone_runs() {
    let cfg = RunConfig::default().with_process_sharing();
    // Every default scheme with 4 caches, which the CPU-9 record below
    // overflows, and with 10, which it does not.
    let protocols: Vec<(ProtocolKind, usize)> =
        default_kinds().into_iter().flat_map(|kind| [(kind, 4), (kind, 10)]).collect();
    let bad_cpu = 10_000;
    let stream = |refs: u64| {
        let mut records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(refs), 5).collect();
        let cpu9 =
            TraceRecord::new(CpuId::new(9), ProcessId::new(9), AccessKind::Read, Address::new(64));
        records.insert(bad_cpu, cpu9);
        records
    };

    // An out-of-range CPU in the middle of one chunk, larger than a batch.
    let mid = encode(&stream(20_000), 1 << 16);
    // The same stream in 4,500-record chunks, cut inside the last one:
    // the 4-cache runs stop at the CPU before the read error.
    let mut truncated = encode(&stream(20_000), 4_500);
    truncated.truncate(truncated.len() - 40);
    // Unknown tag bits deep inside a default-size (65,536-record) chunk.
    let mut bad_tag = encode(&stream(70_000), 1 << 16);
    let at = tag_offset(&bad_tag, 50_000);
    bad_tag[at] |= 0x40;

    let cases: [(&str, &[u8], Option<&str>); 3] = [
        ("out-of-range cpu", &mid, None),
        ("truncated file", &truncated, Some("trace read failed: trace truncated")),
        ("unknown tag bits", &bad_tag, Some("trace read failed: unknown bits in record tag")),
    ];
    for (name, bytes, read_error) in cases {
        let together = one_pass(&protocols, &mut ChunkedReader::new(bytes).unwrap(), &cfg);
        for (&(kind, caches), together) in protocols.iter().zip(&together) {
            let what = format!("{name}: {kind} with {caches} caches");
            let mut p = build(kind, caches);
            let lone = run_chunked(p.as_mut(), &mut ChunkedReader::new(bytes).unwrap(), &cfg);
            assert_same(&lone, together, &what);
            // The case exercises what it names.
            match (caches, read_error) {
                (4, _) => {
                    let err = lone.unwrap_err();
                    let want = format!("reference {}: cache index 9 out of range", bad_cpu + 1);
                    assert!(err.starts_with(&want), "{what}: {err}");
                }
                (_, None) => assert_eq!(lone.unwrap().refs, 20_001, "{what}"),
                (_, Some(read_error)) => {
                    let err = lone.unwrap_err();
                    assert!(err.starts_with(read_error), "{what}: {err}");
                }
            }
        }
    }
}
