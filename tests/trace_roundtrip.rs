//! Property tests for the chunked v2 trace codec and generator determinism.

use dircc::trace::chunk::{ChunkedReader, ChunkedWriter, BATCH_RECORDS, DEFAULT_CHUNK_RECORDS};
use dircc::trace::gen::{Generator, Profile};
use dircc::trace::{RecordFlags, TraceRecord};
use dircc::types::{AccessKind, Address, CpuId, ProcessId};
use proptest::prelude::*;

/// Any record the format can hold: full `u16` cpu and pid, any `u64`
/// address, every access kind and every defined flag bit.
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (any::<u16>(), any::<u16>(), 0u8..3, any::<u64>(), 0..RecordFlags::ALL.bits() + 1).prop_map(
        |(cpu, pid, kind, addr, flags)| {
            let kind = match kind {
                0 => AccessKind::InstrFetch,
                1 => AccessKind::Read,
                _ => AccessKind::Write,
            };
            TraceRecord {
                cpu: CpuId::new(cpu),
                pid: ProcessId::new(pid),
                kind,
                addr: Address::new(addr),
                flags: RecordFlags::from_bits(flags),
            }
        },
    )
}

fn encode(records: &[TraceRecord], chunk: usize) -> Vec<u8> {
    let mut w = ChunkedWriter::with_chunk_records(Vec::new(), chunk);
    w.write_all(records).unwrap();
    w.finish().unwrap()
}

fn decode(bytes: &[u8]) -> std::io::Result<Vec<TraceRecord>> {
    ChunkedReader::new(bytes)?.records().collect()
}

proptest! {
    #[test]
    fn binary_codec_round_trips(
        records in prop::collection::vec(arb_record(), 0..200),
        chunk in 1usize..65
    ) {
        let got = decode(&encode(&records, chunk)).unwrap();
        prop_assert_eq!(got, records);
    }

    #[test]
    fn binary_encoding_is_compact(
        records in prop::collection::vec(arb_record(), 1..200),
        chunk in 1usize..65
    ) {
        // File header (5) and footer (17), a 17-byte header per chunk, and
        // per record a tag byte plus three LEB128 fields of 1 to 10 bytes.
        let framing = 5 + 17 + 17 * records.len().div_ceil(chunk);
        let len = encode(&records, chunk).len();
        prop_assert!(len <= framing + records.len() * 31);
        prop_assert!(len >= framing + records.len() * 4);
    }

    #[test]
    fn truncating_a_binary_trace_never_panics(
        records in prop::collection::vec(arb_record(), 1..50),
        chunk in 1usize..65,
        cut in 0usize..1000
    ) {
        // Any strict prefix must fail to decode (a header, section or
        // footer cut short), never decode cleanly and never panic.
        let bytes = encode(&records, chunk);
        let cut = cut % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err(), "cut at {} of {} decoded", cut, bytes.len());
    }

    #[test]
    fn every_single_byte_change_is_detected(
        records in prop::collection::vec(arb_record(), 1..40),
        chunk in 1usize..65,
        flip in 0u8..255
    ) {
        // FNV-1a's step is a bijection per byte, so changing any one byte
        // of a section changes the checksum; framing checks may fail
        // first. Either way, no changed file decodes and none panics.
        let (bytes, flip) = (encode(&records, chunk), flip + 1);
        prop_assert_eq!(decode(&bytes).unwrap(), records);
        for at in 0..bytes.len() {
            let mut changed = bytes.clone();
            changed[at] ^= flip;
            prop_assert!(decode(&changed).is_err(), "byte {} of {} ^ {:#04x}", at, bytes.len(), flip);
        }
    }

    #[test]
    fn generator_is_deterministic(seed in any::<u64>()) {
        let p = Profile::pero().with_total_refs(2_000);
        let a: Vec<TraceRecord> = Generator::new(p.clone(), seed).collect();
        let b: Vec<TraceRecord> = Generator::new(p, seed).collect();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunks_decoded_over_several_batches_round_trip(
        records in prop::collection::vec(arb_record(), 0..3 * BATCH_RECORDS + 16),
        chunk in BATCH_RECORDS - 8..2 * BATCH_RECORDS + 9
    ) {
        // A chunk past one batch is decoded over several calls, with the
        // folded checksum carried from each call to the next; a fold that
        // dropped or repeated bytes there would fail the footer check.
        let got = decode(&encode(&records, chunk)).unwrap();
        prop_assert_eq!(got, records);
    }
}

#[test]
fn generated_traces_round_trip_through_the_binary_codec() {
    let records: Vec<TraceRecord> =
        Generator::new(Profile::thor().with_total_refs(30_000), 5).collect();
    let bytes = encode(&records, DEFAULT_CHUNK_RECORDS);
    assert_eq!(decode(&bytes).unwrap(), records);
    assert!(
        bytes.len() < records.len() * 8,
        "generated traces should encode compactly: {} bytes for {} records",
        bytes.len(),
        records.len()
    );
}
