//! Instruction placement from the data bits.
//!
//! In-memory streams hold data references only; one bit per reference
//! places the instruction fetches for windows, for the invariant cadence
//! (which skips a boundary landing on an instruction fetch) and for the
//! reference numbers in messages. Random traces with random
//! instruction runs — runs crossing 64-reference words and
//! `BATCH_RECORDS` batches, traces that start or end with instruction
//! fetches, traces with no data reference at all, and the odd
//! out-of-range CPU — replay through every batch source: streaming
//! `run` and `run_indexed` over columns built by the same ingest. They
//! must agree on counters, windows, violations and errors.

use dircc_cache::FiniteCacheConfig;
use dircc_core::{build, ProtocolKind};
use dircc_sim::{run, run_indexed, RunConfig, RunResult};
use dircc_trace::chunk::BATCH_RECORDS;
use dircc_trace::{SoaStream, TraceRecord};
use dircc_types::{AccessKind, Address, CpuId, ProcessId};
use proptest::prelude::*;

const CPUS: usize = 4;

/// One step of a random trace: a data reference (`op` 0–3) or a run of
/// instruction fetches (`op` 4–5 short, 6 about a 64-reference word, 7
/// about a replay batch).
#[derive(Debug, Clone, Copy)]
struct Step {
    cpu: u16,
    op: u8,
    block: u64,
    len: usize,
}

fn fetches(n: usize, out: &mut Vec<TraceRecord>) {
    let at = |i: usize| Address::new(0x10_0000 + 4 * i as u64);
    let fetch =
        |i| TraceRecord::new(CpuId::new(0), ProcessId::new(0), AccessKind::InstrFetch, at(i));
    out.extend((0..n).map(fetch));
}

/// The records of `steps`, with `lead` and `tail` instruction fetches
/// around them; `no_data` turns every data step into one fetch.
fn trace(steps: &[Step], lead: usize, tail: usize, no_data: bool) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    fetches(lead, &mut out);
    for s in steps {
        match s.op {
            0..=3 if no_data => fetches(1, &mut out),
            0..=3 => {
                // Rarely CPU 4, out of range for 4 caches: a bounds error.
                let cpu = if s.cpu == 4 && s.len + s.block as usize == 0 { 4 } else { s.cpu % 4 };
                let kind = if s.op % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
                let addr = Address::new(s.block * 16 + s.len as u64);
                out.push(TraceRecord::new(CpuId::new(cpu), ProcessId::new(cpu), kind, addr));
            }
            4 | 5 => fetches(1 + s.len % 3, &mut out),
            6 => fetches(58 + s.len, &mut out),
            _ => fetches(BATCH_RECORDS - 6 + s.len, &mut out),
        }
    }
    fetches(tail, &mut out);
    out
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u16..5, 0u8..8, 0u64..12, 0usize..12).prop_map(|(cpu, op, block, len)| Step {
        cpu,
        op,
        block,
        len,
    });
    prop::collection::vec(step, 0..300)
}

fn same(want: &Result<RunResult, String>, got: &Result<RunResult, String>, what: &str) {
    match (want, got) {
        (Ok(w), Ok(g)) => {
            assert_eq!(w.counters, g.counters, "{what}: counters");
            assert_eq!(w.refs, g.refs, "{what}: refs");
            assert_eq!(w.violations, g.violations, "{what}: violations");
        }
        (Err(w), Err(g)) => assert_eq!(w, g, "{what}: error"),
        _ => panic!("{what}: {:?} vs {:?}", want.as_ref().err(), got.as_ref().err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_source_places_instruction_fetches_alike(
        steps in steps(),
        lead in 0usize..100,
        tail in 0usize..100,
        no_data in 0u8..6,
        every in 1u64..80,
        window in 1u64..150,
    ) {
        // Four in ten traces start (end) with a data reference, if any.
        let records = trace(&steps, lead.saturating_sub(40), tail.saturating_sub(40), no_data == 0);
        let plain = RunConfig {
            verify: true,
            check_invariants_every: every,
            ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 2))
        };
        let windowed = RunConfig { window, ..plain };
        let soa = SoaStream::build(records.iter().copied(), plain.geometry, plain.sharing);
        prop_assert_eq!(soa.refs(), records.len() as u64);
        for kind in [ProtocolKind::Dir0B, ProtocolKind::DirNb { pointers: 1 }, ProtocolKind::Dragon] {
            let mut p = build(kind, CPUS);
            let streamed = run(p.as_mut(), records.iter().copied(), &windowed);
            let indexed = run_indexed(kind, CPUS, &soa, &windowed);
            same(&streamed, &indexed, &format!("{kind} indexed"));
            if let (Ok(s), Ok(i)) = (&streamed, &indexed) {
                prop_assert_eq!(&s.windows, &i.windows, "{} windows", kind);
                prop_assert_eq!(s.windows.iter().map(|w| w.refs()).sum::<u64>(), s.refs);
            }
            let serial = run_indexed(kind, CPUS, &soa, &plain);
            same(&streamed, &serial, &format!("{kind} unwindowed"));
        }
    }
}
