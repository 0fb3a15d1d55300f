//! Golden results of the one replay loop.
//!
//! The engine once carried a second, dynamically dispatched replay loop
//! that served as the reference for the structure-of-arrays loop. Its
//! results are recorded here — counter digests and verifier verdicts for
//! every scheme × trace, finite caches, windowed deltas and the
//! undersized-protocol error text — and every batch source of the
//! remaining loop (iterator, prebuilt SoA stream) must reproduce them. The SoA arrays themselves are pinned against an
//! independent AoS-derived recomputation first, so a precompute bug
//! cannot hide behind a matching replay bug.

use dircc_cache::FiniteCacheConfig;
use dircc_core::{build, ProtocolKind};
use dircc_sim::{run, run_indexed, RunConfig, SharingModel, TraceFilter, Workbench};
use dircc_trace::gen::Profile;
use dircc_trace::soa::SoaStream;
use dircc_trace::store::TraceStore;
use dircc_trace::TraceRecord;
use dircc_types::BlockGeometry;
use std::sync::Arc;

const CPUS: usize = 4;

/// Every taxonomy point the simulator replays.
const KINDS: [ProtocolKind; 14] = [
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
];

fn store() -> TraceStore {
    let profiles = Profile::paper_suite().into_iter().map(|p| p.with_total_refs(6_000)).collect();
    TraceStore::new(profiles, 9)
}

/// The values a [`SoaStream`] must hold, recomputed from the records and
/// raw addresses (no interner): per data reference its kind, cache index
/// and first-reference bit, then the instruction count.
fn soa_reference_values(
    records: &[TraceRecord],
    geometry: BlockGeometry,
    sharing: SharingModel,
) -> (Vec<dircc_types::AccessKind>, Vec<u16>, Vec<bool>, u64) {
    // Derived from raw addresses, not dense ids: renaming is a bijection,
    // so address-level and dense-id first references must agree.
    let mut seen = std::collections::HashSet::new();
    let data: Vec<&TraceRecord> = records.iter().filter(|r| r.is_data()).collect();
    let cache_of = |r: &&TraceRecord| match sharing {
        SharingModel::Processor => r.cpu.raw(),
        SharingModel::Process => r.pid.raw(),
    };
    (
        data.iter().map(|r| r.kind).collect(),
        data.iter().map(cache_of).collect(),
        data.iter().map(|r| seen.insert(geometry.block_of(r.addr))).collect(),
        (records.len() - data.len()) as u64,
    )
}

/// The SoA precompute equals an independent AoS-derived recomputation for
/// every trace × filter × geometry × sharing model — per data reference
/// its cache index, first-reference bit, kind and dense block id, plus
/// the count of instruction fetches skipped.
#[test]
fn soa_streams_match_aos_derivation_across_the_matrix() {
    let store = store();
    for trace in 0..store.num_traces() {
        for filter in TraceFilter::ALL {
            for geometry in [BlockGeometry::PAPER, BlockGeometry::new(5)] {
                for sharing in [SharingModel::Processor, SharingModel::Process] {
                    let records: Vec<TraceRecord> = store.records(trace, filter).iter().collect();
                    let soa = store.soa(trace, filter, geometry, sharing);
                    let (kinds, cache_idx, first_ref, instr) =
                        soa_reference_values(&records, geometry, sharing);
                    let label = format!("trace {trace} {filter:?} {geometry:?} {sharing:?}");
                    assert_eq!(soa.len(), kinds.len(), "{label}: data references");
                    assert_eq!(soa.data.instr, instr, "{label}: instruction fetches");
                    assert_eq!(soa.cache_idx(), cache_idx, "{label}: cache indices");
                    assert_eq!(soa.data.first_ref, first_ref, "{label}: first-ref bits");
                    assert_eq!(soa.data.kind, kinds, "{label}: kinds");
                    let dense = store.dense_blocks(trace, filter, geometry);
                    assert_eq!(dense.len(), records.len(), "{label}: dense ids per record");
                    let data = (0..records.len()).filter(|&j| records[j].is_data());
                    for (d, j) in data.enumerate() {
                        assert_eq!(soa.data.block_id[d], dense[j], "{label}: block id at {j}");
                    }
                    assert_eq!(
                        soa.max_cache_idx,
                        cache_idx.iter().copied().max().unwrap_or(0),
                        "{label}: max cache index"
                    );
                }
            }
        }
    }
}

// Golden results, recorded from the former dynamically dispatched
// reference loop at the commit that retired it. The MESI row and the
// WTI, Dragon, Write-Once and Firefly finite rows came later, recorded
// from the one loop before the six snoopy schemes became one state
// machine.

/// `(counter digest, violation count)` per [`KINDS`] entry × trace
/// (POPS, THOR, PERO) at 6k refs, seed 9, process sharing, verifier on.
const GOLDEN_SERIAL: [[(u64, usize); 3]; 14] = [
    [(0x5900cfbe19d65e3e, 0), (0xc6dd1da6ec1364f9, 0), (0x1b5a8c12d76fc28a, 0)],
    [(0x92e6cca5658fe093, 0), (0x1c5260020b31eb29, 0), (0x3c542eef6640d389, 0)],
    [(0xbfe193952056c8be, 0), (0xcbd31f8ad263b9a8, 0), (0xc4a1d2e59579b0b5, 0)],
    [(0xba6b2b4bfff30627, 0), (0x2e0bf1097251e3b6, 0), (0xee3f4964a26504f5, 0)],
    [(0xd72027eec3218ba3, 0), (0xd30d51fc783b4f56, 0), (0xc4a1d2e59579b0b5, 0)],
    [(0x170677bdc92a97e8, 0), (0xff38ed986f79a4fd, 0), (0xc4a1d2e59579b0b5, 0)],
    [(0xbfe193952056c8be, 0), (0xcbd31f8ad263b9a8, 0), (0xc4a1d2e59579b0b5, 0)],
    [(0x957cb8fe490b0faa, 0), (0x6dd3fb83432dcc49, 0), (0x853ac6eab6ed8e5c, 0)],
    [(0xd4ba69846263a095, 0), (0x7e2bcc6d93c8243e, 0), (0x547df2bf74c53113, 0)],
    [(0x3c522dcd34c7e25f, 0), (0x25cc276e5a7f1143, 0), (0x3f15ab99c61b89e1, 0)],
    [(0x108e5e14cc8657f2, 0), (0xf7b8ecc7f7c6edbd, 0), (0x6b4dc4c1a0dca23a, 0)],
    [(0x0fa1c4e6285c8f77, 0), (0x04ddfb4bae872644, 0), (0xc40dcde6b2c4579c, 0)],
    [(0xd3536e5890918eff, 0), (0x97365f84906f66cb, 0), (0x2556c21b3603f601, 0)],
    [(0x573f1c48892b75aa, 0), (0x69d0a141fb0a4f29, 0), (0x5852e132eb32ca96, 0)],
];

/// The finite-cache kinds of [`GOLDEN_FINITE`]: every snoopy scheme,
/// since their eviction write-backs show only here, plus Dir0B.
const FINITE_KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Dir0B,
    ProtocolKind::Berkeley,
    ProtocolKind::Mesi,
    ProtocolKind::Wti,
    ProtocolKind::Dragon,
    ProtocolKind::WriteOnce,
    ProtocolKind::Firefly,
];

/// As [`GOLDEN_SERIAL`] for 4-set × 2-way finite caches.
const GOLDEN_FINITE: [[(u64, usize); 3]; 7] = [
    [(0xbb963ba394c1938f, 0), (0xb651698c47e0396e, 0), (0x45eef2d59b95c1e7, 0)],
    [(0x00cbd24633debda4, 0), (0x96519a75ddb14be5, 0), (0x6819c3666ab3d5d4, 0)],
    [(0x5cb4feb8e1246e5d, 0), (0xabceecc1a943292b, 0), (0xcc2d9e6119a025b4, 0)],
    [(0xc3e635bfa36fe744, 0), (0x40e32404d9afd02d, 0), (0x30a8ade67f3ab389, 0)],
    [(0xd8ca8c219bf70338, 0), (0x13cb088f9a2dd100, 0), (0xf07db99048c69f19, 0)],
    [(0x1fad8e567f015ff3, 0), (0x5b4660c566363be3, 0), (0xcdf295f09bfd411d, 0)],
    [(0xb37dda42c1b0a13c, 0), (0x8bd6ddb2734aeec4, 0), (0xfd9ef154b138021a, 0)],
];

/// `(window count, FNV fold of per-window digests)` of POPS windowed at
/// 700 refs, for Dir0B then Dragon.
const GOLDEN_WINDOWS: [(usize, u64); 2] = [(9, 0x81b4b7d79fa88149), (9, 0x105f02fdd1df6dd3)];

/// The undersized-protocol error: Dir0B sized for 2 caches on POPS.
const GOLDEN_BOUNDS_ERROR: &str = "reference 4: cache index 2 out of range for 2 caches \
     (cpu2, pid2, Read at 0x40000000; did you size the protocol for the sharing model?)";

fn golden(res: &dircc_sim::RunResult) -> (u64, usize) {
    (res.counters.digest(), res.violations.len())
}

/// Streamed and indexed replay of every scheme on every trace reproduce
/// the recorded counters and verdicts.
#[test]
fn golden_counters_for_every_scheme() {
    let store = store();
    let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
    for (kind, row) in KINDS.into_iter().zip(GOLDEN_SERIAL) {
        for (trace, want) in row.into_iter().enumerate() {
            let records = store.records(trace, TraceFilter::Full);
            let mut p = build(kind, CPUS);
            let res = run(p.as_mut(), records.iter(), &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} serial");
            let soa = store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
            let res = run_indexed(kind, CPUS, &soa, &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} indexed");
        }
    }
}

/// Finite caches (evictions, write-backs, verifier) reproduce the
/// recorded counters.
#[test]
fn golden_finite_cache_counters() {
    let store = store();
    let cfg = RunConfig {
        verify: true,
        ..RunConfig::default()
            .with_process_sharing()
            .with_finite_caches(FiniteCacheConfig::new(4, 2))
    };
    for (kind, row) in FINITE_KINDS.into_iter().zip(GOLDEN_FINITE) {
        for (trace, want) in row.into_iter().enumerate() {
            let records = store.records(trace, TraceFilter::Full);
            let mut p = build(kind, CPUS);
            let res = run(p.as_mut(), records.iter(), &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} finite");
            let soa = store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
            let res = run_indexed(kind, CPUS, &soa, &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} finite indexed");
        }
    }
}

/// With the verifier off, finite runs take the loop's quiet body, which
/// must reproduce the same recorded counters.
#[test]
fn golden_finite_cache_counters_on_the_quiet_body() {
    let store = store();
    let cfg = RunConfig::default()
        .with_process_sharing()
        .with_finite_caches(FiniteCacheConfig::new(4, 2));
    for (kind, row) in FINITE_KINDS.into_iter().zip(GOLDEN_FINITE) {
        for (trace, want) in row.into_iter().enumerate() {
            let records = store.records(trace, TraceFilter::Full);
            let mut p = build(kind, CPUS);
            let res = run(p.as_mut(), records.iter(), &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} quiet finite");
            let soa = store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
            let res = run_indexed(kind, CPUS, &soa, &cfg).unwrap();
            assert_eq!(golden(&res), want, "{kind} trace {trace} quiet finite indexed");
        }
    }
}

fn window_fold(windows: &[dircc_obs::WindowSample]) -> (usize, u64) {
    let fold = windows.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w.counters.digest()).wrapping_mul(0x0100_0000_01b3)
    });
    (windows.len(), fold)
}

/// Windowed recording, direct and through the workbench, reproduces the
/// recorded per-window deltas.
#[test]
fn golden_window_digests() {
    let store = Arc::new(store());
    let wb = Workbench::with_store(Arc::clone(&store)).with_window(700);
    let cfg = RunConfig { window: 700, ..RunConfig::default().with_process_sharing() };
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    for (kind, want) in [ProtocolKind::Dir0B, ProtocolKind::Dragon].into_iter().zip(GOLDEN_WINDOWS)
    {
        let _ = wb.counters(kind, 0, TraceFilter::Full);
        let series = wb.time_series();
        let s = series.iter().find(|s| s.kind == kind).expect("windowed run leaves a series");
        assert_eq!(window_fold(&s.windows), want, "{kind} workbench window digests");
        let res = run_indexed(kind, CPUS, &soa, &cfg).unwrap();
        assert_eq!(window_fold(&res.windows), want, "{kind} window digests");
    }
}

/// An undersized protocol fails with the recorded error text.
#[test]
fn golden_bounds_error_text() {
    let store = store();
    let cfg = RunConfig::default().with_process_sharing();
    let records = store.records(0, TraceFilter::Full);
    let mut p = build(ProtocolKind::Dir0B, 2);
    let err = run(p.as_mut(), records.iter(), &cfg).unwrap_err();
    assert_eq!(err, GOLDEN_BOUNDS_ERROR);
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    let err = run_indexed(ProtocolKind::Dir0B, 2, &soa, &cfg).unwrap_err();
    assert_eq!(err, GOLDEN_BOUNDS_ERROR);
}

/// Wrong-sharing SoA streams are rejected up front, empty or not.
#[test]
fn mismatched_soa_streams_are_rejected() {
    let empty = SoaStream::build([], BlockGeometry::PAPER, SharingModel::Process);
    let cfg = RunConfig::default();
    // Sharing mismatch: cfg defaults to Processor, stream is Process.
    let err = run_indexed(ProtocolKind::Wti, CPUS, &empty, &cfg).unwrap_err();
    assert!(err.contains("sharing"), "unexpected error: {err}");
    // A stored stream split under the wrong sharing model.
    let store = store();
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    let process = cfg.with_process_sharing();
    let err = run_indexed(ProtocolKind::Wti, CPUS, &soa, &process).unwrap_err();
    assert!(err.contains("sharing"), "unexpected error: {err}");
}

/// Two workbenches sharing one store generate each trace only once and
/// agree on every run.
#[test]
fn workbench_shares_the_store() {
    let store = Arc::new(store());
    let first = Workbench::with_store(Arc::clone(&store));
    let second = Workbench::with_store(Arc::clone(&store));
    for kind in [ProtocolKind::DirNb { pointers: 1 }, ProtocolKind::Dragon, ProtocolKind::Tang] {
        for trace in 0..first.num_traces() {
            for filter in TraceFilter::ALL {
                assert_eq!(
                    *first.counters(kind, trace, filter),
                    *second.counters(kind, trace, filter),
                    "{kind} trace {trace} {filter:?} diverged across workbenches"
                );
            }
        }
    }
    assert_eq!(store.generations(), store.num_traces() as u64, "each trace generated once");
}
