//! Pins the tentpole invariant of the dense-replay rewrite: interned
//! (dense-id) replay is bit-identical to on-the-fly replay for every
//! paper workload, protocol family, filter and cache model.

use dircc_core::{build, ProtocolKind};
use dircc_sim::engine::{run, run_indexed, RunConfig};
use dircc_sim::{TraceFilter, Workbench};
use dircc_trace::gen::Profile;

const KINDS: &[ProtocolKind] = &[
    ProtocolKind::DirNb { pointers: 1 },
    ProtocolKind::Dir0B,
    ProtocolKind::DirB { pointers: 1 },
    ProtocolKind::CodedSet,
    ProtocolKind::Wti,
    ProtocolKind::Dragon,
    ProtocolKind::Berkeley,
];

#[test]
fn indexed_replay_matches_streaming_replay_on_all_workloads() {
    let wb = Workbench::paper_scaled(40_000, 5);
    let store = wb.store();
    let cfg = RunConfig::default().with_process_sharing();
    for trace in 0..wb.num_traces() {
        for filter in TraceFilter::ALL {
            let records = store.records(trace, filter);
            let soa = store.soa(trace, filter, cfg.geometry, cfg.sharing);
            for &kind in KINDS {
                let mut raw = build(kind, wb.n_caches());
                let a = run(raw.as_mut(), records.iter(), &cfg).expect("streaming run");
                let b = run_indexed(kind, wb.n_caches(), &soa, &cfg).expect("indexed run");
                assert_eq!(
                    a.counters, b.counters,
                    "{kind} on trace {trace} {filter:?}: dense replay diverged"
                );
                assert_eq!(a.refs, b.refs);
            }
        }
    }
}

#[test]
fn indexed_replay_matches_with_finite_caches_and_verifier() {
    use dircc_cache::FiniteCacheConfig;
    let wb = Workbench::with_profiles(vec![Profile::thor().with_total_refs(30_000)], 9);
    let store = wb.store();
    // Finite tag stores select sets from raw address bits, so eviction
    // patterns must survive the renaming untouched.
    let cfg = RunConfig {
        verify: true,
        ..RunConfig::default()
            .with_process_sharing()
            .with_finite_caches(FiniteCacheConfig::new(64, 2))
    };
    let records = store.records(0, TraceFilter::Full);
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    for &kind in KINDS {
        let mut raw = build(kind, wb.n_caches());
        let a = run(raw.as_mut(), records.iter(), &cfg).expect("streaming run");
        let b = run_indexed(kind, wb.n_caches(), &soa, &cfg).expect("indexed run");
        assert_eq!(a.counters, b.counters, "{kind}: finite-cache dense replay diverged");
        assert!(a.violations.is_empty(), "{kind}: {:?}", a.violations);
        assert!(b.violations.is_empty(), "{kind}: {:?}", b.violations);
        assert!(a.counters.cache_evictions() > 0, "{kind}: thrash must evict");
    }
}

#[test]
fn out_of_range_cache_error_reports_the_record() {
    use dircc_trace::TraceRecord;
    use dircc_types::{AccessKind, Address, CpuId, ProcessId};
    let trace = vec![TraceRecord::new(
        CpuId::new(7),
        ProcessId::new(9),
        AccessKind::Write,
        Address::new(0x1230),
    )];
    let mut p = build(ProtocolKind::Dir0B, 4);
    let err = run(p.as_mut(), trace, &RunConfig::default()).unwrap_err();
    for needle in ["cpu7", "pid9", "Write", "0x1230", "4 caches"] {
        assert!(err.contains(needle), "error {err:?} must mention {needle:?}");
    }
}
