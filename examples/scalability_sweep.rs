//! Scalability sweep (extending the paper's §6 beyond 4 CPUs).
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```
//!
//! The paper closes by noting that "an accurate evaluation of the
//! tradeoffs will require traces from a much larger number of processors".
//! The synthetic workload generator can produce those traces, so this
//! example runs the §6 alternatives — full-map `DirnNB`, limited-pointer
//! `DiriNB`/`DiriB`, the coded-set scheme and broadcast `Dir0B` — on
//! machines of 4 to 32 CPUs and reports cycles/ref plus the quantity that
//! actually gates scaling: invalidation *messages* per reference.

use dircc::bus::{CostConfig, CostModel};
use dircc::core::ProtocolKind;
use dircc::sim::engine::{run_indexed, RunConfig};
use dircc::sim::metrics::Evaluation;
use dircc::sim::{default_jobs, par_map_indexed};
use dircc::trace::gen::Profile;
use dircc::trace::{TraceFilter, TraceStore};

const REFS: u64 = 300_000;

struct Row {
    cycles: f64,
    messages_per_kref: f64,
    broadcasts_per_kref: f64,
}

fn measure(store: &TraceStore, kind: ProtocolKind, cpus: u16) -> Result<Row, String> {
    let cfg = RunConfig::default().with_process_sharing();
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    let result = run_indexed(kind, usize::from(cpus), &soa, &cfg)?;
    let c = result.counters;
    let per_kref = |n: u64| 1000.0 * n as f64 / c.total() as f64;
    let messages_per_kref = per_kref(c.control_messages());
    let broadcasts_per_kref = per_kref(c.broadcasts());
    let eval = Evaluation::new(kind.display_name(usize::from(cpus)), kind, usize::from(cpus), c);
    Ok(Row {
        cycles: eval.cycles_per_ref(&CostModel::pipelined(), &CostConfig::PAPER),
        messages_per_kref,
        broadcasts_per_kref,
    })
}

fn main() -> Result<(), String> {
    let kinds_at = |cpus: u16| {
        [
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::DirB { pointers: 2 },
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::DirNb { pointers: 4 },
            ProtocolKind::DirNb { pointers: u32::from(cpus) },
            ProtocolKind::CodedSet,
        ]
    };
    for cpus in [4u16, 8, 16, 32] {
        println!("=== {cpus} CPUs ===");
        println!(
            "{:<12} {:>10} {:>12} {:>12}",
            "scheme", "cycles/ref", "invals/kref", "bcasts/kref"
        );
        // One ingest-once store per machine size; the scheme runs fan
        // out over worker threads and print in a fixed order.
        let store =
            TraceStore::new(vec![Profile::custom().with_cpus(cpus).with_total_refs(REFS)], 3);
        let kinds = kinds_at(cpus);
        let rows =
            par_map_indexed(kinds.len(), default_jobs(), |i| measure(&store, kinds[i], cpus));
        for (kind, row) in kinds.into_iter().zip(rows) {
            let row = row?;
            println!(
                "{:<12} {:>10.4} {:>12.2} {:>12.2}",
                kind.display_name(usize::from(cpus)),
                row.cycles,
                row.messages_per_kref,
                row.broadcasts_per_kref
            );
        }
        println!();
    }
    println!("Broadcast schemes (Dir0B) hold their cycle count but every");
    println!("broadcast touches all n caches; limited-pointer directories");
    println!("keep the message count (the real scaling cost) nearly flat,");
    println!("which is the paper's argument for Dir_i_NB at scale.");
    Ok(())
}
