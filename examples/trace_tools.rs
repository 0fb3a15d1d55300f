//! Trace tooling tour: generate, serialize, reload and inspect a trace.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```
//!
//! Demonstrates the trace substrate end to end: synthesize a THOR-like
//! trace, write it in the chunked v2 format, stream it back, verify the
//! round-trip, print Table 3-style statistics, and print the first few
//! records.

use dircc::trace::gen::{Generator, Profile};
use dircc::trace::stats::TraceStats;
use dircc::trace::{ChunkedReader, ChunkedWriter, TraceRecord};
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = Profile::thor().with_total_refs(100_000);
    let records: Vec<TraceRecord> = Generator::new(profile, 2024).collect();

    // Serialize to the chunked v2 format.
    let path = std::env::temp_dir().join(format!("dircc_demo_trace_{}.dcct", std::process::id()));
    let file = std::fs::File::create(&path)?;
    let mut writer = ChunkedWriter::new(BufWriter::new(file));
    writer.write_all(&records)?;
    writer.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} records to {} ({} bytes, {:.2} bytes/record)",
        records.len(),
        path.display(),
        bytes,
        bytes as f64 / records.len() as f64
    );

    // Stream it back and verify the round-trip.
    let file = std::fs::File::open(&path)?;
    let reloaded: Vec<TraceRecord> =
        ChunkedReader::new(BufReader::new(file))?.records().collect::<Result<_, _>>()?;
    std::fs::remove_file(&path)?;
    assert_eq!(reloaded, records, "v2 round-trip must be lossless");
    println!("round-trip verified");
    println!();

    // Table 3-style statistics.
    let stats: TraceStats = reloaded.iter().collect();
    println!("trace statistics:");
    println!("  references : {}", stats.total());
    println!("  instr      : {:.2}%", 100.0 * stats.instr_fraction());
    println!("  reads      : {:.2}%", 100.0 * stats.read_fraction());
    println!("  writes     : {:.2}%", 100.0 * stats.write_fraction());
    println!("  system     : {:.2}%", 100.0 * stats.system_fraction());
    println!("  lock spins : {:.2}% of reads", 100.0 * stats.spin_fraction_of_reads());
    println!("  blocks     : {}", stats.distinct_data_blocks());
    println!();

    println!("first 10 records (cpu pid kind addr flags):");
    for r in &reloaded[..10] {
        println!("  {r}");
    }
    Ok(())
}
