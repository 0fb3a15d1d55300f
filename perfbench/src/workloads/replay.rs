//! The two replay workloads.
//!
//! `replay_matrix` replays the paper matrix in memory: set-up builds one
//! trace store (generation, filtering, interning, SoA split) and the
//! measured part is replay alone: an operation is one pass over the
//! matrix's 42 runs, one run at a time, as `Workbench::warm(.., 1)` does
//! it. `replay_file` is the streaming path: `dircc replay --in` of a
//! recorded v2 trace, where chunk decoding and on-the-fly interning show
//! and the in-memory SoA streams do not.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dircc_core::ProtocolKind;
use dircc_sim::{filter_label, run_chunked, RunConfig, TraceFilter, Workbench};
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::store::TraceStore;
use dircc_trace::{open_trace, ChunkSource, ChunkedWriter, TraceRecord};

use super::paper_all::build_streams;
use super::{cpr_error, replay_costs, setup, Checks, Ctx, Run, Traced};
use crate::host;
use crate::spans::Tracer;

// ---------------------------------------------------------------------
// replay_matrix
// ---------------------------------------------------------------------

fn profiles(ctx: &Ctx) -> Vec<Profile> {
    let suite = Profile::paper_suite();
    match ctx.refs() {
        Some(n) => suite.into_iter().map(|p| p.with_total_refs(n)).collect(),
        None => suite,
    }
}

/// A trace store with every stream the matrix replays already built.
fn ready_store(ctx: &Ctx, tracer: &Tracer, parent: Option<u64>) -> Arc<TraceStore> {
    let store = Arc::new(TraceStore::new(profiles(ctx), ctx.seed));
    let work = Workbench::with_store(Arc::clone(&store)).paper_workload();
    build_streams(&store, &work, tracer, parent);
    store
}

/// The (scheme, trace, filter) runs of the paper matrix, in the order
/// `Workbench::warm` runs them.
fn matrix(wb: &Workbench) -> Vec<(ProtocolKind, usize, TraceFilter)> {
    wb.paper_workload()
        .into_iter()
        .flat_map(|(kind, filter)| (0..wb.num_traces()).map(move |t| (kind, t, filter)))
        .collect()
}

type DigestKey = (String, String, String);

fn digests(wb: &Workbench) -> HashMap<DigestKey, String> {
    let names = wb.trace_names();
    matrix(wb)
        .into_iter()
        .map(|(kind, t, filter)| {
            let key = (
                kind.display_name(wb.n_caches()),
                names[t].clone(),
                filter_label(filter).to_string(),
            );
            (key, format!("{:016x}", wb.counters(kind, t, filter).digest()))
        })
        .collect()
}

/// The counter digests `dircc bench` checked in for seed 1988:
/// `BENCH_replay.json` at paper scale, `BENCH_smoke.json` under
/// `--smoke`. `None` at any other seed.
fn golden(ctx: &Ctx) -> Result<Option<HashMap<DigestKey, String>>, String> {
    use dircc_serve::json::{self, Json};
    if ctx.seed != 1988 {
        return Ok(None);
    }
    let path = if ctx.smoke { "BENCH_smoke.json" } else { "BENCH_replay.json" };
    let text = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(runs)) = root.as_obj().and_then(|o| o.get("runs")) else {
        return Err(format!("{path}: no \"runs\" list"));
    };
    let get = |run: &Json, key: &str| -> Result<String, String> {
        run.as_obj()
            .and_then(|o| o.get(key))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: a run lacks \"{key}\""))
    };
    runs.iter()
        .map(|r| Ok(((get(r, "scheme")?, get(r, "trace")?, get(r, "filter")?), get(r, "digest")?)))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// One replay pass over the matrix on a cold run memo.
fn pass(store: &Arc<TraceStore>) -> Workbench {
    let wb = Workbench::with_store(Arc::clone(store));
    for (kind, t, filter) in matrix(&wb) {
        wb.counters(kind, t, filter);
    }
    wb
}

/// Every pass must reproduce the first pass's digests, and at seed 1988
/// the checked-in ones.
fn check_digests(
    checks: &mut Checks,
    passes: &[HashMap<DigestKey, String>],
    golden: Option<&HashMap<DigestKey, String>>,
) {
    let Some(first) = passes.first() else { return };
    for (i, p) in passes.iter().enumerate().skip(1) {
        checks.expect(p == first, || format!("replay pass {i}: counter digests drifted"));
    }
    if let Some(golden) = golden {
        for (key, digest) in first {
            checks.expect(golden.get(key) == Some(digest), || {
                format!(
                    "{}/{}/{}: digest {digest} differs from the checked-in one",
                    key.0, key.1, key.2
                )
            });
        }
    }
}

pub fn matrix_measure(ctx: &Ctx) -> Result<Run, String> {
    let golden = golden(ctx)?;
    let (setup_s, store) = setup(3, || Ok(ready_store(ctx, &Tracer::off(), None)))?;
    let mut run = Run { setup_s, ..Run::default() };
    let mut passes = Vec::new();
    let started = Instant::now();
    while ctx.keep_going(started, passes.len(), 1) {
        let t0 = Instant::now();
        let wb = pass(&store);
        run.ops.push((started.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64() * 1e3));
        passes.push(digests(&wb));
    }
    run.peak_rss_mb = host::peak_rss_mb(None).unwrap_or(0.0);
    run.checks.attempted = run.ops.len() as u64;
    check_digests(&mut run.checks, &passes, golden.as_ref());
    Ok(run)
}

pub fn matrix_traced(ctx: &Ctx, tracer: &Tracer) -> Result<Traced, String> {
    let golden = golden(ctx)?;
    let mut checks = Checks::default();
    let mut passes = Vec::new();
    let mut timings = Vec::new();
    let mut last = None;
    tracer.span("replay_matrix", None, |root| {
        let store = ready_store(ctx, tracer, root);
        let started = Instant::now();
        while ctx.keep_going(started, passes.len(), 1) {
            let wb = tracer.span("sim.replay", root, |_| pass(&store));
            checks.attempted += 1;
            timings.extend(wb.timings());
            passes.push(digests(&wb));
            last = Some(wb);
        }
    });
    check_digests(&mut checks, &passes, golden.as_ref());
    let profile = tracer.profile();
    let mut metrics = vec![
        ("trace.generate_s".to_string(), profile.self_s("trace.generate")),
        ("trace.filter_s".to_string(), profile.self_s("trace.filter")),
        ("trace.intern_s".to_string(), profile.self_s("trace.intern")),
        ("trace.soa_s".to_string(), profile.self_s("trace.soa")),
        ("sim.replay_s".to_string(), profile.self_s("sim.replay")),
        ("layers.coverage".to_string(), profile.coverage()),
    ];
    metrics.extend(replay_costs(&timings));
    if let Some(wb) = &last {
        metrics.push(cpr_error(wb));
    }
    Ok(Traced { checks, metrics, profile })
}

// ---------------------------------------------------------------------
// replay_file
// ---------------------------------------------------------------------

/// The recorded trace. One profile keeps every operation the same size,
/// so the median is a median of like with like; the streaming code path
/// is the same for every profile.
const PROFILE: &str = "pops";

/// The schemes `dircc replay` runs by default.
const REPLAY_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::DirNb { pointers: 1 },
    ProtocolKind::Wti,
    ProtocolKind::Dir0B,
    ProtocolKind::Dragon,
];

fn trace_file(ctx: &Ctx) -> PathBuf {
    ctx.work_dir.join(format!("{PROFILE}.dcct"))
}

/// `parts` followed by `--seed S`, and `--refs N` under `--smoke`.
fn seeded_args(ctx: &Ctx, parts: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    v.extend(["--seed".to_string(), ctx.seed.to_string()]);
    v.extend(ctx.refs_args());
    v
}

fn replay_in_args(ctx: &Ctx) -> Vec<String> {
    let path = trace_file(ctx).to_string_lossy().into_owned();
    vec!["replay".to_string(), "--in".to_string(), path]
}

/// `dircc replay --profile P`: the in-memory replay `--in` must match.
fn reference_output(ctx: &Ctx, checks: &mut Checks) -> Result<String, String> {
    let exit = ctx.dircc(&seeded_args(ctx, &["replay", "--profile", PROFILE]))?;
    checks.expect(exit.ok, || format!("dircc replay --profile {PROFILE} failed"));
    Ok(exit.stdout)
}

pub fn file_measure(ctx: &Ctx) -> Result<Run, String> {
    let path = trace_file(ctx);
    let (setup_s, ()) = setup(3, || {
        let exit = ctx.dircc(&seeded_args(
            ctx,
            &["record", "--profile", PROFILE, "--out", &path.to_string_lossy()],
        ))?;
        if exit.ok {
            Ok(())
        } else {
            Err(format!("dircc record --profile {PROFILE}: {}", exit.stderr.trim()))
        }
    })?;
    // Write the recorded trace back to disk now, untimed, so that the
    // kernel's delayed write-back does not land in the measurement.
    File::open(&path).and_then(|f| f.sync_all()).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut run = Run { setup_s, ..Run::default() };
    let mut outputs = Vec::new();
    let started = Instant::now();
    while ctx.keep_going(started, run.checks.attempted as usize, 1) {
        let exit = ctx.dircc(&replay_in_args(ctx))?;
        run.child_op(started, &exit);
        if exit.ok {
            outputs.push(exit.stdout);
        }
    }
    let want = reference_output(ctx, &mut run.checks)?;
    for (i, got) in outputs.iter().enumerate() {
        run.checks.expect(*got == want, || {
            format!("dircc replay --in, run {i}: stdout differs from the in-memory replay")
        });
    }
    Ok(run)
}

pub fn file_traced(ctx: &Ctx, tracer: &Tracer) -> Result<Traced, String> {
    let cfg = RunConfig::default().with_process_sharing();
    let path = trace_file(ctx);
    let mut checks = Checks::default();
    let mut bytes = 0u64;
    let mut decoded_bytes = 0u64;
    let result = tracer.span("replay_file", None, |root| -> Result<(), String> {
        let mut profile = dircc_sim::profile_by_name(PROFILE)?;
        if let Some(n) = ctx.refs() {
            profile = profile.with_total_refs(n);
        }
        let records: Vec<TraceRecord> =
            tracer.span("trace.generate", root, |_| Generator::new(profile, ctx.seed).collect());
        let refs = records.len() as u64;
        tracer.span("trace.encode", root, |_| -> Result<(), String> {
            let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut w = ChunkedWriter::new(BufWriter::new(file));
            w.write_all(&records).map_err(|e| format!("encode: {e}"))?;
            w.finish().map_err(|e| format!("encode: {e}"))?;
            Ok(())
        })?;
        bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let open = || -> Result<_, String> {
            let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            open_trace(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
        };
        let started = Instant::now();
        let mut rounds = 0;
        while ctx.keep_going(started, rounds, 1) {
            let decoded = tracer.span("trace.decode", root, |_| -> Result<u64, String> {
                let mut source = open()?;
                let (mut buf, mut n) = (Vec::new(), 0u64);
                while source.next_chunk(&mut buf).map_err(|e| format!("decode: {e}"))? {
                    n += buf.len() as u64;
                }
                Ok(n)
            })?;
            checks.expect(decoded == refs, || format!("decoded {decoded} of {refs} refs"));
            decoded_bytes += bytes;
            tracer.span("sim.stream_replay", root, |_| -> Result<(), String> {
                for kind in REPLAY_KINDS {
                    checks.attempted += 1;
                    let mut p = dircc_core::build(kind, 4);
                    match run_chunked(p.as_mut(), &mut open()?, &cfg) {
                        Ok(res) => checks.expect(res.refs == refs, || {
                            format!("{kind} replayed {} of {refs} refs", res.refs)
                        }),
                        Err(e) => {
                            checks.failed += 1;
                            checks.mismatches.push(format!("{kind}: {e}"));
                        }
                    }
                }
                Ok(())
            })?;
            rounds += 1;
        }
        Ok(())
    });
    result?;
    // The child CLI replays the file this run wrote; its stdout must
    // match the in-memory replay.
    let want = reference_output(ctx, &mut checks)?;
    let exit = ctx.dircc(&replay_in_args(ctx))?;
    checks.expect(exit.ok && exit.stdout == want, || {
        "dircc replay --in: stdout differs from the in-memory replay".to_string()
    });
    let profile = tracer.profile();
    let decode_s = profile.self_s("trace.decode");
    let metrics = vec![
        ("trace.generate_s".to_string(), profile.self_s("trace.generate")),
        ("trace.encode_s".to_string(), profile.self_s("trace.encode")),
        ("trace.decode_s".to_string(), decode_s),
        ("trace.decode_mb_per_s".to_string(), decoded_bytes as f64 / 1e6 / decode_s.max(1e-9)),
        ("trace.bytes".to_string(), bytes as f64),
        ("sim.stream_replay_s".to_string(), profile.self_s("sim.stream_replay")),
        ("layers.coverage".to_string(), profile.coverage()),
    ];
    Ok(Traced { checks, metrics, profile })
}
