//! End-to-end tests of the serve stack with the *real* simulation
//! handler: served counters must be bit-identical to a local replay,
//! repeats must be cache hits, and concurrent identical jobs must
//! execute the workbench exactly once.

use std::sync::Arc;

use dircc_serve::{client, json, JobHandler, JobSpec, Json, ServeConfig, Server};
use dircc_sim::{profile_by_name, run_indexed, RunConfig, WorkbenchHandler};
use dircc_trace::gen::Generator;
use dircc_trace::{BlockInterner, SoaStream, TraceRecord};

fn job(scheme: &str, trace: &str, refs: u64) -> JobSpec {
    JobSpec {
        scheme: scheme.to_string(),
        trace: trace.to_string(),
        refs: Some(refs),
        seed: dircc_serve::DEFAULT_SEED,
        filter: "full".to_string(),
        shards: 1,
        window: None,
    }
}

/// Quiet config for tests: no request logging on stderr.
fn quiet() -> ServeConfig {
    ServeConfig { log: false, ..ServeConfig::default() }
}

fn start(
    config: ServeConfig,
) -> (String, Arc<WorkbenchHandler>, std::thread::JoinHandle<dircc_serve::ServeStats>) {
    let handler = Arc::new(WorkbenchHandler::new());
    let server = Server::bind("127.0.0.1:0", config, handler.clone() as Arc<dyn JobHandler>)
        .expect("bind loopback");
    let url = format!("http://{}", server.local_addr());
    let join = std::thread::spawn(move || server.run());
    (url, handler, join)
}

fn shutdown(url: &str) {
    client::request(url, "POST", "/shutdown", Some(b"{}")).expect("shutdown");
}

/// Digs `counters.digest` out of a `/run` response body.
fn digest_of(body: &str) -> String {
    let v = json::parse(body.as_bytes()).expect("response parses");
    v.as_obj()
        .and_then(|o| o.get("counters"))
        .and_then(Json::as_obj)
        .and_then(|c| c.get("digest"))
        .and_then(Json::as_str)
        .expect("counters.digest present")
        .to_string()
}

/// The handler's `/run` body carries the exact digest a direct
/// `run_indexed` replay of the same generated trace produces — the
/// service is a transport, not a different simulator.
#[test]
fn served_digest_matches_a_direct_run_indexed_replay() {
    let handler = WorkbenchHandler::new();
    let body = handler.run(&job("Dir1NB", "POPS", 4000), "test-req-1").expect("run");

    let profile = profile_by_name("pops").expect("pops").with_total_refs(4000);
    let cpus = usize::from(profile.cpus);
    let cfg = RunConfig::default().with_process_sharing();
    let records: Vec<TraceRecord> = Generator::new(profile, dircc_serve::DEFAULT_SEED).collect();
    let interner = BlockInterner::from_records(records.iter(), cfg.geometry);
    let soa = SoaStream::build(&records, &interner, cfg.sharing);
    let kind = dircc_core::ProtocolKind::DirNb { pointers: 1 };
    let res = run_indexed(kind, cpus, &records, &soa, &cfg).expect("replay");

    assert_eq!(digest_of(&body), format!("{:016x}", res.counters.digest()));
    assert!(body.contains(&format!("\"refs\": {}", res.refs)));
}

/// Counters are pinned shard-invariant, so any shard count serves the
/// same bytes for the same run.
#[test]
fn served_body_is_invariant_across_shards() {
    let handler = WorkbenchHandler::new();
    let base = handler.run(&job("Wti", "THOR", 3000), "test-req-2").expect("run");
    for shards in [4, 2, 3] {
        let spec = JobSpec { shards, ..job("Wti", "THOR", 3000) };
        assert_eq!(handler.run(&spec, "test-req-2").expect("run"), base, "{shards} shard(s)");
    }
}

/// Full loop through the real server: miss, then hit, byte-identical
/// bodies, and exactly one workbench execution.
#[test]
fn served_run_is_cached_and_bit_stable_over_http() {
    let (url, handler, join) = start(quiet());
    let body = br#"{"scheme": "Dir0B", "trace": "PERO", "refs": 2500}"#;

    let first = client::request(&url, "POST", "/run", Some(body)).expect("first");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = client::request(&url, "POST", "/run", Some(body)).expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache must serve identical bytes");
    assert_eq!(handler.executed_runs(), 1, "the hit must not replay");

    shutdown(&url);
    join.join().expect("server thread");
}

/// Concurrent identical submissions coalesce onto one workbench run —
/// the result cache's single-flight fill, observed end to end.
#[test]
fn concurrent_identical_jobs_execute_the_workbench_once() {
    let (url, handler, join) = start(quiet());
    let body: &[u8] = br#"{"scheme": "Dragon", "trace": "POPS", "refs": 2000}"#;

    let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let url = url.clone();
                s.spawn(move || {
                    let resp = client::request(&url, "POST", "/run", Some(body)).expect("request");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    resp.body
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "all clients see the same bytes");
    }
    assert_eq!(handler.executed_runs(), 1, "identical jobs must dedup");

    shutdown(&url);
    join.join().expect("server thread");
}

/// `/series` covers the whole trace in window-sized JSONL steps.
#[test]
fn series_windows_tile_the_requested_trace() {
    let handler = WorkbenchHandler::new();
    let spec = JobSpec { window: Some(1000), ..job("Tang", "THOR", 4000) };
    let lines = handler.series(&spec, "test-req-3").expect("series");
    assert_eq!(lines.len(), 4, "4000 refs / 1000-ref windows");
    let mut refs = 0;
    for (i, line) in lines.iter().enumerate() {
        assert!(line.ends_with('\n'), "JSONL lines are newline-terminated");
        let v = json::parse(line.trim_end().as_bytes()).expect("window line parses");
        let obj = v.as_obj().expect("object");
        assert_eq!(obj.get("window").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(obj.get("scheme").and_then(Json::as_str), Some("Tang"));
        refs += obj.get("refs").and_then(Json::as_u64).expect("refs");
    }
    assert_eq!(refs, 4000, "windows tile the trace exactly");
}

/// `/spans` is strictly valid JSON (the chrome-trace export once
/// emitted an unbalanced brace for runs with metadata), and carries the
/// request ID that triggered each run — the log/span join key.
#[test]
fn spans_export_parses_as_json_after_runs() {
    let handler = WorkbenchHandler::new();
    handler.run(&job("Dir1NB", "POPS", 2000), "span-join-id").expect("run");
    let spans = handler.spans();
    let v = json::parse(spans.as_bytes()).expect("chrome trace parses");
    match v {
        Json::Arr(events) => assert!(!events.is_empty(), "runs leave spans"),
        other => panic!("expected a JSON array, got {other:?}"),
    }
    assert!(
        spans.contains("span-join-id"),
        "span meta must carry the request id for log joins: {spans}"
    );
}

/// The span log keeps only the newest `MAX_SPANS` spans: after more jobs
/// than that, `/spans` renders exactly `MAX_SPANS` of them, oldest first,
/// the last job's `replay` span last.
#[test]
fn span_log_keeps_the_newest_max_spans() {
    let handler = WorkbenchHandler::new();
    let jobs = dircc_serve::MAX_SPANS + 1;
    for i in 0..jobs {
        handler.run(&job("Dir1NB", "POPS", 64), &format!("req-{i}")).expect("run");
    }
    let Json::Arr(events) = json::parse(handler.spans().as_bytes()).expect("parses") else {
        panic!("expected a JSON array");
    };
    assert_eq!(events.len(), dircc_serve::MAX_SPANS);
    let field = |e: &Json, key: &str| {
        let obj = e.as_obj().expect("event object");
        let args = obj.get("args").and_then(Json::as_obj).expect("run spans carry args");
        let value = if key == "name" { obj.get(key) } else { args.get(key) };
        value.and_then(Json::as_str).expect("string field").to_string()
    };
    // Every run leaves four spans: generate, filter, intern, replay.
    let (first, last) = (&events[0], &events[events.len() - 1]);
    assert_eq!(field(first, "name"), "generate");
    assert_eq!(field(first, "request"), format!("req-{}", jobs - dircc_serve::MAX_SPANS / 4));
    assert_eq!(field(last, "name"), "replay");
    assert_eq!(field(last, "request"), format!("req-{}", jobs - 1));
}

/// Unknown schemes and traces come back as 400s with the offending
/// field, straight from the simulation layer.
#[test]
fn handler_rejects_unknown_schemes_and_traces() {
    let handler = WorkbenchHandler::new();
    let err =
        handler.run(&job("no-such-scheme", "POPS", 1000), "test-req-4").expect_err("bad scheme");
    assert_eq!(err.status, 400);
    assert!(err.message.contains("no-such-scheme"), "{}", err.message);
    let err = handler.run(&job("Wti", "no-such-trace", 1000), "test-req-4").expect_err("bad trace");
    assert_eq!(err.status, 400);
}

/// A job whose `refs` exceeds the cap is a field-level 400 from the job
/// parser; it never reaches the handler, which would try to allocate the
/// whole trace. The lone worker survives and serves the next job.
#[test]
fn oversized_refs_job_is_a_400_and_the_worker_survives() {
    let (url, handler, join) = start(ServeConfig { workers: 1, ..quiet() });
    let huge = br#"{"scheme": "Dir1NB", "trace": "POPS", "refs": 18446744073709551615}"#;
    let resp = client::request(&url, "POST", "/run", Some(huge)).expect("oversized job answered");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("field 'refs': must be between 1 and"), "{}", resp.text());

    let ok = br#"{"scheme": "Dir1NB", "trace": "POPS", "refs": 2000}"#;
    let resp = client::request(&url, "POST", "/run", Some(ok)).expect("ordinary job answered");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(handler.executed_runs(), 1);

    shutdown(&url);
    join.join().expect("server thread");
}

/// A `/series` whose window count exceeds `MAX_WINDOWS` is a field-level
/// 400 before any trace is generated: one request once asked for 200,000
/// one-reference windows and held a 101 MB body. The lone worker survives
/// and streams the next, ordinary series; the cap counts the profile's
/// own length when the job names no `refs`.
#[test]
fn oversized_series_window_count_is_a_400_and_the_worker_survives() {
    let (url, handler, join) = start(ServeConfig { workers: 1, ..quiet() });
    let huge = br#"{"scheme": "Dir1NB", "trace": "POPS", "refs": 200000, "window": 1}"#;
    let resp = client::request(&url, "POST", "/series", Some(huge)).expect("series answered");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("field 'window': must be at least 49 for 200000 refs"),
        "{}",
        resp.text()
    );
    let profile = br#"{"scheme": "Dir1NB", "trace": "PERO", "window": 100}"#;
    let resp = client::request(&url, "POST", "/series", Some(profile)).expect("series answered");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("for 3500000 refs"), "{}", resp.text());
    assert_eq!(handler.executed_runs(), 0, "rejected before any replay");

    let ok = br#"{"scheme": "Dir1NB", "trace": "POPS", "refs": 4000, "window": 1}"#;
    let resp = client::request(&url, "POST", "/series", Some(ok)).expect("series answered");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text().lines().count(), 4000, "4,000 windows is under the cap");
    assert_eq!(handler.executed_runs(), 1);

    shutdown(&url);
    join.join().expect("server thread");
}
