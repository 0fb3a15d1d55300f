//! End-to-end tests against a real listening server on loopback, with
//! a stub handler standing in for the simulator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dircc_serve::client;
use dircc_serve::server::{HandlerError, JobHandler, ServeConfig, ServeStats, Server};
use dircc_serve::JobSpec;

/// Counts invocations; optionally blocks each run on a barrier so
/// tests can hold the worker pool busy deliberately.
struct StubHandler {
    runs: AtomicUsize,
    gate: Option<Arc<Barrier>>,
}

impl StubHandler {
    fn new() -> Arc<Self> {
        Arc::new(StubHandler { runs: AtomicUsize::new(0), gate: None })
    }

    fn gated(gate: Arc<Barrier>) -> Arc<Self> {
        Arc::new(StubHandler { runs: AtomicUsize::new(0), gate: Some(gate) })
    }
}

impl JobHandler for StubHandler {
    fn run(&self, job: &JobSpec, _request_id: &str) -> Result<String, HandlerError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        if job.scheme == "no-such-scheme" {
            return Err(HandlerError::bad_request("unknown scheme 'no-such-scheme'"));
        }
        Ok(format!("{{\"echo\": \"{}\"}}\n", job.canonical()))
    }

    fn series(&self, job: &JobSpec, _request_id: &str) -> Result<Vec<String>, HandlerError> {
        Ok((0..3).map(|i| format!("{{\"window\": {i}, \"trace\": \"{}\"}}\n", job.trace)).collect())
    }

    fn spans(&self) -> String {
        "{\"traceEvents\": []}\n".to_string()
    }
}

/// Starts a daemon with `config`, returning its base URL, the handler,
/// and a join handle resolving to the drain stats.
fn start(
    config: ServeConfig,
    handler: Arc<StubHandler>,
) -> (String, Arc<StubHandler>, std::thread::JoinHandle<ServeStats>) {
    let server = Server::bind("127.0.0.1:0", config, handler.clone() as Arc<dyn JobHandler>)
        .expect("bind loopback");
    let url = format!("http://{}", server.local_addr());
    let join = std::thread::spawn(move || server.run());
    (url, handler, join)
}

fn quiet() -> ServeConfig {
    ServeConfig { log: false, ..ServeConfig::default() }
}

fn shutdown(url: &str) {
    let resp = client::request(url, "POST", "/shutdown", Some(b"{}")).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"), "{}", resp.text());
}

const JOB: &[u8] = br#"{"scheme": "Tang", "trace": "POPS", "refs": 1000}"#;

#[test]
fn run_route_misses_then_hits_without_rerunning() {
    let (url, handler, join) = start(quiet(), StubHandler::new());

    let miss = client::request(&url, "POST", "/run", Some(JOB)).expect("first run");
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("miss"));
    assert!(miss.text().contains("scheme=tang"), "{}", miss.text());

    let hit = client::request(&url, "POST", "/run", Some(JOB)).expect("second run");
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("hit"));
    assert_eq!(hit.body, miss.body, "cache hit must be byte-identical");
    assert_eq!(handler.runs.load(Ordering::SeqCst), 1, "second request must not re-run");

    shutdown(&url);
    let stats = join.join().expect("server thread");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.requests >= 3);
}

#[test]
fn unknown_route_and_wrong_method_are_mapped() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    let missing = client::request(&url, "GET", "/nope", None).expect("404");
    assert_eq!(missing.status, 404);
    assert!(missing.text().contains("unknown route"), "{}", missing.text());

    let wrong = client::request(&url, "GET", "/run", None).expect("405");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn bad_job_json_is_a_field_level_400() {
    let (url, handler, join) = start(quiet(), StubHandler::new());

    let bad = client::request(&url, "POST", "/run", Some(br#"{"scheme": "Tang"}"#))
        .expect("missing trace");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("field 'trace'"), "{}", bad.text());

    // The retired block-shard count is an unknown field, whatever its
    // value, and so is the retired replay-engine switch.
    for shards in [1, 99] {
        let body = format!(r#"{{"scheme": "Tang", "trace": "POPS", "shards": {shards}}}"#);
        let resp = client::request(&url, "POST", "/run", Some(body.as_bytes())).expect("shards");
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("field 'shards': unknown field"), "{}", resp.text());
    }
    let engine = client::request(
        &url,
        "POST",
        "/run",
        Some(br#"{"scheme": "Tang", "trace": "POPS", "engine": "dyn"}"#),
    )
    .expect("unknown engine field");
    assert_eq!(engine.status, 400);
    assert!(engine.text().contains("field 'engine': unknown field"), "{}", engine.text());
    assert_eq!(handler.runs.load(Ordering::SeqCst), 0, "invalid jobs must not reach the handler");

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn handler_rejections_pass_through_and_are_not_cached() {
    let (url, handler, join) = start(quiet(), StubHandler::new());
    let job = br#"{"scheme": "no-such-scheme", "trace": "POPS"}"#;

    let first = client::request(&url, "POST", "/run", Some(job)).expect("rejected");
    assert_eq!(first.status, 400);
    assert!(first.text().contains("unknown scheme"), "{}", first.text());

    let second = client::request(&url, "POST", "/run", Some(job)).expect("rejected again");
    assert_eq!(second.status, 400);
    assert_eq!(handler.runs.load(Ordering::SeqCst), 2, "errors are retried, not cached");

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn malformed_http_gets_an_error_status() {
    use std::io::Write;
    let (url, _, join) = start(quiet(), StubHandler::new());

    // No Content-Length on a POST → 411.
    let stream = std::net::TcpStream::connect(client::host_of(&url)).expect("connect");
    (&stream).write_all(b"POST /run HTTP/1.1\r\n\r\n").expect("send");
    let resp = client::read_response(&mut std::io::BufReader::new(&stream)).expect("read");
    assert_eq!(resp.status, 411);

    // Unparseable request line → 400.
    let stream = std::net::TcpStream::connect(client::host_of(&url)).expect("connect");
    (&stream).write_all(b"BANANAS\r\n\r\n").expect("send");
    let resp = client::read_response(&mut std::io::BufReader::new(&stream)).expect("read");
    assert_eq!(resp.status, 400);

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn series_route_streams_jsonl() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    let resp = client::request(&url, "POST", "/series", Some(JOB)).expect("series");
    assert_eq!(resp.status, 200);
    let text = resp.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"window\": 0"), "{}", lines[0]);
    assert!(lines[2].contains("\"trace\": \"POPS\""), "{}", lines[2]);

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn healthz_and_spans_respond() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    let health = client::request(&url, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\": \"ok\""), "{}", health.text());

    let spans = client::request(&url, "GET", "/spans", None).expect("spans");
    assert_eq!(spans.status, 200);
    assert!(spans.text().contains("traceEvents"), "{}", spans.text());

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn health_reports_real_daemon_state() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    // Two jobs first so the counters have something to show.
    client::request(&url, "POST", "/run", Some(JOB)).expect("miss");
    client::request(&url, "POST", "/run", Some(JOB)).expect("hit");

    // Final accounting for a request happens just after its response is
    // written, so poll briefly until every earlier request has settled
    // (then this /health is the only one in flight).
    let mut health = client::request(&url, "GET", "/health", None).expect("health");
    let settled = |r: &client::Response| {
        let v = dircc_serve::json::parse(&r.body).expect("health is JSON");
        let obj = v.as_obj().expect("object");
        let get = |k: &str| obj.get(k).and_then(dircc_serve::Json::as_u64).expect(k);
        get("completed") == get("requests") - 1 && get("inflight") == 1
    };
    for _ in 0..100 {
        if settled(&health) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        health = client::request(&url, "GET", "/health", None).expect("health");
    }
    assert_eq!(health.status, 200);
    assert!(settled(&health), "{}", health.text());
    let v = dircc_serve::json::parse(&health.body).expect("health is JSON");
    let obj = v.as_obj().expect("object");
    let get = |k: &str| obj.get(k).and_then(dircc_serve::Json::as_u64);
    assert_eq!(obj.get("status").and_then(dircc_serve::Json::as_str), Some("ok"));
    // The two /run requests plus this /health, at minimum.
    assert!(get("requests").unwrap() >= 3, "{}", health.text());
    assert_eq!(get("cache_hits"), Some(1));
    assert_eq!(get("cache_misses"), Some(1));
    assert_eq!(get("cache_evictions"), Some(0));
    assert_eq!(get("workers"), Some(4));
    assert_eq!(get("queued"), Some(0));
    // The /health request itself is the one in flight.
    assert_eq!(get("inflight"), Some(1), "{}", health.text());
    assert!(get("uptime_s").is_some());

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn every_response_carries_a_request_id() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    let run = client::request(&url, "POST", "/run", Some(JOB)).expect("run");
    let id = run.header("x-request-id").expect("id on /run").to_string();
    assert!(id.contains('-') && id.len() >= 9, "generated id looks wrong: {id:?}");

    let missing = client::request(&url, "GET", "/nope", None).expect("404");
    let other = missing.header("x-request-id").expect("id on 404").to_string();
    assert_ne!(id, other, "each connection gets a fresh id");

    // A sane client-supplied id is echoed back verbatim.
    let echoed = client::request_with_headers(
        &url,
        "GET",
        "/health",
        &[("x-request-id", "my-trace-42")],
        None,
    )
    .expect("health");
    assert_eq!(echoed.header("x-request-id"), Some("my-trace-42"));

    // An unsafe one (whitespace) is replaced by a generated id.
    let replaced = client::request_with_headers(
        &url,
        "GET",
        "/health",
        &[("x-request-id", "has space")],
        None,
    )
    .expect("health");
    let got = replaced.header("x-request-id").expect("id still present");
    assert_ne!(got, "has space");

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn metrics_expose_reconciled_counters() {
    let (url, _, join) = start(quiet(), StubHandler::new());

    client::request(&url, "POST", "/run", Some(JOB)).expect("miss");
    client::request(&url, "POST", "/run", Some(JOB)).expect("hit");
    client::request(&url, "GET", "/health", None).expect("health");

    // Latency histograms settle just after the response is written;
    // poll until both /run observations landed.
    let mut scrape = client::request(&url, "GET", "/metrics", None).expect("metrics");
    for _ in 0..100 {
        let s = dircc_obs::parse_exposition(&scrape.text()).expect("valid exposition");
        if dircc_obs::samples_sum(&s, "dircc_http_request_duration_us_count", &[("route", "/run")])
            == 2.0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        scrape = client::request(&url, "GET", "/metrics", None).expect("metrics");
    }
    assert_eq!(scrape.status, 200);
    assert_eq!(scrape.header("content-type"), Some("text/plain; version=0.0.4; charset=utf-8"));
    let samples = dircc_obs::parse_exposition(&scrape.text()).expect("valid exposition");
    let sum = |name: &str, labels: &[(&str, &str)]| dircc_obs::samples_sum(&samples, name, labels);
    assert_eq!(sum("dircc_http_requests_total", &[("route", "/run")]), 2.0);
    assert_eq!(sum("dircc_http_requests_total", &[("route", "/health")]), 1.0);
    assert_eq!(sum("dircc_result_cache_events_total", &[("event", "hit")]), 1.0);
    assert_eq!(sum("dircc_result_cache_events_total", &[("event", "miss")]), 1.0);
    assert_eq!(sum("dircc_http_errors_total", &[]), 0.0);
    // Latency histograms count what the route counters count.
    assert_eq!(sum("dircc_http_request_duration_us_count", &[("route", "/run")]), 2.0);
    assert!(sum("dircc_http_request_duration_us_sum", &[("route", "/run")]) > 0.0);

    // A later scrape sees the earlier one(s) accounted.
    let again = client::request(&url, "GET", "/metrics", None).expect("metrics again");
    let samples = dircc_obs::parse_exposition(&again.text()).expect("valid exposition");
    assert!(
        dircc_obs::samples_sum(&samples, "dircc_http_requests_total", &[("route", "/metrics")])
            >= 1.0
    );

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn concurrent_identical_jobs_dedup_to_one_handler_run() {
    // Gate: all 4 clients must be in-flight before any run completes,
    // so a slow first request can't mask broken single-flight.
    let gate = Arc::new(Barrier::new(2));
    let config = ServeConfig { workers: 4, ..quiet() };
    let (url, handler, join) = start(config, StubHandler::gated(gate.clone()));

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let url = url.clone();
            std::thread::spawn(move || {
                client::request(&url, "POST", "/run", Some(JOB)).expect("run")
            })
        })
        .collect();
    // Let the requests land and coalesce on the single filling cell,
    // then release the one handler run.
    std::thread::sleep(Duration::from_millis(100));
    gate.wait();

    let bodies: Vec<Vec<u8>> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .map(|r| {
            assert_eq!(r.status, 200);
            r.body
        })
        .collect();
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "all responses identical");
    assert_eq!(handler.runs.load(Ordering::SeqCst), 1, "one workbench run for 4 submissions");

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, blocked on the barrier; queue depth 1. Request A
    // occupies the worker, B fills the queue, C must be refused.
    let gate = Arc::new(Barrier::new(2));
    let config = ServeConfig { workers: 1, queue_depth: 1, ..quiet() };
    let (url, _, join) = start(config, StubHandler::gated(gate.clone()));

    let blocker = {
        let url = url.clone();
        std::thread::spawn(move || {
            client::request(&url, "POST", "/run", Some(JOB)).expect("blocker")
        })
    };
    // Wait for the blocker to reach the handler (it holds the worker).
    std::thread::sleep(Duration::from_millis(100));

    let queued = {
        let url = url.clone();
        std::thread::spawn(move || {
            client::request(&url, "POST", "/run", Some(br#"{"scheme": "Tang", "trace": "THOR"}"#))
                .expect("queued")
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let refused =
        client::request(&url, "POST", "/run", Some(br#"{"scheme": "Tang", "trace": "PERO"}"#))
            .expect("refused");
    assert_eq!(refused.status, 429);
    assert_eq!(refused.header("retry-after"), Some("1"));

    // Release the worker; A completes, then B drains off the queue.
    gate.wait();
    assert_eq!(blocker.join().expect("blocker").status, 200);
    gate.wait();
    assert_eq!(queued.join().expect("queued").status, 200);

    shutdown(&url);
    join.join().expect("server thread");
}

#[test]
fn shutdown_drains_in_flight_work_and_refuses_new() {
    // Worker 1 is mid-job (gated); a second worker takes /shutdown.
    // The gated job must still complete; later requests must be 503.
    let gate = Arc::new(Barrier::new(2));
    let config = ServeConfig { workers: 2, ..quiet() };
    let (url, _, join) = start(config, StubHandler::gated(gate.clone()));

    let in_flight = {
        let url = url.clone();
        std::thread::spawn(move || {
            client::request(&url, "POST", "/run", Some(JOB)).expect("in-flight")
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    shutdown(&url);
    gate.wait();
    let resp = in_flight.join().expect("in-flight client");
    assert_eq!(resp.status, 200, "in-flight work survives the drain");

    let stats = join.join().expect("server exits after draining");
    assert!(stats.requests >= 2);

    // The listener is gone: either refused outright or reset.
    assert!(client::request(&url, "GET", "/healthz", None).is_err(), "daemon must be gone");
}
