//! The serve daemon: accept loop, worker threadpool, router.
//!
//! Thread layout: the calling thread runs the accept loop; `workers`
//! scoped threads block on the connection queue. The accept thread
//! never simulates — when the queue is full it answers 429 inline and
//! moves on, so backpressure costs the peer a retry, not the server a
//! thread. Shutdown is cooperative (`POST /shutdown`): the workspace
//! denies `unsafe_code`, so a raw SIGTERM handler is off the table —
//! process supervisors should send the endpoint a request (CI does) or
//! SIGKILL after a drain window.
//!
//! Telemetry: every connection gets a request ID at accept time
//! (`{prefix:08x}-{seq:08x}`; a sane client-supplied `x-request-id`
//! wins). The ID rides the queue, is echoed on every response as
//! `x-request-id`, appears in the structured log line, and is passed to
//! the [`JobHandler`] so span exports are joinable against logs. All
//! instruments live on one [`MetricsRegistry`] rendered at
//! `GET /metrics`; the result cache increments the registry's own
//! counters, so a scrape reconciles exactly against the served load.
//!
//! Simulation lives behind [`JobHandler`] so this crate stays free of a
//! dependency on the simulator (the `dircc` binary lives in
//! `dircc-sim`, which depends on this crate — an edge back would be a
//! package cycle).

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use dircc_obs::{escape, MetricsRegistry};

use crate::cache::{CacheCounters, ResultCache};
use crate::http::{read_request, write_response, write_response_typed, ChunkedBody, Request};
use crate::job::JobSpec;
use crate::logger::Logger;
use crate::metrics::ServerMetrics;
use crate::queue::{Bounded, PushError};

/// A job the handler could not serve, carrying the HTTP status to
/// relay (400 for unresolvable names, 500 for internal faults).
#[derive(Debug, Clone)]
pub struct HandlerError {
    pub status: u16,
    pub message: String,
}

impl HandlerError {
    pub fn bad_request(message: impl Into<String>) -> Self {
        HandlerError { status: 400, message: message.into() }
    }

    pub fn internal(message: impl Into<String>) -> Self {
        HandlerError { status: 500, message: message.into() }
    }
}

/// What the service does when a request reaches it. Implemented by the
/// simulator (`dircc-sim`); implemented by stubs in this crate's tests.
/// `request_id` is the ID the response will carry — handlers stamp it
/// into their span metadata so `/spans` joins against logs and headers.
pub trait JobHandler: Send + Sync {
    /// Runs (or reuses) a simulation, returning the complete `/run`
    /// response body — a single JSON line.
    fn run(&self, job: &JobSpec, request_id: &str) -> Result<String, HandlerError>;

    /// Returns the windowed run-series JSONL lines for `/series`.
    fn series(&self, job: &JobSpec, request_id: &str) -> Result<Vec<String>, HandlerError>;

    /// Returns the chrome-trace span export for `/spans`.
    fn spans(&self) -> String;
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads simulating and answering requests.
    pub workers: usize,
    /// LRU result-cache capacity (canonical run configs).
    pub cache_entries: usize,
    /// Accepted-connection queue depth before 429s start.
    pub queue_depth: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Emit one stderr log line per request.
    pub log: bool,
    /// Structured JSON-lines logs instead of text (`--log-json`).
    pub log_json: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            cache_entries: 64,
            queue_depth: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            log: true,
            log_json: false,
        }
    }
}

/// Totals reported when the daemon drains and [`Server::run`] returns.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// An accepted connection waiting for a worker, carrying the request
/// ID minted at accept time.
struct Conn {
    stream: TcpStream,
    id: String,
}

/// A bound-but-not-yet-serving daemon.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

struct Shared {
    config: ServeConfig,
    handler: Arc<dyn JobHandler>,
    cache: ResultCache,
    queue: Bounded<Conn>,
    draining: AtomicBool,
    requests: AtomicU64,
    completed: AtomicU64,
    local: SocketAddr,
    metrics: ServerMetrics,
    logger: Logger,
    started: Instant,
    id_prefix: u32,
    id_seq: AtomicU64,
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", escape(message))
}

/// A client-supplied `x-request-id` is honored only when it's safe to
/// echo into headers and logs: short, printable ASCII, no whitespace.
fn sane_request_id(v: &str) -> bool {
    !v.is_empty() && v.len() <= 64 && v.bytes().all(|b| b.is_ascii_graphic())
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with a
    /// private metrics registry.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        handler: Arc<dyn JobHandler>,
    ) -> std::io::Result<Server> {
        Server::bind_with_registry(addr, config, handler, Arc::new(MetricsRegistry::new()))
    }

    /// Binds with a caller-owned registry, so the handler can register
    /// its own families (workbench runs, refs replayed) on the same
    /// `/metrics` page.
    pub fn bind_with_registry(
        addr: &str,
        config: ServeConfig,
        handler: Arc<dyn JobHandler>,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let queue = Bounded::new(config.queue_depth);
        let metrics = ServerMetrics::new(registry);
        // The cache increments the registry's counters directly — a
        // `/metrics` scrape and `ResultCache::stats` can never drift.
        let cache = ResultCache::with_counters(
            config.cache_entries,
            CacheCounters {
                hits: metrics.cache_hits.clone(),
                misses: metrics.cache_misses.clone(),
                evictions: metrics.cache_evictions.clone(),
                coalesced: metrics.singleflight_coalesced.clone(),
            },
        );
        let logger = if config.log { Logger::stderr(config.log_json) } else { Logger::disabled() };
        let id_prefix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0)
            ^ std::process::id();
        Ok(Server {
            listener,
            shared: Shared {
                config,
                handler,
                cache,
                queue,
                draining: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                local,
                metrics,
                logger,
                started: Instant::now(),
                id_prefix,
                id_seq: AtomicU64::new(1),
            },
        })
    }

    /// The bound address — the real port when `addr` asked for `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local
    }

    /// Serves until a `POST /shutdown` drains the daemon. Blocking.
    pub fn run(self) -> ServeStats {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.workers.max(1) {
                scope.spawn(move || {
                    while let Some(conn) = shared.queue.pop() {
                        shared.handle_connection(conn);
                    }
                });
            }
            self.accept_loop(shared);
            // Leaving the scope joins the workers, which drain the
            // queue (closed by /shutdown) before exiting.
        });
        let (cache_hits, cache_misses) = shared.cache.stats();
        ServeStats { requests: shared.requests.load(Ordering::Relaxed), cache_hits, cache_misses }
    }

    fn accept_loop(&self, shared: &Shared) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if shared.draining.load(Ordering::SeqCst) => return,
                Err(_) => {
                    // Transient accept failure (e.g. fd pressure):
                    // back off briefly rather than spin.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let id = shared.next_request_id();
            if shared.draining.load(Ordering::SeqCst) {
                // Includes the self-connection /shutdown makes to wake
                // this loop; real late arrivals get a 503.
                shared.refuse(stream, &id, 503, &[], "server is draining");
                return;
            }
            match shared.queue.try_push(Conn { stream, id }) {
                Ok(()) => shared.metrics.queue_depth.inc(),
                Err(PushError::Full(conn)) => {
                    shared.refuse(
                        conn.stream,
                        &conn.id,
                        429,
                        &[("Retry-After", "1")],
                        "job queue is full, retry shortly",
                    );
                }
                Err(PushError::Closed(conn)) => {
                    shared.refuse(conn.stream, &conn.id, 503, &[], "server is draining");
                    return;
                }
            }
        }
    }
}

impl Shared {
    fn next_request_id(&self) -> String {
        let seq = self.id_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{:08x}", self.id_prefix, seq as u32)
    }

    /// Answers a connection the queue never saw (backpressure or
    /// drain). Consumes what the peer already sent first so the
    /// response isn't lost to a connection reset. Refusals count under
    /// `dircc_http_refused_total`, never the per-route families — a
    /// scrape's route counters reconcile against *served* requests.
    fn refuse(
        &self,
        stream: TcpStream,
        id: &str,
        status: u16,
        extra: &[(&str, &str)],
        message: &str,
    ) {
        if status == 429 {
            self.metrics.refused_429.inc();
        } else {
            self.metrics.refused_503.inc();
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let mut sink = [0u8; 4096];
        let _ = (&stream).read(&mut sink);
        let body = error_body(message);
        let mut headers = extra.to_vec();
        headers.push(("x-request-id", id));
        let _ = write_response(&mut &stream, status, &headers, body.as_bytes());
        self.logger.warn(
            "refused",
            &[("status", status.into()), ("reason", message.into()), ("request_id", id.into())],
        );
    }

    fn handle_connection(&self, conn: Conn) {
        self.metrics.queue_depth.dec();
        self.metrics.inflight.inc();
        let Conn { stream, id } = conn;
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "-".to_string());
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let started = Instant::now();
        let mut reader = BufReader::new(&stream);
        match read_request(&mut reader) {
            Ok(request) => {
                // A sane client-supplied ID replaces the accept-time one
                // so callers can correlate their own retries.
                let id = request
                    .header("x-request-id")
                    .filter(|v| sane_request_id(v))
                    .map(str::to_string)
                    .unwrap_or(id);
                self.requests.fetch_add(1, Ordering::Relaxed);
                self.metrics.mark_request(&request.path);
                let (status, cache) = self.route(&request, &stream, &id);
                let wall = started.elapsed();
                self.metrics.observe_request(&request.path, status, wall);
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.logger.info(
                    "request",
                    &[
                        ("method", request.method.as_str().into()),
                        ("path", request.path.as_str().into()),
                        ("status", status.into()),
                        ("wall_ms", (wall.as_secs_f64() * 1e3).into()),
                        ("cache", cache.into()),
                        ("peer", peer.as_str().into()),
                        ("request_id", id.as_str().into()),
                    ],
                );
            }
            Err(e) => {
                if let Some(status) = e.status() {
                    let body = error_body(&e.to_string());
                    let _ = write_response(
                        &mut &stream,
                        status,
                        &[("x-request-id", &id)],
                        body.as_bytes(),
                    );
                    // No parsed path — account it under the catch-all
                    // route so protocol errors still show on /metrics.
                    self.metrics.mark_request("");
                    self.metrics.observe_request("", status, started.elapsed());
                    self.logger.warn(
                        "bad_request",
                        &[
                            ("status", status.into()),
                            ("error", e.to_string().into()),
                            ("peer", peer.as_str().into()),
                            ("request_id", id.as_str().into()),
                        ],
                    );
                }
            }
        }
        self.metrics.inflight.dec();
    }

    /// The `/health` (and legacy `/healthz`) body: real daemon state,
    /// first key pinned to `"status"` for trivial grepping.
    fn health_body(&self) -> String {
        let (hits, misses, evictions, coalesced) = self.cache.detailed_stats();
        let status = if self.draining.load(Ordering::SeqCst) { "draining" } else { "ok" };
        format!(
            "{{\"status\": \"{status}\", \"uptime_s\": {}, \"workers\": {}, \"queued\": {}, \
             \"inflight\": {}, \"requests\": {}, \"completed\": {}, \"cache_hits\": {hits}, \
             \"cache_misses\": {misses}, \"cache_evictions\": {evictions}, \
             \"coalesced\": {coalesced}}}\n",
            self.started.elapsed().as_secs(),
            self.config.workers,
            self.queue.len(),
            self.metrics.inflight.get().max(0),
            self.requests.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
        )
    }

    fn route(&self, request: &Request, stream: &TcpStream, id: &str) -> (u16, &'static str) {
        let mut w = stream;
        let respond = |w: &mut &TcpStream, status: u16, body: &str| -> u16 {
            let _ = write_response(w, status, &[("x-request-id", id)], body.as_bytes());
            status
        };
        let method_not_allowed = |w: &mut &TcpStream, allowed: &str| -> (u16, &'static str) {
            let body = error_body(&format!("method not allowed, use {allowed}"));
            let _ = write_response(
                w,
                405,
                &[("Allow", allowed), ("x-request-id", id)],
                body.as_bytes(),
            );
            (405, "-")
        };

        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health" | "/healthz") => (respond(&mut w, 200, &self.health_body()), "-"),
            (_, "/health" | "/healthz") => method_not_allowed(&mut w, "GET"),
            ("GET", "/metrics") => {
                self.metrics
                    .uptime
                    .set(self.started.elapsed().as_secs().min(i64::MAX as u64) as i64);
                let body = self.metrics.registry().render();
                let _ = write_response_typed(
                    &mut w,
                    200,
                    &[("x-request-id", id)],
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.as_bytes(),
                );
                (200, "-")
            }
            (_, "/metrics") => method_not_allowed(&mut w, "GET"),
            ("POST", "/run") => {
                let job = match JobSpec::from_json(&request.body) {
                    Ok(job) => job,
                    Err(e) => return (respond(&mut w, 400, &error_body(&e.to_string())), "-"),
                };
                let (result, outcome) = self.cache.get_or_fill(&job.canonical(), || {
                    self.handler.run(&job, id).map_err(|e| (e.status, e.message))
                });
                match result {
                    Ok(body) => {
                        let label = outcome.wire_label();
                        let _ = write_response(
                            &mut w,
                            200,
                            &[("X-Cache", label), ("x-request-id", id)],
                            body.as_bytes(),
                        );
                        (200, label)
                    }
                    Err((status, message)) => (respond(&mut w, status, &error_body(&message)), "-"),
                }
            }
            (_, "/run") => method_not_allowed(&mut w, "POST"),
            ("POST", "/series") => {
                let job = match JobSpec::from_json(&request.body) {
                    Ok(job) => job,
                    Err(e) => return (respond(&mut w, 400, &error_body(&e.to_string())), "-"),
                };
                match self.handler.series(&job, id) {
                    Ok(lines) => {
                        let mut write_all = || -> std::io::Result<()> {
                            let mut body =
                                ChunkedBody::begin(&mut w, 200, &[("x-request-id", id)])?;
                            for line in &lines {
                                body.write_chunk(line.as_bytes())?;
                            }
                            body.finish()
                        };
                        let _ = write_all();
                        (200, "-")
                    }
                    Err(e) => (respond(&mut w, e.status, &error_body(&e.message)), "-"),
                }
            }
            (_, "/series") => method_not_allowed(&mut w, "POST"),
            ("GET", "/spans") => (respond(&mut w, 200, &self.handler.spans()), "-"),
            (_, "/spans") => method_not_allowed(&mut w, "GET"),
            ("POST", "/shutdown") => {
                self.draining.store(true, Ordering::SeqCst);
                let status = respond(&mut w, 200, "{\"status\": \"draining\"}\n");
                self.queue.close();
                // Wake the accept loop so it observes the drain flag.
                let _ = TcpStream::connect(self.local);
                (status, "-")
            }
            (_, "/shutdown") => method_not_allowed(&mut w, "POST"),
            (_, path) => {
                let body = error_body(&format!(
                    "unknown route {path:?} (routes: /health /healthz /metrics /run /series \
                     /spans /shutdown)"
                ));
                (respond(&mut w, 404, &body), "-")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_escape_their_message() {
        assert_eq!(error_body("a\"b"), "{\"error\": \"a\\\"b\"}\n");
    }

    #[test]
    fn handler_error_constructors_carry_status() {
        assert_eq!(HandlerError::bad_request("x").status, 400);
        assert_eq!(HandlerError::internal("x").status, 500);
    }

    #[test]
    fn client_request_ids_are_vetted() {
        assert!(sane_request_id("ab12cd34-00000001"));
        assert!(sane_request_id("trace-7"));
        assert!(!sane_request_id(""));
        assert!(!sane_request_id("has space"));
        assert!(!sane_request_id("new\nline"));
        assert!(!sane_request_id(&"x".repeat(65)));
        assert!(!sane_request_id("non-ascii-é"));
    }
}
