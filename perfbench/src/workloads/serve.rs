//! The two serve workloads: `J` closed-loop clients posting `/run` jobs
//! to a `dircc serve` daemon with `J` workers. Closed loop, because the
//! daemon's callers (`dircc submit`, scripts) each wait for their reply.
//!
//! On `serve_hit` every request hits the result cache, so the handler
//! never runs and HTTP parsing, queue hand-off, the cache lookup and the
//! write are the whole cost. On `serve_miss` every request carries a
//! seed no other request uses, so it misses both the result cache and
//! the trace store: trace generation, interning and replay dominate and
//! HTTP is noise. One workload reads the cache the other writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dircc_obs::{parse_exposition, samples_sum, MetricsRegistry, Sample};
use dircc_serve::{client, http, HandlerError, JobHandler, JobSpec, Response, ResultCache};
use dircc_serve::{ServeConfig, Server};
use dircc_sim::service::LoadConfig;
use dircc_sim::{load_pool, run_response_json, Evaluation, RunConfig};
use dircc_sim::{TraceFilter, Workbench, WorkbenchHandler};
use dircc_trace::store::TraceStore;

use super::{setup, Checks, Ctx, Run, Traced};
use crate::child::Daemon;
use crate::spans::Tracer;
use crate::stats::median;

/// Requests `--smoke` sends on each workload.
const SMOKE_HITS: usize = 400;
const SMOKE_MISSES: usize = 60;
/// Every this-many-th miss response is replayed in process and compared.
const MISS_SAMPLE: u64 = 50;
/// Jobs the traced miss run re-executes step by step.
const SPLIT_JOBS: u64 = 12;

/// Trace length of every job: 100,000 references, 20,000 under
/// `--smoke`.
fn job_refs(ctx: &Ctx) -> u64 {
    ctx.refs().unwrap_or(100_000)
}

fn job_body(c: &LoadConfig, refs: u64, seed: u64) -> String {
    format!(
        "{{\"scheme\": \"{}\", \"trace\": \"{}\", \"refs\": {refs}, \"seed\": {seed}}}",
        c.scheme, c.trace
    )
}

/// The seed of the headline jobs: S, kept below 2^52 so that it and
/// every miss seed travel exactly as JSON numbers.
fn base_seed(ctx: &Ctx) -> u64 {
    ctx.seed % (1 << 52)
}

/// The seed of miss request `k`: distinct for every `k` of a run, and
/// from the headline jobs' seed.
fn miss_seed(ctx: &Ctx, k: u64) -> u64 {
    base_seed(ctx) + k + 1
}

/// Request `k` of `serve_miss`: config `k % 12` at its own seed.
fn miss_job(ctx: &Ctx, configs: &[LoadConfig], k: u64) -> String {
    job_body(&configs[k as usize % configs.len()], job_refs(ctx), miss_seed(ctx, k))
}

/// What the daemon must answer: the handler it runs, called in process.
fn expected(handler: &WorkbenchHandler, body: &str) -> Result<String, String> {
    let job = JobSpec::from_json(body.as_bytes()).map_err(|e| e.to_string())?;
    handler.run(&job, "reference").map_err(|e| e.message)
}

fn post_run(url: &str, body: &str) -> std::io::Result<Response> {
    client::request(url, "POST", "/run", Some(body.as_bytes()))
}

/// Sends one request per configuration, each of which must miss.
fn prime(url: &str, bodies: &[String]) -> Result<(), String> {
    for body in bodies {
        let r = post_run(url, body).map_err(|e| format!("prime: {e}"))?;
        if r.status != 200 || r.header("x-cache") != Some("miss") {
            return Err(format!("prime: HTTP {} X-Cache {:?}", r.status, r.header("x-cache")));
        }
    }
    Ok(())
}

struct Load {
    /// (seconds since the load began, latency ms) of each completed
    /// request, in completion order.
    ops: Vec<(f64, f64)>,
    checks: Checks,
}

/// Drives `/run` from `ctx.jobs` closed-loop clients until the run's
/// time is up (`smoke_ops` requests under `--smoke`). Request `k` posts
/// `job(k)`; a 429 is retried after a pause, and a request's latency
/// runs from its first attempt. `check` judges every 200 response; any
/// other final answer is a failed request.
fn drive(
    ctx: &Ctx,
    url: &str,
    smoke_ops: usize,
    job: impl Fn(u64) -> String + Sync,
    check: impl Fn(u64, &Response) -> Result<(), String> + Sync,
) -> Load {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let clients: Vec<(Vec<(f64, f64)>, Checks)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.jobs)
            .map(|_| {
                scope.spawn(|| {
                    let (mut lat, mut checks) = (Vec::new(), Checks::default());
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if !ctx.keep_going(started, k as usize, smoke_ops) {
                            break;
                        }
                        let body = job(k);
                        checks.attempted += 1;
                        let t0 = Instant::now();
                        let mut retries = 0;
                        let reply = loop {
                            match post_run(url, &body) {
                                Ok(r) if r.status == 429 && retries < 100 => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                other => break other,
                            }
                        };
                        match reply {
                            Ok(r) if r.status == 200 => {
                                let done = started.elapsed().as_secs_f64();
                                lat.push((done, t0.elapsed().as_secs_f64() * 1e3));
                                if let Err(e) = check(k, &r) {
                                    checks.mismatches.push(format!("request {k}: {e}"));
                                }
                            }
                            Ok(r) => {
                                checks.failed += 1;
                                checks.mismatches.push(format!("request {k}: HTTP {}", r.status));
                            }
                            Err(e) => {
                                checks.failed += 1;
                                checks.mismatches.push(format!("request {k}: {e}"));
                            }
                        }
                    }
                    (lat, checks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut load = Load { ops: Vec::new(), checks: Checks::default() };
    for (lat, c) in clients {
        load.ops.extend(lat);
        load.checks.attempted += c.attempted;
        load.checks.failed += c.failed;
        load.checks.mismatches.extend(c.mismatches);
    }
    load.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    load
}

fn client_p50_ms(load: &Load) -> f64 {
    median(&load.ops.iter().map(|o| o.1).collect::<Vec<_>>())
}

fn cache_is(r: &Response, want: &str) -> Result<(), String> {
    match r.header("x-cache") {
        Some(got) if got == want => Ok(()),
        got => Err(format!("X-Cache {got:?}, expected {want}")),
    }
}

/// Set-up repetitions: each starts a daemon and primes it.
const SETUP_REPS: usize = 5;

/// The 12 headline jobs. Set-up primes every daemon with them, and
/// they are the jobs `serve_hit` sends.
fn headline_jobs(ctx: &Ctx) -> Vec<String> {
    load_pool(4).iter().map(|c| job_body(c, job_refs(ctx), base_seed(ctx))).collect()
}

/// The body the daemon must answer each of `bodies` with.
fn expected_bodies(bodies: &[String]) -> Result<Vec<String>, String> {
    let reference = WorkbenchHandler::new();
    bodies.iter().map(|b| expected(&reference, b)).collect()
}

/// Hit request `k` must come from the cache with the handler's body.
fn check_hit(want: &[String], k: u64, r: &Response) -> Result<(), String> {
    cache_is(r, "hit")?;
    if r.body != want[k as usize % want.len()].as_bytes() {
        return Err("body differs from the in-process handler's".to_string());
    }
    Ok(())
}

/// The set-up both serve workloads share: start a daemon and prime it
/// with the 12 headline jobs, which warms its allocator and code paths.
fn primed_daemon(ctx: &Ctx, bodies: &[String]) -> Result<(Vec<f64>, Daemon), String> {
    setup(SETUP_REPS, || {
        let d = Daemon::start(&ctx.dircc, ctx.jobs)?;
        prime(&d.url, bodies)?;
        Ok(d)
    })
}

pub fn hit_measure(ctx: &Ctx) -> Result<Run, String> {
    let bodies = headline_jobs(ctx);
    let want = expected_bodies(&bodies)?;
    let (setup_s, daemon) = primed_daemon(ctx, &bodies)?;
    let load = drive(
        ctx,
        &daemon.url,
        SMOKE_HITS,
        |k| bodies[k as usize % bodies.len()].clone(),
        |k, r| check_hit(&want, k, r),
    );
    let run =
        Run { setup_s, ops: load.ops, peak_rss_mb: daemon.peak_rss_mb(), checks: load.checks };
    daemon.stop()?;
    Ok(run)
}

pub fn miss_measure(ctx: &Ctx) -> Result<Run, String> {
    let configs = load_pool(4);
    let (setup_s, daemon) = primed_daemon(ctx, &headline_jobs(ctx))?;
    let sampled = Mutex::new(Vec::new());
    let load = drive(
        ctx,
        &daemon.url,
        SMOKE_MISSES,
        |k| miss_job(ctx, &configs, k),
        |k, r| {
            cache_is(r, "miss")?;
            if k % MISS_SAMPLE == 0 {
                sampled.lock().expect("sample list").push((k, r.text()));
            }
            Ok(())
        },
    );
    let mut run =
        Run { setup_s, ops: load.ops, peak_rss_mb: daemon.peak_rss_mb(), checks: load.checks };
    daemon.stop()?;
    let reference = WorkbenchHandler::new();
    for (k, got) in sampled.into_inner().expect("sample list") {
        let want = expected(&reference, &miss_job(ctx, &configs, k))?;
        run.checks.expect(got == want, || {
            format!("request {k}: body differs from the in-process handler's")
        });
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// Traced runs: the daemon runs in process, on the same `Server` and
// handler `dircc serve` uses (with request logging off), so a span can
// wrap every handler call.
// ---------------------------------------------------------------------

struct SpannedHandler {
    inner: WorkbenchHandler,
    tracer: Tracer,
    parent: Option<u64>,
}

impl JobHandler for SpannedHandler {
    fn run(&self, job: &JobSpec, request_id: &str) -> Result<String, HandlerError> {
        self.tracer.span("serve.handler", self.parent, |_| self.inner.run(job, request_id))
    }

    fn series(&self, job: &JobSpec, request_id: &str) -> Result<Vec<String>, HandlerError> {
        self.inner.series(job, request_id)
    }

    fn spans(&self) -> String {
        self.inner.spans()
    }
}

struct InProcess {
    url: String,
    thread: std::thread::JoinHandle<dircc_serve::ServeStats>,
}

impl InProcess {
    fn start(ctx: &Ctx, tracer: &Tracer, parent: Option<u64>) -> Result<InProcess, String> {
        let registry = Arc::new(MetricsRegistry::new());
        let handler = Arc::new(SpannedHandler {
            inner: WorkbenchHandler::with_registry(&registry),
            tracer: tracer.clone(),
            parent,
        });
        let config = ServeConfig { workers: ctx.jobs, log: false, ..ServeConfig::default() };
        let server = Server::bind_with_registry("127.0.0.1:0", config, handler, registry)
            .map_err(|e| format!("bind: {e}"))?;
        let url = format!("http://{}", server.local_addr());
        Ok(InProcess { url, thread: std::thread::spawn(move || server.run()) })
    }

    fn scrape(&self) -> Result<Vec<Sample>, String> {
        let r = client::request(&self.url, "GET", "/metrics", None).map_err(|e| e.to_string())?;
        parse_exposition(&r.text())
    }

    fn stop(self) -> Result<(), String> {
        client::request(&self.url, "POST", "/shutdown", Some(b"{}"))
            .map_err(|e| format!("/shutdown: {e}"))?;
        self.thread.join().map(|_| ()).map_err(|_| "server thread panicked".to_string())
    }
}

/// Median `/run` latency the daemon itself saw, in µs, interpolated
/// linearly inside the histogram bucket that holds it. The bucket's
/// upper bound alone overstates by up to 1/16, which at serve_miss's
/// millisecond latencies is more than the time spent outside the server.
fn server_p50_us(samples: &[Sample]) -> f64 {
    // Cumulative (upper bound, count) of the non-empty buckets.
    let mut buckets: Vec<(u64, f64)> = samples
        .iter()
        .filter(|s| {
            s.name == "dircc_http_request_duration_us_bucket" && s.label("route") == Some("/run")
        })
        .filter_map(|s| Some((s.label("le")?.parse().ok()?, s.value)))
        .collect();
    buckets.sort_by_key(|b| b.0);
    let rank = buckets.last().map_or(0.0, |b| b.1) / 2.0;
    let mut below = 0.0;
    for &(upper, count) in &buckets {
        if count >= rank && count > below {
            // The histogram splits each octave into 16 equal buckets
            // (values below 16 get one each).
            let width = if upper < 16 { 1 } else { 1u64 << (upper.ilog2() - 4) };
            let lower = (upper - width) as f64;
            return lower + width as f64 * (rank - below) / (count - below);
        }
        below = count;
    }
    0.0
}

/// The daemon-side metrics both serve workloads report.
fn daemon_metrics(samples: &[Sample], client_p50_ms: f64) -> Vec<(String, f64)> {
    let sum = |name: &str, labels: &[(&str, &str)]| samples_sum(samples, name, labels);
    let hits = sum("dircc_result_cache_events_total", &[("event", "hit")]);
    let misses = sum("dircc_result_cache_events_total", &[("event", "miss")]);
    let server_p50 = server_p50_us(samples);
    vec![
        ("serve.server_p50_us".to_string(), server_p50),
        ("serve.outside_p50_us".to_string(), client_p50_ms * 1e3 - server_p50),
        ("serve.hit_ratio".to_string(), hits / (hits + misses).max(1.0)),
        ("serve.retries_429".to_string(), sum("dircc_http_refused_total", &[("status", "429")])),
        ("serve.runs_executed".to_string(), sum("dircc_runs_executed_total", &[])),
        ("serve.store_misses".to_string(), sum("dircc_trace_store_misses_total", &[])),
    ]
}

/// Per-call cost, in µs, of each hit-path step on the workload's exact
/// bytes: parsing the request, parsing and keying the job, the cache
/// lookup, and writing the response.
fn hit_path_costs(
    ctx: &Ctx,
    tracer: &Tracer,
    parent: Option<u64>,
    url: &str,
    body: &str,
    response: &str,
) -> Result<Vec<(String, f64)>, String> {
    use std::hint::black_box;
    let iters: u32 = if ctx.smoke { 2_000 } else { 20_000 };
    let host = dircc_serve::client::host_of(url);
    let wire = format!(
        "POST /run HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    let job = JobSpec::from_json(body.as_bytes()).map_err(|e| e.to_string())?;
    let cache = ResultCache::new(64);
    let key = job.canonical();
    cache.get_or_fill(&key, || Ok(response.to_string())).0.map_err(|e| e.1)?;
    let mut out = Vec::with_capacity(wire.len() + response.len());
    let per_call = |name: &str, f: &mut dyn FnMut() -> bool| -> Result<(String, f64), String> {
        let secs = tracer.span(name, parent, |_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                if !black_box(f()) {
                    return Err(format!("{name}: unexpected result"));
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        Ok((format!("{name}_us"), secs * 1e6 / f64::from(iters)))
    };
    Ok(vec![
        per_call("serve.http_parse", &mut || {
            http::read_request(&mut black_box(wire.as_bytes())).is_ok()
        })?,
        per_call("serve.job_parse", &mut || {
            JobSpec::from_json(black_box(body.as_bytes())).map(|j| j.canonical()).is_ok()
        })?,
        per_call("serve.cache_hit", &mut || {
            cache.get_or_fill(black_box(&key), || Err((500, "filled".to_string()))).0.is_ok()
        })?,
        per_call("serve.write", &mut || {
            out.clear();
            let headers = [("X-Cache", "hit"), ("x-request-id", "00000000-00000001")];
            http::write_response(&mut out, 200, &headers, response.as_bytes()).is_ok()
        })?,
    ])
}

pub fn hit_traced(ctx: &Ctx, tracer: &Tracer) -> Result<Traced, String> {
    let bodies = headline_jobs(ctx);
    let want = expected_bodies(&bodies)?;
    let (load, samples, costs) = tracer.span("serve_hit", None, |root| -> Result<_, String> {
        let daemon = tracer.span("serve.start", root, |_| InProcess::start(ctx, tracer, root))?;
        tracer.span("serve.prime", root, |_| prime(&daemon.url, &bodies))?;
        let load = tracer.span("serve.load", root, |_| {
            drive(
                ctx,
                &daemon.url,
                SMOKE_HITS,
                |k| bodies[k as usize % bodies.len()].clone(),
                |k, r| check_hit(&want, k, r),
            )
        });
        let samples = daemon.scrape()?;
        let costs = hit_path_costs(ctx, tracer, root, &daemon.url, &bodies[0], &want[0])?;
        daemon.stop()?;
        Ok((load, samples, costs))
    })?;
    let profile = tracer.profile();
    let mut metrics = daemon_metrics(&samples, client_p50_ms(&load));
    metrics.extend(costs);
    metrics.push(("layers.coverage".to_string(), profile.coverage()));
    Ok(Traced { checks: load.checks, metrics, profile })
}

/// Re-executes `SPLIT_JOBS` miss jobs step by step — the calls
/// `WorkbenchHandler::run` makes, each in its own span — and checks the
/// rendered body against the handler's.
fn miss_steps(
    ctx: &Ctx,
    tracer: &Tracer,
    parent: Option<u64>,
    configs: &[LoadConfig],
    checks: &mut Checks,
) -> Result<(), String> {
    let cfg = RunConfig::default().with_process_sharing();
    let reference = WorkbenchHandler::new();
    let refs = job_refs(ctx);
    for i in 0..SPLIT_JOBS {
        // Seeds past any request index of the load phase.
        let k = u64::from(u32::MAX) + i;
        let config = &configs[k as usize % configs.len()];
        let seed = miss_seed(ctx, k);
        let profile = dircc_sim::profile_by_name(&config.trace)?.with_total_refs(refs);
        let n_caches = usize::from(profile.cpus);
        let trace_name = profile.name.to_string();
        let kind = dircc_sim::scheme_by_name(&config.scheme, n_caches)?;
        let store = Arc::new(TraceStore::new(vec![profile], seed));
        tracer.span("trace.generate", parent, |_| store.records(0, TraceFilter::Full));
        tracer.span("trace.intern", parent, |_| {
            store.interner(0, cfg.geometry);
            store.dense_blocks(0, TraceFilter::Full, cfg.geometry)
        });
        tracer.span("trace.soa", parent, |_| {
            store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing)
        });
        let counters = tracer.span("sim.replay", parent, |_| {
            Workbench::with_store(Arc::clone(&store)).counters(kind, 0, TraceFilter::Full)
        });
        let body = tracer.span("sim.render", parent, |_| {
            let name = dircc_core::build(kind, n_caches).name().to_string();
            let eval = Evaluation::new(name, kind, n_caches, (*counters).clone());
            run_response_json(&eval, &trace_name, Some(refs), seed, "full")
        });
        let want = expected(&reference, &job_body(config, refs, seed))?;
        checks.attempted += 1;
        checks.expect(body == want, || {
            format!("{}/{} seed {seed}: step-by-step body differs", config.scheme, config.trace)
        });
    }
    Ok(())
}

pub fn miss_traced(ctx: &Ctx, tracer: &Tracer) -> Result<Traced, String> {
    let configs = load_pool(4);
    let mut steps = Checks::default();
    let (mut load, samples) = tracer.span("serve_miss", None, |root| -> Result<_, String> {
        let daemon = tracer.span("serve.start", root, |_| InProcess::start(ctx, tracer, root))?;
        tracer.span("serve.prime", root, |_| prime(&daemon.url, &headline_jobs(ctx)))?;
        let load = tracer.span("serve.load", root, |_| {
            drive(
                ctx,
                &daemon.url,
                SMOKE_MISSES,
                |k| miss_job(ctx, &configs, k),
                |_, r| cache_is(r, "miss"),
            )
        });
        let samples = daemon.scrape()?;
        daemon.stop()?;
        tracer.span("serve.steps", root, |steps_id| {
            miss_steps(ctx, tracer, steps_id, &configs, &mut steps)
        })?;
        Ok((load, samples))
    })?;
    load.checks.attempted += steps.attempted;
    load.checks.mismatches.extend(steps.mismatches);
    let profile = tracer.profile();
    let per_job_ms = |name: &str| median(&profile.durations_s(name)) * 1e3;
    let mut metrics = daemon_metrics(&samples, client_p50_ms(&load));
    metrics.extend([
        ("serve.handler_ms".to_string(), per_job_ms("serve.handler")),
        ("trace.generate_ms".to_string(), per_job_ms("trace.generate")),
        ("trace.intern_ms".to_string(), per_job_ms("trace.intern")),
        ("trace.soa_ms".to_string(), per_job_ms("trace.soa")),
        ("sim.replay_ms".to_string(), per_job_ms("sim.replay")),
        ("sim.render_ms".to_string(), per_job_ms("sim.render")),
        ("layers.coverage".to_string(), profile.coverage()),
    ]);
    Ok(Traced { checks: load.checks, metrics, profile })
}
