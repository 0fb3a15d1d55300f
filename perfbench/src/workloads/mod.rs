//! The five workloads. Each has an untraced `measure` (the end-to-end
//! metrics) and a `traced` run (the per-layer metrics). Both check the
//! program's outputs.
//!
//! Every end-to-end metric is defined the same way on every workload,
//! over that workload's *operation*: one `dircc all`, one replay pass
//! over the paper matrix, one `dircc replay --in`, one `/run` request.

mod paper_all;
mod replay;
mod serve;

use std::path::PathBuf;
use std::time::Instant;

use crate::child::{self, Exit};
use crate::spans::{Profile, Tracer};
use crate::stats::median;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `J`: `--jobs`, daemon workers and client threads.
    pub jobs: usize,
    pub dircc: PathBuf,
    /// Scratch directory for trace files, inside the checkout.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// References per trace: paper scale, or 20,000 under `--smoke`.
    pub fn refs(&self) -> Option<u64> {
        self.smoke.then_some(20_000)
    }

    /// `--refs N` under `--smoke`, nothing at paper scale.
    pub fn refs_args(&self) -> Vec<String> {
        self.refs().map_or_else(Vec::new, |n| vec!["--refs".to_string(), n.to_string()])
    }

    /// Whether a measurement loop that has done `done` operations since
    /// `started` goes on: for `--seconds` (at least one operation), or
    /// exactly `smoke_ops` operations under `--smoke`.
    pub fn keep_going(&self, started: Instant, done: usize, smoke_ops: usize) -> bool {
        if self.smoke {
            done < smoke_ops
        } else {
            done == 0 || started.elapsed().as_secs_f64() < self.seconds
        }
    }

    pub fn dircc(&self, args: &[String]) -> Result<Exit, String> {
        child::run(&self.dircc, args)
    }
}

/// Operations attempted and failed, and every output that did not
/// match its reference.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// A run splits its operations into at most this many consecutive
/// chunks of at least `CHUNK_OPS` each.
const MAX_CHUNKS: usize = 10;
const CHUNK_OPS: usize = 100;

/// What an untraced run measured.
#[derive(Default)]
pub struct Run {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Each completed operation, in completion order: (seconds from the
    /// start of measurement to its completion, its latency in ms).
    pub ops: Vec<(f64, f64)>,
    /// Peak resident memory of the process doing the work.
    pub peak_rss_mb: f64,
    pub checks: Checks,
}

impl Run {
    /// Records one `dircc` command, run in the measurement that began at
    /// `started`, as an operation.
    fn child_op(&mut self, started: Instant, exit: &Exit) {
        self.checks.attempted += 1;
        if !exit.ok {
            self.checks.failed += 1;
            let tail = exit.stderr.lines().last().unwrap_or("");
            self.checks.mismatches.push(format!("dircc exited with an error: {tail}"));
            return;
        }
        self.ops.push((started.elapsed().as_secs_f64(), exit.wall_s * 1e3));
        self.peak_rss_mb = self.peak_rss_mb.max(exit.peak_rss_mb);
    }

    /// Operations in completion order, cut into consecutive chunks of
    /// at least `CHUNK_OPS` (one chunk when there are fewer).
    fn chunks(&self) -> Vec<(f64, &[(f64, f64)])> {
        let n = self.ops.len();
        let k = (n / CHUNK_OPS).clamp(1, MAX_CHUNKS);
        (0..k)
            .map(|j| {
                let (a, b) = (j * n / k, (j + 1) * n / k);
                let since = if a == 0 { 0.0 } else { self.ops[a - 1].0 };
                (since, &self.ops[a..b])
            })
            .collect()
    }

    /// The end-to-end metrics. Median latency and throughput are
    /// computed per chunk and reported as the median over chunks, so a
    /// burst of host interference shorter than a chunk moves one chunk,
    /// not the result.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let (mut p50, mut rate) = (Vec::new(), Vec::new());
        for (since, chunk) in self.chunks().into_iter().filter(|(_, c)| !c.is_empty()) {
            let lat: Vec<f64> = chunk.iter().map(|o| o.1).collect();
            p50.push(median(&lat));
            let span = chunk[chunk.len() - 1].0 - since;
            rate.push(chunk.len() as f64 / span.max(1e-9));
        }
        vec![
            ("setup_s".to_string(), median(&self.setup_s)),
            ("p50_ms".to_string(), median(&p50)),
            ("ops_per_s".to_string(), median(&rate)),
            ("peak_rss_mb".to_string(), self.peak_rss_mb),
        ]
    }

    /// Sample counts behind the medians.
    pub fn samples(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("setup", self.setup_s.len()),
            ("ops", self.ops.len()),
            ("chunks", self.chunks().len()),
        ]
    }
}

/// What a traced run found.
pub struct Traced {
    pub checks: Checks,
    pub metrics: Vec<(String, f64)>,
    pub profile: Profile,
}

pub struct Workload {
    pub name: &'static str,
    pub measure: fn(&Ctx) -> Result<Run, String>,
    pub traced: fn(&Ctx, &Tracer) -> Result<Traced, String>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload { name: "paper_all", measure: paper_all::measure, traced: paper_all::traced },
    Workload {
        name: "replay_matrix",
        measure: replay::matrix_measure,
        traced: replay::matrix_traced,
    },
    Workload { name: "replay_file", measure: replay::file_measure, traced: replay::file_traced },
    Workload { name: "serve_hit", measure: serve::hit_measure, traced: serve::hit_traced },
    Workload { name: "serve_miss", measure: serve::miss_measure, traced: serve::miss_traced },
];

/// Runs `f` `reps` times as set-up, returning each repetition's seconds
/// and the last result. Each earlier result is dropped before the next
/// repetition starts, so repetitions do not hold each other's memory.
pub fn setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one repetition")))
}

/// The per-scheme replay cost, `core.<scheme>.ns_per_ref`, plus
/// `sim.refs_replayed`, `sim.runs` and `sim.refs_per_s`, from the
/// workbench's own per-run replay timings.
fn replay_costs(timings: &[dircc_sim::RunTiming]) -> Vec<(String, f64)> {
    let mut by_scheme: std::collections::BTreeMap<String, (f64, u64)> = Default::default();
    let (mut refs, mut secs) = (0u64, 0.0f64);
    for t in timings {
        let e = by_scheme.entry(t.scheme.clone()).or_default();
        e.0 += t.wall.as_secs_f64();
        e.1 += t.refs;
        refs += t.refs;
        secs += t.wall.as_secs_f64();
    }
    let mut out: Vec<(String, f64)> = by_scheme
        .into_iter()
        .map(|(scheme, (s, r))| (format!("core.{scheme}.ns_per_ref"), s * 1e9 / r.max(1) as f64))
        .collect();
    out.push(("sim.refs_replayed".to_string(), refs as f64));
    out.push(("sim.runs".to_string(), timings.len() as f64));
    out.push(("sim.refs_per_s".to_string(), refs as f64 / secs.max(1e-9)));
    out
}

/// The paper's Table 5 cumulative pipelined cycles per reference for
/// the four headline schemes.
const TABLE5_PAPER: [(&str, f64); 4] =
    [("Dir1NB", 0.3210), ("WTI", 0.1466), ("Dir0B", 0.0491), ("Dragon", 0.0336)];

/// `core.cpr_err_pct`: mean relative error, in percent, of the
/// simulated headline cycles per reference against the paper's Table 5.
fn cpr_error(wb: &dircc_sim::Workbench) -> (String, f64) {
    let t5 = dircc_sim::experiments::tables::table5(wb);
    let err: f64 = TABLE5_PAPER
        .iter()
        .map(|(scheme, paper)| (t5.cumulative(scheme).unwrap_or(0.0) - paper).abs() / paper)
        .sum();
    ("core.cpr_err_pct".to_string(), 100.0 * err / TABLE5_PAPER.len() as f64)
}
