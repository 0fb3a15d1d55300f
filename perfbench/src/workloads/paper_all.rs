//! `paper_all`: the headline user path, a child `dircc all`.
//!
//! Each trace is cut to `REFS` references. At paper scale (3.2-3.5M per
//! trace) one `dircc all` takes over 5 s on a 2-core host, so a run
//! holds only a few operations and cannot average out host interference;
//! at 500,000 references an operation takes about a second and every
//! stage but the system study still scales with the trace length.
//!
//! Replay is a small share of it; trace generation, interning, the
//! finite-cache studies and Table 3's statistics make up most of it, so
//! gains outside the replay loop show here and replay-only gains are
//! diluted. The in-process rendering below calls the same library
//! functions `dircc all` calls, in the same order; it is the reference
//! the child's stdout must equal, and with tracing on it is where the
//! per-layer times come from.

use std::fmt::Display;
use std::time::Instant;

use dircc_core::ProtocolKind;
use dircc_sim::experiments::{extensions, figures, network, studies, system, tables};
use dircc_sim::{RunConfig, TraceFilter, Workbench};
use dircc_trace::store::TraceStore;

use super::{cpr_error, replay_costs, setup, Checks, Ctx, Run, Traced};
use crate::spans::Tracer;

const REFS: u64 = 500_000;
/// References per trace of the set-up runs.
const WARMUP_REFS: u64 = 20_000;

fn refs(ctx: &Ctx) -> u64 {
    ctx.refs().unwrap_or(REFS)
}

/// Set-up: 5 warm-up runs of `dircc all` at `WARMUP_REFS` references
/// per trace. They load the binary and its data into the page cache, and
/// their time is mostly what `dircc all` costs whatever the trace length:
/// the launch, the constant tables and the system study.
fn warm_up(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let (times, _) = setup(5, || {
        let exit = ctx.dircc(&all_args(ctx, WARMUP_REFS))?;
        if exit.ok {
            Ok(())
        } else {
            Err(format!("warm-up dircc all failed: {}", exit.stderr.trim()))
        }
    })?;
    Ok(times)
}

type Experiment = (&'static str, fn(&Workbench) -> Box<dyn Display>);

/// Every experiment `dircc all` prints, in its order.
const EXPERIMENTS: [Experiment; 18] = [
    ("table1", |_| Box::new(tables::table1())),
    ("table2", |_| Box::new(tables::table2())),
    ("table3", |wb| Box::new(tables::table3(wb))),
    ("table4", |wb| Box::new(tables::table4(wb))),
    ("table5", |wb| Box::new(tables::table5(wb))),
    ("figure1", |wb| Box::new(figures::figure1(wb))),
    ("figure2", |wb| Box::new(figures::figure2(wb))),
    ("figure3", |wb| Box::new(figures::figure3(wb))),
    ("figure4", |wb| Box::new(figures::figure4(wb))),
    ("figure5", |wb| Box::new(figures::figure5(wb))),
    ("sensitivity", |wb| Box::new(studies::sensitivity(wb))),
    ("spinlock", |wb| Box::new(studies::spinlock(wb))),
    ("berkeley", |wb| Box::new(studies::berkeley(wb))),
    ("scalability", |wb| Box::new(studies::scalability(wb))),
    ("system", |wb| Box::new(system::system(wb))),
    ("finitecache", |wb| Box::new(extensions::finite_cache(wb))),
    ("footnote2", |wb| Box::new(extensions::footnote2(wb))),
    ("storage", |_| Box::new(network::storage_table())),
];

/// Experiments reported under their own name; the rest are summed into
/// `sim.experiments_rest_s`.
const NAMED: [&str; 4] = ["sim.footnote2", "sim.finitecache", "sim.table3", "sim.system"];

/// Materializes every stream the paper matrix replays, one span per
/// trace layer: the work `Workbench::counters` does on a cold store.
pub fn build_streams(
    store: &TraceStore,
    work: &[(ProtocolKind, TraceFilter)],
    tracer: &Tracer,
    parent: Option<u64>,
) {
    let cfg = RunConfig::default().with_process_sharing();
    let mut filters: Vec<TraceFilter> = work.iter().map(|&(_, f)| f).collect();
    filters.sort_by_key(|&f| f == TraceFilter::ExcludeLockSpins);
    filters.dedup();
    let traces = 0..store.num_traces();
    tracer.span("trace.generate", parent, |_| {
        for t in traces.clone() {
            store.records(t, TraceFilter::Full);
        }
    });
    tracer.span("trace.filter", parent, |_| {
        for t in traces.clone() {
            for &f in filters.iter().filter(|&&f| f != TraceFilter::Full) {
                store.records(t, f);
            }
        }
    });
    tracer.span("trace.intern", parent, |_| {
        for t in traces.clone() {
            store.interner(t, cfg.geometry);
            for &f in &filters {
                store.dense_blocks(t, f, cfg.geometry);
            }
        }
    });
    tracer.span("trace.soa", parent, |_| {
        for t in traces.clone() {
            for &f in &filters {
                store.soa(t, f, cfg.geometry, cfg.sharing);
            }
        }
    });
}

/// Renders `dircc all`'s stdout in process.
fn render(ctx: &Ctx, tracer: &Tracer, parent: Option<u64>) -> (String, Workbench) {
    let wb = Workbench::paper_scaled(refs(ctx), ctx.seed);
    let work = wb.paper_workload();
    build_streams(wb.store(), &work, tracer, parent);
    tracer.span("sim.replay", parent, |_| wb.warm(&work, ctx.jobs));
    let mut out = String::new();
    for (name, run) in EXPERIMENTS {
        let value = tracer.span(&format!("sim.{name}"), parent, |_| run(&wb));
        out.push_str(&tracer.span("sim.render", parent, |_| value.to_string()));
        out.push('\n');
    }
    (out, wb)
}

fn all_args(ctx: &Ctx, refs: u64) -> Vec<String> {
    let (jobs, seed, refs) = (ctx.jobs.to_string(), ctx.seed.to_string(), refs.to_string());
    ["all", "--jobs", &jobs, "--seed", &seed, "--refs", &refs].map(String::from).to_vec()
}

pub fn measure(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run { setup_s: warm_up(ctx)?, ..Run::default() };
    let mut outputs = Vec::new();
    let started = Instant::now();
    while ctx.keep_going(started, run.checks.attempted as usize, 1) {
        let exit = ctx.dircc(&all_args(ctx, refs(ctx)))?;
        run.child_op(started, &exit);
        if exit.ok {
            outputs.push(exit.stdout);
        }
    }
    let (want, _) = render(ctx, &Tracer::off(), None);
    for (i, got) in outputs.iter().enumerate() {
        run.checks.expect(*got == want, || {
            format!("dircc all run {i}: stdout differs from the in-process rendering")
        });
    }
    Ok(run)
}

pub fn traced(ctx: &Ctx, tracer: &Tracer) -> Result<Traced, String> {
    let (want, wb) = tracer.span("paper_all", None, |root| render(ctx, tracer, root));
    let mut checks = Checks::default();
    let exit = ctx.dircc(&all_args(ctx, refs(ctx)))?;
    checks.attempted += 1;
    if !exit.ok {
        checks.failed += 1;
    }
    checks.expect(exit.ok && exit.stdout == want, || {
        "dircc all: stdout differs from the traced in-process rendering".to_string()
    });

    let profile = tracer.profile();
    let mut metrics = vec![
        ("trace.generate_s".to_string(), profile.self_s("trace.generate")),
        ("trace.filter_s".to_string(), profile.self_s("trace.filter")),
        ("trace.intern_s".to_string(), profile.self_s("trace.intern")),
        ("trace.soa_s".to_string(), profile.self_s("trace.soa")),
        ("sim.replay_s".to_string(), profile.self_s("sim.replay")),
        ("sim.render_s".to_string(), profile.self_s("sim.render")),
        (
            "sim.experiments_rest_s".to_string(),
            profile.self_s_prefixed("sim.", &[&NAMED[..], &["sim.replay", "sim.render"]].concat()),
        ),
        ("layers.coverage".to_string(), profile.coverage()),
        cpr_error(&wb),
    ];
    for name in NAMED {
        metrics.push((format!("{name}_s"), profile.self_s(name)));
    }
    metrics.extend(replay_costs(&wb.timings()));
    Ok(Traced { checks, metrics, profile })
}
