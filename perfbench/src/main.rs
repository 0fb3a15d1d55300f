//! `dircc-bench`: the repository benchmark.
//!
//! ```text
//! dircc-bench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! dircc-bench compare A.jsonl B.jsonl
//! ```
//!
//! Runs one workload (default: all five, in order), prints every metric
//! by name and unit, checks the program's outputs, and ends each
//! workload with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` runs the workload in process with a span around
//! every call into a layer and reports the per-layer metrics. Metric
//! names, units and bounds come from the repository's `BENCHMARK.json`.
//! `--out DIR` appends each result, with its host block, to
//! `DIR/results.jsonl` and writes traced runs' spans to
//! `DIR/spans-<workload>-<seed>.json`. The exit code is 0 only when
//! every check passed.

mod child;
mod compare;
mod host;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use spans::Tracer;
use spec::Spec;
use workloads::{Checks, Ctx, Workload, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1988, seconds: None, trace: false, smoke: false, out: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

/// A metric value as JSON: finite, with every digit.
fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn run_workload(
    spec: &Spec,
    ctx: &Ctx,
    w: &Workload,
    args: &Args,
    host: &host::Host,
) -> Result<bool, String> {
    println!(
        "workload {} (seed {}, {} jobs, trace {})",
        w.name, ctx.seed, ctx.jobs, args.trace as u8
    );
    let (checks, values, samples, spans): (Checks, _, _, _) = if args.trace {
        let tracer = Tracer::new();
        let t = (w.traced)(ctx, &tracer)?;
        (t.checks, t.metrics, Vec::new(), Some(t.profile.chrome_json(w.name)))
    } else {
        let run = (w.measure)(ctx)?;
        let (metrics, samples) = (run.metrics(), run.samples());
        (run.checks, metrics, samples, None)
    };

    // Exactly the metrics BENCHMARK.json declares for this mode, in its
    // order. A per-layer metric of a layer this workload does not
    // exercise reads 0; every end-to-end metric must be measured.
    let declared = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    if let Some((name, _)) = values.iter().find(|(n, _)| !declared.iter().any(|m| m.name == *n)) {
        return Err(format!("{}: metric {name} is not declared in BENCHMARK.json", w.name));
    }
    let mut fields = Vec::new();
    for m in declared {
        let value = match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => return Err(format!("{}: end-to-end metric {} not measured", w.name, m.name)),
        };
        println!("  {:<30} {:>18.6} {}", m.name, value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(value)?,
            m.unit
        ));
    }
    let correct = checks.mismatches.is_empty() && checks.failed == 0;
    for m in checks.mismatches.iter().take(10) {
        println!("  check failed: {m}");
    }
    if checks.mismatches.len() > 10 {
        println!("  ... and {} more failed checks", checks.mismatches.len() - 10);
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );

    if let Some(dir) = &args.out {
        let counts: Vec<String> = samples.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"host\": {}, \
             \"samples\": {{{}}}, \"result\": {line}}}\n",
            w.name,
            ctx.seed,
            args.trace as u8,
            ctx.smoke,
            host.json(),
            counts.join(", ")
        );
        let path = dir.join("results.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        std::io::Write::write_all(&mut file, record.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(spans) = spans {
            let path = dir.join(format!("spans-{}-{}.json", w.name, ctx.seed));
            std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{line}");
    Ok(correct)
}

fn bench(argv: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let args = parse_args(argv)?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if spec.workloads != names {
        return Err(format!(
            "BENCHMARK.json names workloads {:?}, the bench runs {names:?}",
            spec.workloads
        ));
    }
    let selected: Vec<&Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => vec![WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name}; one of {names:?}"))?],
    };
    // `dircc` is built next to this binary (see Cargo.toml).
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dircc = exe.with_file_name("dircc");
    if !dircc.is_file() {
        return Err(format!("{} not found; build this package first", dircc.display()));
    }
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        smoke: args.smoke,
        jobs: host::jobs(),
        dircc,
        work_dir: work.0.clone(),
    };
    let host = host::Host::probe(ctx.jobs);
    println!("host {}", host.json());
    let mut all_correct = true;
    for w in selected {
        all_correct &= run_workload(&spec, &ctx, w, &args, &host)?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => compare::run(&argv[1..]),
        _ => bench(&argv),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dircc-bench: {e}");
            ExitCode::from(2)
        }
    }
}
