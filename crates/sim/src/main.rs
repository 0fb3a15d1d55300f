//! `dircc` — command-line experiment runner.
//!
//! Each subcommand regenerates one artifact of the ISCA 1988 paper from
//! the synthetic trace suite:
//!
//! ```text
//! dircc table1|table2|table3|table4|table5
//! dircc figure1|figure2|figure3|figure4|figure5
//! dircc sensitivity|spinlock|berkeley|scalability
//! dircc all                          # everything, in paper order
//! dircc record --profile pops --out t.dcct  # write a chunked v2 trace
//! dircc replay --in t.dcct [--scheme S] [--verify]   # stream a trace file
//! dircc replay --profile pops             # replay a generated trace in memory
//! dircc stats --in t.dcct                 # Table 3 stats of a trace file
//! dircc bench [--smoke] [--out FILE]      # counter-digest report of the paper matrix
//! dircc benchcmp [--smoke] [--in FILE]    # counter-drift gate against a report
//! dircc check [--smoke] [--cpus N] [--blocks M] [--depth D] [--scheme S]
//! dircc profile <experiment> [--window K] [--out FILE] [--spans FILE]
//! dircc serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--queue N]
//! dircc submit --serve URL --scheme S [--profile P] [--op run|series|health|metrics|spans|shutdown]
//! dircc top --serve URL [--interval S] [--once]   # live /metrics dashboard
//! ```
//!
//! `dircc check` exhaustively explores every protocol's state space up to
//! the given bounds (see the `dircc-check` crate) and prints a per-scheme
//! PASS/FAIL table; any violation prints a minimal counterexample and
//! fails the process. `dircc bench` writes the counter digest of every
//! paper-matrix run and the v2-encoded size of every trace; every field
//! is deterministic, so the report is byte-identical across `--jobs`.
//! `dircc benchcmp` rebuilds that report and fails if any
//! field drifts from a checked-in baseline. Wall-clock performance is
//! measured by the `perfbench` package, not by `dircc`.
//! `dircc profile` replays an experiment's work list with windowed
//! counter sampling: it writes a JSONL time series (one line per window),
//! a Chrome trace-event span profile of every workbench phase, and prints
//! a per-run cycles-per-reference sparkline.
//!
//! `dircc record` writes the chunked, delta-compressed v2 trace format
//! (`--chunk N` records per chunk), the one format `replay`, `stats` and
//! `sharing` read (a flat v1 file is rejected with a pointer back to
//! `record`). `dircc replay` streams a recorded trace through the engine
//! in one serial pass that decodes the file once for every scheme, with
//! memory bounded by one chunk's payload and one replay batch. Without
//! `--in`, `replay` generates the `--profile` trace in memory and replays
//! the classic indexed path; stdout is byte-identical between the two
//! modes.
//!
//! Common flags: `--refs N` (references per trace; default = paper scale),
//! `--seed S` (default 1988), `--jobs N` (worker threads; default = the
//! machine's available parallelism). Any other flag applies only to the
//! commands its `FLAGS` row names, and is rejected elsewhere. Results are
//! independent of `--jobs`: stdout is byte-identical for any value; the
//! per-run wall-clock timing summary goes to stderr, and only with
//! `--verbose`. Everything a command prints goes through [`out`] or
//! [`err`], so a closed or full stdout or stderr ends the command with
//! exit 1, not a panic.

// `print!` and `eprint!` panic on a closed or full stream; `out!` and
// `err!` return the error.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use dircc_bus::{CostConfig, CostModel};
use dircc_check::{check_protocol, CheckConfig};
use dircc_core::ProtocolKind;
use dircc_obs::json::{self, Json};
use dircc_obs::{
    chrome_trace, parse_exposition, samples_sum, window_jsonl_line, MetricsRegistry, RunMeta,
    Sample,
};
use dircc_serve::{client, JobHandler, ServeConfig, Server, MAX_REFS};
use dircc_sim::experiments::{extensions, figures, network, studies, system, tables};
use dircc_sim::{
    default_jobs, filter_label, profile_by_name, report, run_chunked_many, run_indexed,
    run_response_json, scheme_by_name, Evaluation, RunConfig, RunResult, TraceFilter, Workbench,
    WorkbenchHandler,
};
use dircc_trace::chunk::{DEFAULT_CHUNK_RECORDS, MAX_CHUNK_RECORDS};
use dircc_trace::gen::Generator;
use dircc_trace::sharing::SharingProfile;
use dircc_trace::stats::TraceStats;
use dircc_trace::{open_trace, ChunkedWriter, Records, SoaStream, TraceRecord};
use std::fmt::Display;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Writes to `stream`, called `name`, as `print!` and `eprint!` do, but
/// a closed or full stream is an `Err("{name}: …")` where they would
/// panic.
fn write_stream(
    mut stream: impl std::io::Write,
    name: &str,
    args: std::fmt::Arguments,
) -> Result<(), String> {
    stream.write_fmt(args).map_err(|e| format!("{name}: {e}"))
}

/// The CLI's one way to stdout, through the line-buffered `io::stdout()`.
fn out(args: std::fmt::Arguments) -> Result<(), String> {
    write_stream(std::io::stdout(), "stdout", args)
}

/// The CLI's one way to stderr: timing tables, request IDs, drift lines
/// and error messages.
fn err(args: std::fmt::Arguments) -> Result<(), String> {
    write_stream(std::io::stderr(), "stderr", args)
}

/// `print!` through [`out`].
macro_rules! out {
    ($($arg:tt)*) => {
        out(format_args!($($arg)*))
    };
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprint!` through [`err`].
macro_rules! err {
    ($($arg:tt)*) => {
        err(format_args!($($arg)*))
    };
}

/// `eprintln!` through [`err`].
macro_rules! errln {
    ($($arg:tt)*) => {
        err(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// What a subcommand does with `--in`/`--out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Io {
    /// Pure experiment: any `--in`/`--out` is a usage error.
    None,
    /// Reads a trace file (`--in`).
    Reads,
    /// Writes a trace file (`--out`).
    Writes,
}

/// How a subcommand executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Printed from the shared [`Workbench`] via `run_experiment`.
    Workbench,
    /// Standalone sweep with its own trace store and default refs.
    Scaling,
    /// Standalone mesh-network sweep.
    Network,
    /// Standalone block-size sweep.
    BlockSize,
    /// Chunked v2 trace-file producer.
    Record,
    /// Streaming replay of a trace file (or an in-memory profile).
    Replay,
    /// Trace-file statistics.
    Stats,
    /// Trace-file sharing profile.
    Sharing,
    /// Every `in_all` experiment, in table order.
    All,
    /// Counter-digest report of the calibrated paper matrix.
    Bench,
    /// Regression gate: a fresh bench report vs a checked-in baseline.
    BenchCmp,
    /// Bounded exhaustive model check of every protocol.
    Check,
    /// Windowed time-series + span profile of one experiment's work list.
    Profile,
    /// Long-running HTTP simulation service (see the `dircc-serve` crate).
    Serve,
    /// One-shot HTTP client for a running `dircc serve` daemon.
    Submit,
    /// Polling `/metrics` terminal dashboard for a running daemon.
    Top,
}

struct CommandSpec {
    name: &'static str,
    kind: Kind,
    io: Io,
    /// Included in the `dircc all` sequence (in this table's order).
    in_all: bool,
}

/// The single source of truth for the CLI: usage, dispatch and the `all`
/// sequence are all derived from this table.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "table1", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table3", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table4", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table5", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure1", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure3", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure4", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure5", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "sensitivity", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "spinlock", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "berkeley", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "scalability", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "system", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "finitecache", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "footnote2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "storage", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "scaling", kind: Kind::Scaling, io: Io::None, in_all: false },
    CommandSpec { name: "network", kind: Kind::Network, io: Io::None, in_all: false },
    CommandSpec { name: "blocksize", kind: Kind::BlockSize, io: Io::None, in_all: false },
    CommandSpec { name: "all", kind: Kind::All, io: Io::None, in_all: false },
    CommandSpec { name: "bench", kind: Kind::Bench, io: Io::Writes, in_all: false },
    CommandSpec { name: "benchcmp", kind: Kind::BenchCmp, io: Io::Reads, in_all: false },
    CommandSpec { name: "check", kind: Kind::Check, io: Io::None, in_all: false },
    CommandSpec { name: "profile", kind: Kind::Profile, io: Io::Writes, in_all: false },
    CommandSpec { name: "serve", kind: Kind::Serve, io: Io::None, in_all: false },
    CommandSpec { name: "submit", kind: Kind::Submit, io: Io::None, in_all: false },
    CommandSpec { name: "top", kind: Kind::Top, io: Io::None, in_all: false },
    CommandSpec { name: "record", kind: Kind::Record, io: Io::Writes, in_all: false },
    CommandSpec { name: "replay", kind: Kind::Replay, io: Io::Reads, in_all: false },
    CommandSpec { name: "stats", kind: Kind::Stats, io: Io::Reads, in_all: false },
    CommandSpec { name: "sharing", kind: Kind::Sharing, io: Io::Reads, in_all: false },
];

fn spec_for(command: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == command)
}

#[derive(Default)]
struct Args {
    command: String,
    /// Positional argument (the experiment `dircc profile` targets).
    target: Option<String>,
    refs: Option<u64>,
    seed: u64,
    jobs: usize,
    profile: String,
    out: Option<String>,
    input: Option<String>,
    smoke: bool,
    verbose: bool,
    window: Option<u64>,
    spans_out: Option<String>,
    cpus: Option<usize>,
    blocks: Option<usize>,
    depth: Option<usize>,
    scheme: Option<String>,
    chunk: Option<usize>,
    verify: bool,
    json: bool,
    addr: Option<String>,
    workers: Option<usize>,
    cache_entries: Option<usize>,
    queue: Option<usize>,
    serve_url: Option<String>,
    op: Option<String>,
    filter: Option<String>,
    expect_cache: Option<String>,
    log_json: bool,
    once: bool,
    interval: Option<f64>,
}

/// One command-line flag: its name, the placeholder the usage line shows
/// for its value (empty for a switch), the commands it applies to (empty
/// for every command; [`EXPERIMENTS`] stands for every workbench
/// experiment) and the parser that stores its value in [`Args`].
struct FlagSpec {
    name: &'static str,
    value: &'static str,
    commands: &'static [&'static str],
    parse: fn(&mut Args, Value) -> Result<(), String>,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    commands: &'static [&'static str],
    parse: fn(&mut Args, Value) -> Result<(), String>,
) -> FlagSpec {
    FlagSpec { name, value, commands, parse }
}

const ANY: &[&str] = &[];
/// In a flag's command list: every [`Kind::Workbench`] command.
const EXPERIMENTS: &str = "workbench experiments";
/// The `dircc submit` operations.
const OPS: &[&str] = &["run", "series", "health", "metrics", "spans", "shutdown"];

/// The single source of truth for flags: parsing, the "only applies to"
/// checks and the usage line are all derived from this table. Rules that
/// span flags or depend on a command's data direction stay in
/// [`validate`].
const FLAGS: &[FlagSpec] = &[
    flag("--refs", "N", ANY, |a, v| {
        v.must(|&n| n <= MAX_REFS, &format!("at most {MAX_REFS}")).map(|n| a.refs = Some(n))
    }),
    flag("--seed", "S", ANY, |a, v| v.parse().map(|n| a.seed = n)),
    flag("--jobs", "N", ANY, |a, v| v.positive().map(|n| a.jobs = n)),
    flag("--profile", "pops|thor|pero|custom", ANY, |a, v| v.parse().map(|s| a.profile = s)),
    flag("--out", "FILE", ANY, |a, v| v.parse().map(|s| a.out = Some(s))),
    flag("--in", "FILE", ANY, |a, v| v.parse().map(|s| a.input = Some(s))),
    flag("--smoke", "", &["bench", "benchcmp", "check", "profile"], |a, _| on(&mut a.smoke)),
    flag("--verbose", "", ANY, |a, _| on(&mut a.verbose)),
    flag("--window", "K", &["profile", "submit"], |a, v| v.positive().map(|n| a.window = Some(n))),
    flag("--spans", "FILE", &["profile"], |a, v| v.parse().map(|s| a.spans_out = Some(s))),
    flag("--cpus", "N", &["check", "replay"], |a, v| {
        v.must(|n| (1..=64).contains(n), "in 1..=64").map(|n| a.cpus = Some(n))
    }),
    flag("--blocks", "M", &["check"], |a, v| {
        v.must(|n| (1..=64).contains(n), "in 1..=64").map(|n| a.blocks = Some(n))
    }),
    flag("--depth", "D", &["check"], |a, v| v.positive().map(|n| a.depth = Some(n))),
    flag("--scheme", "S", &["check", "replay", "submit"], |a, v| {
        v.parse().map(|s| a.scheme = Some(s))
    }),
    flag("--chunk", "N", &["record"], |a, v| {
        let rule = format!("in 1..={MAX_CHUNK_RECORDS}");
        v.must(|n| (1..=MAX_CHUNK_RECORDS).contains(n), &rule).map(|n| a.chunk = Some(n))
    }),
    flag("--verify", "", &["replay"], |a, _| on(&mut a.verify)),
    flag("--json", "", &["replay"], |a, _| on(&mut a.json)),
    flag("--addr", "HOST:PORT", &["serve"], |a, v| v.parse().map(|s| a.addr = Some(s))),
    flag("--workers", "N", &["serve"], |a, v| v.positive().map(|n| a.workers = Some(n))),
    flag("--cache-entries", "N", &["serve"], |a, v| {
        v.positive().map(|n| a.cache_entries = Some(n))
    }),
    flag("--queue", "N", &["serve"], |a, v| v.positive().map(|n| a.queue = Some(n))),
    flag("--log-json", "", &["serve"], |a, _| on(&mut a.log_json)),
    flag("--serve", "URL", &["submit", "top"], |a, v| v.parse().map(|s| a.serve_url = Some(s))),
    flag("--op", "run|series|health|metrics|spans|shutdown", &["submit"], |a, v| {
        v.one_of(OPS).map(|s| a.op = Some(s))
    }),
    flag("--filter", "full|no-spins", &["submit"], |a, v| {
        v.one_of(&TraceFilter::ALL.map(filter_label)).map(|s| a.filter = Some(s))
    }),
    flag("--expect-cache", "hit|miss", &["submit"], |a, v| {
        v.one_of(&["hit", "miss"]).map(|s| a.expect_cache = Some(s))
    }),
    flag("--interval", "S", &["top"], |a, v| {
        let rule = "a positive number of seconds";
        v.must(|s: &f64| s.is_finite() && *s > 0.0, rule).map(|s| a.interval = Some(s))
    }),
    flag("--once", "", &["top"], |a, _| on(&mut a.once)),
];

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// A flag's value, with the flag's name for error messages.
struct Value<'a> {
    flag: &'static str,
    text: &'a str,
}

impl Value<'_> {
    fn parse<T: FromStr<Err: Display>>(&self) -> Result<T, String> {
        self.text.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The parsed value if `ok` accepts it, else "`flag` must be `rule`".
    fn must<T: FromStr<Err: Display>>(&self, ok: fn(&T) -> bool, rule: &str) -> Result<T, String> {
        let v = self.parse()?;
        if ok(&v) {
            Ok(v)
        } else {
            Err(format!("{} must be {rule}", self.flag))
        }
    }

    fn positive<T: FromStr<Err: Display> + Default + PartialEq>(&self) -> Result<T, String> {
        self.must(|n| *n != T::default(), "at least 1")
    }

    fn one_of(&self, words: &[&str]) -> Result<String, String> {
        if words.contains(&self.text) {
            return Ok(self.text.to_string());
        }
        Err(format!("{} must be {}, not {}", self.flag, join(words, "or"), self.text))
    }
}

/// `words` as prose: "a", "a and b", "a, b and c" (`last` joins the end).
fn join(words: &[&str], last: &str) -> String {
    match words {
        [] => String::new(),
        [word] => word.to_string(),
        [init @ .., tail] => format!("{} {last} {tail}", init.join(", ")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut words = std::env::args().skip(1);
    let command = words.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        seed: 1988,
        jobs: default_jobs(),
        profile: "pops".to_string(),
        ..Args::default()
    };
    let mut given = Vec::new();
    while let Some(word) = words.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.name == word) {
            let text = match flag.value {
                "" => String::new(),
                _ => words.next().ok_or_else(|| format!("flag {} needs a value", flag.name))?,
            };
            (flag.parse)(&mut args, Value { flag: flag.name, text: &text })?;
            given.push(flag);
        } else if !word.starts_with('-') && args.target.is_none() {
            args.target = Some(word);
        } else {
            return Err(format!("unknown flag {word}\n{}", usage()));
        }
    }
    validate(&args, &given)?;
    Ok(args)
}

/// Rejects a flag given to a command it does not apply to, and the
/// combinations no single flag can rule out: a positional argument outside
/// `profile`, and `--in`/`--out` against the command's data direction
/// (e.g. `dircc record --in t.dcct` would otherwise write to the `--in`
/// path).
fn validate(args: &Args, given: &[&FlagSpec]) -> Result<(), String> {
    let Some(spec) = spec_for(&args.command) else {
        return Ok(()); // unknown commands error later, with the usage text
    };
    for flag in given {
        let applies = flag.commands.is_empty()
            || flag
                .commands
                .iter()
                .any(|&c| c == spec.name || (c == EXPERIMENTS && spec.kind == Kind::Workbench));
        if !applies {
            return Err(format!(
                "{} only applies to {}, not {}",
                flag.name,
                join(flag.commands, "and"),
                spec.name
            ));
        }
    }
    if spec.kind != Kind::Profile {
        if let Some(target) = &args.target {
            return Err(format!("{} takes no positional argument (got {target})", spec.name));
        }
    }
    match spec.io {
        Io::None if args.out.is_some() || args.input.is_some() => {
            Err(format!("{} is an experiment command and takes no --in/--out", spec.name))
        }
        Io::Reads if args.out.is_some() => {
            Err(format!("{} reads a trace; pass --in FILE, not --out", spec.name))
        }
        Io::Writes if args.input.is_some() => {
            Err(format!("{} writes a file; pass --out FILE, not --in", spec.name))
        }
        _ => Ok(()),
    }
}

fn usage() -> String {
    // Derived from FLAGS and COMMANDS so neither list can go stale.
    let flags = FLAGS.iter().map(|f| match f.value {
        "" => format!("[{}]", f.name),
        value => format!("[{} {value}]", f.name),
    });
    let commands = COMMANDS.iter().map(|c| c.name.to_string());
    format!("{}\n{}", wrap("usage: dircc <command> [target]", flags), wrap("commands:", commands))
}

/// `head` then `words`, wrapped at 76 columns with an indent of 4.
fn wrap(head: &str, words: impl Iterator<Item = String>) -> String {
    let mut text = head.to_string();
    let mut width = head.len();
    for word in words {
        if width + word.len() + 1 > 76 {
            text.push_str("\n   ");
            width = 3;
        }
        text.push(' ');
        text.push_str(&word);
        width += word.len() + 1;
    }
    text
}

/// The paper workbench at the scale the flags select: `--refs`, else
/// 20,000 references per trace with `--smoke`, else paper scale.
fn workbench(args: &Args) -> Workbench {
    match (args.refs, args.smoke) {
        (Some(n), _) => Workbench::paper_scaled(n, args.seed),
        (None, true) => Workbench::paper_scaled(20_000, args.seed),
        (None, false) => Workbench::paper(args.seed),
    }
}

fn trace_path(args: &Args) -> String {
    args.out.clone().or_else(|| args.input.clone()).unwrap_or_else(|| "trace.dcct".to_string())
}

/// `dircc record`: writes the chunked, delta-compressed v2 trace format.
fn record(args: &Args) -> Result<(), String> {
    let mut profile = profile_by_name(&args.profile)?;
    if let Some(n) = args.refs {
        profile = profile.with_total_refs(n);
    }
    let chunk = args.chunk.unwrap_or(DEFAULT_CHUNK_RECORDS);
    let path = trace_path(args);
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = ChunkedWriter::with_chunk_records(BufWriter::new(file), chunk);
    for r in Generator::new(profile, args.seed) {
        w.write(&r).map_err(|e| format!("write: {e}"))?;
    }
    let records = w.records_written();
    let chunks = records.div_ceil(chunk as u64);
    w.finish().map_err(|e| format!("finish: {e}"))?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    outln!("wrote {records} references to {path} ({chunks} chunk(s), v2, {bytes} bytes)")?;
    Ok(())
}

/// The protocols `dircc replay` drives: the paper's four headline schemes
/// by default, or one chosen by `--scheme` from the full checked set.
fn replay_kinds(args: &Args, cpus: usize) -> Result<Vec<ProtocolKind>, String> {
    match &args.scheme {
        Some(want) => Ok(vec![scheme_by_name(want, cpus)?]),
        None => Ok(dircc_core::PAPER_KINDS.to_vec()),
    }
}

/// Streams a trace file through every requested scheme in one pass: the
/// file is opened and decoded once, and each batch is replayed through
/// every scheme via [`run_chunked_many`], so memory stays bounded by one
/// chunk's payload and one batch however long the trace is. Results come
/// in scheme order; the first error in that order wins, prefixed by the path.
fn replay_file(
    path: &str,
    kinds: &[ProtocolKind],
    cpus: usize,
    cfg: &RunConfig,
) -> Result<Vec<RunResult>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut source = open_trace(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let mut boxed: Vec<_> = kinds.iter().map(|&kind| dircc_core::build(kind, cpus)).collect();
    let mut protocols: Vec<_> = boxed.iter_mut().map(|p| p.as_mut()).collect();
    run_chunked_many(&mut protocols, &mut source, cfg)
        .into_iter()
        .map(|result| result.map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Replays the `--profile` trace fully in memory (the classic indexed
/// path) — the reference `dircc replay --in` must match byte for byte.
fn replay_memory(
    args: &Args,
    kinds: &[ProtocolKind],
    cpus: usize,
    cfg: &RunConfig,
) -> Result<Vec<RunResult>, String> {
    let mut profile = profile_by_name(&args.profile)?;
    if let Some(n) = args.refs {
        profile = profile.with_total_refs(n);
    }
    let soa = SoaStream::build(Generator::new(profile, args.seed), cfg.geometry, cfg.sharing);
    kinds.iter().map(|&kind| run_indexed(kind, cpus, &soa, cfg)).collect()
}

/// `dircc replay`: streams a recorded v2 trace (`--in`) or an in-memory
/// `--profile` trace through the paper's headline schemes (or one
/// `--scheme`), printing the deterministic per-scheme counter row and
/// pipelined cycles-per-reference. stdout is byte-identical between the
/// file and in-memory modes; ingest timing goes to stderr, only with
/// `--verbose`.
fn replay(args: &Args) -> Result<(), String> {
    let cpus = args.cpus.unwrap_or(4);
    if args.json {
        if args.input.is_some() {
            return Err("--json renders the serve /run response schema, which is defined \
                 over the in-memory --profile traces; drop --in"
                .to_string());
        }
        if args.verify {
            return Err("--json and --verify are mutually exclusive".to_string());
        }
    }
    let kinds = replay_kinds(args, cpus)?;
    let cfg = RunConfig { verify: args.verify, ..RunConfig::default().with_process_sharing() };
    let started = std::time::Instant::now();
    let results = match &args.input {
        Some(path) => replay_file(path, &kinds, cpus, &cfg)?,
        None => replay_memory(args, &kinds, cpus, &cfg)?,
    };
    let wall = started.elapsed();

    if args.json {
        // The serve daemon's /run response schema, one line per scheme —
        // CI diffs this byte-for-byte against what the daemon returns.
        let trace_name = profile_by_name(&args.profile)?.name.to_string();
        for (&kind, res) in kinds.iter().zip(&results) {
            let eval = Evaluation::new(kind.display_name(cpus), kind, cpus, res.counters.clone());
            out!("{}", run_response_json(&eval, &trace_name, args.refs, args.seed, "full"))?;
        }
        return Ok(());
    }

    let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);
    outln!(
        "{:<12} {:>10} {:>9} {:>9} {:>9} {:>9}   cyc/ref",
        "scheme",
        "refs",
        "rd-miss",
        "wr-miss",
        "wr-hit",
        "wr-back"
    )?;
    let mut violations = 0usize;
    for (&kind, res) in kinds.iter().zip(&results) {
        let name = kind.display_name(cpus);
        let c = &res.counters;
        let cpr =
            Evaluation::new(name.clone(), kind, cpus, c.clone()).cycles_per_ref(&model, &cost_cfg);
        outln!(
            "{name:<12} {:>10} {:>9} {:>9} {:>9} {:>9}   {cpr:.4}",
            res.refs,
            c.rm(),
            c.wm(),
            c.wh(),
            c.write_backs()
        )?;
        violations += res.violations.len();
        for v in &res.violations {
            outln!("  violation: {name}: {v}")?;
        }
    }
    if args.verify {
        if violations == 0 {
            outln!("verify: {} scheme(s), no violations", kinds.len())?;
        } else {
            return Err(format!("replay: {violations} coherence violation(s)"));
        }
    }
    if args.verbose {
        if let Some(path) = &args.input {
            // One decode of the whole file, shared by every scheme.
            let mb = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;
            let secs = wall.as_secs_f64().max(1e-9);
            errln!(
                "replay: {mb:.1} MB ingested in {:.1} ms ({:.1} MB/s incl. replay)",
                wall.as_secs_f64() * 1e3,
                mb / secs
            )?;
        } else {
            errln!("replay: in-memory, {:.1} ms", wall.as_secs_f64() * 1e3)?;
        }
    }
    Ok(())
}

/// Streams every record of the trace at `path` into `observe`; every
/// error, from opening the file to its last chunk, names the path.
fn for_each_record(path: &str, mut observe: impl FnMut(&TraceRecord)) -> Result<(), String> {
    let at = |e: std::io::Error| format!("{path}: {e}");
    let file = std::fs::File::open(path).map_err(at)?;
    for r in Records::new(open_trace(BufReader::new(file)).map_err(at)?) {
        observe(&r.map_err(at)?);
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let mut s = TraceStats::new();
    for_each_record(&trace_path(args), |r| s.observe(r))?;
    outln!("references : {}", s.total())?;
    outln!("instr      : {} ({:.2}%)", s.instr(), 100.0 * s.instr_fraction())?;
    outln!("data reads : {} ({:.2}%)", s.reads(), 100.0 * s.read_fraction())?;
    outln!("data writes: {} ({:.2}%)", s.writes(), 100.0 * s.write_fraction())?;
    outln!("system refs: {} ({:.2}%)", s.system(), 100.0 * s.system_fraction())?;
    outln!(
        "lock spins : {} ({:.2}% of reads)",
        s.lock_spin_reads(),
        100.0 * s.spin_fraction_of_reads()
    )?;
    outln!("data blocks: {}", s.distinct_data_blocks())?;
    outln!("cpus       : {}   processes: {}", s.distinct_cpus(), s.distinct_processes())?;
    Ok(())
}

fn sharing(args: &Args) -> Result<(), String> {
    let mut s = SharingProfile::new();
    for_each_record(&trace_path(args), |r| s.observe(r))?;
    outln!("data refs          : {}", s.data_refs())?;
    outln!("data blocks        : {}", s.total_blocks())?;
    outln!(
        "shared blocks      : {} ({:.2}%)",
        s.shared_blocks(),
        100.0 * s.shared_blocks() as f64 / s.total_blocks().max(1) as f64
    )?;
    outln!("refs to shared     : {:.2}%", 100.0 * s.shared_ref_fraction())?;
    outln!("writes to shared   : {:.2}%", 100.0 * s.shared_write_fraction())?;
    outln!("mean sharers/shared: {:.2}", s.mean_sharers_of_shared())?;
    let hist = s.sharer_histogram(6);
    for (i, count) in hist.iter().enumerate() {
        let label = if i + 1 < hist.len() { format!("{}", i + 1) } else { format!("{}+", i + 1) };
        outln!("  blocks with {label} sharer(s): {count}")?;
    }
    Ok(())
}

/// The (protocol, filter) runs a workbench command needs, for pre-warming
/// the memo in parallel. `None` means "cheap enough to run inline".
fn workload_for(command: &str, wb: &Workbench) -> Option<Vec<(ProtocolKind, TraceFilter)>> {
    match command {
        "all" => Some(wb.paper_workload()),
        "scalability" => {
            let n = wb.n_caches() as u32;
            let mut work = vec![(ProtocolKind::Dir0B, TraceFilter::Full)];
            work.extend((1..=n).map(|i| (ProtocolKind::DirNb { pointers: i }, TraceFilter::Full)));
            work.extend((1..n).map(|i| (ProtocolKind::DirB { pointers: i }, TraceFilter::Full)));
            work.push((ProtocolKind::CodedSet, TraceFilter::Full));
            Some(work)
        }
        _ => None,
    }
}

fn run_experiment(command: &str, wb: &Workbench) -> Result<String, String> {
    Ok(match command {
        "table1" => tables::table1().to_string(),
        "table2" => tables::table2().to_string(),
        "table3" => tables::table3(wb).to_string(),
        "table4" => tables::table4(wb).to_string(),
        "table5" => tables::table5(wb).to_string(),
        "figure1" => figures::figure1(wb).to_string(),
        "figure2" => figures::figure2(wb).to_string(),
        "figure3" => figures::figure3(wb).to_string(),
        "figure4" => figures::figure4(wb).to_string(),
        "figure5" => figures::figure5(wb).to_string(),
        "sensitivity" => studies::sensitivity(wb).to_string(),
        "spinlock" => studies::spinlock(wb).to_string(),
        "berkeley" => studies::berkeley(wb).to_string(),
        "scalability" => studies::scalability(wb).to_string(),
        "finitecache" => extensions::finite_cache(wb).to_string(),
        "footnote2" => extensions::footnote2(wb).to_string(),
        "system" => system::system(wb).to_string(),
        "storage" => network::storage_table().to_string(),
        other => return Err(format!("unknown command {other}\n{}", usage())),
    })
}

/// Runs one workbench command (or, for `all`, every `in_all` command in
/// table order), pre-warming the memo over `args.jobs` threads. With
/// `--verbose` the timing summary goes to stderr, so stdout stays
/// byte-identical across `--jobs` values either way.
fn run_workbench_command(args: &Args, all: bool) -> Result<(), String> {
    let wb = workbench(args);
    if let Some(work) = workload_for(&args.command, &wb) {
        wb.warm(&work, args.jobs);
    }
    let names: Vec<&str> = if all {
        COMMANDS.iter().filter(|c| c.in_all).map(|c| c.name).collect()
    } else {
        vec![&args.command]
    };
    let result = names.iter().try_for_each(|c| run_experiment(c, &wb).and_then(|s| outln!("{s}")));
    let timing = if args.verbose { err!("{}", wb.timing_summary()) } else { Ok(()) };
    result.and(timing)
}

/// A `dircc bench` report: every paper-matrix run in work-list order,
/// then each trace's v2 encoding. Every field is deterministic.
struct BenchReport {
    runs: Vec<BenchRun>,
    ingest: Vec<IngestRow>,
}

impl BenchReport {
    /// Replays the paper matrix (the (protocol, filter) x trace work list
    /// `dircc all` warms) on the [`workbench`] the flags select. Each trace
    /// is also encoded as v2 (same generator, default chunking) into a
    /// byte counter. The memo makes counters independent of `--jobs`, so
    /// the report is too.
    fn measure(args: &Args) -> Result<BenchReport, String> {
        let wb = workbench(args);
        let work = wb.paper_workload();
        wb.warm(&work, args.jobs);
        let names = wb.trace_names();
        let mut runs = Vec::new();
        for (kind, filter) in work {
            for (trace, name) in names.iter().enumerate() {
                let counters = wb.counters(kind, trace, filter);
                runs.push(BenchRun {
                    scheme: kind.display_name(wb.n_caches()),
                    trace: name.clone(),
                    filter: filter_label(filter).to_string(),
                    refs: counters.total(),
                    digest: format!("{:016x}", counters.digest()),
                });
            }
        }
        let mut ingest = Vec::new();
        for profile in wb.profiles().to_vec() {
            let trace = profile.name.to_string();
            let mut w = ChunkedWriter::new(CountingWriter(0));
            for r in Generator::new(profile, args.seed) {
                w.write(&r).map_err(|e| format!("ingest encode: {e}"))?;
            }
            let refs = w.records_written();
            let bytes = w.finish().map_err(|e| format!("ingest encode: {e}"))?.0;
            ingest.push(IngestRow { trace, refs, bytes });
        }
        Ok(BenchReport { runs, ingest })
    }

    /// The report as JSON, one row per line.
    fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "    {{\"scheme\": \"{}\", \"trace\": \"{}\", \"filter\": \"{}\", \
                     \"digest\": \"{}\", \"refs\": {}}}",
                    r.scheme, r.trace, r.filter, r.digest, r.refs
                )
            })
            .collect();
        let ingest: Vec<String> = self
            .ingest
            .iter()
            .map(|i| {
                format!(
                    "    {{\"trace\": \"{}\", \"refs\": {}, \"bytes\": {}}}",
                    i.trace, i.refs, i.bytes
                )
            })
            .collect();
        format!(
            "{{\n  \"runs\": [\n{}\n  ],\n  \"ingest\": [\n{}\n  ]\n}}\n",
            runs.join(",\n"),
            ingest.join(",\n")
        )
    }
}

/// `dircc bench`: writes the [`BenchReport`] of the paper matrix
/// (`--out`, default `BENCH_replay.json`), the baseline `benchcmp`
/// gates against. `--smoke` runs a small matrix for CI.
fn bench(args: &Args) -> Result<(), String> {
    let report = BenchReport::measure(args)?;
    let path = args.out.clone().unwrap_or_else(|| "BENCH_replay.json".to_string());
    write_output(&path, &report.to_json())?;
    outln!("bench: {} runs, {} ingest rows -> {path}", report.runs.len(), report.ingest.len())?;
    Ok(())
}

/// `dircc serve`: binds the HTTP simulation daemon and blocks until a
/// `POST /shutdown` drains it. The listen line goes to stdout (and is
/// flushed) before the accept loop starts, so scripts can wait for it.
fn serve_cmd(args: &Args) -> Result<(), String> {
    let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:4888".to_string());
    let config = ServeConfig {
        workers: args.workers.unwrap_or_else(default_jobs),
        cache_entries: args.cache_entries.unwrap_or(64),
        queue_depth: args.queue.unwrap_or(64),
        log_json: args.log_json,
        ..ServeConfig::default()
    };
    // One registry shared by the HTTP layer and the workbench handler,
    // so `/metrics` exposes both on a single page.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let handler = std::sync::Arc::new(WorkbenchHandler::with_registry(&registry));
    let server = Server::bind_with_registry(
        &addr,
        config,
        handler.clone() as std::sync::Arc<dyn JobHandler>,
        registry,
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    // Line-buffered: the line is out before the accept loop starts.
    outln!("dircc serve: listening on http://{}", server.local_addr())?;
    let stats = server.run();
    outln!(
        "dircc serve: drained after {} request(s) ({} cache hit(s), {} miss(es), \
         {} workbench run(s))",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        handler.executed_runs()
    )?;
    Ok(())
}

/// A client-side request ID: `tag-<pid>-<subsec nanos>`, all printable
/// ASCII, well under the daemon's 64-byte sanity cap.
fn mint_request_id(tag: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{tag}-{:08x}-{nanos:08x}", std::process::id())
}

/// The `/run`/`/series` job body a `dircc submit` builds from its flags.
fn submit_job_json(args: &Args) -> Result<String, String> {
    use std::fmt::Write as _;
    let scheme = args.scheme.as_ref().ok_or("submit needs --scheme (e.g. --scheme Dir1NB)")?;
    let mut body = format!(
        "{{\"scheme\": \"{}\", \"trace\": \"{}\", \"seed\": {}",
        dircc_obs::escape(scheme),
        dircc_obs::escape(&args.profile),
        args.seed
    );
    if let Some(n) = args.refs {
        let _ = write!(body, ", \"refs\": {n}");
    }
    if let Some(filter) = &args.filter {
        let _ = write!(body, ", \"filter\": \"{filter}\"");
    }
    if let Some(window) = args.window {
        let _ = write!(body, ", \"window\": {window}");
    }
    body.push('}');
    Ok(body)
}

/// `dircc submit`: one request against a running daemon. The response
/// body goes to stdout verbatim (it is already JSON/JSONL), so
/// `submit --op run > got.json` diffs directly against
/// `replay --json > want.json`. `--expect-cache hit|miss` turns the
/// response's `X-Cache` header into an exit-code assertion for CI.
fn submit_cmd(args: &Args) -> Result<(), String> {
    let url = args
        .serve_url
        .as_ref()
        .ok_or("submit needs --serve URL (e.g. --serve http://127.0.0.1:4888)")?;
    let op = args.op.as_deref().unwrap_or("run");
    // Mint a client-side request ID and send it along; the daemon echoes
    // it on the response, stamps it into its logs and (for `/run`) into
    // the span meta, so scripts can join all three. Printed to stderr so
    // stdout stays verbatim response body.
    let request_id = mint_request_id("submit");
    errln!("dircc submit: request-id {request_id}")?;
    let headers = [("x-request-id", request_id.as_str())];
    let resp = match op {
        "health" => client::request_with_headers(url, "GET", "/health", &headers, None),
        "metrics" => client::request_with_headers(url, "GET", "/metrics", &headers, None),
        "spans" => client::request_with_headers(url, "GET", "/spans", &headers, None),
        "shutdown" => client::request_with_headers(url, "POST", "/shutdown", &headers, Some(b"{}")),
        "run" | "series" => {
            let body = submit_job_json(args)?;
            let path = if op == "run" { "/run" } else { "/series" };
            client::request_with_headers(url, "POST", path, &headers, Some(body.as_bytes()))
        }
        other => return Err(format!("--op must be {}, not {other}", join(OPS, "or"))),
    }
    .map_err(|e| format!("{url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{url}: HTTP {}: {}", resp.status, resp.text().trim()));
    }
    if let Some(want) = &args.expect_cache {
        let got = resp.header("x-cache").unwrap_or("(absent)");
        if got != want {
            return Err(format!("expected X-Cache: {want}, server answered X-Cache: {got}"));
        }
    }
    out!("{}", resp.text())?;
    Ok(())
}

/// One `/metrics` scrape distilled to the numbers the dashboard shows.
struct TopSnapshot {
    at: Instant,
    requests: f64,
    errors: f64,
    refused: f64,
    queue: f64,
    inflight: f64,
    uptime: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    coalesced: f64,
    runs: f64,
    refs: f64,
    /// Cumulative `(le µs, count)` buckets of the `/run` latency
    /// histogram, ascending; quantiles between two snapshots come from
    /// the bucket-count deltas.
    run_buckets: Vec<(f64, f64)>,
}

impl TopSnapshot {
    fn take(samples: &[Sample]) -> TopSnapshot {
        let sum = |name: &str| samples_sum(samples, name, &[]);
        let cache = |event: &str| {
            samples_sum(samples, "dircc_result_cache_events_total", &[("event", event)])
        };
        let mut run_buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| {
                s.name == "dircc_http_request_duration_us_bucket"
                    && s.label("route") == Some("/run")
            })
            .map(|s| {
                let le = match s.label("le") {
                    Some("+Inf") => f64::INFINITY,
                    Some(v) => v.parse().unwrap_or(f64::INFINITY),
                    None => f64::INFINITY,
                };
                (le, s.value)
            })
            .collect();
        run_buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        TopSnapshot {
            at: Instant::now(),
            requests: sum("dircc_http_requests_total"),
            errors: sum("dircc_http_errors_total"),
            refused: sum("dircc_http_refused_total"),
            queue: sum("dircc_queue_depth"),
            inflight: sum("dircc_inflight_requests"),
            uptime: sum("dircc_uptime_seconds"),
            hits: cache("hit"),
            misses: cache("miss"),
            evictions: cache("eviction"),
            coalesced: cache("coalesced"),
            runs: sum("dircc_runs_executed_total"),
            refs: sum("dircc_refs_replayed_total"),
            run_buckets,
        }
    }

    /// The q-th quantile (µs) of `/run` latencies observed since `prev`
    /// (pass an all-zero baseline for since-start quantiles). `None`
    /// when no request completed in the interval.
    fn run_quantile_since(&self, prev: Option<&TopSnapshot>, q: f64) -> Option<f64> {
        let prev_at = |le: f64| {
            prev.and_then(|p| p.run_buckets.iter().find(|(l, _)| *l == le)).map_or(0.0, |(_, n)| *n)
        };
        // Cumulative minus cumulative is the delta distribution's
        // cumulative counts, so one ascending walk finds the rank.
        let total = self.run_buckets.last().map(|&(_, n)| n - prev_at(f64::INFINITY))?;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().max(1.0);
        self.run_buckets
            .iter()
            .find(|&&(le, n)| le.is_finite() && n - prev_at(le) >= rank)
            .map(|&(le, _)| le)
    }
}

/// Fetches and parses one `/metrics` page.
fn scrape_metrics(url: &str) -> Result<Vec<Sample>, String> {
    let resp = client::request(url, "GET", "/metrics", None).map_err(|e| format!("{url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{url}: /metrics: HTTP {}", resp.status));
    }
    parse_exposition(&resp.text()).map_err(|e| format!("{url}: /metrics: {e}"))
}

/// `dircc top --serve URL`: a polling terminal dashboard over a running
/// daemon's `/metrics`. Every `--interval` seconds (default 2) it
/// scrapes, diffs against the previous scrape and prints one line:
/// request throughput, `/run` latency quantiles from the histogram
/// bucket deltas, queue depth, in-flight count, interval cache hit
/// rate and a throughput sparkline. `--once` instead prints a single
/// machine-readable `key value` snapshot (absolute totals,
/// since-start quantiles) and exits — what the CI gate consumes.
fn top_cmd(args: &Args) -> Result<(), String> {
    let url = args
        .serve_url
        .as_ref()
        .ok_or("top needs --serve URL (e.g. --serve http://127.0.0.1:4888)")?;
    let samples = scrape_metrics(url)?;
    let first = TopSnapshot::take(&samples);
    if args.once {
        let q = |q: f64| first.run_quantile_since(None, q).map_or(0.0, |us| us / 1e3);
        outln!("uptime_s {:.0}", first.uptime)?;
        outln!("requests_total {:.0}", first.requests)?;
        outln!("errors_total {:.0}", first.errors)?;
        outln!("refused_total {:.0}", first.refused)?;
        outln!("queue_depth {:.0}", first.queue)?;
        outln!("inflight {:.0}", first.inflight)?;
        outln!("cache_hits {:.0}", first.hits)?;
        outln!("cache_misses {:.0}", first.misses)?;
        outln!("cache_evictions {:.0}", first.evictions)?;
        outln!("coalesced {:.0}", first.coalesced)?;
        outln!("runs_executed {:.0}", first.runs)?;
        outln!("refs_replayed {:.0}", first.refs)?;
        outln!("run_p50_ms {:.3}", q(0.50))?;
        outln!("run_p90_ms {:.3}", q(0.90))?;
        outln!("run_p99_ms {:.3}", q(0.99))?;
        return Ok(());
    }
    let interval = Duration::from_secs_f64(args.interval.unwrap_or(2.0));
    outln!(
        "dircc top: {url} every {:.1}s — rps, /run p50/p90/p99 (ms), queue, inflight, \
         hit% over each interval; ctrl-c to quit",
        interval.as_secs_f64()
    )?;
    let mut prev = first;
    let mut history: Vec<f64> = Vec::new();
    loop {
        std::thread::sleep(interval);
        let samples = match scrape_metrics(url) {
            Ok(s) => s,
            Err(e) => {
                // A drained daemon closes its listener; that is the
                // normal end of a watch session, not a failure.
                outln!("dircc top: daemon unreachable ({e}); exiting")?;
                return Ok(());
            }
        };
        let cur = TopSnapshot::take(&samples);
        let dt = cur.at.duration_since(prev.at).as_secs_f64().max(1e-9);
        let rps = (cur.requests - prev.requests).max(0.0) / dt;
        history.push(rps);
        if history.len() > 32 {
            history.remove(0);
        }
        let peak = history.iter().cloned().fold(0.0f64, f64::max);
        let q = |q: f64| cur.run_quantile_since(Some(&prev), q).map_or(0.0, |us| us / 1e3);
        let hits_d = (cur.hits - prev.hits).max(0.0);
        let misses_d = (cur.misses - prev.misses).max(0.0);
        let hit_pct =
            if hits_d + misses_d > 0.0 { 100.0 * hits_d / (hits_d + misses_d) } else { 0.0 };
        outln!(
            "up {:>5.0}s  rps {rps:>7.1}  p50 {:>7.2}  p90 {:>7.2}  p99 {:>7.2}  \
             q {:>3.0}  infl {:>3.0}  hit% {hit_pct:>5.1}  err {:>3.0}  {}",
            cur.uptime,
            q(0.50),
            q(0.90),
            q(0.99),
            cur.queue,
            cur.inflight,
            cur.errors,
            report::sparkline(&history, peak.max(1.0)),
        )?;
        prev = cur;
    }
}

/// `dircc check`: bounded exhaustive model check of every scheme (or a
/// single one via `--scheme`). Any invariant violation prints a minimal
/// counterexample and fails the process.
fn check(args: &Args) -> Result<(), String> {
    let base = if args.smoke { CheckConfig::smoke() } else { CheckConfig::default() };
    let cfg = CheckConfig {
        cpus: args.cpus.unwrap_or(base.cpus),
        blocks: args.blocks.unwrap_or(base.blocks),
        depth: args.depth.unwrap_or(base.depth),
    };
    let kinds = match &args.scheme {
        Some(want) => vec![scheme_by_name(want, cfg.cpus)?],
        None => dircc_check::default_kinds().to_vec(),
    };
    outln!("model check: {} cpus x {} blocks, depth {}", cfg.cpus, cfg.blocks, cfg.depth)?;
    outln!("{:<12} {:>10} {:>12}  result", "scheme", "states", "transitions")?;
    let reports =
        dircc_sim::par_map_indexed(kinds.len(), args.jobs, |i| check_protocol(kinds[i], &cfg));
    let mut failed = 0usize;
    for r in &reports {
        outln!(
            "{:<12} {:>10} {:>12}  {}",
            r.name,
            r.states,
            r.transitions,
            if r.passed() { "PASS" } else { "FAIL" }
        )?;
        if let Some(ce) = &r.counterexample {
            outln!("  counterexample: {ce}")?;
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(format!("model check: {failed} of {} scheme(s) FAILED", reports.len()));
    }
    outln!("model check: all {} scheme(s) PASS", reports.len())
}

/// One run row of a `dircc bench` report.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct BenchRun {
    scheme: String,
    trace: String,
    filter: String,
    refs: u64,
    /// Empty when the report predates the counter-digest schema.
    digest: String,
}

impl std::fmt::Display for BenchRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let BenchRun { scheme, trace, filter, refs, digest } = self;
        write!(f, "{scheme}/{trace}/{filter} refs={refs} digest={digest}")
    }
}

/// One ingest row of a `dircc bench` report: a trace's v2 encoding.
#[derive(PartialEq, Eq)]
struct IngestRow {
    trace: String,
    refs: u64,
    bytes: u64,
}

impl std::fmt::Display for IngestRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let IngestRow { trace, refs, bytes } = self;
        write!(f, "{trace} refs={refs} bytes={bytes}")
    }
}

/// An `io::Write` sink that only counts bytes — the v2 encoded size
/// without touching the filesystem.
struct CountingWriter(u64);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reads the run and ingest rows of a `dircc bench` JSON report. A row
/// lacking a field its type needs is skipped, a missing array reads as
/// no rows, and fields the rows do not need (such as the timing fields
/// of older reports) are ignored.
fn parse_bench_report(text: &[u8]) -> Result<BenchReport, String> {
    type Row = std::collections::BTreeMap<String, Json>;
    let report = json::parse(text).map_err(|e| format!("not a dircc bench report: {e}"))?;
    let rows = |key: &str| -> Vec<&Row> {
        match report.as_obj().and_then(|o| o.get(key)) {
            Some(Json::Arr(rows)) => rows.iter().filter_map(Json::as_obj).collect(),
            _ => Vec::new(),
        }
    };
    let str_of = |r: &Row, key: &str| r.get(key).and_then(Json::as_str).map(str::to_string);
    let u64_of = |r: &Row, key: &str| r.get(key).and_then(Json::as_u64);
    let runs = rows("runs")
        .into_iter()
        .filter_map(|r| {
            Some(BenchRun {
                scheme: str_of(r, "scheme")?,
                trace: str_of(r, "trace")?,
                filter: str_of(r, "filter")?,
                refs: u64_of(r, "refs")?,
                digest: str_of(r, "digest").unwrap_or_default(),
            })
        })
        .collect();
    let ingest = rows("ingest")
        .into_iter()
        .filter_map(|r| {
            Some(IngestRow {
                trace: str_of(r, "trace")?,
                refs: u64_of(r, "refs")?,
                bytes: u64_of(r, "bytes")?,
            })
        })
        .collect();
    Ok(BenchReport { runs, ingest })
}

/// Writes `contents` to `path`, creating parent directories as needed.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// The (protocol, filter) work list a `dircc profile` target names.
fn profile_workload(
    target: &str,
    wb: &Workbench,
) -> Result<Vec<(ProtocolKind, TraceFilter)>, String> {
    match target {
        "all" | "bench" => Ok(wb.paper_workload()),
        "scaling" | "scalability" => {
            Ok(workload_for("scalability", wb).expect("scalability has a workload"))
        }
        "headline" => Ok(wb.paper_kinds().into_iter().map(|k| (k, TraceFilter::Full)).collect()),
        other => Err(format!(
            "unknown profile target {other}; one of: all bench scaling scalability headline"
        )),
    }
}

/// `dircc profile <experiment>`: replays the experiment's work list with
/// windowed counter sampling. Writes one JSONL line per window (`--out`,
/// default `PROFILE_timeseries.jsonl`) and a Chrome trace-event span
/// profile of every workbench phase (`--spans`, default
/// `PROFILE_spans.json`), then prints one cycles-per-reference sparkline
/// per run. stdout is byte-identical across `--jobs`; counters are
/// unaffected by the instrumentation (pinned by `benchcmp`).
fn profile(args: &Args) -> Result<(), String> {
    let target = args.target.clone().ok_or_else(|| {
        format!(
            "profile needs a target experiment; one of: all bench scaling scalability headline\n{}",
            usage()
        )
    })?;
    let wb = workbench(args);
    let total_refs = wb.profiles()[0].total_refs;
    let window = args.window.unwrap_or_else(|| (total_refs / 64).max(1));
    let wb = wb.with_window(window);
    let work = profile_workload(&target, &wb)?;
    let executed = wb.warm(&work, args.jobs);
    let series = wb.time_series();
    let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);

    // Series complete in scheduler order; walk the work list instead so
    // the JSONL file and the stdout table are independent of --jobs.
    outln!("profile {target}: {executed} runs, window {window} refs")?;
    let mut jsonl = String::new();
    let mut windows_written = 0usize;
    for &(kind, filter) in &work {
        for trace in 0..wb.num_traces() {
            let s = series
                .iter()
                .find(|s| s.kind == kind && s.trace == trace && s.filter == filter)
                .ok_or("profile: a warmed run left no time series")?;
            let label = filter_label(filter);
            let meta = RunMeta {
                scheme: s.scheme.clone(),
                trace: s.trace_name.clone(),
                filter: label.to_string(),
                refs: s.refs,
                request: None,
            };
            // Price each window's delta under the paper's pipelined model
            // (the fifth phase, `price`, in the span profile).
            let cprs: Vec<f64> = wb.span_log().time("price", Some(meta), || {
                s.windows
                    .iter()
                    .map(|w| {
                        Evaluation::new(s.scheme.clone(), kind, wb.n_caches(), w.counters.clone())
                            .cycles_per_ref(&model, &cost_cfg)
                    })
                    .collect()
            });
            for (w, cpr) in s.windows.iter().zip(&cprs) {
                jsonl.push_str(&window_jsonl_line(&s.scheme, &s.trace_name, label, w, *cpr));
                jsonl.push('\n');
                windows_written += 1;
            }
            let max = cprs.iter().copied().fold(0.0f64, f64::max);
            outln!(
                "  {:<10} {:<6} {:<9} {:>4} windows  max {:>7.4} cyc/ref  |{}|",
                s.scheme,
                s.trace_name,
                label,
                s.windows.len(),
                max,
                report::sparkline(&cprs, max)
            )?;
        }
    }

    let out_path = args.out.clone().unwrap_or_else(|| "PROFILE_timeseries.jsonl".to_string());
    write_output(&out_path, &jsonl)?;
    let spans = wb.span_log().spans();
    let spans_path = args.spans_out.clone().unwrap_or_else(|| "PROFILE_spans.json".to_string());
    write_output(&spans_path, &chrome_trace(&spans))?;
    outln!("time series -> {out_path} ({windows_written} windows)")?;
    outln!("spans       -> {spans_path} ({} spans)", spans.len())?;
    if args.verbose {
        err!("{}", wb.timing_summary())?;
    }
    Ok(())
}

/// `dircc benchcmp`: rebuilds the [`BenchReport`] and compares every field
/// against a baseline report (`--in`, default `BENCH_smoke.json` with
/// `--smoke`, else `BENCH_replay.json`).
/// Runs are matched by sorted key — older reports list runs in
/// completion order, which varies with `--jobs`. A baseline whose schema
/// predates the `digest` field or the `ingest` rows is rejected with a
/// pointer to regenerate it. Any drift fails the process.
fn benchcmp(args: &Args) -> Result<(), String> {
    let path = args.input.clone().unwrap_or_else(|| {
        if args.smoke {
            "BENCH_smoke.json".to_string()
        } else {
            "BENCH_replay.json".to_string()
        }
    });
    let text = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut baseline = parse_bench_report(&text).map_err(|e| format!("{path}: {e}"))?;
    if baseline.runs.is_empty() {
        return Err(format!("{path}: no runs found (not a dircc bench report?)"));
    }
    let missing = baseline.runs.iter().filter(|b| b.digest.is_empty()).count();
    if missing > 0 {
        return Err(format!(
            "{path}: {missing} of {} run(s) lack the \"digest\" field — the baseline predates \
             the counter-digest schema; regenerate it with `dircc bench`",
            baseline.runs.len()
        ));
    }
    if baseline.ingest.is_empty() {
        return Err(format!(
            "{path}: no \"ingest\" rows — the baseline predates the streaming-ingest schema; \
             regenerate it with `dircc bench`"
        ));
    }

    let mut fresh = BenchReport::measure(args)?;
    let mut drift = Vec::new();
    if fresh.runs.len() != baseline.runs.len() {
        drift.push(format!(
            "run count: baseline {}, fresh {}",
            baseline.runs.len(),
            fresh.runs.len()
        ));
    }
    baseline.runs.sort();
    fresh.runs.sort();
    for (b, f) in baseline.runs.iter().zip(&fresh.runs) {
        if b != f {
            drift.push(format!("baseline {b} vs fresh {f}"));
        }
    }
    if baseline.ingest.len() != fresh.ingest.len() {
        drift.push(format!(
            "ingest row count: baseline {}, fresh {}",
            baseline.ingest.len(),
            fresh.ingest.len()
        ));
    }
    for (b, f) in baseline.ingest.iter().zip(&fresh.ingest) {
        if b != f {
            drift.push(format!("ingest baseline {b} vs fresh {f}"));
        }
    }
    if drift.is_empty() {
        outln!("benchcmp: PASS — {} run(s) match {path}", baseline.runs.len())?;
        Ok(())
    } else {
        for d in &drift {
            errln!("benchcmp: drift: {d}")?;
        }
        Err(format!("benchcmp: {} drifted run(s) vs {path}", drift.len()))
    }
}

/// Prints a standalone sweep's table.
fn print_table(table: impl Display) -> Result<(), String> {
    outln!("{table}")
}

/// Reports a failed command on stderr and exits 1. If stderr is closed
/// or full too, the message is lost, but the exit code still says so.
fn fail(message: &str) -> ExitCode {
    let _ = errln!("{message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(spec) = spec_for(&args.command) else {
        return fail(&format!("unknown command {}\n{}", args.command, usage()));
    };
    let refs = |default| args.refs.unwrap_or(default);
    let result = match spec.kind {
        Kind::Record => record(&args),
        Kind::Replay => replay(&args),
        Kind::Stats => stats(&args),
        Kind::Sharing => sharing(&args),
        Kind::Scaling => print_table(extensions::scaling(refs(300_000), args.seed, args.jobs)),
        Kind::Network => print_table(network::network_study(refs(300_000), args.seed, args.jobs)),
        Kind::BlockSize => print_table(extensions::block_size(refs(400_000), args.seed, args.jobs)),
        Kind::Workbench => run_workbench_command(&args, false),
        Kind::All => run_workbench_command(&args, true),
        Kind::Bench => bench(&args),
        Kind::BenchCmp => benchcmp(&args),
        Kind::Check => check(&args),
        Kind::Profile => profile(&args),
        Kind::Serve => serve_cmd(&args),
        Kind::Submit => submit_cmd(&args),
        Kind::Top => top_cmd(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
