//! End-to-end tests of the `dircc` binary.

use std::process::Command;

fn dircc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dircc"))
}

#[test]
fn table1_prints_the_paper_constants() {
    let out = dircc().args(["table1"]).output().expect("run dircc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Wait for Directory"));
    assert!(text.contains("Transfer 1 data word"));
}

#[test]
fn table4_runs_at_reduced_scale() {
    let out =
        dircc().args(["table4", "--refs", "30000", "--seed", "7"]).output().expect("run dircc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rm-blk-cln"));
    assert!(text.contains("Dir1NB"));
    assert!(text.contains("Dragon"));
}

#[test]
fn gen_stats_sharing_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dircc_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.dcct");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["record", "--profile", "pero", "--refs", "20000", "--out", path_s])
        .output()
        .expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = dircc().args(["stats", "--in", path_s]).output().expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("references : 20000"));
    assert!(text.contains("cpus       : 4"));

    let out = dircc().args(["sharing", "--in", path_s]).output().expect("run sharing");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("refs to shared"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_command_fails_with_usage() {
    // `gen`, the retired v1 trace writer, is unknown too.
    for cmd in ["frobnicate", "gen"] {
        let out = dircc().args([cmd]).output().expect("run dircc");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command {cmd}")) && err.contains("usage:"), "{err}");
    }
}

#[test]
fn missing_flag_value_fails() {
    let out = dircc().args(["table1", "--refs"]).output().expect("run dircc");
    assert!(!out.status.success());
}

/// Every experiment subcommand runs to success and prints something at a
/// tiny trace scale.
#[test]
fn every_experiment_subcommand_smokes() {
    let commands = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "sensitivity",
        "spinlock",
        "berkeley",
        "scalability",
        "system",
        "finitecache",
        "footnote2",
        "storage",
        "scaling",
        "network",
        "blocksize",
    ];
    for cmd in commands {
        let out = dircc()
            .args([cmd, "--refs", "3000", "--seed", "7", "--jobs", "2"])
            .output()
            .expect("run dircc");
        assert!(out.status.success(), "{cmd} failed: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "{cmd} printed nothing");
    }
}

/// `record`/`stats`/`sharing` smoke at tiny scale (the trace-file commands).
#[test]
fn trace_file_subcommands_smoke() {
    let dir = std::env::temp_dir().join(format!("dircc_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s.dcct");
    let path_s = path.to_str().unwrap();
    let out =
        dircc().args(["record", "--refs", "3000", "--out", path_s]).output().expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for cmd in ["stats", "sharing"] {
        let out = dircc().args([cmd, "--in", path_s]).output().expect("run dircc");
        assert!(out.status.success(), "{cmd} failed");
        assert!(!out.stdout.is_empty(), "{cmd} printed nothing");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--jobs` must change wall-clock only: stdout is byte-identical for any
/// worker count (the timing summary goes to stderr).
#[test]
fn jobs_do_not_change_stdout() {
    let run = |jobs: &str| {
        let out = dircc()
            .args(["all", "--refs", "4000", "--seed", "3", "--jobs", jobs])
            .output()
            .expect("run dircc");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(run("1"), run("8"), "stdout must not depend on --jobs");
}

/// A bench report carries no shard count: one written without a `shards`
/// field gates a fresh run, and so does an older report that still
/// carries the retired `shards` and timing fields.
#[test]
fn benchcmp_accepts_a_baseline_without_shards_field() {
    let dir = std::env::temp_dir().join(format!("dircc_benchcmp_old_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("OLD.json");
    let benchcmp = || {
        let out = dircc()
            .args(["benchcmp", "--refs", "2000", "--jobs", "2"])
            .args(["--in", path.to_str().unwrap()])
            .output()
            .expect("run benchcmp");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("benchcmp: PASS"));
    };

    let out = dircc()
        .args(["bench", "--refs", "2000", "--jobs", "2", "--out", path.to_str().unwrap()])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(!json.contains("shards"), "{json}");
    benchcmp();

    // Add the retired per-run fields back, as an older report had them.
    let old = json.replace(
        "\"filter\": \"full\", ",
        "\"filter\": \"full\", \"shards\": 1, \"engine\": \"mono\", \"wall_ms\": 0.5, ",
    );
    assert_ne!(json, old);
    std::fs::write(&path, old).unwrap();
    benchcmp();

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `all` output includes every experiment, footnote2 included (it was
/// once missing from the hardcoded list).
#[test]
fn all_covers_footnote2() {
    let out = dircc().args(["all", "--refs", "3000", "--seed", "3"]).output().expect("run dircc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("footnote 2"), "all must include the footnote2 study");
}

/// With `--verbose`, a workbench run reports per-run timings on stderr.
#[test]
fn timing_summary_lands_on_stderr() {
    let out = dircc()
        .args(["table4", "--refs", "3000", "--seed", "7", "--verbose"])
        .output()
        .expect("run dircc");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run timings"), "stderr: {err}");
    assert!(err.contains("refs/sec"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("run timings"));
}

/// Without `--verbose`, the timing summary is suppressed entirely.
#[test]
fn timing_summary_needs_verbose() {
    let out =
        dircc().args(["table4", "--refs", "3000", "--seed", "7"]).output().expect("run dircc");
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("run timings"), "quiet by default");
}

/// `--in`/`--out` must match the subcommand's data direction.
#[test]
fn wrong_direction_io_flags_are_rejected() {
    let cases: [(&[&str], &str); 3] = [
        (&["record", "--in", "t.dcct"], "--out"),
        (&["stats", "--out", "t.dcct"], "--in"),
        (&["table1", "--out", "t.dcct"], "no --in/--out"),
    ];
    for (args, expect) in cases {
        let out = dircc().args(args).output().expect("run dircc");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{args:?}: expected {expect:?} in {err}");
    }
}

/// The usage text lists every subcommand (it was once a stale hand-written
/// list missing footnote2, network, sharing, system and storage).
#[test]
fn usage_lists_every_subcommand() {
    let out = dircc().output().expect("run dircc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for cmd in [
        "table1",
        "table5",
        "figure1",
        "figure5",
        "sensitivity",
        "spinlock",
        "berkeley",
        "scalability",
        "system",
        "finitecache",
        "footnote2",
        "storage",
        "scaling",
        "network",
        "blocksize",
        "all",
        "bench",
        "benchcmp",
        "check",
        "profile",
        "serve",
        "submit",
        "top",
        "record",
        "replay",
        "stats",
        "sharing",
    ] {
        assert!(err.contains(cmd), "usage must mention {cmd}: {err}");
    }
    assert!(err.contains("--jobs"));
    assert!(err.contains("--window") && err.contains("--spans") && err.contains("--verbose"));
    assert!(err.contains("--serve") && err.contains("--expect-cache") && err.contains("--addr"));
    let words: Vec<&str> = err.split(|c: char| c.is_whitespace() || "[]".contains(c)).collect();
    for retired in ["gen", "--repeat", "--clients", "--requests"] {
        assert!(!words.contains(&retired), "usage must not mention {retired}: {err}");
    }
}

/// The serve/submit/top flags are gated to their commands, and `submit`
/// insists on the flags it cannot run without.
#[test]
fn serve_flags_are_validated() {
    let cases: [(&[&str], &str); 10] = [
        (&["replay", "--addr", "127.0.0.1:0"], "--addr only applies to serve"),
        (&["table1", "--serve", "http://x"], "only applies to submit and top"),
        (&["replay", "--op", "run"], "--op only applies to submit"),
        (&["replay", "--log-json"], "--log-json only applies to serve"),
        (&["serve", "--once"], "--once only applies to top"),
        (&["top", "--serve", "http://x", "--interval", "0"], "--interval must be"),
        (&["submit", "--serve", "http://x", "--op", "teapot"], "--op must be"),
        (&["submit", "--serve", "http://x", "--expect-cache", "warm"], "--expect-cache must be"),
        (&["submit", "--op", "run"], "needs --serve"),
        (&["submit", "--serve", "http://127.0.0.1:1", "--op", "run"], "needs --scheme"),
    ];
    for (args, expect) in cases {
        let out = dircc().args(args).output().expect("run dircc");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{args:?}: expected {expect:?} in {err}");
    }
}

/// `--json` is replay-only and needs the in-memory profile mode. The
/// retired HTTP load generator is gone: `bench` takes no `--serve`, and
/// its flags and the bench `--repeat` are unknown. So is the retired
/// block-shard count, on every command that once took it.
#[test]
fn replay_json_and_bench_serve_flag_gating() {
    let cases: [(&[&str], &str); 13] = [
        (&["record", "--json"], "only applies to replay"),
        (&["replay", "--json", "--in", "t.dcct"], "drop --in"),
        (&["bench", "--serve", "http://127.0.0.1:1"], "only applies to submit and top"),
        (&["bench", "--repeat", "5"], "unknown flag --repeat"),
        (&["bench", "--serve", "http://127.0.0.1:1", "--clients", "4"], "unknown flag --clients"),
        (&["bench", "--serve", "http://127.0.0.1:1", "--requests", "9"], "unknown flag --requests"),
        (&["all", "--shards", "2"], "unknown flag --shards"),
        (&["table3", "--shards", "2"], "unknown flag --shards"),
        (&["bench", "--shards", "2"], "unknown flag --shards"),
        (&["benchcmp", "--shards", "2"], "unknown flag --shards"),
        (&["check", "--shards", "2"], "unknown flag --shards"),
        (&["replay", "--shards", "2"], "unknown flag --shards"),
        (&["submit", "--shards", "2"], "unknown flag --shards"),
    ];
    for (args, expect) in cases {
        let out = dircc().args(args).output().expect("run dircc");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{args:?}: expected {expect:?} in {err}");
    }
}

/// Block-sharded replay is gone, and with it the `--shards` flag. The
/// inputs that once met its own checks (a zero count, a command that
/// never replays, the windowed profile) now fail as an unknown flag.
#[test]
fn shards_flag_validation() {
    let cases: [&[&str]; 3] = [
        &["table1", "--shards", "0"],
        &["record", "--shards", "2"],
        &["profile", "all", "--shards", "2"],
    ];
    for args in cases {
        let out = dircc().args(args).output().expect("run dircc");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --shards"), "{args:?}: {err}");
    }
}

/// `replay --json` emits one parseable response line per scheme with
/// the canonical job echo — the serve daemon's `/run` schema.
#[test]
fn replay_json_prints_the_run_response_schema() {
    let out = dircc()
        .args(["replay", "--json", "--profile", "pops", "--refs", "5000", "--scheme", "Dir1NB"])
        .output()
        .expect("run dircc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 1, "one line per scheme: {text}");
    assert!(text.starts_with(r#"{"job": {"scheme": "Dir1NB", "trace": "POPS", "refs": 5000"#));
    assert!(text.contains("\"digest\": \""));
    assert!(text.contains("\"cycles_per_ref\": "));
}

#[test]
fn determinism_across_invocations() {
    let run = || {
        let out = dircc()
            .args(["figure5", "--refs", "20000", "--seed", "3"])
            .output()
            .expect("run dircc");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(run(), run());
}

/// `dircc bench --smoke` writes the machine-readable report with every
/// schema field present and none of the retired timing fields.
#[test]
fn bench_smoke_writes_the_replay_report() {
    let dir = std::env::temp_dir().join(format!("dircc_bench_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_replay.json");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["bench", "--smoke", "--jobs", "2", "--out", path_s])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let headline = String::from_utf8_lossy(&out.stdout);
    assert!(headline.contains("bench: 42 runs"), "{headline}");
    assert!(!headline.contains("refs/sec"), "{headline}");

    let json = std::fs::read_to_string(&path).expect("report written");
    for field in ["\"runs\"", "\"scheme\"", "\"trace\"", "\"filter\"", "\"digest\"", "\"refs\""] {
        assert!(json.contains(field), "report must carry {field}: {json}");
    }
    for retired in [
        "\"shards\"",
        "\"engine\"",
        "\"wall_ms\"",
        "\"refs_per_sec\"",
        "\"mb_per_sec\"",
        "\"repeat\"",
        "\"totals\"",
    ] {
        assert!(!json.contains(retired), "report must not carry {retired}: {json}");
    }
    assert!(json.contains("\"Dir1NB\"") && json.contains("\"POPS\""), "{json}");
    assert!(json.trim_end().ends_with('}'), "well-formed JSON object");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--smoke` belongs to bench/benchcmp/check; other commands reject it.
#[test]
fn smoke_flag_is_rejected_outside_bench() {
    let out = dircc().args(["table1", "--smoke"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--smoke only applies to bench"));
}

/// `dircc bench --out` creates missing parent directories instead of
/// failing (it used to surface a raw ENOENT).
#[test]
fn bench_out_creates_parent_directories() {
    let dir = std::env::temp_dir().join(format!("dircc_bench_mkdir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("nested/deeper/BENCH.json");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["bench", "--refs", "2000", "--jobs", "2", "--out", path_s])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.exists(), "report must land at the nested path");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dircc check --smoke` model-checks every scheme and prints the
/// PASS/FAIL table.
#[test]
fn check_smoke_passes_every_scheme() {
    let out = dircc().args(["check", "--smoke", "--jobs", "2"]).output().expect("run check");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("model check: all 12 scheme(s) PASS"), "{text}");
    for scheme in ["Dir1NB", "Dir0B", "Dir1B", "DirCodedNB", "Tang", "YenFu", "WTI", "MESI"] {
        assert!(text.contains(scheme), "table must list {scheme}: {text}");
    }
    assert!(!text.contains("FAIL"), "{text}");
    assert!(text.trim_end().ends_with("model check: all 12 scheme(s) PASS"), "{text}");
}

/// `--scheme` narrows the check to one protocol; unknown names error out
/// with the full list.
#[test]
fn check_scheme_filter() {
    let out = dircc()
        .args(["check", "--smoke", "--scheme", "mesi", "--jobs", "1"])
        .output()
        .expect("run check");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MESI") && text.contains("all 1 scheme(s) PASS"), "{text}");

    let out = dircc().args(["check", "--scheme", "bogus"]).output().expect("run check");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheme bogus") && err.contains("Berkeley"), "{err}");
}

/// The model-check bounds flags belong to `check` alone.
#[test]
fn check_flags_are_rejected_elsewhere() {
    let cases = [
        ("--cpus", "only applies to check and replay"),
        ("--blocks", "--blocks only applies to check"),
        ("--depth", "--depth only applies to check"),
    ];
    for (flag, expect) in cases {
        let out = dircc().args(["table1", flag, "2"]).output().expect("run dircc");
        assert!(!out.status.success(), "{flag} must be rejected outside check");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{flag}: expected {expect:?} in {err}");
    }
}

/// `dircc benchcmp` passes against a fresh baseline and fails once a
/// deterministic counter is perturbed.
#[test]
fn benchcmp_detects_injected_drift() {
    let dir = std::env::temp_dir().join(format!("dircc_benchcmp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_smoke.json");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["bench", "--refs", "2000", "--jobs", "2", "--out", path_s])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = dircc()
        .args(["benchcmp", "--refs", "2000", "--jobs", "2", "--in", path_s])
        .output()
        .expect("run benchcmp");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("benchcmp: PASS"));

    // Perturb one run's refs counter (the last field of a run row): the
    // gate must fail loudly.
    let json = std::fs::read_to_string(&path).unwrap();
    let drifted = json.replacen("\"refs\": 2000}", "\"refs\": 1999}", 1);
    assert_ne!(json, drifted, "the perturbation must hit a run row");
    std::fs::write(&path, drifted).unwrap();

    let out = dircc()
        .args(["benchcmp", "--refs", "2000", "--jobs", "2", "--in", path_s])
        .output()
        .expect("run benchcmp");
    assert!(!out.status.success(), "drifted baseline must fail the gate");
    assert!(String::from_utf8_lossy(&out.stderr).contains("drift"), "names the drift");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The engine's no-op recorder must leave the deterministic counters
/// exactly where the checked-in smoke baseline pinned them before the
/// observability layer existed.
#[test]
fn benchcmp_matches_the_checked_in_smoke_baseline() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_smoke.json");
    let out = dircc()
        .args(["benchcmp", "--smoke", "--jobs", "2", "--in", baseline])
        .output()
        .expect("run benchcmp");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("benchcmp: PASS"));
}

/// `benchcmp` reads its baseline as JSON, not as one run per line: a
/// report re-serialized compactly (no whitespace, all on one line) gates
/// exactly like the pretty one `dircc bench` writes.
#[test]
fn benchcmp_accepts_a_compact_baseline() {
    let dir = std::env::temp_dir().join(format!("dircc_benchcmp_compact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_smoke.json");
    let path_s = path.to_str().unwrap();

    let out =
        dircc().args(["bench", "--smoke", "--out", path_s]).output().expect("run bench --smoke");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Drop every whitespace byte outside string literals.
    let json = std::fs::read_to_string(&path).unwrap();
    let (mut compact, mut in_str, mut escaped) = (String::new(), false, false);
    for c in json.chars() {
        if in_str {
            in_str = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_str = c == '"';
        }
        compact.push(c);
    }
    assert!(!compact.contains('\n') && !compact.contains(": ") && !compact.contains(", "));
    assert!(compact.contains("\"runs\":[{\"scheme\":"), "{compact}");
    std::fs::write(&path, &compact).unwrap();

    let out = dircc()
        .args(["benchcmp", "--smoke", "--jobs", "2", "--in", path_s])
        .output()
        .expect("run benchcmp");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("benchcmp: PASS"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `benchcmp` rejects a baseline whose run rows predate the counter
/// digest, asking for a regenerate instead of reporting drift.
#[test]
fn benchcmp_rejects_a_baseline_without_digests() {
    let dir = std::env::temp_dir().join(format!("dircc_benchcmp_nodigest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("OLD.json");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["bench", "--refs", "2000", "--jobs", "2", "--out", path_s])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    let old: String = json
        .lines()
        .map(|l| match (l.find("\"digest\": "), l.find("\"refs\": ")) {
            (Some(a), Some(b)) if a < b => format!("{}{}\n", &l[..a], &l[b..]),
            _ => format!("{l}\n"),
        })
        .collect();
    assert!(!old.contains("digest"), "every run row lost its digest");
    std::fs::write(&path, old).unwrap();

    let out = dircc()
        .args(["benchcmp", "--refs", "2000", "--jobs", "2", "--in", path_s])
        .output()
        .expect("run benchcmp");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("predates the counter-digest schema"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The trace writer reports a full disk as an error, not a panic, and so
/// does every command whose stdout or stderr is full.
#[cfg(target_os = "linux")]
#[test]
fn trace_writers_report_a_full_disk() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: /dev/full is absent");
        return;
    }
    let out = dircc()
        .args(["record", "--refs", "20000", "--out", "/dev/full"])
        .output()
        .expect("run writer");
    assert_eq!(out.status.code(), Some(1), "record must fail on a full disk");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("No space left on device"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let printers: [&[&str]; 2] =
        [&["all", "--refs", "2000"], &["replay", "--profile", "thor", "--refs", "2000"]];
    for args in printers {
        let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full");
        let out = dircc().args(args).stdout(full).output().expect("run printer");
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail on a full stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("stdout: No space left on device"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }

    // A usage error and a `--verbose` timing table, each written to a
    // full stderr: exit 1, where `eprintln!` would panic (exit 101).
    let stderr_writers: [&[&str]; 2] =
        [&["table1", "--bogus"], &["all", "--refs", "2000", "--verbose"]];
    for args in stderr_writers {
        let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full");
        let status = dircc()
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(full)
            .status()
            .expect("run with a full stderr");
        assert_eq!(status.code(), Some(1), "{args:?} must fail on a full stderr");
    }
}

/// `--refs` above the job cap is a usage error for every command, not a
/// panic while the trace is generated.
#[test]
fn refs_above_the_cap_exit_1_without_a_panic() {
    for refs in ["18446744073709551615", "16777217"] {
        let out = dircc()
            .args(["replay", "--profile", "pops", "--refs", refs])
            .output()
            .expect("run replay");
        assert_eq!(out.status.code(), Some(1), "--refs {refs}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--refs must be at most 16777216"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty());
    }
}

/// Every field of a bench report is deterministic, so the file is
/// byte-identical whatever the worker count.
#[test]
fn bench_report_is_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("dircc_bench_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |jobs: &str| -> String {
        let path = dir.join(format!("B_{jobs}.json"));
        let out = dircc()
            .args(["bench", "--smoke", "--jobs", jobs])
            .args(["--out", path.to_str().unwrap()])
            .output()
            .expect("run bench");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&path).unwrap()
    };
    assert_eq!(report("1"), report("2"), "--jobs 1 vs 2");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The retired replay-engine switch is gone from the CLI.
#[test]
fn engine_flag_is_unknown() {
    let out = dircc().args(["bench", "--smoke", "--engine", "dyn"]).output().expect("run dircc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --engine"), "{err}");
}

/// Pulls a number field out of a hand-rolled JSON line.
fn num_field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

fn str_field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    let end = line[start..].find('"').unwrap() + start;
    line[start..end].to_string()
}

/// `dircc profile scaling --smoke` writes a windowed JSONL time series
/// whose windows partition each run exactly, plus a Chrome trace-event
/// span profile covering every phase of every run.
#[test]
fn profile_smoke_writes_time_series_and_spans() {
    let dir = std::env::temp_dir().join(format!("dircc_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ts = dir.join("ts.jsonl");
    let sp = dir.join("spans.json");

    let out = dircc()
        .args([
            "profile",
            "scaling",
            "--smoke",
            "--jobs",
            "2",
            "--window",
            "2500",
            "--out",
            ts.to_str().unwrap(),
            "--spans",
            sp.to_str().unwrap(),
        ])
        .output()
        .expect("run profile");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // Scalability work list: Dir0B + Dir1..4NB + Dir1..3B + coded, x3 traces.
    assert!(text.contains("profile scaling: 27 runs, window 2500 refs"), "{text}");
    assert!(text.contains("cyc/ref"), "{text}");

    // Every run's windows are contiguous, start at 0 and sum to the run.
    let jsonl = std::fs::read_to_string(&ts).expect("time series written");
    let mut runs: std::collections::HashMap<String, Vec<(u64, u64, u64)>> =
        std::collections::HashMap::new();
    for line in jsonl.lines() {
        let key = format!(
            "{}/{}/{}",
            str_field(line, "scheme"),
            str_field(line, "trace"),
            str_field(line, "filter")
        );
        runs.entry(key).or_default().push((
            num_field(line, "start_ref"),
            num_field(line, "end_ref"),
            num_field(line, "refs"),
        ));
    }
    assert_eq!(runs.len(), 27, "one group per run");
    for (key, windows) in &runs {
        assert_eq!(windows.len(), 8, "{key}: 20000 refs / 2500 = 8 windows");
        let mut expect_start = 0;
        for &(start, end, refs) in windows {
            assert_eq!(start, expect_start, "{key}: windows must be contiguous");
            assert_eq!(end - start, refs, "{key}: refs is the window width");
            expect_start = end;
        }
        assert_eq!(expect_start, 20_000, "{key}: windows must partition the run");
        assert_eq!(windows.iter().map(|w| w.2).sum::<u64>(), 20_000, "{key}");
    }

    // The span profile is a Chrome trace-event array covering every phase
    // of every run.
    let spans = std::fs::read_to_string(&sp).expect("spans written");
    assert!(spans.trim_start().starts_with('['));
    assert!(spans.trim_end().ends_with(']'));
    assert!(spans.contains("\"ph\": \"X\""));
    for phase in ["generate", "filter", "intern", "replay", "price"] {
        assert!(spans.contains(&format!("\"name\": \"{phase}\"")), "missing phase {phase}");
    }
    assert_eq!(
        spans.matches("\"name\": \"replay\"").count(),
        27,
        "one replay span per executed run"
    );
    assert_eq!(spans.matches("\"name\": \"price\"").count(), 27);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dircc profile` stdout is deterministic: byte-identical across
/// `--jobs` (wall-clock lives in the span file, not on stdout).
#[test]
fn profile_stdout_does_not_depend_on_jobs() {
    let dir = std::env::temp_dir().join(format!("dircc_profile_jobs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str| {
        let ts = dir.join("ts.jsonl");
        let sp = dir.join("sp.json");
        let out = dircc()
            .args([
                "profile",
                "headline",
                "--refs",
                "4000",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--out",
                ts.to_str().unwrap(),
                "--spans",
                sp.to_str().unwrap(),
            ])
            .output()
            .expect("run profile");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let jsonl = std::fs::read_to_string(&ts).unwrap();
        (out.stdout, jsonl)
    };
    let (stdout1, jsonl1) = run("1");
    let (stdout8, jsonl8) = run("8");
    assert_eq!(stdout1, stdout8, "stdout must not depend on --jobs");
    assert_eq!(jsonl1, jsonl8, "the time series must not depend on --jobs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dircc record` writes a chunked v2 trace that `replay --in` streams
/// to stdout byte-identical to the in-memory profile replay — the
/// end-to-end gate on the streaming trace pipeline.
#[test]
fn record_replay_roundtrip_matches_in_memory() {
    let dir = std::env::temp_dir().join(format!("dircc_replay_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.dcct");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["record", "--profile", "thor", "--refs", "20000", "--out", path_s])
        .output()
        .expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote 20000 references"), "{text}");
    assert!(text.contains("v2"), "names the format: {text}");

    let streamed =
        dircc().args(["replay", "--in", path_s, "--verify"]).output().expect("run replay --in");
    assert!(streamed.status.success(), "{}", String::from_utf8_lossy(&streamed.stderr));
    let in_memory = dircc()
        .args(["replay", "--profile", "thor", "--refs", "20000", "--verify"])
        .output()
        .expect("run replay in-memory");
    assert!(in_memory.status.success(), "{}", String::from_utf8_lossy(&in_memory.stderr));
    assert_eq!(
        streamed.stdout, in_memory.stdout,
        "file replay must match the in-memory path byte for byte"
    );
    let text = String::from_utf8_lossy(&streamed.stdout);
    for scheme in ["Dir1NB", "WTI", "Dir0B", "Dragon"] {
        assert!(text.contains(scheme), "headline scheme {scheme} in {text}");
    }
    assert!(text.contains("no violations"), "{text}");

    // `--scheme` narrows the table to one protocol.
    let one = dircc()
        .args(["replay", "--in", path_s, "--scheme", "dir0b"])
        .output()
        .expect("run replay --scheme");
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("Dir0B") && !text.contains("Dragon"), "{text}");

    let bogus = dircc()
        .args(["replay", "--in", path_s, "--scheme", "bogus"])
        .output()
        .expect("run replay bogus scheme");
    assert!(!bogus.status.success());
    assert!(String::from_utf8_lossy(&bogus.stderr).contains("unknown scheme bogus"));

    // `stats` reads the same file.
    let stats = dircc().args(["stats", "--in", path_s]).output().expect("run stats");
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    assert!(String::from_utf8_lossy(&stats.stdout).contains("references : 20000"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A truncated v2 file is a replay error, not a silently shorter trace;
/// a missing file reports the path.
#[test]
fn replay_rejects_truncated_and_missing_traces() {
    let dir = std::env::temp_dir().join(format!("dircc_replay_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cut.dcct");
    let path_s = path.to_str().unwrap();
    let out =
        dircc().args(["record", "--refs", "5000", "--out", path_s]).output().expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

    let out = dircc().args(["replay", "--in", path_s]).output().expect("run replay");
    assert!(!out.status.success(), "truncated trace must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace read failed"));

    let missing = dir.join("nope.dcct");
    let out =
        dircc().args(["replay", "--in", missing.to_str().unwrap()]).output().expect("run replay");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.dcct"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `replay --in --verbose` reports the bytes it decoded. Every scheme
/// replays from one decode of the file, so that is the file's size once,
/// not once per scheme.
#[test]
fn replay_verbose_reports_one_decode_of_the_file() {
    let dir = std::env::temp_dir().join(format!("dircc_replay_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.dcct");
    let path_s = path.to_str().unwrap();
    let out = dircc()
        .args(["record", "--profile", "pops", "--refs", "50000", "--out", path_s])
        .output()
        .expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let size = std::fs::metadata(&path).unwrap().len();

    let out = dircc().args(["replay", "--in", path_s, "--verbose"]).output().expect("run replay");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let schemes = String::from_utf8_lossy(&out.stdout).lines().count() - 1;
    assert_eq!(schemes, 4, "the four headline schemes");
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err.lines().find(|l| l.contains("MB ingested")).unwrap_or_else(|| panic!("{err}"));
    let mb = line.strip_prefix("replay: ").and_then(|l| l.split_whitespace().next());
    assert_eq!(mb, Some(format!("{:.1}", size as f64 / 1e6).as_str()), "{size} bytes: {line}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// dircc reads chunked v2 only. A flat v1 file (its 5-byte header plus
/// one record) fails every command that reads a trace, with a message
/// naming the format and `dircc record`, which re-creates it as v2.
#[test]
fn flat_v1_traces_are_rejected_with_a_pointer_to_record() {
    let dir = std::env::temp_dir().join(format!("dircc_replay_v1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = dir.join("v1.dcct");
    let v1_s = v1.to_str().unwrap();
    // The record: flags, kind (read), cpu u16 LE, pid u16 LE, LEB128 address.
    std::fs::write(&v1, b"DCCT\x01\x00\x01\x00\x00\x00\x00\x40").unwrap();

    for cmd in ["replay", "stats", "sharing"] {
        let out = dircc().args([cmd, "--in", v1_s]).output().expect("run dircc");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}: {}", String::from_utf8_lossy(&out.stdout));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("flat v1") && err.contains("dircc record"), "{cmd}: {err}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file too short for the 5-byte header, or a directory, fails every
/// command that reads a trace with a message that starts with the path:
/// never std's bare "failed to fill whole buffer", never a bare
/// `header:` prefix.
#[test]
fn short_or_unreadable_trace_headers_name_the_file() {
    let dir = std::env::temp_dir().join(format!("dircc_short_header_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (empty, short) = (dir.join("empty.dcct"), dir.join("short.dcct"));
    std::fs::write(&empty, b"").unwrap();
    std::fs::write(&short, b"DCC").unwrap();
    for path in [&empty, &short, &dir] {
        let path = path.to_str().unwrap();
        for cmd in ["replay", "stats", "sharing"] {
            let out = dircc().args([cmd, "--in", path]).output().expect("run dircc");
            assert_eq!(out.status.code(), Some(1), "{cmd} {path}");
            assert!(out.stdout.is_empty(), "{cmd}: {}", String::from_utf8_lossy(&out.stdout));
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.starts_with(&format!("{path}: ")), "{cmd} {path}: {err}");
            assert!(!err.contains("failed to fill whole buffer"), "{cmd} {path}: {err}");
            assert!(!err.contains("header:"), "{cmd} {path}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A whole v2 file, footer count and checksum valid, holding one 2-record
/// chunk whose header claims 8 payload bytes: the first record takes 4,
/// the second (a two-byte address delta) needs 5 and has 4.
fn overrunning_chunk_file() -> Vec<u8> {
    let mut sections = vec![0x01];
    sections.extend_from_slice(&2u32.to_le_bytes());
    sections.extend_from_slice(&8u32.to_le_bytes());
    sections.extend_from_slice(&0u64.to_le_bytes());
    sections.extend_from_slice(&[0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x80]);
    // FNV-1a 64 over every section byte, as the footer stores it.
    let checksum = sections
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    let mut file = b"DCCT\x02".to_vec();
    file.extend_from_slice(&sections);
    file.push(0x00);
    file.extend_from_slice(&2u64.to_le_bytes());
    file.extend_from_slice(&checksum.to_le_bytes());
    file
}

/// An error found mid-stream starts with the path too, under every
/// command that reads a trace: a file cut short is truncated, and a whole
/// file whose chunk overruns its payload is corrupt.
#[test]
fn mid_stream_trace_errors_name_the_file() {
    let dir = std::env::temp_dir().join(format!("dircc_mid_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (cut, overrun) = (dir.join("cut.dcct"), dir.join("overrun.dcct"));
    let cut_s = cut.to_str().unwrap();
    let out =
        dircc().args(["record", "--refs", "5000", "--out", cut_s]).output().expect("run record");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&cut).unwrap();
    std::fs::write(&cut, &bytes[..bytes.len() - 40]).unwrap();
    std::fs::write(&overrun, overrunning_chunk_file()).unwrap();

    for (path, want) in [
        (&cut, "trace truncated mid-section"),
        (&overrun, "chunk payload shorter than its records"),
    ] {
        let path = path.to_str().unwrap();
        for cmd in ["replay", "stats", "sharing"] {
            let out = dircc().args([cmd, "--in", path]).output().expect("run dircc");
            assert_eq!(out.status.code(), Some(1), "{cmd} {path}");
            assert!(out.stdout.is_empty(), "{cmd}: {}", String::from_utf8_lossy(&out.stdout));
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.starts_with(&format!("{path}: ")), "{cmd} {path}: {err}");
            assert!(err.contains(want), "{cmd} {path}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The streaming flags belong to their subcommands: `--chunk` to record,
/// `--verify` to replay; `--scheme` still errors elsewhere with the
/// check-and-replay wording.
#[test]
fn streaming_flag_validation() {
    let out = dircc().args(["replay", "--chunk", "512"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chunk only applies to record"));

    let out = dircc().args(["record", "--chunk", "0"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chunk must be in 1..="));

    let out = dircc().args(["table1", "--verify"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--verify only applies to replay"));

    let out = dircc().args(["table1", "--scheme", "mesi"]).output().expect("run dircc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("only applies to check, replay and submit"), "{err}");

    // replay writes nothing: --out is the wrong direction.
    let out = dircc().args(["replay", "--out", "t.dcct"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pass --in FILE, not --out"));
}

/// The bench report carries the streaming-ingest row family, and
/// `benchcmp` rejects a baseline that predates it.
#[test]
fn bench_reports_ingest_rows() {
    let dir = std::env::temp_dir().join(format!("dircc_bench_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("B.json");
    let path_s = path.to_str().unwrap();

    let out = dircc()
        .args(["bench", "--refs", "2000", "--jobs", "2", "--out", path_s])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    for field in ["\"ingest\"", "\"bytes\""] {
        assert!(json.contains(field), "report must carry {field}: {json}");
    }
    for retired in ["\"wall_ms\"", "\"mb_per_sec\""] {
        assert!(!json.contains(retired), "report must not carry {retired}: {json}");
    }
    for trace in ["POPS", "THOR", "PERO"] {
        assert!(
            json.lines().any(|l| l.contains("\"bytes\"") && l.contains(trace)),
            "ingest row for {trace}: {json}"
        );
    }

    // Strip the ingest section: benchcmp must ask for a regenerate, not
    // report drift.
    let stripped: String =
        json.lines().filter(|l| !l.contains("\"bytes\"")).collect::<Vec<_>>().join("\n");
    std::fs::write(&path, &stripped).unwrap();
    let out = dircc()
        .args(["benchcmp", "--refs", "2000", "--jobs", "2", "--in", path_s])
        .output()
        .expect("run benchcmp");
    assert!(!out.status.success(), "ingest-less baseline must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no \"ingest\" rows"), "{err}");
    assert!(err.contains("regenerate it with `dircc bench`"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Unknown profile targets and a missing target fail with the option
/// list; the profile-only flags are rejected elsewhere.
#[test]
fn profile_flag_and_target_validation() {
    let out = dircc().args(["profile", "bogus", "--refs", "100"]).output().expect("run profile");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile target bogus"));

    let out = dircc().args(["profile"]).output().expect("run profile");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("profile needs a target"));

    let flag_cases: [([&str; 3], &str); 2] = [
        (["table1", "--window", "100"], "only applies to profile and submit"),
        (["bench", "--spans", "x.json"], "only applies to profile"),
    ];
    for (args, expect) in flag_cases {
        let out = dircc().args(args).output().expect("run dircc");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{args:?}: expected {expect:?} in {err}");
    }

    let out = dircc().args(["table1", "extra"]).output().expect("run dircc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no positional argument"));

    let out = dircc().args(["profile", "all", "--window", "0"]).output().expect("run profile");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--window must be at least 1"));
}
