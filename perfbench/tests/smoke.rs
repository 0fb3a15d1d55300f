//! Runs every workload at `--smoke` scale, untraced and traced, at the
//! seed the checked-in digests were made with (1988) and at one they
//! were not (7), and checks what the benchmark promises: every metric
//! `BENCHMARK.json` names is printed with its unit, no operation fails,
//! every output check passes, and each span file is valid JSON whose
//! parent ids all resolve.
//!
//! From the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dircc_serve::json::{self, Json};

const WORKLOADS: usize = 5;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench has a parent").to_path_buf()
}

fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.as_obj().and_then(|o| o.get(key)).unwrap_or_else(|| panic!("no \"{key}\" in {v:?}"))
}

fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected a list, got {other:?}"),
    }
}

/// (name, unit) of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    items(get(&spec, section))
        .iter()
        .map(|m| {
            let s = |k| get(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn check_spans(path: &Path) {
    let text = std::fs::read(path).expect("span file");
    let spans = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spans = items(&spans);
    assert!(!spans.is_empty(), "{}: no spans", path.display());
    let ids: HashSet<u64> =
        spans.iter().map(|s| get(get(s, "args"), "id").as_u64().expect("id")).collect();
    for s in spans {
        match get(get(s, "args"), "parent") {
            Json::Null => {}
            p => assert!(
                p.as_u64().is_some_and(|p| ids.contains(&p)),
                "{}: unresolved parent {p:?}",
                path.display()
            ),
        }
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let out_root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out_root);
    for seed in [1988u64, 7] {
        for trace in [0u8, 1] {
            let out = out_root.join(format!("seed{seed}-trace{trace}"));
            let run = Command::new(env!("CARGO_BIN_EXE_dircc-bench"))
                .current_dir(repo_root())
                .args(["--smoke", "--seed", &seed.to_string(), "--trace", &trace.to_string()])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("dircc-bench runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            let context = format!(
                "seed {seed} trace {trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            assert!(run.status.success(), "{context}");

            let metrics = declared(if trace == 1 { "per_layer" } else { "end_to_end" });
            for (name, unit) in &metrics {
                let printed = stdout
                    .lines()
                    .filter(|l| {
                        let t: Vec<&str> = l.split_whitespace().collect();
                        t.len() == 3 && t[0] == name && t[2] == unit
                    })
                    .count();
                assert_eq!(printed, WORKLOADS, "{name} [{unit}] lines; {context}");
            }

            let results = std::fs::read_to_string(out.join("results.jsonl")).expect("results");
            assert_eq!(results.lines().count(), WORKLOADS, "{context}");
            for line in results.lines() {
                let record = json::parse(line.as_bytes()).expect("record parses");
                let workload = get(&record, "workload").as_str().expect("workload").to_string();
                let result = get(&record, "result");
                assert!(matches!(get(result, "correct"), Json::Bool(true)), "{workload}: {line}");
                assert_eq!(get(result, "failed").as_u64(), Some(0), "{workload}: {line}");
                assert!(get(result, "attempted").as_u64() >= Some(1), "{workload}: {line}");
                let got = get(result, "metrics").as_obj().expect("metrics object");
                assert_eq!(got.len(), metrics.len(), "{workload}: {line}");
                for (name, unit) in &metrics {
                    assert_eq!(get(&got[name], "unit").as_str(), Some(unit.as_str()), "{name}");
                }
                if trace == 1 {
                    check_spans(&out.join(format!("spans-{workload}-{seed}.json")));
                }
            }
        }
    }
}
