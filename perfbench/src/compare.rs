//! `dircc-bench compare A.jsonl B.jsonl`: for each (workload,
//! end-to-end metric), both sets' medians, the first set's quartiles and
//! spread, and PASS/FAIL against the metric's bound. A pair passes when
//! the second median is no worse than the first by more than the bound
//! and, except for `setup_s`, the first set's spread (interquartile
//! range over median) is within the bound too.

use std::collections::BTreeMap;

use dircc_serve::json::{self, Json};

use crate::spec::Spec;
use crate::stats::{median, quartiles};

/// (workload, metric) → values, from the untraced records of a results file.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values = Values::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let record = json::parse(line.as_bytes()).map_err(|e| bad(&e.to_string()))?;
        let rec = record.as_obj().ok_or_else(|| bad("not an object"))?;
        if rec.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        let metrics = rec
            .get("result")
            .and_then(Json::as_obj)
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, m) in metrics {
            if let Some(Json::Num(v)) = m.as_obj().and_then(|o| o.get("value")) {
                values.entry((workload.to_string(), name.clone())).or_default().push(*v);
            }
        }
    }
    Ok(values)
}

pub fn run(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("usage: dircc-bench compare A.jsonl B.jsonl".to_string());
    };
    let spec = Spec::load()?;
    let (first, second) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<14} {:>5} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "median A",
        "q1 A",
        "q3 A",
        "median B",
        "spread",
        "worse",
        "bound"
    );
    let mut all_pass = true;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (first.get(&key), second.get(&key)) else { continue };
            let bound = m.bound.unwrap_or(0.0);
            let (ma, mb) = (median(va), median(vb));
            let (q1, q3) = quartiles(va);
            let spread = (q3 - q1) / ma;
            let worse = if m.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
            let pass = worse <= bound && (m.name == "setup_s" || spread <= bound);
            all_pass &= pass;
            println!(
                "{workload:<14} {:<14} {:>5} {ma:>12.4} {q1:>12.4} {q3:>12.4} {mb:>12.4} \
                 {spread:>7.3} {worse:>7.3} {bound:>6.2}  {}",
                m.name,
                va.len(),
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}
