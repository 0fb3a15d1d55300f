//! The benchmark's definition, read from the repository's
//! `BENCHMARK.json`: workload names, run length, and every metric's
//! name, unit, direction and regression bound. The bench prints exactly
//! the metrics named there, so the file and the program cannot drift.

use dircc_serve::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.as_obj()
        .and_then(|o| o.get(key))
        .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
}

fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(obj, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("BENCHMARK.json: \"{key}\" must be a list")),
    }
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" must be a string"))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            let bound = match m.as_obj().and_then(|o| o.get("bound")) {
                Some(Json::Num(b)) => Some(*b),
                Some(_) => return Err("BENCHMARK.json: \"bound\" must be a number".to_string()),
                None => None,
            };
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: text(m, "better")? == "lower",
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let root =
            json::parse(BENCHMARK_JSON.as_bytes()).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = match field(&root, "run_seconds")? {
            Json::Num(s) => *s,
            _ => return Err("BENCHMARK.json: \"run_seconds\" must be a number".to_string()),
        };
        let workloads =
            list(&root, "workloads")?.iter().map(|w| text(w, "name")).collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}
