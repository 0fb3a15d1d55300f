//! Lock-free metrics primitives and Prometheus text exposition.
//!
//! A [`MetricsRegistry`] hands out cheap atomic handles — [`Counter`],
//! [`Gauge`] and [`Histogram`] — that worker threads update without any
//! lock (`Arc<AtomicU64>` under the hood). The registry itself takes a
//! mutex only on registration and on [`render`](MetricsRegistry::render),
//! both off the request path. Rendering follows the Prometheus text
//! exposition format (`# HELP` / `# TYPE` lines, `name{label="v"} value`
//! samples, cumulative `_bucket{le=...}` histogram series ending in
//! `+Inf` plus `_sum`/`_count`), so any Prometheus-compatible scraper —
//! and `dircc top` via [`parse_exposition`] — can consume `/metrics`
//! directly.
//!
//! # Histogram design
//!
//! [`Histogram`] is log-linear (HDR-style): each power-of-two octave is
//! split into `2^SUB_BITS = 16` linear sub-buckets, values below 16 get
//! an exact bucket each. Counts and sums are exact; quantiles come back
//! as the upper bound of the containing bucket, so the estimate never
//! understates and overstates by at most one sub-bucket width — a
//! relative error bounded by `1/16 = 6.25%` (exact below 16). That bound
//! is pinned by a test against sorted-sample quantiles.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets, bounding histogram quantile error at `2^-SUB_BITS`.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get one exact bucket each; octaves above cover
/// the rest of the `u64` range.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Bucket index for a recorded value. Exact below `SUBS`; log-linear
/// above (octave = position of the highest set bit, sub-bucket = the
/// next `SUB_BITS` bits).
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS here
    let sub = ((v >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + ((octave - SUB_BITS) as usize) * SUBS + sub
}

/// Inclusive upper bound of a bucket — what quantiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = (index - SUBS) / SUBS + SUB_BITS as usize;
    let sub = ((index - SUBS) % SUBS) as u64;
    let width = 1u64 << (octave - SUB_BITS as usize);
    // `(1 << octave) - 1` first: the top bucket's upper bound is
    // `u64::MAX` and the direct `base + span - 1` order would overflow.
    (1u64 << octave) - 1 + (sub + 1) * width
}

/// A monotonically increasing counter. Clone of a handle shares the
/// underlying atomic; updates are a single relaxed `fetch_add`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, in-flight
/// requests). Signed so transient dips below a racing baseline don't
/// wrap.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log-linear latency histogram with exact `count`/`sum`
/// and bounded-error quantiles (see the module docs for the bound).
/// `observe` is three relaxed atomic adds plus one `fetch_max` — safe
/// to share across threads without locks.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [0u64; NUM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one value (for latencies: microseconds).
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The q-th quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding that rank — never an underestimate, over by at most one
    /// sub-bucket width (≤ 6.25% relative, exact below 16).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        self.max()
    }

    /// Snapshot of the non-empty buckets as `(upper_bound, count)`
    /// pairs in ascending order — what the exposition renders.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper(i), n))
            })
            .collect()
    }
}

/// One label set: sorted-by-name `(name, value)` pairs.
type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    labels: Labels,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

impl Family {
    fn type_name(&self) -> &'static str {
        match self.series.first().map(|s| &s.instrument) {
            Some(Instrument::Counter(_)) => "counter",
            Some(Instrument::Gauge(_)) => "gauge",
            Some(Instrument::Histogram(_)) => "histogram",
            None => "untyped",
        }
    }
}

/// A named collection of metric families. Registration
/// (`counter`/`gauge`/`histogram`) is get-or-create on (name, labels):
/// asking twice returns a handle to the same underlying atomic, so
/// call sites don't need to thread handles around.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

/// Escapes a label value for the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a HELP text (`\` → `\\`, newline → `\n`).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels.iter().map(|(n, v)| (n.to_string(), v.to_string())).collect();
    out.sort();
    out
}

/// Renders `{a="x",b="y"}`, or the empty string for no labels.
fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(n, v)| format!("{n}=\"{}\"", escape_label(v))).collect();
    if let Some((n, v)) = extra {
        parts.push(format!("{n}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_create<T: Clone>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> (Instrument, T),
        downcast: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let labels = normalize(labels);
        let mut families = self.families.lock().expect("metrics registry");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: vec![],
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return downcast(&series.instrument)
                .unwrap_or_else(|| panic!("metric {name} re-registered with a different type"));
        }
        let (instrument, handle) = make();
        family.series.push(Series { labels, instrument });
        handle
    }

    /// Get-or-create a counter under `name` with the given labels.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_create(
            name,
            help,
            labels,
            || {
                let c = Counter::new();
                (Instrument::Counter(c.clone()), c)
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get-or-create a gauge under `name` with the given labels.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_create(
            name,
            help,
            labels,
            || {
                let g = Gauge::new();
                (Instrument::Gauge(g.clone()), g)
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get-or-create a histogram under `name` with the given labels.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_create(
            name,
            help,
            labels,
            || {
                let h = Histogram::new();
                (Instrument::Histogram(h.clone()), h)
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format: families sorted by name, series by label set, label
    /// names sorted inside each series. Histograms render their
    /// non-empty buckets cumulatively, ending in `+Inf`, plus
    /// `_sum`/`_count`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let families = self.families.lock().expect("metrics registry");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        let mut out = String::with_capacity(4096);
        for &fi in &order {
            let f = &families[fi];
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.type_name());
            let mut series: Vec<&Series> = f.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match &s.instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            render_labels(&s.labels, None),
                            c.get()
                        );
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            render_labels(&s.labels, None),
                            g.get()
                        );
                    }
                    Instrument::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (upper, n) in h.nonzero_buckets() {
                            cumulative += n;
                            let le = upper.to_string();
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cumulative}",
                                f.name,
                                render_labels(&s.labels, Some(("le", &le)))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            render_labels(&s.labels, Some(("le", "+Inf"))),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            render_labels(&s.labels, None),
                            h.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            f.name,
                            render_labels(&s.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// One parsed exposition sample: metric name (with any `_bucket` /
/// `_sum` / `_count` suffix intact), its labels and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of the label `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition back into samples — the consumer
/// side of [`MetricsRegistry::render`], used by `dircc top` to scrape
/// `/metrics`. Comment and blank lines are skipped; malformed lines are
/// an error (the daemon rendered them, so they should never appear).
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let (name, labels, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line.rfind('}').ok_or_else(|| err("unterminated label set"))?;
                let labels = parse_labels(&line[brace + 1..close]).map_err(|e| err(&e))?;
                (line[..brace].to_string(), labels, line[close + 1..].trim().to_string())
            }
            None => {
                let mut it = line.splitn(2, ' ');
                let name = it.next().unwrap_or_default().to_string();
                let value = it.next().unwrap_or_default().trim().to_string();
                (name, Vec::new(), value)
            }
        };
        if name.is_empty() {
            return Err(err("missing metric name"));
        }
        let value: f64 = if value_part == "+Inf" {
            f64::INFINITY
        } else {
            value_part.parse().map_err(|_| err("unparseable value"))?
        };
        out.push(Sample { name, labels, value });
    }
    Ok(out)
}

fn parse_labels(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let name = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("label value not quoted".to_string());
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return Err("dangling escape in label value".to_string()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((name, value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        }
    }
    Ok(labels)
}

/// Sum of every sample named `name` whose labels include all of
/// `want` — the scrape-side aggregation `dircc top` and tests use.
pub fn samples_sum(samples: &[Sample], name: &str, want: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && want.iter().all(|(n, v)| s.label(n) == Some(v)))
        .map(|s| s.value)
        // Not `.sum()`: the std f64 sum starts from -0.0, and an empty
        // match would print as "-0" in `dircc top --once` output.
        .fold(0.0, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_16_and_log_linear_above() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(bucket_of(v)), v, "exact region is exact");
        }
        for v in [16u64, 17, 100, 1000, 4095, 4096, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_of(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper bound {upper} must cover {v}");
            // One sub-bucket width of slack: ≤ 1/16 relative.
            assert!((upper - v) as f64 <= v as f64 / 16.0, "bucket error for {v}: upper {upper}");
        }
        // Bucket uppers strictly increase (so cumulative rendering is
        // well-ordered).
        let uppers: Vec<u64> = (0..NUM_BUCKETS).map(bucket_upper).collect();
        assert!(uppers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_count_sum_max_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 100, 10_000, 123_456] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 133_562);
        assert_eq!(h.max(), 123_456);
        assert!((h.mean() - 133_562.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_stay_within_the_documented_bound() {
        // The satellite pin: histogram quantiles vs exact sorted
        // quantiles, within one sub-bucket (≤ 1/16 relative).
        let h = Histogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for i in 0..10_000u64 {
            // Deterministic spread over ~5 decades.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 33) % (10u64.pow((i % 5 + 1) as u32));
            values.push(v);
            h.observe(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q{q}: estimate {est} under exact {exact}");
            let slack = (exact as f64 / 16.0).max(0.0);
            assert!(
                est as f64 <= exact as f64 + slack + 1.0,
                "q{q}: estimate {est} beyond bound for exact {exact}"
            );
        }
    }

    #[test]
    fn eight_thread_hammer_lands_exact_totals() {
        // Satellite requirement: 8 threads hammer shared handles; the
        // totals must be exact, not approximate.
        let reg = MetricsRegistry::new();
        let c = reg.counter("dircc_test_ops_total", "ops", &[]);
        let g = reg.gauge("dircc_test_depth", "depth", &[]);
        let h = reg.histogram("dircc_test_latency_us", "latency", &[]);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (c, g, h) = (c.clone(), g.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        g.inc();
                        g.dec();
                        h.observe(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 80_000);
        // Sum of 0..80_000 exactly.
        assert_eq!(h.sum(), 80_000 * (80_000 - 1) / 2);
        assert_eq!(h.max(), 79_999);
    }

    #[test]
    fn get_or_create_returns_the_same_underlying_atomic() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "x", &[("route", "/run")]);
        // Label order must not matter: normalized before matching.
        let b = reg.counter("x_total", "x", &[("route", "/run")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = reg.counter("x_total", "x", &[("route", "/series")]);
        assert_eq!(other.get(), 0, "distinct labels are distinct series");
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(MetricsRegistry::new().render(), "");
    }

    #[test]
    fn exposition_golden_format() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dircc_http_requests_total", "Requests routed.", &[("route", "/run")]);
        c.add(3);
        reg.counter("dircc_http_requests_total", "Requests routed.", &[("route", "/series")]);
        let g = reg.gauge("dircc_queue_depth", "Queued connections.", &[]);
        g.set(2);
        let h = reg.histogram("dircc_latency_us", "Latency.", &[]);
        h.observe(3);
        h.observe(3);
        h.observe(20);
        let got = reg.render();
        let want = "\
# HELP dircc_http_requests_total Requests routed.
# TYPE dircc_http_requests_total counter
dircc_http_requests_total{route=\"/run\"} 3
dircc_http_requests_total{route=\"/series\"} 0
# HELP dircc_latency_us Latency.
# TYPE dircc_latency_us histogram
dircc_latency_us_bucket{le=\"3\"} 2
dircc_latency_us_bucket{le=\"20\"} 3
dircc_latency_us_bucket{le=\"+Inf\"} 3
dircc_latency_us_sum 26
dircc_latency_us_count 3
# HELP dircc_queue_depth Queued connections.
# TYPE dircc_queue_depth gauge
dircc_queue_depth 2
";
        assert_eq!(got, want);
    }

    #[test]
    fn label_values_and_help_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("weird_total", "line one\nline \\two", &[("path", "a\"b\\c\nd")]);
        let got = reg.render();
        assert!(got.contains("# HELP weird_total line one\\nline \\\\two"), "{got}");
        assert!(got.contains("weird_total{path=\"a\\\"b\\\\c\\nd\"} 0"), "{got}");
    }

    #[test]
    fn label_names_sort_inside_a_series() {
        let reg = MetricsRegistry::new();
        reg.counter("m_total", "m", &[("zeta", "1"), ("alpha", "2")]);
        assert!(reg.render().contains("m_total{alpha=\"2\",zeta=\"1\"} 0"));
    }

    #[test]
    fn render_parse_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a", &[("route", "/run"), ("status", "200")]).add(7);
        reg.gauge("b_depth", "b", &[]).set(-3);
        let h = reg.histogram("c_us", "c", &[("route", "/run")]);
        h.observe(5);
        h.observe(500);
        let samples = parse_exposition(&reg.render()).expect("parses");
        assert_eq!(samples_sum(&samples, "a_total", &[("route", "/run")]), 7.0);
        assert_eq!(samples_sum(&samples, "b_depth", &[]), -3.0);
        assert_eq!(samples_sum(&samples, "c_us_count", &[]), 2.0);
        assert_eq!(samples_sum(&samples, "c_us_sum", &[]), 505.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "c_us_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        // Escaped label values round-trip too.
        let reg = MetricsRegistry::new();
        reg.counter("e_total", "e", &[("p", "a\"b\\c")]).inc();
        let samples = parse_exposition(&reg.render()).expect("parses");
        assert_eq!(samples[0].label("p"), Some("a\"b\\c"));
    }

    #[test]
    fn parser_rejects_garbage_lines() {
        assert!(parse_exposition("name_without_value").is_err());
        assert!(parse_exposition("m{unterminated 1").is_err());
        assert!(parse_exposition("m{a=\"x\"} not_a_number").is_err());
        assert!(parse_exposition("# comment only\n\n").expect("ok").is_empty());
    }
}
