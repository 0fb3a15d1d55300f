//! Spans the traced run records around each call into a layer.
//!
//! A span has a name, a start, an end, a parent and the workload it
//! belongs to. Spans stay in memory until the run ends. A span's self
//! time is its duration minus the part of it its children cover, so
//! nested layers are never counted twice and children that ran in
//! parallel on worker threads are counted once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Small per-thread number, for the chrome-trace lanes.
    pub tid: u64,
}

struct Log {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheap, clonable handle; [`Tracer::off`] records nothing, so the
/// untraced run calls the same code with no bookkeeping.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Log>>);

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Some(Arc::new(Log {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(Option<u64>) -> T) -> T {
        let Some(log) = &self.0 else { return f(None) };
        let id = log.next.fetch_add(1, Ordering::Relaxed);
        let start = log.origin.elapsed().as_secs_f64();
        let value = f(Some(id));
        let end = log.origin.elapsed().as_secs_f64();
        let span = Span { id, parent, name: name.to_string(), start, end, tid: thread_number() };
        log.spans.lock().expect("span log poisoned").push(span);
        value
    }

    pub fn profile(&self) -> Profile {
        let spans = self.0.as_ref().map_or_else(Vec::new, |log| {
            let mut spans = log.spans.lock().expect("span log poisoned").clone();
            spans.sort_by(|a, b| a.start.total_cmp(&b.start));
            spans
        });
        Profile::new(spans)
    }
}

/// Recorded spans with their self times.
pub struct Profile {
    spans: Vec<Span>,
    self_s: Vec<f64>,
}

impl Profile {
    fn new(spans: Vec<Span>) -> Profile {
        let self_s = spans
            .iter()
            .map(|s| {
                let mut kids: Vec<(f64, f64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .collect();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                // Length of the union of the children's intervals.
                let (mut covered, mut reach) = (0.0, s.start);
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect();
        Profile { spans, self_s }
    }

    /// Total self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans.iter().zip(&self.self_s).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Total self time of spans whose name starts with `prefix`, except
    /// the names in `except`.
    pub fn self_s_prefixed(&self, prefix: &str, except: &[&str]) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| s.name.starts_with(prefix) && !except.contains(&s.name.as_str()))
            .map(|(_, t)| t)
            .sum()
    }

    /// Share of the root spans' wall time that their children cover:
    /// how much of the traced run the layer spans account for.
    pub fn coverage(&self) -> f64 {
        let (wall, uncovered) = self
            .spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| s.parent.is_none())
            .fold((0.0, 0.0), |(w, u), (s, t)| (w + s.end - s.start, u + t));
        if wall > 0.0 {
            1.0 - uncovered / wall
        } else {
            0.0
        }
    }

    /// Chrome trace-event JSON (loadable in Perfetto or about://tracing);
    /// `args` carry the span and parent ids and the workload.
    pub fn chrome_json(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}, \
                 \"workload\": \"{}\", \"self_us\": {:.3}}}}}",
                dircc_obs::escape(&s.name),
                s.tid,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.id,
                dircc_obs::escape(workload),
                self.self_s[i] * 1e6
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            name: format!("s{id}"),
            start,
            end,
            tid: 1,
        };
        // Root 0..10 with two overlapping children 1..4 and 3..6 (as
        // from two worker threads), and a grandchild inside the first.
        let p = Profile::new(vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0),
            span(4, Some(2), 2.0, 3.0),
        ]);
        assert_eq!(p.self_s("s1"), 5.0);
        assert_eq!(p.self_s("s2"), 2.0);
        assert_eq!(p.self_s("s3"), 3.0);
        assert_eq!(p.coverage(), 0.5);
    }
}
