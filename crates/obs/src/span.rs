//! Wall-clock span collection for the workbench's internal phases.
//!
//! A [`SpanLog`] is shared by every worker thread of a warm-up fan-out:
//! spans record which thread executed them, so the exported trace shows
//! the actual parallel schedule. Collection cost is one `Instant` pair
//! plus one short mutex push per span — spans wrap whole phases (a trace
//! generation, a multi-million-reference replay), never the per-reference
//! hot loop.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies the simulation run a span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Paper-style scheme name (e.g. `Dir1NB`).
    pub scheme: String,
    /// Trace name (e.g. `POPS`).
    pub trace: String,
    /// Filter label (`full` or `no-spins`).
    pub filter: String,
    /// References the phase covered.
    pub refs: u64,
    /// The serve-daemon request ID that triggered this phase (`None`
    /// outside the daemon). Joins `/spans` output against the daemon's
    /// `x-request-id` response headers and log lines.
    pub request: Option<String>,
}

/// One completed phase: a named interval on one thread.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`generate`, `filter`, `intern`, `replay`, `price`).
    pub name: String,
    /// Small dense id of the executing thread (1-based, first-use order).
    pub tid: u64,
    /// Offset from the log's epoch.
    pub start: Duration,
    /// Phase duration.
    pub dur: Duration,
    /// The run the phase belongs to, when applicable.
    pub meta: Option<RunMeta>,
}

/// An open interval handed out by [`SpanLog::start`].
#[derive(Debug)]
pub struct SpanTimer {
    started: Instant,
}

/// Thread-safe span collector with a fixed epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    tids: Mutex<HashMap<std::thread::ThreadId, u64>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// Creates an empty log; its epoch (trace time zero) is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tids: Mutex::new(HashMap::new()),
        }
    }

    /// Opens an interval. Pass the returned timer to [`finish`](Self::finish).
    pub fn start(&self) -> SpanTimer {
        SpanTimer { started: Instant::now() }
    }

    /// Closes an interval, recording it under `name`. Returns the
    /// measured duration.
    pub fn finish(
        &self,
        timer: SpanTimer,
        name: impl Into<String>,
        meta: Option<RunMeta>,
    ) -> Duration {
        let dur = timer.started.elapsed();
        let span = Span {
            name: name.into(),
            tid: self.current_tid(),
            start: timer.started.saturating_duration_since(self.epoch),
            dur,
            meta,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        dur
    }

    /// Times a closure as one span.
    pub fn time<T>(&self, name: &str, meta: Option<RunMeta>, f: impl FnOnce() -> T) -> T {
        let timer = self.start();
        let value = f();
        self.finish(timer, name, meta);
        value
    }

    /// Snapshot of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Whether no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense thread id of the calling thread (assigned on first use).
    fn current_tid(&self) -> u64 {
        let id = std::thread::current().id();
        let mut tids = self.tids.lock().expect("tid map poisoned");
        let next = tids.len() as u64 + 1;
        *tids.entry(id).or_insert(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            scheme: "Dir0B".into(),
            trace: "POPS".into(),
            filter: "full".into(),
            refs: 100,
            request: None,
        }
    }

    #[test]
    fn spans_record_name_meta_and_order() {
        let log = SpanLog::new();
        log.time("generate", None, || ());
        log.time("replay", Some(meta()), || std::thread::sleep(Duration::from_millis(1)));
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "generate");
        assert!(spans[0].meta.is_none());
        let replay = &spans[1];
        assert_eq!(replay.meta.as_ref().unwrap().scheme, "Dir0B");
        assert!(replay.dur >= Duration::from_millis(1));
        assert!(replay.start >= spans[0].start, "later span starts later");
    }

    #[test]
    fn same_thread_keeps_its_tid_and_threads_differ() {
        let log = SpanLog::new();
        log.time("a", None, || ());
        log.time("b", None, || ());
        std::thread::scope(|scope| {
            scope.spawn(|| log.time("c", None, || ()));
        });
        let spans = log.spans();
        assert_eq!(spans[0].tid, spans[1].tid, "one thread, one tid");
        assert_ne!(spans[0].tid, spans[2].tid, "second thread gets a fresh tid");
    }

    #[test]
    fn timer_measures_the_closure() {
        let log = SpanLog::new();
        let t = log.start();
        let dur = log.finish(t, "x", None);
        assert!(dur < Duration::from_secs(1));
        assert!(!log.is_empty());
        assert_eq!(log.len(), 1);
    }
}
