//! Windowed counter sampling: the time axis of a replay.

use dircc_core::EventCounters;

/// One window of a time-resolved run: the counter *delta* accumulated
/// over references `start_ref + 1 ..= end_ref`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index within the run, from 0.
    pub index: usize,
    /// References completed before this window opened.
    pub start_ref: u64,
    /// References completed when this window closed (inclusive bound).
    pub end_ref: u64,
    /// Events observed inside the window only. Summing every window's
    /// delta reconstructs the run's final counters exactly.
    pub counters: EventCounters,
}

impl WindowSample {
    /// References covered by this window.
    pub fn refs(&self) -> u64 {
        self.end_ref - self.start_ref
    }
}

/// Samples [`EventCounters`] deltas every `window` references.
///
/// The replay engine calls [`record`](Self::record) once per replayed
/// trace record, after every counter mutation for that record (finite-cache
/// eviction traffic included), and [`finish`](Self::finish) once when the
/// stream ends. The final window may be shorter when the run length is not
/// a multiple of the window size; `finish` closes it and returns every
/// window. Windows are contiguous, non-overlapping, and partition the run.
#[derive(Debug, Clone)]
pub struct WindowedRecorder {
    window: u64,
    last_ref: u64,
    snapshot: EventCounters,
    samples: Vec<WindowSample>,
}

impl WindowedRecorder {
    /// Creates a recorder sampling every `window` references.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window size must be at least 1 reference");
        WindowedRecorder {
            window,
            last_ref: 0,
            snapshot: EventCounters::new(),
            samples: Vec::new(),
        }
    }

    fn close_window(&mut self, refs: u64, counters: &EventCounters) {
        self.samples.push(WindowSample {
            index: self.samples.len(),
            start_ref: self.last_ref,
            end_ref: refs,
            counters: counters.diff(&self.snapshot),
        });
        self.snapshot = counters.clone();
        self.last_ref = refs;
    }

    /// Observes the cumulative counters after reference number `refs`
    /// (1-based) has been fully accounted, closing a window every
    /// `window` references.
    #[inline]
    pub fn record(&mut self, refs: u64, counters: &EventCounters) {
        if refs.is_multiple_of(self.window) {
            self.close_window(refs, counters);
        }
    }

    /// Closes the last, possibly shorter, window once the stream is
    /// exhausted and returns every window. `refs` is the total reference
    /// count; `counters` the run's final totals.
    pub fn finish(mut self, refs: u64, counters: &EventCounters) -> Vec<WindowSample> {
        if refs > self.last_ref {
            self.close_window(refs, counters);
        }
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_core::{Event, MissContext, Outcome};

    /// Drives a recorder with a synthetic stream: `n` references, each a
    /// read hit except every 7th, which is a memory-only read miss.
    /// Returns the final counters and the windows.
    fn drive(mut rec: WindowedRecorder, n: u64) -> (EventCounters, Vec<WindowSample>) {
        let mut counters = EventCounters::new();
        for refs in 1..=n {
            let event = if refs.is_multiple_of(7) {
                Event::ReadMiss(MissContext::MemoryOnly)
            } else {
                Event::ReadHit
            };
            counters.observe(&Outcome::quiet(event));
            rec.record(refs, &counters);
        }
        let samples = rec.finish(n, &counters);
        (counters, samples)
    }

    #[test]
    fn windows_partition_the_run() {
        let (total, samples) = drive(WindowedRecorder::new(10), 37);
        assert_eq!(samples.len(), 4, "three full windows plus a 7-ref tail");
        assert_eq!(samples[3].refs(), 7);
        // Contiguous and non-overlapping.
        assert_eq!(samples[0].start_ref, 0);
        for w in samples.windows(2) {
            assert_eq!(w[0].end_ref, w[1].start_ref);
        }
        // Deltas sum exactly to the final counters.
        let mut sum = EventCounters::new();
        for s in &samples {
            assert_eq!(s.counters.total(), s.refs(), "each ref lands in one window");
            sum.merge(&s.counters);
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn exact_multiple_has_no_tail_window() {
        let (total, samples) = drive(WindowedRecorder::new(5), 20);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples.last().unwrap().end_ref, 20);
        let mut sum = EventCounters::new();
        for s in &samples {
            sum.merge(&s.counters);
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn empty_run_yields_no_windows() {
        let rec = WindowedRecorder::new(5);
        assert!(rec.finish(0, &EventCounters::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        let _ = WindowedRecorder::new(0);
    }
}
