//! LRU result cache with single-flight fills.
//!
//! Two layers:
//!
//! * [`Lru`] — a plain bounded map with recency eviction, directly
//!   testable (eviction order is a satellite test requirement).
//! * [`ResultCache`] — wraps `Lru` with per-key single-flight: when N
//!   threads ask for the same uncomputed key at once, exactly one runs
//!   the fill closure and the rest block on a `Condvar` until the value
//!   lands. That is what turns "identical configs dedup to one
//!   workbench run under concurrent submission" from a hope into an
//!   invariant. `OnceLock::wait` would be the obvious primitive but is
//!   nightly-only, hence the hand-rolled cell.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use dircc_obs::Counter;

/// Bounded map with least-recently-used eviction. Not thread-safe on
/// its own — callers wrap it in a mutex.
pub struct Lru<V> {
    capacity: usize,
    map: HashMap<String, V>,
    /// Keys from least- to most-recently used.
    recency: Vec<String>,
}

impl<V> Lru<V> {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity),
            recency: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: &str) {
        if let Some(i) = self.recency.iter().position(|k| k == key) {
            let k = self.recency.remove(i);
            self.recency.push(k);
        }
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        if self.map.contains_key(key) {
            self.touch(key);
            self.map.get(key)
        } else {
            None
        }
    }

    /// Inserts (or replaces) `key`, returning the evicted key if the
    /// cache was full.
    pub fn insert(&mut self, key: &str, value: V) -> Option<String> {
        if self.map.insert(key.to_string(), value).is_some() {
            self.touch(key);
            return None;
        }
        self.recency.push(key.to_string());
        if self.map.len() > self.capacity {
            let victim = self.recency.remove(0);
            self.map.remove(&victim);
            return Some(victim);
        }
        None
    }

    /// The cached values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    /// Removes `key` outright (used to drop failed fills).
    pub fn remove(&mut self, key: &str) {
        if self.map.remove(key).is_some() {
            self.recency.retain(|k| k != key);
        }
    }
}

/// What a fill produced: the response body, or an HTTP-ready error.
/// Errors are *not* cached — a transient failure must not poison a key.
pub type FillResult = Result<String, (u16, String)>;

/// One in-flight or completed fill.
struct Cell {
    state: Mutex<CellState>,
    ready: Condvar,
}

enum CellState {
    /// The filling thread is still running.
    Pending,
    /// The fill finished; waiters take a clone.
    Done(FillResult),
}

/// Outcome of a cache lookup, for the `X-Cache` header and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the cache without running the fill.
    Hit,
    /// This call ran the fill.
    Miss,
    /// Another thread was already filling; this call waited for it.
    /// Reported as a hit on the wire — the workbench ran once.
    Coalesced,
}

impl Outcome {
    pub fn wire_label(self) -> &'static str {
        match self {
            Outcome::Hit | Outcome::Coalesced => "hit",
            Outcome::Miss => "miss",
        }
    }
}

/// The cache's event counters. Constructed standalone by
/// [`ResultCache::new`]; the daemon instead passes handles registered on
/// its metrics registry, so `/metrics` reads the very same atomics the
/// cache increments — no reconciliation drift possible.
#[derive(Default, Clone)]
pub struct CacheCounters {
    /// Served from the cache without running the fill (includes
    /// coalesced waits — the workbench ran once for them too).
    pub hits: Counter,
    /// This call ran the fill.
    pub misses: Counter,
    /// Keys displaced by LRU pressure.
    pub evictions: Counter,
    /// Waits on another caller's in-flight fill (also counted as hits).
    pub coalesced: Counter,
}

/// Thread-safe single-flight LRU over [`FillResult`]s.
pub struct ResultCache {
    inner: Mutex<Lru<Arc<Cell>>>,
    counters: CacheCounters,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache::with_counters(capacity, CacheCounters::default())
    }

    /// A cache whose event counters are shared with the caller (the
    /// daemon registers them as `dircc_result_cache_events_total`).
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> Self {
        ResultCache { inner: Mutex::new(Lru::new(capacity)), counters }
    }

    /// (hits, misses) served so far. Coalesced waits count as hits.
    pub fn stats(&self) -> (u64, u64) {
        (self.counters.hits.get(), self.counters.misses.get())
    }

    /// (hits, misses, evictions, coalesced) served so far.
    pub fn detailed_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.counters.hits.get(),
            self.counters.misses.get(),
            self.counters.evictions.get(),
            self.counters.coalesced.get(),
        )
    }

    /// Returns the cached value for `key`, running `fill` at most once
    /// per cache generation across all concurrent callers.
    pub fn get_or_fill(
        &self,
        key: &str,
        fill: impl FnOnce() -> FillResult,
    ) -> (FillResult, Outcome) {
        let (cell, filler) = {
            let mut lru = self.inner.lock().expect("cache lock");
            match lru.get(key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(Cell {
                        state: Mutex::new(CellState::Pending),
                        ready: Condvar::new(),
                    });
                    if lru.insert(key, Arc::clone(&cell)).is_some() {
                        self.counters.evictions.inc();
                    }
                    (cell, true)
                }
            }
        };

        if filler {
            self.counters.misses.inc();
            // If `fill` panics the guard records an error so waiters
            // wake instead of blocking forever, and evicts the key so
            // the poisoned cell is not served to later callers.
            struct FillGuard<'c> {
                cache: &'c ResultCache,
                key: &'c str,
                cell: &'c Cell,
                done: bool,
            }
            impl Drop for FillGuard<'_> {
                fn drop(&mut self) {
                    if !self.done {
                        *self.cell.state.lock().expect("cell lock") =
                            CellState::Done(Err((500, "job panicked".to_string())));
                        self.cell.ready.notify_all();
                        self.cache.inner.lock().expect("cache lock").remove(self.key);
                    }
                }
            }
            let mut guard = FillGuard { cache: self, key, cell: &cell, done: false };
            let result = fill();
            *cell.state.lock().expect("cell lock") = CellState::Done(result.clone());
            cell.ready.notify_all();
            guard.done = true;
            drop(guard);
            if result.is_err() {
                // Do not cache failures: the next request retries.
                self.inner.lock().expect("cache lock").remove(key);
            }
            return (result, Outcome::Miss);
        }

        let mut state = cell.state.lock().expect("cell lock");
        let outcome = match *state {
            CellState::Done(_) => Outcome::Hit,
            CellState::Pending => Outcome::Coalesced,
        };
        if outcome == Outcome::Coalesced {
            self.counters.coalesced.inc();
        }
        while matches!(*state, CellState::Pending) {
            state = cell.ready.wait(state).expect("cell wait");
        }
        self.counters.hits.inc();
        match &*state {
            CellState::Done(result) => (result.clone(), outcome),
            CellState::Pending => unreachable!("loop exits only on Done"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lru_evicts_in_recency_order_at_tiny_capacity() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), None);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.insert("c", 3), Some("b".to_string()));
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        // "a" was just touched, so inserting "d" evicts "c"? No — "c"
        // was touched after "a" above; the order is now a, c → evict a.
        assert_eq!(lru.insert("d", 4), Some("a".to_string()));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_replacing_a_key_does_not_evict() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get("a"), Some(&10));
        // Replacement refreshed "a", so "b" is the victim.
        assert_eq!(lru.insert("c", 3), Some("b".to_string()));
    }

    #[test]
    fn lru_remove_clears_recency() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.remove("a");
        assert!(lru.is_empty());
        lru.insert("b", 2);
        lru.insert("c", 3);
        assert_eq!(lru.insert("d", 4), Some("b".to_string()));
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = ResultCache::new(4);
        let (first, o1) = cache.get_or_fill("k", || Ok("v".to_string()));
        assert_eq!(first.unwrap(), "v");
        assert_eq!(o1, Outcome::Miss);
        let (second, o2) = cache.get_or_fill("k", || panic!("must not refill"));
        assert_eq!(second.unwrap(), "v");
        assert_eq!(o2, Outcome::Hit);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn concurrent_identical_keys_fill_exactly_once() {
        let cache = Arc::new(ResultCache::new(4));
        let fills = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || {
                    let (result, _) = cache.get_or_fill("k", || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        // Stretch the fill window so other threads pile up.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok("v".to_string())
                    });
                    result.unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), "v");
        }
        assert_eq!(fills.load(Ordering::SeqCst), 1, "single-flight must dedup the fill");
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 7);
    }

    #[test]
    fn detailed_stats_count_lru_evictions() {
        let cache = ResultCache::new(2);
        let _ = cache.get_or_fill("a", || Ok("1".to_string()));
        let _ = cache.get_or_fill("b", || Ok("2".to_string()));
        let _ = cache.get_or_fill("c", || Ok("3".to_string()));
        assert_eq!(cache.detailed_stats(), (0, 3, 1, 0));
    }

    #[test]
    fn waiting_on_an_inflight_fill_counts_as_coalesced() {
        let cache = Arc::new(ResultCache::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let c2 = Arc::clone(&cache);
        let filler = std::thread::spawn(move || {
            c2.get_or_fill("k", || {
                tx.send(()).unwrap();
                // Hold the cell Pending long enough for the main
                // thread's lookup to land on it.
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok("v".to_string())
            })
        });
        rx.recv().unwrap();
        let (result, o) = cache.get_or_fill("k", || unreachable!("fill is in flight"));
        assert_eq!(result.unwrap(), "v");
        assert_eq!(o, Outcome::Coalesced);
        filler.join().unwrap().0.unwrap();
        assert_eq!(cache.detailed_stats(), (1, 1, 0, 1));
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        let cache = ResultCache::new(4);
        let (first, _) = cache.get_or_fill("k", || Err((400, "bad".to_string())));
        assert_eq!(first.unwrap_err().0, 400);
        let (second, o) = cache.get_or_fill("k", || Ok("recovered".to_string()));
        assert_eq!(second.unwrap(), "recovered");
        assert_eq!(o, Outcome::Miss, "a failed fill must not occupy the key");
    }

    #[test]
    fn panicking_fill_wakes_waiters_and_clears_the_key() {
        let cache = Arc::new(ResultCache::new(4));
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = c2.get_or_fill("k", || panic!("boom"));
            }));
        });
        panicker.join().expect("catch_unwind absorbed the panic");
        let (result, o) = cache.get_or_fill("k", || Ok("after".to_string()));
        assert_eq!(result.unwrap(), "after");
        assert_eq!(o, Outcome::Miss);
    }
}
