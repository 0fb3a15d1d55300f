//! Event counting: the raw material of Table 4 and Figure 1.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};

/// Width of the invalidation histogram ([`EventCounters::inval_histogram`]);
/// counts of `MAX_HISTOGRAM - 1` or more sharers land in the last bucket.
pub const MAX_HISTOGRAM: usize = 17;

// Dense row indices for the Table 4 event classification. Keeping the
// rows in one array lets [`EventCounters::observe`] turn the nested
// event matches into a single table-driven classification plus an
// unconditional array increment.
const ROW_INSTR: usize = 0;
const ROW_READ_HIT: usize = 1;
const ROW_RM_FIRST: usize = 2;
const ROW_RM_CLEAN: usize = 3;
const ROW_RM_DIRTY: usize = 4;
const ROW_RM_MEMORY: usize = 5;
const ROW_WH_DIRTY: usize = 6;
const ROW_WH_CLEAN_EXCLUSIVE: usize = 7;
const ROW_WH_CLEAN_SHARED: usize = 8;
const ROW_WM_FIRST: usize = 9;
const ROW_WM_CLEAN: usize = 10;
const ROW_WM_DIRTY: usize = 11;
const ROW_WM_MEMORY: usize = 12;
const NUM_ROWS: usize = 13;

/// Accumulated event frequencies and side-effect counts for one protocol
/// over one trace.
///
/// All Table 4 rows are exposed as counts plus `*_frac` percentages of
/// total references; Figure 1's histogram of "caches to invalidate on a
/// write to a previously-clean block" is [`EventCounters::inval_histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Table 4 event rows, indexed by the `ROW_*` constants.
    rows: [u64; NUM_ROWS],
    control_messages: u64,
    broadcasts: u64,
    write_backs: u64,
    cache_supplies: u64,
    updates: u64,
    aux_messages: u64,
    directory_evictions: u64,
    cache_evictions: u64,
    /// Histogram over writes to previously-clean blocks of the number of
    /// *other* caches holding the block (Figure 1).
    inval_hist: [u64; MAX_HISTOGRAM],
}

/// Classifies an event into its row index plus the histogram update it
/// carries: `(row, hist_index, hist_add)`. Events that don't feed the
/// histogram return `hist_add == 0` (slot 0 is then incremented by zero),
/// so the caller's histogram update is unconditional — no branch on the
/// quiet outcomes.
#[inline(always)]
fn classify(e: Event) -> (usize, usize, u64) {
    match e {
        Event::Instr => (ROW_INSTR, 0, 0),
        Event::ReadHit => (ROW_READ_HIT, 0, 0),
        Event::ReadMiss(MissContext::FirstRef) => (ROW_RM_FIRST, 0, 0),
        Event::ReadMiss(MissContext::CleanElsewhere { .. }) => (ROW_RM_CLEAN, 0, 0),
        Event::ReadMiss(MissContext::DirtyElsewhere) => (ROW_RM_DIRTY, 0, 0),
        Event::ReadMiss(MissContext::MemoryOnly) => (ROW_RM_MEMORY, 0, 0),
        Event::WriteHit(WriteHitContext::Dirty) => (ROW_WH_DIRTY, 0, 0),
        Event::WriteHit(WriteHitContext::CleanExclusive) => (ROW_WH_CLEAN_EXCLUSIVE, 0, 1),
        Event::WriteHit(WriteHitContext::CleanShared { others }) => {
            (ROW_WH_CLEAN_SHARED, hist_slot(others), 1)
        }
        Event::WriteMiss(MissContext::FirstRef) => (ROW_WM_FIRST, 0, 0),
        Event::WriteMiss(MissContext::CleanElsewhere { copies }) => {
            (ROW_WM_CLEAN, hist_slot(copies), 1)
        }
        Event::WriteMiss(MissContext::DirtyElsewhere) => (ROW_WM_DIRTY, 0, 0),
        Event::WriteMiss(MissContext::MemoryOnly) => (ROW_WM_MEMORY, 0, 0),
    }
}

#[inline(always)]
fn hist_slot(others: u32) -> usize {
    (others as usize).min(MAX_HISTOGRAM - 1)
}

impl EventCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts for one protocol outcome.
    ///
    /// Branchless on the hot path: one table-driven event classification,
    /// one unconditional row increment, one unconditional histogram
    /// increment (adding zero for events outside the histogram), and the
    /// side-effect totals added via `u64::from(bool)` widening.
    #[inline]
    pub fn observe(&mut self, o: &Outcome) {
        let (row, hist_idx, hist_add) = classify(o.event);
        self.rows[row] += 1;
        self.inval_hist[hist_idx] += hist_add;
        self.control_messages += u64::from(o.control_messages);
        self.broadcasts += u64::from(o.used_broadcast);
        self.write_backs += u64::from(o.write_back);
        self.cache_supplies += u64::from(o.cache_supplied);
        self.updates += u64::from(o.updates);
        self.aux_messages += u64::from(o.aux_messages);
        self.directory_evictions += u64::from(o.directory_evictions);
    }

    /// Accounts for `n` instruction fetches at once: exactly what `n`
    /// observations of `Outcome::quiet(Event::Instr)` add, for replay
    /// streams that count instruction fetches instead of storing them.
    #[inline]
    pub fn observe_instr_fetches(&mut self, n: u64) {
        self.rows[ROW_INSTR] += n;
    }

    /// Accounts for a finite-cache replacement. Eviction traffic feeds the
    /// write-back and control-message totals (it occupies the bus) without
    /// touching any reference-event row, so per-reference rates stay
    /// correct.
    pub fn observe_eviction(&mut self, e: &EvictOutcome) {
        self.cache_evictions += 1;
        self.write_backs += u64::from(e.write_back);
        self.control_messages += u64::from(e.control_messages);
    }

    /// Finite-cache replacements observed (0 in infinite-cache runs).
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Merges another counter set into this one (e.g. across traces).
    pub fn merge(&mut self, other: &EventCounters) {
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            *a += b;
        }
        self.control_messages += other.control_messages;
        self.broadcasts += other.broadcasts;
        self.write_backs += other.write_backs;
        self.cache_supplies += other.cache_supplies;
        self.updates += other.updates;
        self.aux_messages += other.aux_messages;
        self.directory_evictions += other.directory_evictions;
        self.cache_evictions += other.cache_evictions;
        for (a, b) in self.inval_hist.iter_mut().zip(other.inval_hist.iter()) {
            *a += b;
        }
    }

    /// Field-wise difference against an `earlier` snapshot of the same
    /// run (`self − earlier`) — the raw material of windowed time-series
    /// recording: the deltas of consecutive snapshots partition a run, so
    /// merging them reconstructs the final counters exactly.
    ///
    /// Counters are monotonic, so every field of a genuine earlier
    /// snapshot is ≤ the corresponding field of `self`; passing anything
    /// else is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if any field of `earlier` exceeds the corresponding field
    /// of `self` (i.e. `earlier` is not an earlier snapshot of this run).
    #[must_use]
    pub fn diff(&self, earlier: &EventCounters) -> EventCounters {
        fn sub(a: u64, b: u64) -> u64 {
            a.checked_sub(b).expect("diff: argument is not an earlier snapshot of this run")
        }
        let mut rows = [0u64; NUM_ROWS];
        for (d, (a, b)) in rows.iter_mut().zip(self.rows.iter().zip(earlier.rows.iter())) {
            *d = sub(*a, *b);
        }
        let mut inval_hist = [0u64; MAX_HISTOGRAM];
        for (d, (a, b)) in
            inval_hist.iter_mut().zip(self.inval_hist.iter().zip(earlier.inval_hist.iter()))
        {
            *d = sub(*a, *b);
        }
        EventCounters {
            rows,
            control_messages: sub(self.control_messages, earlier.control_messages),
            broadcasts: sub(self.broadcasts, earlier.broadcasts),
            write_backs: sub(self.write_backs, earlier.write_backs),
            cache_supplies: sub(self.cache_supplies, earlier.cache_supplies),
            updates: sub(self.updates, earlier.updates),
            aux_messages: sub(self.aux_messages, earlier.aux_messages),
            directory_evictions: sub(self.directory_evictions, earlier.directory_evictions),
            cache_evictions: sub(self.cache_evictions, earlier.cache_evictions),
            inval_hist,
        }
    }

    /// A deterministic 64-bit fingerprint over every counter (FNV-1a in
    /// field order). Two counter sets are digest-equal iff field-equal
    /// (up to hash collisions), so bench reports can pin per-run counters
    /// compactly and `benchcmp` can detect drift without re-listing every
    /// field.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        for &r in &self.rows {
            h = mix(h, r);
        }
        for v in [
            self.control_messages,
            self.broadcasts,
            self.write_backs,
            self.cache_supplies,
            self.updates,
            self.aux_messages,
            self.directory_evictions,
            self.cache_evictions,
        ] {
            h = mix(h, v);
        }
        for &b in &self.inval_hist {
            h = mix(h, b);
        }
        h
    }

    /// Total references observed (instructions + data).
    pub fn total(&self) -> u64 {
        self.instr() + self.data_refs()
    }

    /// Total data references.
    pub fn data_refs(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Instruction fetches.
    pub fn instr(&self) -> u64 {
        self.rows[ROW_INSTR]
    }

    /// Total data reads.
    pub fn reads(&self) -> u64 {
        self.read_hits() + self.rm() + self.rm_first_ref()
    }

    /// Total data writes.
    pub fn writes(&self) -> u64 {
        self.wh() + self.wm() + self.wm_first_ref()
    }

    /// Read hits.
    pub fn read_hits(&self) -> u64 {
        self.rows[ROW_READ_HIT]
    }

    /// Read misses excluding first references (the paper's `rm`).
    pub fn rm(&self) -> u64 {
        self.rows[ROW_RM_CLEAN] + self.rows[ROW_RM_DIRTY] + self.rows[ROW_RM_MEMORY]
    }

    /// Read misses to blocks clean in another cache.
    pub fn rm_blk_cln(&self) -> u64 {
        self.rows[ROW_RM_CLEAN]
    }

    /// Read misses to blocks dirty in another cache.
    pub fn rm_blk_drty(&self) -> u64 {
        self.rows[ROW_RM_DIRTY]
    }

    /// Read misses satisfied from memory with no cached copies.
    pub fn rm_blk_mem(&self) -> u64 {
        self.rows[ROW_RM_MEMORY]
    }

    /// First-reference read misses.
    pub fn rm_first_ref(&self) -> u64 {
        self.rows[ROW_RM_FIRST]
    }

    /// Write hits.
    pub fn wh(&self) -> u64 {
        self.rows[ROW_WH_DIRTY] + self.rows[ROW_WH_CLEAN_EXCLUSIVE] + self.rows[ROW_WH_CLEAN_SHARED]
    }

    /// Write hits to locally-dirty blocks.
    pub fn wh_blk_drty(&self) -> u64 {
        self.rows[ROW_WH_DIRTY]
    }

    /// Write hits to locally-clean blocks (the paper's `wh-blk-cln`,
    /// regardless of other sharers).
    pub fn wh_blk_cln(&self) -> u64 {
        self.rows[ROW_WH_CLEAN_EXCLUSIVE] + self.rows[ROW_WH_CLEAN_SHARED]
    }

    /// Write hits to blocks also present in another cache (Dragon's
    /// `wh-distrib`).
    pub fn wh_distrib(&self) -> u64 {
        self.rows[ROW_WH_CLEAN_SHARED]
    }

    /// Write hits to blocks in no other cache (Dragon's `wh-local`).
    pub fn wh_local(&self) -> u64 {
        self.rows[ROW_WH_DIRTY] + self.rows[ROW_WH_CLEAN_EXCLUSIVE]
    }

    /// Write misses excluding first references (the paper's `wm`).
    pub fn wm(&self) -> u64 {
        self.rows[ROW_WM_CLEAN] + self.rows[ROW_WM_DIRTY] + self.rows[ROW_WM_MEMORY]
    }

    /// Write misses to blocks clean in another cache.
    pub fn wm_blk_cln(&self) -> u64 {
        self.rows[ROW_WM_CLEAN]
    }

    /// Write misses to blocks dirty in another cache.
    pub fn wm_blk_drty(&self) -> u64 {
        self.rows[ROW_WM_DIRTY]
    }

    /// Write misses satisfied from memory with no cached copies.
    pub fn wm_blk_mem(&self) -> u64 {
        self.rows[ROW_WM_MEMORY]
    }

    /// First-reference write misses.
    pub fn wm_first_ref(&self) -> u64 {
        self.rows[ROW_WM_FIRST]
    }

    /// Control messages (sequential invalidates, flush requests, pointer
    /// evictions).
    pub fn control_messages(&self) -> u64 {
        self.control_messages
    }

    /// Broadcast deliveries used.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Dirty write-backs to memory.
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Cache-to-cache data supplies.
    pub fn cache_supplies(&self) -> u64 {
        self.cache_supplies
    }

    /// Word updates distributed (Dragon, Firefly).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Protocol maintenance messages (Yen & Fu single-bit traffic).
    pub fn aux_messages(&self) -> u64 {
        self.aux_messages
    }

    /// Copies invalidated by limited-directory pointer overflow.
    pub fn directory_evictions(&self) -> u64 {
        self.directory_evictions
    }

    /// Figure 1 histogram: for each write to a previously-clean block, the
    /// number of other caches that held the block. Index = sharer count;
    /// the final bucket aggregates larger counts.
    pub fn inval_histogram(&self) -> &[u64; MAX_HISTOGRAM] {
        &self.inval_hist
    }

    /// Fraction of writes-to-previously-clean-blocks that required
    /// invalidations in at most `k` other caches (Figure 1's headline:
    /// "over 85% ... no more than one").
    pub fn inval_at_most(&self, k: usize) -> f64 {
        let total: u64 = self.inval_hist.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = self.inval_hist.iter().take(k + 1).sum();
        within as f64 / total as f64
    }

    /// A count expressed as a percentage of total references.
    pub fn pct(&self, count: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total() as f64
        }
    }

    /// A count expressed as a fraction (per reference).
    pub fn per_ref(&self, count: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            count as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};

    fn quiet(e: Event) -> Outcome {
        Outcome::quiet(e)
    }

    #[test]
    fn bulk_instruction_fetches_equal_one_at_a_time() {
        let (mut one, mut bulk) = (EventCounters::new(), EventCounters::new());
        one.observe(&quiet(Event::ReadHit));
        bulk.observe(&quiet(Event::ReadHit));
        for _ in 0..5 {
            one.observe(&quiet(Event::Instr));
        }
        bulk.observe_instr_fetches(5);
        assert_eq!(one, bulk);
        assert_eq!(bulk.instr(), 5);
        assert_eq!(bulk.total(), 6);
    }

    #[test]
    fn table4_rows_accumulate() {
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::Instr));
        c.observe(&quiet(Event::ReadHit));
        c.observe(&quiet(Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 })));
        c.observe(&quiet(Event::ReadMiss(MissContext::DirtyElsewhere)));
        c.observe(&quiet(Event::ReadMiss(MissContext::FirstRef)));
        c.observe(&quiet(Event::WriteHit(WriteHitContext::Dirty)));
        c.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 1 })));
        c.observe(&quiet(Event::WriteMiss(MissContext::CleanElsewhere { copies: 3 })));
        assert_eq!(c.total(), 8);
        assert_eq!(c.instr(), 1);
        assert_eq!(c.reads(), 4);
        assert_eq!(c.writes(), 3);
        assert_eq!(c.rm(), 2);
        assert_eq!(c.rm_first_ref(), 1);
        assert_eq!(c.wh(), 2);
        assert_eq!(c.wh_blk_cln(), 1);
        assert_eq!(c.wh_distrib(), 1);
        assert_eq!(c.wh_local(), 1);
        assert_eq!(c.wm(), 1);
        assert_eq!(c.wm_blk_cln(), 1);
    }

    #[test]
    fn histogram_tracks_sharer_counts() {
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::WriteHit(WriteHitContext::CleanExclusive)));
        c.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 1 })));
        c.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 1 })));
        c.observe(&quiet(Event::WriteMiss(MissContext::CleanElsewhere { copies: 3 })));
        let h = c.inval_histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 2);
        assert_eq!(h[3], 1);
        assert!((c.inval_at_most(1) - 0.75).abs() < 1e-12);
        assert!((c.inval_at_most(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_saturates_last_bucket() {
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 60 })));
        assert_eq!(c.inval_histogram()[MAX_HISTOGRAM - 1], 1);
    }

    #[test]
    fn quiet_outcomes_leave_the_histogram_untouched() {
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::ReadHit));
        c.observe(&quiet(Event::Instr));
        c.observe(&quiet(Event::ReadMiss(MissContext::MemoryOnly)));
        c.observe(&quiet(Event::WriteHit(WriteHitContext::Dirty)));
        assert!(c.inval_histogram().iter().all(|&b| b == 0));
    }

    #[test]
    fn side_effects_accumulate() {
        let mut c = EventCounters::new();
        let o = Outcome {
            control_messages: 3,
            used_broadcast: true,
            updates: 1,
            aux_messages: 2,
            directory_evictions: 1,
            cache_supplied: true,
            ..Outcome::quiet(Event::ReadHit).with_write_back()
        };
        c.observe(&o);
        assert_eq!(c.control_messages(), 3);
        assert_eq!(c.broadcasts(), 1);
        assert_eq!(c.write_backs(), 1);
        assert_eq!(c.cache_supplies(), 1);
        assert_eq!(c.updates(), 1);
        assert_eq!(c.aux_messages(), 2);
        assert_eq!(c.directory_evictions(), 1);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = EventCounters::new();
        let mut b = EventCounters::new();
        a.observe(&quiet(Event::ReadHit));
        b.observe(&quiet(Event::ReadHit));
        b.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 2 })));
        a.merge(&b);
        assert_eq!(a.read_hits(), 2);
        assert_eq!(a.wh_distrib(), 1);
        assert_eq!(a.inval_histogram()[2], 1);
    }

    #[test]
    fn percentages() {
        let mut c = EventCounters::new();
        for _ in 0..3 {
            c.observe(&quiet(Event::ReadHit));
        }
        c.observe(&quiet(Event::Instr));
        assert!((c.pct(c.read_hits()) - 75.0).abs() < 1e-12);
        assert!((c.per_ref(c.read_hits()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn evictions_feed_traffic_totals_but_not_event_rows() {
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::ReadHit));
        c.observe_eviction(&EvictOutcome::WRITE_BACK);
        c.observe_eviction(&EvictOutcome::NOTIFY);
        c.observe_eviction(&EvictOutcome::SILENT);
        assert_eq!(c.total(), 1, "evictions are not references");
        assert_eq!(c.cache_evictions(), 3);
        assert_eq!(c.write_backs(), 1);
        assert_eq!(c.control_messages(), 1);
        // And they merge.
        let mut d = EventCounters::new();
        d.merge(&c);
        assert_eq!(d.cache_evictions(), 3);
    }

    #[test]
    fn diff_inverts_merge() {
        let mut early = EventCounters::new();
        early.observe(&quiet(Event::ReadHit));
        early.observe(&quiet(Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 })));
        let mut late = early.clone();
        late.observe(&quiet(Event::Instr));
        late.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 1 })));
        late.observe_eviction(&EvictOutcome::WRITE_BACK);
        let delta = late.diff(&early);
        assert_eq!(delta.total(), 2);
        assert_eq!(delta.instr(), 1);
        assert_eq!(delta.wh_distrib(), 1);
        assert_eq!(delta.cache_evictions(), 1);
        assert_eq!(delta.write_backs(), 1);
        assert_eq!(delta.inval_histogram()[1], 1);
        assert_eq!(delta.inval_histogram()[2], 0, "early histogram entries subtract out");
        // merge(diff) round-trips.
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
        // Diffing against itself is zero.
        assert_eq!(late.diff(&late), EventCounters::new());
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn diff_rejects_a_later_snapshot() {
        let mut late = EventCounters::new();
        late.observe(&quiet(Event::ReadHit));
        let _ = EventCounters::new().diff(&late);
    }

    #[test]
    fn empty_counters_are_safe() {
        let c = EventCounters::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.pct(0), 0.0);
        assert_eq!(c.inval_at_most(0), 1.0);
    }

    #[test]
    fn digest_distinguishes_counter_sets() {
        let mut a = EventCounters::new();
        let mut b = EventCounters::new();
        assert_eq!(a.digest(), b.digest(), "equal counters share a digest");
        a.observe(&quiet(Event::ReadHit));
        assert_ne!(a.digest(), b.digest());
        b.observe(&quiet(Event::ReadHit));
        assert_eq!(a.digest(), b.digest());
        // Rows are position-sensitive: a read hit is not an instr fetch.
        let mut c = EventCounters::new();
        c.observe(&quiet(Event::Instr));
        assert_ne!(a.digest(), c.digest());
        // Histogram and side effects feed the digest too.
        let mut d = a.clone();
        d.observe(&quiet(Event::WriteHit(WriteHitContext::CleanShared { others: 2 })));
        assert_ne!(a.digest(), d.digest());
        let mut e = a.clone();
        e.observe_eviction(&EvictOutcome::WRITE_BACK);
        assert_ne!(a.digest(), e.digest());
    }
}
