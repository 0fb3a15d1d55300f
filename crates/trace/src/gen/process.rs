//! Per-process activity state machines and shared workload state.
//!
//! Each synthetic process cycles through phases — private compute, lock
//! acquire / critical section / release, shared read-only scans, producer/
//! consumer exchanges and OS bursts — emitting the references of one phase
//! iteration into a small inline buffer that the scheduler drains one at a
//! time. Lock state is global: a process whose lock is held emits spin
//! reads (the §4.4 test-and-test-and-set "first test") until the holder's
//! release is observed.
//!
//! Generation is on the path of every trace the simulator replays, so the
//! per-reference work is kept small without moving a random draw:
//!
//! * one iteration pushes at most [`MAX_STEP_REFS`] references, and the
//!   buffer is refilled only once drained, so it is a fixed array with a
//!   read cursor rather than a heap queue;
//! * phase lengths are geometric, drawn as `floor(ln u / ln q) + 1` with
//!   `q = 1 − 1/mean`. `ln q` depends only on the profile, so each
//!   [`Geometric`] sampler takes it once and a draw takes one logarithm,
//!   not two. The quotient is the same `f64`, so a seed yields the same
//!   trace bit for bit.

use super::regions::Regions;
use super::Profile;
use crate::record::RecordFlags;
use dircc_types::{AccessKind, Address};
use rand::rngs::SmallRng;
use rand::Rng;

/// A geometric length sampler with mean `mean`: `floor(ln u / ln q) + 1`
/// for a uniform `u` and `q = 1 − 1/mean`, saturating, capped at 100,000.
/// A mean of at most 1 always yields 1 and draws nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometric {
    /// `ln q`, taken once; `None` for a mean of at most 1.
    ln_q: Option<f64>,
}

impl Geometric {
    pub fn new(mean: f64) -> Self {
        let ln_q = if mean <= 1.0 { None } else { Some((1.0 - 1.0 / mean).ln()) };
        Geometric { ln_q }
    }

    /// Draws one length.
    #[inline]
    pub fn sample(self, rng: &mut SmallRng) -> u32 {
        let Some(ln_q) = self.ln_q else {
            return 1;
        };
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let len = (u.ln() / ln_q).floor();
        (len as u32).saturating_add(1).min(100_000)
    }
}

/// The geometric lengths a profile draws: its scheduling burst and the
/// iteration count of each phase.
#[derive(Debug, Clone)]
pub(crate) struct Lengths {
    pub quantum: Geometric,
    private: Geometric,
    critical: Geometric,
    shared_read: Geometric,
    prodcons: Geometric,
    syscall: Geometric,
}

impl Lengths {
    pub fn new(p: &Profile) -> Self {
        Lengths {
            quantum: Geometric::new(p.quantum_mean),
            private: Geometric::new(p.private_iters_mean),
            critical: Geometric::new(p.critical_iters_mean),
            shared_read: Geometric::new(p.shared_read_iters_mean),
            prodcons: Geometric::new(p.prodcons_iters_mean),
            syscall: Geometric::new(p.syscall_iters_mean),
        }
    }
}

/// One spin lock's global state.
#[derive(Debug, Clone, Default)]
pub(crate) struct LockState {
    /// Holding process index, if any.
    pub held_by: Option<u16>,
}

/// Workload state shared across all processes.
#[derive(Debug, Clone)]
pub(crate) struct SharedState {
    pub locks: Vec<LockState>,
    /// Monotonic produced-slot cursor per queue.
    pub queue_cursor: Vec<u64>,
}

impl SharedState {
    pub fn new(p: &Profile) -> Self {
        SharedState {
            locks: vec![LockState::default(); p.lock_count as usize],
            queue_cursor: vec![0; p.queue_count as usize],
        }
    }
}

/// A reference waiting to be emitted (everything but CPU, which the
/// scheduler supplies).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRef {
    pub kind: AccessKind,
    pub addr: Address,
    pub flags: RecordFlags,
}

impl PendingRef {
    /// Fills the buffer's unused slots; never emitted.
    const EMPTY: PendingRef = PendingRef {
        kind: AccessKind::InstrFetch,
        addr: Address::new(0),
        flags: RecordFlags::NONE,
    };
}

/// The most references one [`ProcessState::step`] pushes. The bound is
/// the last iteration of a critical section that writes: an instruction
/// fetch and a read of the object, an instruction fetch and a write of
/// it, then an instruction fetch and the lock release. A lock acquire
/// pushes at most four, every other phase two.
const MAX_STEP_REFS: usize = 6;

#[derive(Debug, Clone, Copy)]
enum Activity {
    Idle,
    Private { remaining: u32 },
    Acquire { lock: u32 },
    Critical { lock: u32, remaining: u32 },
    SharedRead { remaining: u32 },
    ProdCons { queue: u32, remaining: u32, produce: bool },
    Syscall { remaining: u32 },
}

/// One synthetic process.
#[derive(Debug)]
pub(crate) struct ProcessState {
    pid: u16,
    activity: Activity,
    /// The references of the last phase iteration, in order.
    pending: [PendingRef; MAX_STEP_REFS],
    /// How many of `pending` the last iteration pushed.
    pending_len: usize,
    /// The next of them to emit.
    pending_at: usize,
    code_pc: u64,
    os_pc: u64,
}

impl ProcessState {
    pub fn new(pid: u16) -> Self {
        ProcessState {
            pid,
            activity: Activity::Idle,
            pending: [PendingRef::EMPTY; MAX_STEP_REFS],
            pending_len: 0,
            pending_at: 0,
            // Stagger instruction pointers so processes don't fetch in
            // lockstep from identical code offsets.
            code_pc: u64::from(pid) * 17,
            os_pc: u64::from(pid) * 29,
        }
    }

    /// Emits the next reference, advancing the activity machine once the
    /// last iteration's references are drained.
    #[inline]
    pub fn emit(
        &mut self,
        shared: &mut SharedState,
        rng: &mut SmallRng,
        p: &Profile,
        regions: &Regions,
        lengths: &Lengths,
    ) -> PendingRef {
        if self.pending_at == self.pending_len {
            self.pending_at = 0;
            self.pending_len = 0;
            while self.pending_len == 0 {
                self.step(shared, rng, p, regions, lengths);
            }
        }
        let next = self.pending[self.pending_at];
        self.pending_at += 1;
        next
    }

    #[inline]
    fn push(&mut self, kind: AccessKind, addr: Address, flags: RecordFlags) {
        self.pending[self.pending_len] = PendingRef { kind, addr, flags };
        self.pending_len += 1;
    }

    /// Pushes the instruction fetch that precedes a data reference, unless
    /// the profile's `extra_data_prob` skip fires (fine-tuning the global
    /// instruction fraction below 50%).
    #[inline]
    fn push_instr(&mut self, rng: &mut SmallRng, p: &Profile, regions: &Regions, sys: bool) {
        if rng.gen::<f64>() < p.extra_data_prob {
            return;
        }
        if sys {
            let a = regions.os_code(self.os_pc);
            self.os_pc += 1;
            self.push(AccessKind::InstrFetch, a, RecordFlags::SYSTEM);
        } else {
            let a = regions.code(self.pid, self.code_pc);
            self.code_pc += 1;
            self.push(AccessKind::InstrFetch, a, RecordFlags::NONE);
        }
    }

    fn choose_next(&mut self, rng: &mut SmallRng, p: &Profile, lengths: &Lengths) {
        let lock_w = if p.lock_count == 0 { 0 } else { p.weight_lock };
        let pc_w = if p.queue_count == 0 { 0 } else { p.weight_prodcons };
        let weights = [p.weight_private, lock_w, p.weight_shared_read, pc_w, p.weight_syscall];
        let total: u32 = weights.iter().sum();
        let mut pick = if total == 0 { 0 } else { rng.gen_range(0..total) };
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
        }
        self.activity = match idx {
            1 => Activity::Acquire { lock: rng.gen_range(0..p.lock_count) },
            2 => Activity::SharedRead { remaining: lengths.shared_read.sample(rng) },
            3 => Activity::ProdCons {
                // Queues are pid-affine (one producer and one consumer per
                // queue), like a real pipeline.
                queue: u32::from(self.pid / 2) % p.queue_count,
                remaining: lengths.prodcons.sample(rng),
                produce: self.pid.is_multiple_of(2),
            },
            4 => Activity::Syscall { remaining: lengths.syscall.sample(rng) },
            _ => Activity::Private { remaining: lengths.private.sample(rng) },
        };
    }

    /// Runs one phase iteration, pushing between one and
    /// [`MAX_STEP_REFS`] references unless the process is choosing its
    /// next phase (which always terminates into a pushing state on the
    /// following call).
    #[inline]
    fn step(
        &mut self,
        shared: &mut SharedState,
        rng: &mut SmallRng,
        p: &Profile,
        r: &Regions,
        lengths: &Lengths,
    ) {
        match self.activity {
            Activity::Idle => self.choose_next(rng, p, lengths),
            Activity::Private { remaining } => {
                self.push_instr(rng, p, r, false);
                let block = rng.gen_range(0..r.private_blocks());
                let word = rng.gen_range(0..4u64);
                let kind = if rng.gen::<f64>() < p.private_write_frac {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.push(kind, r.private(self.pid, block, word), RecordFlags::NONE);
                self.activity = if remaining <= 1 {
                    Activity::Idle
                } else {
                    Activity::Private { remaining: remaining - 1 }
                };
            }
            Activity::Acquire { lock } => {
                let lockstate = &mut shared.locks[lock as usize];
                self.push_instr(rng, p, r, false);
                // The "first test": always a read of the lock word.
                self.push(AccessKind::Read, r.lock_word(lock), RecordFlags::LOCK);
                if lockstate.held_by.is_none() {
                    // Free: test-and-set succeeds.
                    lockstate.held_by = Some(self.pid);
                    self.push_instr(rng, p, r, false);
                    self.push(AccessKind::Write, r.lock_word(lock), RecordFlags::LOCK);
                    self.activity =
                        Activity::Critical { lock, remaining: lengths.critical.sample(rng) };
                }
                // Held: that read was one spin iteration; stay in Acquire.
            }
            Activity::Critical { lock, remaining } => {
                self.push_instr(rng, p, r, false);
                let block = rng.gen_range(0..r.object_blocks());
                let word = rng.gen_range(0..4u64);
                // Read-modify-write on the protected object: the write hits
                // a block that is clean in this cache (the Dir0B
                // `wh-blk-cln` event) whenever another process read it since
                // our last write.
                self.push(AccessKind::Read, r.object(lock, block, word), RecordFlags::NONE);
                if rng.gen::<f64>() < p.critical_write_frac {
                    self.push_instr(rng, p, r, false);
                    self.push(AccessKind::Write, r.object(lock, block, word), RecordFlags::NONE);
                }
                if remaining <= 1 {
                    // Release: a write to the lock word.
                    self.push_instr(rng, p, r, false);
                    self.push(AccessKind::Write, r.lock_word(lock), RecordFlags::LOCK);
                    shared.locks[lock as usize].held_by = None;
                    self.activity = Activity::Idle;
                } else {
                    self.activity = Activity::Critical { lock, remaining: remaining - 1 };
                }
            }
            Activity::SharedRead { remaining } => {
                self.push_instr(rng, p, r, false);
                let block = rng.gen_range(0..r.shared_read_blocks());
                let word = rng.gen_range(0..4u64);
                self.push(AccessKind::Read, r.shared_read(block, word), RecordFlags::NONE);
                self.activity = if remaining <= 1 {
                    Activity::Idle
                } else {
                    Activity::SharedRead { remaining: remaining - 1 }
                };
            }
            Activity::ProdCons { queue, remaining, produce } => {
                self.push_instr(rng, p, r, false);
                let cursor = &mut shared.queue_cursor[queue as usize];
                if produce {
                    let slot = *cursor;
                    *cursor += 1;
                    self.push(AccessKind::Write, r.queue_slot(queue, slot), RecordFlags::NONE);
                } else {
                    // Read a recently produced slot (one behind the cursor).
                    let slot = cursor.saturating_sub(1);
                    self.push(AccessKind::Read, r.queue_slot(queue, slot), RecordFlags::NONE);
                }
                self.activity = if remaining <= 1 {
                    Activity::Idle
                } else {
                    Activity::ProdCons { queue, remaining: remaining - 1, produce }
                };
            }
            Activity::Syscall { remaining } => {
                self.push_instr(rng, p, r, true);
                let block = rng.gen_range(0..r.os_blocks());
                let word = rng.gen_range(0..4u64);
                // Most OS references touch per-process structures (kernel
                // stacks, u-areas); only a fraction hit shared OS data,
                // which is mostly read (system tables).
                let (addr, write_frac) = if rng.gen::<f64>() < p.os_shared_frac {
                    (r.os_data(block, word), p.os_write_frac * 0.25)
                } else {
                    (r.os_private(self.pid, block, word), p.os_write_frac)
                };
                let kind = if rng.gen::<f64>() < write_frac {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.push(kind, addr, RecordFlags::SYSTEM);
                self.activity = if remaining <= 1 {
                    Activity::Idle
                } else {
                    Activity::Syscall { remaining: remaining - 1 }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (Profile, Regions, Lengths, SharedState, SmallRng) {
        let p = Profile::pops().with_total_refs(1000);
        let r = Regions::new(&p);
        let l = Lengths::new(&p);
        let s = SharedState::new(&p);
        (p, r, l, s, SmallRng::seed_from_u64(1))
    }

    #[test]
    fn sample_len_is_positive_and_roughly_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let ten = Geometric::new(10.0);
        let sum: u64 = (0..n).map(|_| u64::from(ten.sample(&mut rng))).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean {mean} far from 10");
        // A mean of at most 1 yields 1 without a draw.
        let before = rng.clone();
        assert_eq!(Geometric::new(1.0).sample(&mut rng), 1);
        assert_eq!(Geometric::new(0.5).sample(&mut rng), 1);
        assert_eq!(rng, before, "no draw for a mean of at most 1");
    }

    #[test]
    fn a_releasing_critical_write_fills_the_buffer() {
        // Every instruction fetch kept and every critical iteration a
        // write: the releasing iteration pushes the most references.
        let p = Profile { extra_data_prob: 0.0, critical_write_frac: 1.0, ..Profile::pops() };
        let (r, l, mut s, mut rng) =
            (Regions::new(&p), Lengths::new(&p), SharedState::new(&p), SmallRng::seed_from_u64(1));
        let mut proc = ProcessState::new(0);
        proc.activity = Activity::Critical { lock: 0, remaining: 1 };
        s.locks[0].held_by = Some(0);
        let kinds: Vec<_> =
            (0..MAX_STEP_REFS).map(|_| proc.emit(&mut s, &mut rng, &p, &r, &l).kind).collect();
        let (i, rd, wr) = (AccessKind::InstrFetch, AccessKind::Read, AccessKind::Write);
        assert_eq!(kinds, [i, rd, i, wr, i, wr]);
        assert_eq!(proc.pending_len, MAX_STEP_REFS);
        assert_eq!(s.locks[0].held_by, None, "the last write released the lock");
    }

    #[test]
    fn emit_always_produces() {
        let (p, r, l, mut s, mut rng) = setup();
        let mut proc = ProcessState::new(0);
        for _ in 0..5_000 {
            let _ = proc.emit(&mut s, &mut rng, &p, &r, &l);
        }
    }

    #[test]
    fn held_lock_generates_spins_until_release() {
        let (p, r, l, mut s, mut rng) = setup();
        // Process 1 holds lock 0.
        s.locks[0].held_by = Some(1);
        let mut proc = ProcessState::new(0);
        proc.activity = Activity::Acquire { lock: 0 };
        let mut spins = 0;
        for _ in 0..50 {
            let pr = proc.emit(&mut s, &mut rng, &p, &r, &l);
            if pr.kind == AccessKind::Read && pr.flags.is_lock() {
                spins += 1;
            }
            assert!(
                pr.kind != AccessKind::Write || !pr.flags.is_lock(),
                "must not test-and-set while held"
            );
        }
        assert!(spins >= 20, "expected sustained spinning, saw {spins}");
        // Release: the next lock access must be able to acquire.
        s.locks[0].held_by = None;
        let mut acquired = false;
        for _ in 0..10 {
            let pr = proc.emit(&mut s, &mut rng, &p, &r, &l);
            if pr.kind == AccessKind::Write && pr.flags.is_lock() {
                acquired = true;
                break;
            }
        }
        assert!(acquired, "lock should be acquired after release");
        assert_eq!(s.locks[0].held_by, Some(0));
    }

    #[test]
    fn critical_section_releases_lock() {
        let (p, r, l, mut s, mut rng) = setup();
        let mut proc = ProcessState::new(2);
        proc.activity = Activity::Critical { lock: 1, remaining: 3 };
        s.locks[1].held_by = Some(2);
        // Drain until the release write appears.
        let mut released = false;
        for _ in 0..100 {
            let pr = proc.emit(&mut s, &mut rng, &p, &r, &l);
            if pr.kind == AccessKind::Write && pr.flags.is_lock() {
                released = true;
                break;
            }
        }
        assert!(released);
        assert_eq!(s.locks[1].held_by, None);
    }

    #[test]
    fn syscall_refs_are_flagged_system() {
        let (p, r, l, mut s, mut rng) = setup();
        let mut proc = ProcessState::new(0);
        proc.activity = Activity::Syscall { remaining: 5 };
        for _ in 0..8 {
            let pr = proc.emit(&mut s, &mut rng, &p, &r, &l);
            if matches!(proc.activity, Activity::Syscall { .. }) {
                assert!(pr.flags.is_system(), "syscall refs carry SYSTEM flag");
            }
        }
    }

    #[test]
    fn producer_and_consumer_touch_same_queue() {
        let (p, r, l, mut s, mut rng) = setup();
        let mut producer = ProcessState::new(0);
        producer.activity = Activity::ProdCons { queue: 0, remaining: 4, produce: true };
        let mut writes = Vec::new();
        for _ in 0..10 {
            let pr = producer.emit(&mut s, &mut rng, &p, &r, &l);
            if pr.kind == AccessKind::Write {
                writes.push(pr.addr);
            }
        }
        assert!(!writes.is_empty());
        assert!(s.queue_cursor[0] > 0, "producer advanced the cursor");

        let mut consumer = ProcessState::new(1);
        consumer.activity = Activity::ProdCons { queue: 0, remaining: 4, produce: false };
        let mut read_any = false;
        for _ in 0..10 {
            let pr = consumer.emit(&mut s, &mut rng, &p, &r, &l);
            if pr.kind == AccessKind::Read && writes.contains(&pr.addr) {
                read_any = true;
            }
        }
        assert!(read_any, "consumer reads recently produced slots");
    }
}
