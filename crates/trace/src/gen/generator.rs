//! The trace generator: schedules processes onto CPUs and interleaves
//! their reference streams.

use super::process::{Lengths, ProcessState, SharedState};
use super::regions::Regions;
use super::Profile;
use crate::record::TraceRecord;
use dircc_types::{CpuId, ProcessId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Streaming synthetic-trace generator.
///
/// `Generator` is an [`Iterator`] over [`TraceRecord`]s; it produces exactly
/// `profile.total_refs` records, deterministically for a given
/// `(profile, seed)` pair.
///
/// Scheduling model: CPUs take turns in round-robin order, each contributing
/// a geometrically-distributed burst of consecutive references (mean
/// `quantum_mean`). At burst boundaries a context switch may rotate in a
/// ready process (when `processes > cpus`) and, rarely, a process may
/// migrate between CPUs (the paper's traces showed only a few instances of
/// migration, and the study deliberately classifies sharing per process).
///
/// ```
/// use dircc_trace::gen::{Generator, Profile};
///
/// let profile = Profile::thor().with_total_refs(1_000);
/// let a: Vec<_> = Generator::new(profile.clone(), 3).collect();
/// let b: Vec<_> = Generator::new(profile, 3).collect();
/// assert_eq!(a, b, "generation is deterministic in (profile, seed)");
/// ```
#[derive(Debug)]
pub struct Generator {
    profile: Profile,
    regions: Regions,
    lengths: Lengths,
    rng: SmallRng,
    shared: SharedState,
    procs: Vec<ProcessState>,
    /// Process index running on each CPU.
    on_cpu: Vec<u16>,
    /// Ready (descheduled) processes, FIFO so nothing starves.
    ready: VecDeque<u16>,
    cur_cpu: u16,
    burst_left: u32,
    emitted: u64,
}

impl Generator {
    /// Creates a generator for a profile with a deterministic seed.
    pub fn new(profile: Profile, seed: u64) -> Self {
        let regions = Regions::new(&profile);
        let lengths = Lengths::new(&profile);
        let shared = SharedState::new(&profile);
        let procs: Vec<ProcessState> = (0..profile.processes).map(ProcessState::new).collect();
        let on_cpu: Vec<u16> = (0..profile.cpus).collect();
        let ready: VecDeque<u16> = (profile.cpus..profile.processes).collect();
        Generator {
            rng: SmallRng::seed_from_u64(seed),
            regions,
            lengths,
            shared,
            procs,
            on_cpu,
            ready,
            cur_cpu: 0,
            burst_left: 0,
            profile,
            emitted: 0,
        }
    }

    /// Returns the profile this generator runs.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Returns how many references have been emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Handles a burst boundary: advance round-robin, sample the next burst
    /// length, and apply context switches / migrations.
    fn next_burst(&mut self) {
        self.cur_cpu = (self.cur_cpu + 1) % self.profile.cpus;
        self.burst_left = self.lengths.quantum.sample(&mut self.rng);

        // Context switch: rotate the CPU's process with the ready queue.
        if !self.ready.is_empty() && self.rng.gen::<f64>() < self.profile.ctx_switch_prob {
            let incoming = self.ready.pop_front().expect("ready nonempty");
            let outgoing = std::mem::replace(&mut self.on_cpu[self.cur_cpu as usize], incoming);
            self.ready.push_back(outgoing);
        }

        // Migration: swap the processes of two CPUs (keeps every process
        // scheduled; the trace shows the process continuing on a new CPU).
        if self.profile.cpus > 1 && self.rng.gen::<f64>() < self.profile.migration_prob {
            let other = self.rng.gen_range(0..self.profile.cpus);
            if other != self.cur_cpu {
                self.on_cpu.swap(self.cur_cpu as usize, other as usize);
            }
        }
    }
}

impl Iterator for Generator {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.emitted >= self.profile.total_refs {
            return None;
        }
        if self.burst_left == 0 {
            self.next_burst();
        }
        let pidx = self.on_cpu[self.cur_cpu as usize];
        let pending = self.procs[pidx as usize].emit(
            &mut self.shared,
            &mut self.rng,
            &self.profile,
            &self.regions,
            &self.lengths,
        );
        self.burst_left -= 1;
        self.emitted += 1;
        Some(TraceRecord {
            cpu: CpuId::new(self.cur_cpu),
            pid: ProcessId::new(pidx),
            kind: pending.kind,
            addr: pending.addr,
            flags: pending.flags,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.profile.total_refs - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Generator {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn emits_exact_count() {
        let g = Generator::new(Profile::pops().with_total_refs(12_345), 1);
        assert_eq!(g.count(), 12_345);
    }

    #[test]
    fn cpu_ids_stay_in_range() {
        let p = Profile::thor().with_total_refs(5_000);
        for r in Generator::new(p, 2) {
            assert!(r.cpu.raw() < 4);
            assert!(r.pid.raw() < 4);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = Profile::pops().with_total_refs(2_000);
        let a: Vec<_> = Generator::new(p.clone(), 1).collect();
        let b: Vec<_> = Generator::new(p, 2).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn more_processes_than_cpus_all_run() {
        let p = Profile::custom().with_cpus(2).with_processes(5).with_total_refs(60_000);
        let mut seen = std::collections::HashSet::new();
        for r in Generator::new(p, 3) {
            seen.insert(r.pid);
        }
        assert_eq!(seen.len(), 5, "every process must eventually be scheduled");
    }

    #[test]
    fn migration_changes_cpu_of_a_process() {
        let p = Profile::custom().with_migration_prob(0.2).with_total_refs(50_000);
        let mut cpus_of_p0 = std::collections::HashSet::new();
        for r in Generator::new(p, 4) {
            if r.pid.raw() == 0 {
                cpus_of_p0.insert(r.cpu);
            }
        }
        assert!(cpus_of_p0.len() > 1, "process 0 should migrate at 20% probability");
    }

    #[test]
    fn zero_migration_keeps_processes_home_when_one_to_one() {
        let p = Profile::custom().with_migration_prob(0.0).with_total_refs(20_000);
        // With processes == cpus and no migration, pid i always runs on cpu i.
        for r in Generator::new(p, 5) {
            assert_eq!(r.cpu.raw(), r.pid.raw());
        }
    }

    #[test]
    fn reference_mix_is_calibrated() {
        // The headline Table 3/4 shape targets, with generous tolerances.
        for profile in [Profile::pops(), Profile::thor()] {
            let name = profile.name;
            let stats: TraceStats = Generator::new(profile.with_total_refs(400_000), 11).collect();
            let instr = stats.instr_fraction();
            assert!((0.45..=0.53).contains(&instr), "{name}: instr fraction {instr}");
            let w = stats.write_fraction();
            assert!((0.06..=0.15).contains(&w), "{name}: write fraction {w}");
            let spin = stats.spin_fraction_of_reads();
            assert!((0.15..=0.50).contains(&spin), "{name}: spin fraction {spin}");
            let sys = stats.system_fraction();
            assert!((0.04..=0.20).contains(&sys), "{name}: system fraction {sys}");
        }
    }

    #[test]
    fn pero_has_little_spinning() {
        let stats: TraceStats =
            Generator::new(Profile::pero().with_total_refs(400_000), 11).collect();
        assert!(
            stats.spin_fraction_of_reads() < 0.10,
            "PERO spins {}",
            stats.spin_fraction_of_reads()
        );
    }

    #[test]
    fn size_hint_is_exact() {
        let mut g = Generator::new(Profile::pero().with_total_refs(10), 0);
        assert_eq!(g.size_hint(), (10, Some(10)));
        g.next();
        assert_eq!(g.size_hint(), (9, Some(9)));
        assert_eq!(g.len(), 9);
    }
}
