//! Workload profiles: the calibrated parameter sets.

use core::fmt;

/// Which paper trace a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileName {
    /// Parallel OPS5 rule system: heavy lock spinning, moderate sharing.
    Pops,
    /// Parallel logic simulator: heavy lock spinning, more writes.
    Thor,
    /// Parallel VLSI router: high read ratio, little sharing.
    Pero,
    /// A custom parameter set.
    Custom,
}

impl fmt::Display for ProfileName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProfileName::Pops => "POPS",
            ProfileName::Thor => "THOR",
            ProfileName::Pero => "PERO",
            ProfileName::Custom => "CUSTOM",
        };
        f.write_str(s)
    }
}

/// The full parameter set of a synthetic workload.
///
/// Construct via [`Profile::pops`], [`Profile::thor`], [`Profile::pero`]
/// or [`Profile::custom`], then adjust with the `with_*` methods
/// (consuming-builder style).
///
/// ```
/// use dircc_trace::gen::Profile;
///
/// let p = Profile::pops().with_total_refs(100_000).with_cpus(8);
/// assert_eq!(p.cpus, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Which trace this models.
    pub name: ProfileName,
    /// Number of CPUs (= hardware caches). The paper's traces had 4.
    pub cpus: u16,
    /// Number of application processes (≥ `cpus`; extras time-share).
    pub processes: u16,
    /// Total references to generate.
    pub total_refs: u64,
    /// Probability that an activity iteration emits a data reference
    /// *without* a paired instruction fetch (fine-tunes the ≈49.7% instr
    /// fraction; the base pattern is one instr per data reference).
    pub extra_data_prob: f64,
    /// Mean scheduling-burst length in references (how many consecutive
    /// references one CPU contributes before interleaving switches away).
    pub quantum_mean: f64,
    /// Probability per quantum boundary of a context switch when more
    /// processes than CPUs exist.
    pub ctx_switch_prob: f64,
    /// Probability per quantum boundary of migrating the current process to
    /// another CPU (the paper observed only a few instances).
    pub migration_prob: f64,
    /// Relative weight of private-compute phases.
    pub weight_private: u32,
    /// Relative weight of lock/critical-section phases.
    pub weight_lock: u32,
    /// Relative weight of shared read-only phases.
    pub weight_shared_read: u32,
    /// Relative weight of producer/consumer phases.
    pub weight_prodcons: u32,
    /// Relative weight of operating-system bursts (flagged SYSTEM).
    pub weight_syscall: u32,
    /// Mean iterations of a private-compute phase.
    pub private_iters_mean: f64,
    /// Fraction of private data references that are writes.
    pub private_write_frac: f64,
    /// Private data blocks per process.
    pub private_blocks: u32,
    /// Number of spin locks in the system.
    pub lock_count: u32,
    /// Mean iterations (read+write pairs) of a critical section.
    pub critical_iters_mean: f64,
    /// Blocks in each lock-protected (migratory) object.
    pub object_blocks: u32,
    /// Fraction of critical-section data references that are writes.
    pub critical_write_frac: f64,
    /// Mean iterations of a shared read-only phase.
    pub shared_read_iters_mean: f64,
    /// Blocks in the shared read-only table.
    pub shared_read_blocks: u32,
    /// Number of producer/consumer queues.
    pub queue_count: u32,
    /// Blocks per queue.
    pub queue_blocks: u32,
    /// Mean iterations of a producer/consumer phase.
    pub prodcons_iters_mean: f64,
    /// Mean iterations of an OS burst.
    pub syscall_iters_mean: f64,
    /// Blocks of shared OS data.
    pub os_blocks: u32,
    /// Fraction of OS data references that are writes.
    pub os_write_frac: f64,
    /// Fraction of OS data references that touch the *shared* OS region
    /// (the rest go to per-process kernel structures).
    pub os_shared_frac: f64,
    /// Instruction blocks per process code region.
    pub code_blocks: u32,
}

impl Profile {
    /// Baseline parameters shared by all profiles (4 CPUs, paper scale).
    fn base(name: ProfileName) -> Self {
        Profile {
            name,
            cpus: 4,
            processes: 4,
            total_refs: 3_200_000,
            extra_data_prob: 0.011,
            quantum_mean: 4.0,
            ctx_switch_prob: 0.02,
            migration_prob: 0.000002,
            weight_private: 10,
            weight_lock: 3,
            weight_shared_read: 2,
            weight_prodcons: 1,
            weight_syscall: 3,
            private_iters_mean: 40.0,
            private_write_frac: 0.26,
            private_blocks: 2200,
            lock_count: 2,
            critical_iters_mean: 110.0,
            object_blocks: 2,
            critical_write_frac: 0.10,
            shared_read_iters_mean: 20.0,
            shared_read_blocks: 1000,
            queue_count: 2,
            queue_blocks: 32,
            prodcons_iters_mean: 12.0,
            syscall_iters_mean: 35.0,
            os_blocks: 500,
            os_write_frac: 0.20,
            os_shared_frac: 0.15,
            code_blocks: 256,
        }
    }

    /// POPS-like workload: rule-based system, heavy lock contention (≈⅓ of
    /// reads are spins), read-to-write ratio ≈4.8.
    pub fn pops() -> Self {
        Profile {
            weight_lock: 4,
            weight_private: 8,
            weight_shared_read: 2,
            private_write_frac: 0.46,
            critical_iters_mean: 120.0,
            ..Self::base(ProfileName::Pops)
        }
    }

    /// THOR-like workload: logic simulator, heavy spinning, read-to-write
    /// ratio ≈3.8 (more writes than POPS).
    pub fn thor() -> Self {
        Profile {
            weight_lock: 4,
            weight_private: 8,
            weight_prodcons: 2,
            private_write_frac: 0.55,
            critical_write_frac: 0.13,
            ..Self::base(ProfileName::Thor)
        }
    }

    /// PERO-like workload: VLSI router, high read ratio from the algorithm
    /// (≈3.1) and a much smaller fraction of shared references.
    pub fn pero() -> Self {
        Profile {
            weight_lock: 1,
            weight_private: 24,
            weight_shared_read: 6,
            weight_prodcons: 0,
            private_write_frac: 0.28,
            private_blocks: 3200,
            shared_read_blocks: 2000,
            critical_iters_mean: 30.0,
            total_refs: 3_500_000,
            ..Self::base(ProfileName::Pero)
        }
    }

    /// A neutral custom profile (same as the internal baseline) for
    /// experiments that sweep individual knobs.
    pub fn custom() -> Self {
        Self::base(ProfileName::Custom)
    }

    /// The three paper profiles, in Table 3 order.
    pub fn paper_suite() -> Vec<Profile> {
        vec![Profile::pops(), Profile::thor(), Profile::pero()]
    }

    /// Sets the total reference count, scaling the data-pool sizes
    /// proportionally so the working-set-to-trace-length ratio (and hence
    /// the first-reference miss fraction and steady-state sharing
    /// behaviour) stays at the paper's calibration regardless of scale.
    #[must_use]
    pub fn with_total_refs(mut self, n: u64) -> Self {
        let factor = n as f64 / self.total_refs as f64;
        let scale =
            |blocks: u32, min: u32| -> u32 { ((blocks as f64 * factor).round() as u32).max(min) };
        self.private_blocks = scale(self.private_blocks, 64);
        self.shared_read_blocks = scale(self.shared_read_blocks, 32);
        self.os_blocks = scale(self.os_blocks, 16);
        self.total_refs = n;
        self
    }

    /// Sets the CPU count (processes are raised to match if fewer).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is 0 or exceeds 64 (the `CacheIdSet` width).
    #[must_use]
    pub fn with_cpus(mut self, cpus: u16) -> Self {
        assert!((1..=64).contains(&cpus), "cpus must be in 1..=64");
        self.cpus = cpus;
        if self.processes < cpus {
            self.processes = cpus;
        }
        self
    }

    /// Sets the process count.
    ///
    /// # Panics
    ///
    /// Panics if `processes < self.cpus`.
    #[must_use]
    pub fn with_processes(mut self, processes: u16) -> Self {
        assert!(processes >= self.cpus, "need at least one process per cpu");
        self.processes = processes;
        self
    }

    /// Scales the lock-phase weight, the main contention knob.
    #[must_use]
    pub fn with_lock_weight(mut self, weight: u32) -> Self {
        self.weight_lock = weight;
        self
    }

    /// Sets the migration probability per quantum boundary.
    #[must_use]
    pub fn with_migration_prob(mut self, p: f64) -> Self {
        self.migration_prob = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_three_profiles() {
        let suite = Profile::paper_suite();
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[0].name, ProfileName::Pops);
        assert_eq!(suite[1].name, ProfileName::Thor);
        assert_eq!(suite[2].name, ProfileName::Pero);
        for p in &suite {
            assert_eq!(p.cpus, 4, "the paper's machine had 4 CPUs");
            assert!(p.total_refs >= 3_000_000, "paper traces were ~3.1-3.5M refs");
        }
    }

    #[test]
    fn pero_is_less_contended_than_pops() {
        assert!(Profile::pero().weight_lock < Profile::pops().weight_lock);
    }

    #[test]
    fn builders_adjust() {
        let p = Profile::custom().with_cpus(8).with_total_refs(10);
        assert_eq!(p.cpus, 8);
        assert_eq!(p.processes, 8, "processes raised to cpus");
        assert_eq!(p.total_refs, 10);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_cpus_rejected() {
        let _ = Profile::custom().with_cpus(0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn fewer_processes_than_cpus_rejected() {
        let _ = Profile::custom().with_cpus(4).with_processes(2);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProfileName::Pops.to_string(), "POPS");
        assert_eq!(ProfileName::Custom.to_string(), "CUSTOM");
    }
}
