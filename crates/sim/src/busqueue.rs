//! Discrete-event single-bus contention simulation.
//!
//! The paper's bus-cycles-per-reference metric deliberately ignores
//! queueing: "This limit is an optimistic upper bound because we have not
//! included ... the effects of bus contention." This module supplies the
//! missing piece: `n` processors generating bus transactions at the rates
//! measured by the trace study, contending for one FIFO bus. From it the
//! §5 system-performance estimate ("a bus with a cycle time of 100ns will
//! only yield a maximum performance of 15 effective processors") becomes a
//! measurable curve instead of a back-of-envelope bound.
//!
//! The model, in bus cycles:
//!
//! * each processor executes `refs_per_cycle` memory references per bus
//!   cycle while it is not stalled (the paper's example: a 10-MIPS
//!   processor with a 100ns bus cycle executes one instruction — roughly
//!   two references — per bus cycle);
//! * a reference starts a bus transaction with probability
//!   `transactions_per_ref` (protocol-dependent, measured);
//! * each transaction occupies the bus for `service_cycles` (the
//!   protocol's measured cycles per transaction) and stalls its processor
//!   until it completes;
//! * the bus serves transactions FIFO.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parameters of a contention simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusLoad {
    /// Processors on the bus.
    pub processors: u32,
    /// References one unstalled processor executes per bus cycle.
    pub refs_per_cycle: f64,
    /// Probability that a reference starts a bus transaction.
    pub transactions_per_ref: f64,
    /// Bus cycles one transaction occupies.
    pub service_cycles: f64,
    /// Simulation horizon in bus cycles.
    pub horizon_cycles: u64,
}

impl BusLoad {
    /// The paper's §5 example platform: 10-MIPS processors, 100ns bus
    /// cycle, one data reference per instruction (so ≈2 references per bus
    /// cycle while running).
    pub fn paper_platform(processors: u32) -> Self {
        BusLoad {
            processors,
            refs_per_cycle: 2.0,
            transactions_per_ref: 0.02,
            service_cycles: 2.0,
            horizon_cycles: 200_000,
        }
    }

    /// Sets the measured transaction rate and service time.
    #[must_use]
    pub fn with_protocol(mut self, transactions_per_ref: f64, service_cycles: f64) -> Self {
        self.transactions_per_ref = transactions_per_ref;
        self.service_cycles = service_cycles;
        self
    }
}

/// Results of a contention simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusOutcome {
    /// Total references completed across all processors.
    pub total_refs: u64,
    /// Fraction of the horizon the bus was busy.
    pub bus_utilization: f64,
    /// Aggregate throughput divided by one processor's *nominal* (never
    /// stalled) throughput — the paper's "effective processors" (its
    /// 10-MIPS figure is the nominal rate).
    pub effective_processors: f64,
    /// Mean cycles a transaction waited before being served.
    pub mean_queue_wait: f64,
}

/// Runs the discrete-event simulation.
///
/// Deterministic for a given `(load, seed)`.
///
/// # Panics
///
/// Panics if `processors == 0`, rates are non-positive, or
/// `transactions_per_ref > 1`.
pub fn simulate(load: &BusLoad, seed: u64) -> BusOutcome {
    assert!(load.processors > 0, "need at least one processor");
    assert!(load.refs_per_cycle > 0.0 && load.service_cycles > 0.0);
    assert!(load.transactions_per_ref > 0.0 && load.transactions_per_ref <= 1.0);

    let contended = throughput(load, seed);
    let nominal_refs = load.refs_per_cycle * load.horizon_cycles as f64;

    BusOutcome {
        total_refs: contended.0,
        bus_utilization: contended.1,
        effective_processors: contended.0 as f64 / nominal_refs,
        mean_queue_wait: contended.2,
    }
}

/// Core event loop: returns (total refs, bus utilization, mean wait).
fn throughput(load: &BusLoad, seed: u64) -> (u64, f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Heap of (time-when-processor-requests-bus, processor, refs-executed
    // -since-last-request). Times in f64 bus cycles, ordered via u64 bits
    // (all times are non-negative finite).
    let mut heap: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    let key = |t: f64| (t.max(0.0) * 1024.0) as u64;

    // References until the next transaction are geometric; `ln q` is
    // taken once, not once per event.
    let ln_q = (1.0 - load.transactions_per_ref).ln();
    let gap = |rng: &mut SmallRng| -> (f64, u64) {
        // References until the next transaction and the time they take
        // to execute.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let refs = (u.ln() / ln_q).floor() as u64 + 1;
        (refs as f64 / load.refs_per_cycle, refs)
    };

    for p in 0..load.processors {
        let (dt, refs) = gap(&mut rng);
        heap.push(Reverse((key(dt), p, refs)));
    }

    let mut bus_free_at = 0.0f64;
    let mut busy_cycles = 0.0f64;
    let mut total_refs = 0u64;
    let mut total_wait = 0.0f64;
    let mut transactions = 0u64;
    let horizon = load.horizon_cycles as f64;

    // Each processor holds exactly one entry, so keys are unique and
    // rewriting the top in place (one sift) pops events in the same order
    // as a pop followed by a push (two).
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((tkey, p, refs)) = *top;
        let t = tkey as f64 / 1024.0;
        if t >= horizon {
            break;
        }
        // The processor has executed `refs` references and now needs the
        // bus.
        total_refs += refs;
        let start = bus_free_at.max(t);
        total_wait += start - t;
        transactions += 1;
        let done = start + load.service_cycles;
        busy_cycles += load.service_cycles;
        bus_free_at = done;
        // The processor resumes at `done` and computes its next gap.
        let (dt, next_refs) = gap(&mut rng);
        *top = Reverse((key(done + dt), p, next_refs));
    }

    let utilization = (busy_cycles / horizon).min(1.0);
    let mean_wait = if transactions > 0 { total_wait / transactions as f64 } else { 0.0 };
    (total_refs, utilization, mean_wait)
}

/// The analytic saturation bound behind the paper's §5 estimate: the
/// number of processors at which the bus is 100% utilized,
/// `1 / (refs_per_cycle × transactions_per_ref × service_cycles)`.
pub fn saturation_bound(load: &BusLoad) -> f64 {
    1.0 / (load.refs_per_cycle * load.transactions_per_ref * load.service_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light_load(processors: u32) -> BusLoad {
        BusLoad {
            processors,
            refs_per_cycle: 2.0,
            transactions_per_ref: 0.01,
            service_cycles: 3.0,
            horizon_cycles: 100_000,
        }
    }

    #[test]
    fn single_processor_is_nearly_uncontended() {
        let out = simulate(&light_load(1), 1);
        // Slightly below 1.0: the processor stalls during its own
        // (unqueued) transactions.
        assert!((0.85..=1.0).contains(&out.effective_processors), "{out:?}");
        assert!(out.mean_queue_wait < 0.01, "no one to queue behind");
    }

    #[test]
    fn light_load_scales_nearly_linearly() {
        let out = simulate(&light_load(4), 2);
        assert!(out.effective_processors > 3.3, "{out:?}");
        assert!(out.bus_utilization < 0.5);
    }

    #[test]
    fn heavy_load_saturates_at_the_analytic_bound() {
        let load = BusLoad {
            processors: 64,
            refs_per_cycle: 2.0,
            transactions_per_ref: 0.05,
            service_cycles: 4.0,
            horizon_cycles: 200_000,
        };
        let bound = saturation_bound(&load); // 2.5 processors
        let out = simulate(&load, 3);
        assert!(out.bus_utilization > 0.95, "{out:?}");
        assert!(
            (out.effective_processors - bound).abs() / bound < 0.25,
            "effective {} vs bound {bound}",
            out.effective_processors
        );
    }

    #[test]
    fn effectiveness_is_monotone_then_flat() {
        let eff =
            |n: u32| simulate(&light_load(n).with_protocol(0.02, 3.0), 7).effective_processors;
        let e2 = eff(2);
        let e8 = eff(8);
        let e32 = eff(32);
        let e64 = eff(64);
        assert!(e8 > e2);
        assert!(e32 >= e8 * 0.9);
        // Past saturation (bound ~8.3), adding processors adds nothing.
        assert!((e64 - e32).abs() < 0.2 * e32, "{e32} vs {e64}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = simulate(&light_load(8), 11);
        let b = simulate(&light_load(8), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_platform_matches_the_papers_estimate() {
        // Paper: the best scheme uses ~0.03 bus cycles/ref ⇒ "a bus cycle
        // every 30 references" ⇒ ~15 effective processors at 2 refs per
        // bus cycle. 0.03 cycles/ref with ~1.6-cycle transactions ⇒
        // transactions_per_ref ~0.02.
        let load = BusLoad::paper_platform(64).with_protocol(0.0206, 1.63);
        let bound = saturation_bound(&load);
        assert!((13.0..=17.0).contains(&bound), "analytic bound {bound} vs paper's 15");
        let out = simulate(&load, 5);
        assert!(
            (out.effective_processors - bound).abs() / bound < 0.3,
            "simulated {} vs bound {bound}",
            out.effective_processors
        );
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = simulate(&BusLoad { processors: 0, ..light_load(1) }, 0);
    }
}
