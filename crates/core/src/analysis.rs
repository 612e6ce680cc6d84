//! Side-by-side clock size accounting and validity checking.
//!
//! The evaluation sections of the paper compare the *size* (number of
//! components) of competing clocks for the same computation; this module
//! centralises that accounting so that the examples, the evaluation harness
//! and the integration tests all report the same numbers.

use std::fmt;

use mvc_clock::{chain, validate, VectorTimestamp};
use mvc_trace::Computation;

use crate::offline::OfflineOptimizer;

/// Clock sizes of the standard algorithms on one computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSizeReport {
    /// Number of distinct threads in the computation.
    pub threads: usize,
    /// Number of distinct objects in the computation.
    pub objects: usize,
    /// Number of events.
    pub events: usize,
    /// Size of the thread-based vector clock (`n`, counting active threads).
    pub thread_clock: usize,
    /// Size of the object-based vector clock (`m`, counting active objects).
    pub object_clock: usize,
    /// `min(n, m)` — the best either traditional clock can do.
    pub naive_best: usize,
    /// Size of the optimal mixed vector clock (minimum vertex cover).
    pub optimal_mixed: usize,
    /// Number of chains used by the greedy dynamic chain clock baseline.
    pub chain_clock: usize,
}

impl ClockSizeReport {
    /// Computes the report for a computation.
    pub fn analyze(computation: &Computation) -> Self {
        let plan = OfflineOptimizer::new().plan_for_computation(computation);
        let chain = chain::decompose(computation);
        let threads = computation.thread_count();
        let objects = computation.object_count();
        ClockSizeReport {
            threads,
            objects,
            events: computation.len(),
            thread_clock: threads,
            object_clock: objects,
            naive_best: threads.min(objects),
            optimal_mixed: plan.clock_size(),
            chain_clock: chain.chains,
        }
    }

    /// Components saved by the optimal mixed clock relative to the best
    /// traditional clock.
    pub fn savings(&self) -> usize {
        self.naive_best.saturating_sub(self.optimal_mixed)
    }

    /// Relative size of the optimal mixed clock vs. the best traditional
    /// clock (1.0 = no savings, 0.5 = half the components). Returns 1.0 for
    /// an empty computation.
    pub fn reduction_ratio(&self) -> f64 {
        if self.naive_best == 0 {
            1.0
        } else {
            self.optimal_mixed as f64 / self.naive_best as f64
        }
    }
}

impl fmt::Display for ClockSizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} threads={} objects={} | thread-clock={} object-clock={} optimal-mixed={} chain={} (saves {} vs best naive)",
            self.events,
            self.threads,
            self.objects,
            self.thread_clock,
            self.object_clock,
            self.optimal_mixed,
            self.chain_clock,
            self.savings(),
        )
    }
}

/// Verifies a timestamp assignment against the exact happened-before oracle.
///
/// Thin convenience wrapper over [`mvc_clock::validate`]; returns `true` iff
/// the assignment satisfies `s → t ⇔ s.v < t.v`.
pub fn verify_assignment(computation: &Computation, timestamps: &[VectorTimestamp]) -> bool {
    let oracle = computation.causality_oracle();
    validate::satisfies_vector_clock_condition(computation, timestamps, &oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamper::{replay, BatchReplay};
    use mvc_clock::ComponentMap;
    use mvc_trace::examples::paper_figure1;
    use mvc_trace::{ObjectId, ThreadId, WorkloadBuilder};

    #[test]
    fn report_on_empty_computation() {
        let r = ClockSizeReport::analyze(&Computation::new());
        assert_eq!(r.events, 0);
        assert_eq!(r.optimal_mixed, 0);
        assert_eq!(r.savings(), 0);
        assert_eq!(r.reduction_ratio(), 1.0);
    }

    #[test]
    fn report_on_figure1() {
        let r = ClockSizeReport::analyze(&paper_figure1());
        assert_eq!(r.threads, 4);
        assert_eq!(r.objects, 4);
        assert_eq!(r.naive_best, 4);
        assert_eq!(r.optimal_mixed, 3);
        assert_eq!(r.savings(), 1);
        assert!((r.reduction_ratio() - 0.75).abs() < 1e-12);
        let display = r.to_string();
        assert!(display.contains("optimal-mixed=3"));
        assert!(display.contains("saves 1"));
    }

    #[test]
    fn optimal_never_exceeds_naive_best() {
        for seed in 0..10 {
            let c = WorkloadBuilder::new(15, 10)
                .operations(150)
                .seed(seed)
                .build();
            let r = ClockSizeReport::analyze(&c);
            assert!(r.optimal_mixed <= r.naive_best);
            assert!(r.reduction_ratio() <= 1.0);
        }
    }

    #[test]
    fn verify_assignment_accepts_valid_and_rejects_invalid() {
        let c = paper_figure1();
        let mut thread_clock = BatchReplay::new(ComponentMap::all_threads(c.thread_index_bound()));
        let good = replay(&mut thread_clock, &c).unwrap().timestamps;
        assert!(verify_assignment(&c, &good));
        let bad = vec![mvc_clock::VectorTimestamp::zeros(4); c.len()];
        assert!(!verify_assignment(&c, &bad));
    }

    #[test]
    fn report_counts_active_threads_and_objects_not_id_bounds() {
        // The only event is on thread 4 and object 2: one active thread and
        // one active object, whatever their ids.
        let mut c = Computation::new();
        c.record(ThreadId(4), ObjectId(2));
        let report = ClockSizeReport::analyze(&c);
        assert_eq!((report.thread_clock, report.object_clock), (1, 1));
    }
}
