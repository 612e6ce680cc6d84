//! Checking the vector clock condition of a timestamp assignment.
//!
//! A timestamp assignment is a *valid vector clock* (Theorem 2 of the paper)
//! iff for all distinct events `s`, `t`:
//!
//! ```text
//! s → t  ⇔  s.v < t.v
//! ```
//!
//! The checks here compare an assignment against the exact
//! [`CausalityOracle`] and are `O(n²)` in the number of events; they are the
//! backbone of the property-test suites in every clock crate and of the
//! end-to-end integration tests.

use mvc_trace::{CausalityOracle, Computation, EventId};

use crate::compare::VectorTimestamp;

/// Returns `true` iff the assignment satisfies the vector clock condition
/// `s → t ⇔ s.v < t.v` for every pair of distinct events.
pub fn satisfies_vector_clock_condition(
    computation: &Computation,
    timestamps: &[VectorTimestamp],
    oracle: &CausalityOracle,
) -> bool {
    if timestamps.len() != computation.len() {
        return false;
    }
    let n = computation.len();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let hb = oracle.happened_before(EventId(a), EventId(b));
            let lt = timestamps[a].strictly_less_than(&timestamps[b]);
            if hb != lt {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_trace::{ObjectId, ThreadId};

    fn two_thread_computation() -> Computation {
        [(0, 0), (1, 0), (0, 1), (1, 1)]
            .into_iter()
            .map(|(t, o)| (ThreadId(t), ObjectId(o)))
            .collect()
    }

    #[test]
    fn valid_assignment_passes() {
        let c = two_thread_computation();
        // The thread-based vector clock, by hand: e1 reads e0 through O0,
        // e3 reads e2 through O1.
        let stamps: Vec<_> = [[1, 0], [1, 1], [2, 0], [2, 2]]
            .into_iter()
            .map(|v| VectorTimestamp::from_components(v.to_vec()))
            .collect();
        let oracle = c.causality_oracle();
        assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn length_mismatch_detected() {
        let c = two_thread_computation();
        let oracle = c.causality_oracle();
        let stamps = vec![VectorTimestamp::zeros(2); 2];
        assert!(!satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn missing_order_detected() {
        let c = two_thread_computation();
        let oracle = c.causality_oracle();
        // All-equal timestamps can never express any ordering.
        let stamps = vec![VectorTimestamp::zeros(2); c.len()];
        assert!(!satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn spurious_order_detected() {
        let c = two_thread_computation();
        let oracle = c.causality_oracle();
        // Use the event id as a scalar in component 0: this totally orders all
        // events, inventing orderings between concurrent ones.
        let stamps: Vec<_> = (0..c.len())
            .map(|i| VectorTimestamp::from_components(vec![i as u64, 0]))
            .collect();
        assert!(!satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }
}
