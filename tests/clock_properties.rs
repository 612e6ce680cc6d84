//! Property tests for the vector timestamp comparison algebra
//! (`mvc_clock::compare`): the partial-order laws every clock in the
//! workspace leans on, checked on raw vectors drawn from the same strategy
//! module as the conformance suite.

mod support;

use mvc_clock::{ClockOrd, VectorTimestamp};
use proptest::prelude::*;

use support::{ComputationStrategy, TimestampTripleStrategy};

/// `compare` with the operands flipped must mirror the outcome.
fn flipped(ord: ClockOrd) -> ClockOrd {
    match ord {
        ClockOrd::Before => ClockOrd::After,
        ClockOrd::After => ClockOrd::Before,
        ClockOrd::Equal => ClockOrd::Equal,
        ClockOrd::Concurrent => ClockOrd::Concurrent,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Antisymmetry (as duality of outcomes): `a.compare(b)` and
    /// `b.compare(a)` are always mirror images, so `Before` in both
    /// directions is impossible.  `Concurrent` is symmetric by the same law.
    #[test]
    fn comparison_is_antisymmetric_and_concurrency_symmetric(
        triple in TimestampTripleStrategy::small(),
    ) {
        let (a, b, _) = triple;
        let ab = a.compare(&b);
        let ba = b.compare(&a);
        prop_assert_eq!(ba, flipped(ab));
        prop_assert_eq!(ab == ClockOrd::Concurrent, ba == ClockOrd::Concurrent);
        // Equality really is component-wise equality.
        prop_assert_eq!(ab == ClockOrd::Equal, a == b);
    }

    /// Transitivity of the strict order: `a < b` and `b < c` imply `a < c`
    /// (and likewise through an `Equal` link on either side).
    #[test]
    fn strict_order_is_transitive(
        triple in TimestampTripleStrategy::small(),
    ) {
        let (a, b, c) = triple;
        let ab = a.compare(&b);
        let bc = b.compare(&c);
        let ac = a.compare(&c);
        let le = |o: ClockOrd| o == ClockOrd::Before || o == ClockOrd::Equal;
        if le(ab) && le(bc) {
            prop_assert!(
                le(ac),
                "a ≤ b and b ≤ c but a.compare(c) = {}", ac
            );
            if ab == ClockOrd::Before || bc == ClockOrd::Before {
                prop_assert_eq!(ac, ClockOrd::Before);
            }
        }
    }

    /// Reflexivity and the `strictly_less_than` helper agree with `compare`.
    #[test]
    fn reflexivity_and_strictly_less_than_agree(
        triple in TimestampTripleStrategy::small(),
    ) {
        let (a, b, _) = triple;
        prop_assert_eq!(a.compare(&a), ClockOrd::Equal);
        prop_assert_eq!(a.strictly_less_than(&b), a.compare(&b) == ClockOrd::Before);
    }

    /// `merge_max` is the least upper bound: the merge dominates both inputs
    /// and is dominated by any other common upper bound.
    #[test]
    fn merge_max_is_least_upper_bound(
        triple in TimestampTripleStrategy::small(),
    ) {
        let (a, b, c) = triple;
        let ge = |x: &VectorTimestamp, y: &VectorTimestamp| {
            matches!(x.compare(y), ClockOrd::After | ClockOrd::Equal)
        };
        let mut m = a.clone();
        m.merge_max(&b);
        prop_assert!(ge(&m, &a));
        prop_assert!(ge(&m, &b));
        if ge(&c, &a) && ge(&c, &b) {
            prop_assert!(ge(&c, &m), "upper bound c does not dominate merge");
        }
    }

    /// The laws hold on timestamps a real clock produces, not only on raw
    /// vectors: comparison over the optimal mixed clock's output is
    /// antisymmetric pairwise across a generated computation.
    #[test]
    fn assigned_timestamps_obey_the_algebra(
        computation in ComputationStrategy { threads: 1..6, objects: 1..6, ops: 0..60 },
    ) {
        let plan = mvc_core::OfflineOptimizer::new().plan_for_computation(&computation);
        let stamps = mvc_core::replay(&mut plan.timestamper(), &computation)
            .unwrap()
            .timestamps;
        for i in 0..stamps.len() {
            for j in 0..stamps.len() {
                prop_assert_eq!(
                    stamps[j].compare(&stamps[i]),
                    flipped(stamps[i].compare(&stamps[j]))
                );
            }
        }
    }
}
