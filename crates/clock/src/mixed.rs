//! Checks of the paper's mixed-vector-clock protocol (Section III-C), run
//! on the write-back kernel [`ClockRows::step`] over a [`ComponentMap`].
//!
//! Given a set of components (threads and objects chosen as a vertex cover
//! of the thread–object graph), every thread and every object carries a
//! mixed vector.  When thread `p` performs operation `e` on object `q`:
//!
//! ```text
//! e.v = max(p.v, q.v)
//! e.v[e.c]++          (e.c from ComponentMap::event_component)
//! p.v = q.v = e.v
//! ```
//!
//! The engine and the dense `BatchReplay` of `mvc-core` run this step; this
//! crate cannot depend on them, so its tests drive the kernel directly.

use mvc_trace::Computation;

use crate::chunked::ClockRows;
use crate::compare::VectorTimestamp;
use crate::component::ComponentMap;

/// Stamps every event of `computation` under `map`.
///
/// # Panics
///
/// Panics if `map` covers neither endpoint of some event.
pub(crate) fn stamp(computation: &Computation, map: &ComponentMap) -> Vec<VectorTimestamp> {
    let mut rows = ClockRows::new();
    computation
        .events()
        .map(|e| {
            let component = map.event_component(e).expect("the map covers every event");
            rows.step(e.thread, e.object, component, map.len())
        })
        .collect()
}

mod tests {
    use super::*;
    use crate::validate::satisfies_vector_clock_condition;
    use mvc_graph::cover::minimum_vertex_cover_of;
    use mvc_trace::examples::paper_figure1;
    use mvc_trace::WorkloadBuilder;
    use proptest::prelude::*;

    fn optimal_map(c: &Computation) -> ComponentMap {
        let (_, cover) = minimum_vertex_cover_of(&c.bipartite_graph());
        ComponentMap::from_cover(&cover)
    }

    #[test]
    fn empty_computation() {
        assert!(stamp(&Computation::new(), &ComponentMap::new()).is_empty());
    }

    #[test]
    fn paper_figure1_mixed_clock_is_size_three_and_valid() {
        let c = paper_figure1();
        let map = optimal_map(&c);
        assert_eq!(map.len(), 3, "Fig. 3 uses a 3-component mixed clock");
        let stamps = stamp(&c, &map);
        let oracle = c.causality_oracle();
        assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn paper_claimed_ordering_holds_under_mixed_clock() {
        // The paper's §III-C argues [T2,O1] -> [T3,O3] is visible by comparing
        // mixed timestamps.
        let c = paper_figure1();
        let stamps = stamp(&c, &optimal_map(&c));
        let t2_o1 = 0; // first event in FIGURE1_OPS
        let t3_o3 = 4;
        assert!(stamps[t2_o1].strictly_less_than(&stamps[t3_o3]));
    }

    #[test]
    fn all_thread_components_reduce_to_thread_clock() {
        // With every thread as a component, the mixed protocol increments the
        // thread component of each event whenever the object is not a
        // component — i.e. always — so it is the thread clock: a stamp's
        // entry for its own thread counts that thread's events so far.
        let c = WorkloadBuilder::new(5, 5).operations(150).seed(3).build();
        let stamps = stamp(&c, &ComponentMap::all_threads(c.thread_index_bound()));
        for e in c.events() {
            assert_eq!(
                stamps[e.id.index()].component(e.thread.index()),
                e.thread_seq as u64 + 1
            );
        }
    }

    #[test]
    fn optimal_mixed_clock_never_larger_than_either_side() {
        for seed in 0..10 {
            let c = WorkloadBuilder::new(10, 14)
                .operations(120)
                .seed(seed)
                .build();
            assert!(optimal_map(&c).len() <= c.thread_count().min(c.object_count()));
        }
    }

    proptest! {
        /// The headline correctness theorem (Theorem 2): on arbitrary random
        /// workloads, the mixed clock built from a minimum vertex cover
        /// satisfies s -> t  <=>  s.v < t.v.
        #[test]
        fn prop_optimal_mixed_clock_is_valid(
            threads in 1usize..8,
            objects in 1usize..8,
            ops in 1usize..100,
            seed in 0u64..300,
        ) {
            let c = WorkloadBuilder::new(threads, objects)
                .operations(ops)
                .seed(seed)
                .build();
            let stamps = stamp(&c, &optimal_map(&c));
            let oracle = c.causality_oracle();
            prop_assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
        }

        /// Optimality bound (Theorem 3, one direction): the optimal mixed clock
        /// is never larger than min(#threads, #objects).
        #[test]
        fn prop_optimal_width_bounded_by_min_side(
            threads in 1usize..10,
            objects in 1usize..10,
            ops in 1usize..120,
            seed in 0u64..300,
        ) {
            let c = WorkloadBuilder::new(threads, objects)
                .operations(ops)
                .seed(seed)
                .build();
            prop_assert!(optimal_map(&c).len() <= c.thread_count().min(c.object_count()));
        }
    }
}
