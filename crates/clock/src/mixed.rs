//! The paper's mixed-vector-clock timestamping protocol (Section III-C).
//!
//! Given a set of components (threads and objects chosen as a vertex cover of
//! the thread–object graph, represented by a [`ComponentMap`]), every thread
//! and every object carries a mixed vector.  When thread `p` performs
//! operation `e` on object `q`:
//!
//! ```text
//! e.v = max(p.v, q.v)
//! if q is a component: e.v[q]++
//! if p is a component: e.v[p]++
//! p.v = q.v = e.v
//! ```
//!
//! (When both endpoints are components the paper's pseudo-code increments the
//! event's component `e.c = e.q`; incrementing both is also correct but would
//! advance two counters per event.  We follow the paper and bump exactly one
//! component per event, preferring the object.)
//!
//! Validity requires every event to be *covered*: at least one endpoint must
//! be a component.  [`MixedVectorClockAssigner`] panics on the first
//! uncovered event instead of producing an invalid clock.

use mvc_trace::Computation;

use crate::chunked::ClockRows;
use crate::compare::VectorTimestamp;
use crate::component::ComponentMap;
use crate::TimestampAssigner;

/// Assigns mixed vector clocks driven by an explicit [`ComponentMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedVectorClockAssigner {
    components: ComponentMap,
}

impl MixedVectorClockAssigner {
    /// Creates an assigner over the given component map.
    pub fn new(components: ComponentMap) -> Self {
        Self { components }
    }

    /// The component map driving this assigner.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Number of components in the mixed clock.
    pub fn width(&self) -> usize {
        self.components.len()
    }
}

impl TimestampAssigner for MixedVectorClockAssigner {
    fn name(&self) -> &'static str {
        "mixed-vector-clock"
    }

    fn clock_size(&self, _computation: &Computation) -> usize {
        self.width()
    }

    /// Assigns timestamps to every event.
    ///
    /// # Panics
    ///
    /// Panics if some event's thread *and* object both lack a component —
    /// the component set is not a vertex cover of the computation's graph.
    fn assign(&self, computation: &Computation) -> Vec<VectorTimestamp> {
        let width = self.width();
        let mut rows = ClockRows::new();
        let mut stamps = Vec::with_capacity(computation.len());
        for e in computation.events() {
            let component = self.components.event_component(e).unwrap_or_else(|| {
                panic!("component map does not cover the computation: {}", e.id)
            });
            // The shared write-back kernel: both rows mutate in place and
            // the emitted stamp shares the thread's packed row, which the
            // thread's next step therefore copies before writing: every
            // stamp here is kept.
            stamps.push(rows.step(e.thread, e.object, component, width));
        }
        stamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::validate::satisfies_vector_clock_condition;
    use crate::vector::ThreadVectorClockAssigner;
    use mvc_graph::cover::minimum_vertex_cover_of;
    use mvc_trace::examples::paper_figure1;
    use mvc_trace::{ObjectId, ThreadId, WorkloadBuilder};
    use proptest::prelude::*;

    fn optimal_assigner(c: &Computation) -> MixedVectorClockAssigner {
        let (_, cover) = minimum_vertex_cover_of(&c.bipartite_graph());
        MixedVectorClockAssigner::new(ComponentMap::from_cover(&cover))
    }

    #[test]
    fn empty_computation() {
        let c = Computation::new();
        let a = MixedVectorClockAssigner::new(ComponentMap::new());
        assert!(a.assign(&c).is_empty());
        assert_eq!(a.clock_size(&c), 0);
        assert_eq!(a.name(), "mixed-vector-clock");
    }

    #[test]
    fn paper_figure1_mixed_clock_is_size_three_and_valid() {
        let c = paper_figure1();
        let a = optimal_assigner(&c);
        assert_eq!(a.width(), 3, "Fig. 3 uses a 3-component mixed clock");
        let stamps = a.assign(&c);
        let oracle = c.causality_oracle();
        assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn paper_claimed_ordering_holds_under_mixed_clock() {
        // The paper's §III-C argues [T2,O1] -> [T3,O3] is visible by comparing
        // mixed timestamps.
        let c = paper_figure1();
        let stamps = optimal_assigner(&c).assign(&c);
        let t2_o1 = 0; // first event in FIGURE1_OPS
        let t3_o3 = 4;
        assert!(stamps[t2_o1].strictly_less_than(&stamps[t3_o3]));
    }

    #[test]
    #[should_panic(expected = "does not cover the computation: e1")]
    fn assign_panics_on_uncovered_event() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        c.record(ThreadId(1), ObjectId(1));
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        let _ = MixedVectorClockAssigner::new(map).assign(&c);
    }

    #[test]
    fn all_thread_components_reduce_to_thread_clock() {
        // With every thread as a component, the mixed protocol increments the
        // thread component of each event whenever the object is not a
        // component — i.e. always — so it coincides with the thread clock.
        let c = WorkloadBuilder::new(5, 5).operations(150).seed(3).build();
        let mixed =
            MixedVectorClockAssigner::new(ComponentMap::all_threads(c.thread_index_bound()));
        let thread = ThreadVectorClockAssigner::new();
        assert_eq!(mixed.assign(&c), thread.assign(&c));
    }

    #[test]
    fn optimal_mixed_clock_never_larger_than_either_side() {
        for seed in 0..10 {
            let c = WorkloadBuilder::new(10, 14)
                .operations(120)
                .seed(seed)
                .build();
            let a = optimal_assigner(&c);
            assert!(a.width() <= c.thread_count().min(c.object_count()));
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
            let a = optimal_assigner(&c);
            let stamps = a.assign(&c);
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
            let a = optimal_assigner(&c);
            prop_assert!(a.width() <= c.thread_count().min(c.object_count()));
        }
    }
}
