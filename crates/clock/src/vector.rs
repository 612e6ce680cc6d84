//! Checks of the traditional thread-based and object-based vector clocks
//! (Section II) as the mixed protocol under [`ComponentMap::all_threads`]
//! and [`ComponentMap::all_objects`].
//!
//! Both clocks keep one vector per thread and one per object.  When thread
//! `p` performs operation `e` on object `q`:
//!
//! ```text
//! e.v = max(p.v, q.v);
//! e.v[e.thread]++        (thread-based)   or   e.v[e.object]++ (object-based)
//! p.v = q.v = e.v
//! ```
//!
//! With every thread (or every object) a component, `e.c` is always the
//! event's thread (or object), so the mixed protocol is exactly this.  The
//! thread-based clock has `n` components and the object-based clock `m`,
//! whereas the mixed clock needs only a minimum vertex cover of the
//! thread–object graph.

use mvc_trace::Computation;

use crate::compare::VectorTimestamp;
use crate::component::ComponentMap;
use crate::mixed::stamp;

fn thread_clock(c: &Computation) -> Vec<VectorTimestamp> {
    stamp(c, &ComponentMap::all_threads(c.thread_index_bound()))
}

fn object_clock(c: &Computation) -> Vec<VectorTimestamp> {
    stamp(c, &ComponentMap::all_objects(c.object_index_bound()))
}

mod tests {
    use super::*;
    use crate::validate::satisfies_vector_clock_condition;
    use mvc_trace::examples::{paper_figure1, tiny};
    use mvc_trace::{ObjectId, ThreadId, WorkloadBuilder, WorkloadKind};
    use proptest::prelude::*;

    #[test]
    fn empty_computation_yields_no_stamps() {
        let c = Computation::new();
        assert!(thread_clock(&c).is_empty());
        assert!(object_clock(&c).is_empty());
    }

    #[test]
    fn single_thread_counts_up() {
        let mut c = Computation::new();
        for _ in 0..3 {
            c.record(ThreadId(0), ObjectId(0));
        }
        let stamps = thread_clock(&c);
        assert_eq!(stamps[0].as_slice(), &[1]);
        assert_eq!(stamps[1].as_slice(), &[2]);
        assert_eq!(stamps[2].as_slice(), &[3]);
    }

    #[test]
    fn thread_clock_width_is_thread_bound() {
        let mut c = Computation::new();
        c.record(ThreadId(4), ObjectId(0));
        assert_eq!(thread_clock(&c)[0].len(), 5);
    }

    #[test]
    fn object_clock_width_is_object_bound() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(7));
        assert_eq!(object_clock(&c)[0].len(), 8);
    }

    #[test]
    fn concurrent_events_get_incomparable_stamps() {
        let c = tiny();
        let stamps = thread_clock(&c);
        // Events 0 and 1 are on different threads and different objects.
        assert!(stamps[0].compare(&stamps[1]).is_concurrent());
    }

    #[test]
    fn ordered_events_get_ordered_stamps() {
        let c = tiny();
        let stamps = thread_clock(&c);
        assert!(stamps[0].strictly_less_than(&stamps[2]));
        assert!(stamps[1].strictly_less_than(&stamps[3]));
    }

    #[test]
    fn paper_figure1_both_clocks_valid() {
        let c = paper_figure1();
        let oracle = c.causality_oracle();
        for (name, stamps) in [("thread", thread_clock(&c)), ("object", object_clock(&c))] {
            assert!(
                satisfies_vector_clock_condition(&c, &stamps, &oracle),
                "the {name} clock is not valid on figure 1"
            );
        }
    }

    #[test]
    fn thread_and_object_clocks_induce_identical_order() {
        let c = WorkloadBuilder::new(6, 6).operations(200).seed(5).build();
        let t = thread_clock(&c);
        let o = object_clock(&c);
        for i in 0..c.len() {
            for j in 0..c.len() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    t[i].strictly_less_than(&t[j]),
                    o[i].strictly_less_than(&o[j]),
                    "events {i} and {j} ordered differently by the two clocks"
                );
            }
        }
    }

    #[test]
    fn same_thread_events_always_ordered() {
        let c = WorkloadBuilder::new(4, 8).operations(100).seed(9).build();
        let stamps = object_clock(&c);
        for t in c.threads() {
            let chain = c.thread_chain(t);
            for w in chain.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!(stamps[a.index()].strictly_less_than(&stamps[b.index()]));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_thread_clock_valid_on_random_workloads(
            threads in 1usize..8,
            objects in 1usize..8,
            ops in 1usize..120,
            seed in 0u64..200,
        ) {
            let c = WorkloadBuilder::new(threads, objects)
                .operations(ops)
                .kind(WorkloadKind::Uniform)
                .seed(seed)
                .build();
            let oracle = c.causality_oracle();
            let stamps = thread_clock(&c);
            prop_assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
        }

        #[test]
        fn prop_object_clock_valid_on_random_workloads(
            threads in 1usize..8,
            objects in 1usize..8,
            ops in 1usize..120,
            seed in 0u64..200,
        ) {
            let c = WorkloadBuilder::new(threads, objects)
                .operations(ops)
                .seed(seed)
                .build();
            let oracle = c.causality_oracle();
            let stamps = object_clock(&c);
            prop_assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
        }

        #[test]
        fn prop_event_stamp_dominates_predecessors(
            threads in 1usize..6,
            objects in 1usize..6,
            ops in 2usize..80,
            seed in 0u64..100,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let stamps = thread_clock(&c);
            for e in c.events() {
                if let Some(p) = c.thread_predecessor(e.id) {
                    prop_assert!(stamps[p.index()].strictly_less_than(&stamps[e.id.index()]));
                }
                if let Some(p) = c.object_predecessor(e.id) {
                    prop_assert!(stamps[p.index()].strictly_less_than(&stamps[e.id.index()]));
                }
            }
        }
    }
}
