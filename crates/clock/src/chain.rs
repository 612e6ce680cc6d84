//! A dynamic chain-clock baseline (Agarwal & Garg, PODC 2005).
//!
//! The closest related work (Section VI of the paper) generalises vector
//! clock components from *processes* to *chains* of the computation poset:
//! any chain decomposition yields a valid vector clock with one component per
//! chain.  The paper's mixed clock instead restricts components to whole
//! thread-chains and object-chains and optimises over that restricted space;
//! the chain clock is therefore the natural baseline for the extension
//! experiments in `mvc-eval`.
//!
//! The implementation here is the simple greedy *dynamic chain clock*: events
//! arrive in append order, and each event is appended to the first existing
//! chain whose last event happened before it (decided by comparing the
//! already-assigned timestamps); if no such chain exists a new chain — and a
//! new vector component — is created.  The greedy first-fit strategy is a
//! heuristic: it often uses far fewer chains than there are threads on
//! sparse computations, but unlike Agarwal & Garg's process-driven variant it
//! does not carry a worst-case `|P|` bound.  The resulting clock is always a
//! *valid* vector clock, which is what the property tests verify.

use mvc_trace::Computation;

use crate::compare::VectorTimestamp;

/// Result of running the chain clock over a computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDecomposition {
    /// Timestamp per event (width = number of chains, padded to the final
    /// width).
    pub timestamps: Vec<VectorTimestamp>,
    /// Chain index assigned to each event.
    pub chain_of_event: Vec<usize>,
    /// Number of chains used.
    pub chains: usize,
}

/// Runs the greedy chain decomposition and timestamping.
///
/// The number of components is only known once the whole computation has
/// been processed, so the stamps are padded to the final chain count.
pub fn decompose(computation: &Computation) -> ChainDecomposition {
    // Working timestamps grow in width as new chains appear; they are
    // padded to the final width at the end.
    let mut thread_clock: Vec<Vec<u64>> = vec![Vec::new(); computation.thread_index_bound()];
    let mut object_clock: Vec<Vec<u64>> = vec![Vec::new(); computation.object_index_bound()];
    // Last timestamp appended to each chain.
    let mut chain_last: Vec<Vec<u64>> = Vec::new();
    let mut raw_stamps: Vec<Vec<u64>> = Vec::with_capacity(computation.len());
    let mut chain_of_event = Vec::with_capacity(computation.len());

    for e in computation.events() {
        let t = e.thread.index();
        let o = e.object.index();
        let mut v = merge(&thread_clock[t], &object_clock[o]);

        // Find a chain whose last event happened before this event: since
        // the last event's timestamp has already been incorporated into v
        // only if it is causally below, "last <= v" is the test.
        let chain = (0..chain_last.len())
            .find(|&c| dominated(&chain_last[c], &v))
            .unwrap_or_else(|| {
                chain_last.push(Vec::new());
                chain_last.len() - 1
            });

        if v.len() <= chain {
            v.resize(chain + 1, 0);
        }
        v[chain] += 1;
        chain_last[chain] = v.clone();
        thread_clock[t] = v.clone();
        object_clock[o] = v.clone();
        chain_of_event.push(chain);
        raw_stamps.push(v);
    }

    let width = chain_last.len();
    let timestamps = raw_stamps
        .into_iter()
        .map(|v| VectorTimestamp::from_components(v).padded_to(width))
        .collect();
    ChainDecomposition {
        timestamps,
        chain_of_event,
        chains: width,
    }
}

/// Component-wise max of two variable-width vectors.
fn merge(a: &[u64], b: &[u64]) -> Vec<u64> {
    let len = a.len().max(b.len());
    (0..len)
        .map(|i| {
            a.get(i)
                .copied()
                .unwrap_or(0)
                .max(b.get(i).copied().unwrap_or(0))
        })
        .collect()
}

/// Returns `true` iff `a <= b` component-wise (with missing components
/// treated as zero).
fn dominated(a: &[u64], b: &[u64]) -> bool {
    let len = a.len().max(b.len());
    (0..len).all(|i| a.get(i).copied().unwrap_or(0) <= b.get(i).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::satisfies_vector_clock_condition;
    use mvc_trace::examples::paper_figure1;
    use mvc_trace::{ObjectId, ThreadId, WorkloadBuilder};
    use proptest::prelude::*;

    #[test]
    fn empty_computation() {
        let d = decompose(&Computation::new());
        assert_eq!(d.chains, 0);
        assert!(d.timestamps.is_empty());
        assert!(d.chain_of_event.is_empty());
    }

    #[test]
    fn single_thread_single_chain() {
        let mut c = Computation::new();
        for o in 0..5 {
            c.record(ThreadId(0), ObjectId(o));
        }
        let d = decompose(&c);
        assert_eq!(d.chains, 1, "a totally ordered computation needs one chain");
        assert_eq!(d.chain_of_event, vec![0; 5]);
    }

    #[test]
    fn independent_threads_get_separate_chains() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        c.record(ThreadId(1), ObjectId(1));
        c.record(ThreadId(2), ObjectId(2));
        let d = decompose(&c);
        assert_eq!(d.chains, 3);
    }

    #[test]
    fn chain_clock_valid_on_figure1() {
        let c = paper_figure1();
        let stamps = decompose(&c).timestamps;
        let oracle = c.causality_oracle();
        assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
    }

    #[test]
    fn chain_count_bounded_by_events_and_at_least_width_one() {
        for seed in 0..10 {
            let c = WorkloadBuilder::new(6, 12)
                .operations(150)
                .seed(seed)
                .build();
            let d = decompose(&c);
            assert!(d.chains >= 1);
            assert!(d.chains <= c.len());
            // Every event must have been placed in a real chain.
            assert!(d.chain_of_event.iter().all(|&ch| ch < d.chains));
        }
    }

    #[test]
    fn events_in_same_chain_are_totally_ordered() {
        let c = WorkloadBuilder::new(5, 5).operations(80).seed(4).build();
        let d = decompose(&c);
        let oracle = c.causality_oracle();
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                if d.chain_of_event[i] == d.chain_of_event[j] {
                    assert!(oracle.comparable(mvc_trace::EventId(i), mvc_trace::EventId(j)));
                }
            }
        }
    }

    proptest! {
        /// The chain clock must itself be a valid vector clock.
        #[test]
        fn prop_chain_clock_valid(
            threads in 1usize..7,
            objects in 1usize..7,
            ops in 1usize..90,
            seed in 0u64..200,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let stamps = decompose(&c).timestamps;
            let oracle = c.causality_oracle();
            prop_assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
        }

        /// Each chain is genuinely a chain: any two events assigned to the same
        /// chain are comparable under happened-before.
        #[test]
        fn prop_chains_are_chains(
            threads in 1usize..6,
            objects in 1usize..6,
            ops in 0usize..60,
            seed in 0u64..150,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let d = decompose(&c);
            let oracle = c.causality_oracle();
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    if d.chain_of_event[i] == d.chain_of_event[j] {
                        prop_assert!(oracle.comparable(mvc_trace::EventId(i), mvc_trace::EventId(j)));
                    }
                }
            }
        }
    }
}
