//! An exact happened-before oracle.
//!
//! Happened-before (Section II) is the smallest transitive relation such that
//! `e → f` whenever `e` immediately precedes `f` in the same thread chain or
//! in the same object chain.  The oracle materialises the full transitive
//! closure as one bitset of predecessors per event, which makes `e → f`
//! queries O(1).
//!
//! The oracle is *independent of every clock implementation* in this
//! repository: it is computed directly from the chain structure by dynamic
//! programming over the event DAG.  The clock crates use it as ground truth in
//! their correctness tests (`s → t ⇔ s.v < t.v`).

use crate::computation::Computation;
use crate::ids::EventId;

/// Exact happened-before oracle for one [`Computation`].
///
/// Memory use is `O(n² / 64)` for `n` events, so this is meant for test-sized
/// computations (up to a few tens of thousands of events), not for production
/// causality tracking.
#[derive(Debug, Clone)]
pub struct CausalityOracle {
    n: usize,
    /// `pred[e]` is a bitset over event ids: bit `f` is set iff `f → e`.
    pred: Vec<Vec<u64>>,
}

impl CausalityOracle {
    /// The largest computation the oracle is meant for.  Production
    /// causality queries go through the streaming reachability index (an
    /// `EventSink` over live stamps); the bitset closure exists as test
    /// ground truth, and at `O(n²/64)` memory a million-event build would
    /// silently eat ~2 TB.  Debug builds assert the bound so a misuse fails
    /// in tests, not in production sizing.
    const MAX_ORACLE_EVENTS: usize = 100_000;

    /// Builds the oracle for a computation.
    ///
    /// Events are processed in append order. Because each chain is appended in
    /// its own order, every event's chain predecessors have smaller ids, so a
    /// single forward pass suffices:
    /// `pred(e) = pred(tp) ∪ {tp} ∪ pred(op) ∪ {op}` where `tp`/`op` are the
    /// thread/object immediate predecessors.  Each bitset is built in place
    /// inside the pre-sized table (the split keeps the borrow checker happy
    /// about reading predecessor rows while writing the current one), so the
    /// pass allocates the table once, not once more per event.
    pub fn build(computation: &Computation) -> Self {
        let n = computation.len();
        debug_assert!(
            n <= Self::MAX_ORACLE_EVENTS,
            "CausalityOracle is test ground truth, not a production index \
             ({n} events > {}); stream queries through ReachabilityIndexSink",
            Self::MAX_ORACLE_EVENTS
        );
        let words = n.div_ceil(64);
        let mut pred: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        for e in computation.events() {
            let id = e.id.index();
            let (done, rest) = pred.split_at_mut(id);
            let bits = &mut rest[0];
            for p in [
                computation.thread_predecessor(e.id),
                computation.object_predecessor(e.id),
            ]
            .into_iter()
            .flatten()
            {
                let pi = p.index();
                debug_assert!(pi < id, "chain predecessor must precede in append order");
                for (w, &pw) in bits.iter_mut().zip(done[pi].iter()) {
                    *w |= pw;
                }
                bits[pi / 64] |= 1u64 << (pi % 64);
            }
        }
        Self { n, pred }
    }

    /// Number of events covered by the oracle.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the oracle covers no events.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Returns `true` iff `a → b` (strictly; an event does not happen before
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn happened_before(&self, a: EventId, b: EventId) -> bool {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "event id out of range"
        );
        let ai = a.index();
        (self.pred[b.index()][ai / 64] >> (ai % 64)) & 1 == 1
    }

    /// Returns `true` iff the two events are concurrent (`a ∦ b` in the
    /// paper's notation): neither happened before the other and they are
    /// distinct.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.happened_before(a, b) && !self.happened_before(b, a)
    }

    /// Returns `true` iff the events are comparable (`a → b`, `b → a`, or
    /// `a == b`).
    pub fn comparable(&self, a: EventId, b: EventId) -> bool {
        !self.concurrent(a, b)
    }

    /// All `(a, b)` pairs with `a → b`, in lexicographic order. Intended for
    /// small computations in tests.
    ///
    /// Chain predecessors always carry smaller ids (append order is a linear
    /// extension), so `a < b` for every pair and iterating `a` outer / `b`
    /// inner emits lexicographic order directly — no sort needed.
    pub fn all_ordered_pairs(&self) -> Vec<(EventId, EventId)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in a + 1..self.n {
                if (self.pred[b][a / 64] >> (a % 64)) & 1 == 1 {
                    out.push((EventId(a), EventId(b)));
                }
            }
        }
        out
    }

    /// All `(a, b)` pairs with `a ∥ b` (concurrent), `a < b`, in
    /// lexicographic order — the complement of
    /// [`all_ordered_pairs`](Self::all_ordered_pairs) over distinct pairs.
    /// Intended for small computations in tests (conformance oracle 8
    /// cross-checks every one of these against the streaming index).
    pub fn all_concurrent_pairs(&self) -> Vec<(EventId, EventId)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in a + 1..self.n {
                if (self.pred[b][a / 64] >> (a % 64)) & 1 == 0 {
                    out.push((EventId(a), EventId(b)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, ThreadId};

    fn comp(ops: &[(usize, usize)]) -> Computation {
        ops.iter()
            .map(|&(t, o)| (ThreadId(t), ObjectId(o)))
            .collect()
    }

    #[test]
    fn empty_oracle() {
        let c = Computation::new();
        let o = c.causality_oracle();
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
        assert!(o.all_ordered_pairs().is_empty());
    }

    #[test]
    fn same_thread_ordering() {
        let c = comp(&[(0, 0), (0, 1), (0, 2)]);
        let o = c.causality_oracle();
        assert!(o.happened_before(EventId(0), EventId(1)));
        assert!(o.happened_before(EventId(0), EventId(2)));
        assert!(o.happened_before(EventId(1), EventId(2)));
        assert!(!o.happened_before(EventId(2), EventId(0)));
        assert!(!o.happened_before(EventId(0), EventId(0)), "irreflexive");
    }

    #[test]
    fn same_object_ordering() {
        let c = comp(&[(0, 0), (1, 0), (2, 0)]);
        let o = c.causality_oracle();
        assert!(o.happened_before(EventId(0), EventId(1)));
        assert!(o.happened_before(EventId(0), EventId(2)));
        assert!(o.happened_before(EventId(1), EventId(2)));
    }

    #[test]
    fn transitivity_across_chains() {
        // T0 touches O0 then O1; T1 touches O1 then O2; T2 touches O2.
        let c = comp(&[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]);
        let o = c.causality_oracle();
        // e0 -> e1 (thread), e1 -> e2 (object 1), e2 -> e3 (thread), e3 -> e4 (object 2)
        assert!(o.happened_before(EventId(0), EventId(4)));
        assert!(!o.happened_before(EventId(4), EventId(0)));
    }

    #[test]
    fn concurrency_detected() {
        // Two threads on disjoint objects: all cross-thread pairs concurrent.
        let c = comp(&[(0, 0), (1, 1), (0, 0), (1, 1)]);
        let o = c.causality_oracle();
        assert!(o.concurrent(EventId(0), EventId(1)));
        assert!(o.concurrent(EventId(2), EventId(3)));
        assert!(o.concurrent(EventId(0), EventId(3)));
        assert!(!o.concurrent(EventId(0), EventId(2)), "same thread");
        assert!(o.comparable(EventId(0), EventId(2)));
        assert!(
            o.comparable(EventId(1), EventId(1)),
            "an event is comparable to itself"
        );
    }

    #[test]
    fn all_ordered_pairs_enumerates_closure() {
        let c = comp(&[(0, 0), (0, 1), (1, 1)]);
        let o = c.causality_oracle();
        assert_eq!(
            o.all_ordered_pairs(),
            vec![
                (EventId(0), EventId(1)),
                (EventId(0), EventId(2)),
                (EventId(1), EventId(2)),
            ]
        );
    }

    #[test]
    fn all_ordered_pairs_is_lexicographic_without_sorting() {
        // A 3-thread, 2-object interleaving with plenty of cross-chain
        // closure edges; the emitted list must already be sorted.
        let c = comp(&[(0, 0), (1, 1), (2, 0), (0, 1), (1, 0), (2, 1)]);
        let o = c.causality_oracle();
        let pairs = o.all_ordered_pairs();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
        for &(a, b) in &pairs {
            assert!(a < b, "append order is a linear extension");
            assert!(o.happened_before(a, b));
        }
    }

    #[test]
    fn concurrent_pairs_complement_ordered_pairs() {
        let c = comp(&[(0, 0), (1, 1), (2, 0), (0, 1), (1, 0), (2, 1)]);
        let o = c.causality_oracle();
        let ordered = o.all_ordered_pairs();
        let concurrent = o.all_concurrent_pairs();
        assert_eq!(ordered.len() + concurrent.len(), 6 * 5 / 2);
        for &(a, b) in &concurrent {
            assert!(a < b);
            assert!(o.concurrent(a, b));
        }
        let mut sorted = concurrent.clone();
        sorted.sort_unstable();
        assert_eq!(concurrent, sorted, "lexicographic without sorting");
        assert!(ordered.iter().all(|p| !concurrent.contains(p)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_panics() {
        let c = comp(&[(0, 0)]);
        let o = c.causality_oracle();
        o.happened_before(EventId(0), EventId(5));
    }

    #[test]
    fn oracle_on_more_than_64_events() {
        // Exercise the multi-word bitset path: one thread, one object, 200 events.
        let c: Computation = (0..200).map(|_| (ThreadId(0), ObjectId(0))).collect();
        let o = c.causality_oracle();
        assert!(o.happened_before(EventId(0), EventId(199)));
        assert!(o.happened_before(EventId(63), EventId(64)));
        assert!(o.happened_before(EventId(64), EventId(128)));
        assert!(!o.happened_before(EventId(199), EventId(0)));
    }
}
