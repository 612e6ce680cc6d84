//! The [`Computation`]: an append-only log of thread–object events.
//!
//! The computation owns the per-thread and per-object chains.  Appending an
//! event in *observation order* (any linear extension of happened-before —
//! for example, the order a tracer saw operations, which is always such an
//! extension because each chain is appended in its own order) is enough to
//! reconstruct the full happened-before relation.

use mvc_graph::BipartiteGraph;

use crate::causality::CausalityOracle;
use crate::event::{Event, OpKind};
use crate::ids::{EventId, ObjectId, ThreadId};

/// A computation in the happened-before model: a set of events plus the
/// per-thread and per-object chains that induce the partial order.
///
/// Events are appended with [`record`](Computation::record) (or
/// [`record_op`](Computation::record_op)); the append order must be a linear
/// extension of the real-time order in which the operations were serialised
/// (per thread and per object), which is automatic when a single trace source
/// appends events as it observes them.
///
/// Chains are stored densely, indexed by raw thread/object id (ids are dense
/// by construction everywhere in this workspace), so the per-event append is
/// two array indexes rather than two map lookups — `record` is on the hot
/// path of every tracing backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Computation {
    events: Vec<Event>,
    /// `thread_chains[t]` is thread `t`'s chain; slots below the largest
    /// recorded id may be empty (a thread that never performed an op).
    thread_chains: Vec<Vec<EventId>>,
    object_chains: Vec<Vec<EventId>>,
    /// Number of non-empty thread chains.
    active_threads: usize,
    /// Number of non-empty object chains.
    active_objects: usize,
}

impl Computation {
    /// Creates an empty computation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a generic operation of `thread` on `object`, returning the new
    /// event's id.
    pub fn record(&mut self, thread: ThreadId, object: ObjectId) -> EventId {
        self.record_op(thread, object, OpKind::Op)
    }

    /// Records an operation of the given kind, returning the new event's id.
    pub fn record_op(&mut self, thread: ThreadId, object: ObjectId, kind: OpKind) -> EventId {
        let id = EventId(self.events.len());
        if self.thread_chains.len() <= thread.index() {
            self.thread_chains.resize_with(thread.index() + 1, Vec::new);
        }
        if self.object_chains.len() <= object.index() {
            self.object_chains.resize_with(object.index() + 1, Vec::new);
        }
        let thread_chain = &mut self.thread_chains[thread.index()];
        if thread_chain.is_empty() {
            self.active_threads += 1;
        }
        let thread_seq = thread_chain.len();
        thread_chain.push(id);
        let object_chain = &mut self.object_chains[object.index()];
        if object_chain.is_empty() {
            self.active_objects += 1;
        }
        let object_seq = object_chain.len();
        object_chain.push(id);
        self.events.push(Event {
            id,
            thread,
            object,
            kind,
            thread_seq,
            object_seq,
        });
        id
    }

    /// Appends a whole batch of typed operations in order — the bulk
    /// counterpart of [`record_op`](Self::record_op), used by sinks and
    /// drains that already hold a stamped batch.  Event ids are assigned
    /// sequentially; the first appended event's id is the computation's
    /// length before the call.
    pub fn record_ops<I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = (ThreadId, ObjectId, OpKind)>,
    {
        let iter = ops.into_iter();
        let (lower, _) = iter.size_hint();
        self.events.reserve(lower);
        for (thread, object, kind) in iter {
            self.record_op(thread, object, kind);
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the computation has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an event of this computation.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// The event with the given id, if it exists.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events.get(id.index())
    }

    /// Iterator over all events in append order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Iterator over the thread ids that appear in the computation, in
    /// ascending id order.
    pub fn threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.thread_chains
            .iter()
            .enumerate()
            .filter(|(_, chain)| !chain.is_empty())
            .map(|(t, _)| ThreadId(t))
    }

    /// Iterator over the object ids that appear in the computation, in
    /// ascending id order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.object_chains
            .iter()
            .enumerate()
            .filter(|(_, chain)| !chain.is_empty())
            .map(|(o, _)| ObjectId(o))
    }

    /// Number of distinct threads that performed at least one operation.
    pub fn thread_count(&self) -> usize {
        self.active_threads
    }

    /// Number of distinct objects with at least one operation.
    pub fn object_count(&self) -> usize {
        self.active_objects
    }

    /// `1 + max thread index`, i.e. the size a thread-based vector clock
    /// indexed by raw thread id would need. Zero for an empty computation.
    pub fn thread_index_bound(&self) -> usize {
        self.thread_chains.len()
    }

    /// `1 + max object index`, i.e. the size an object-based vector clock
    /// indexed by raw object id would need. Zero for an empty computation.
    pub fn object_index_bound(&self) -> usize {
        self.object_chains.len()
    }

    /// The chain of events of a thread, in program order.
    pub fn thread_chain(&self, thread: ThreadId) -> &[EventId] {
        self.thread_chains
            .get(thread.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The chain of events on an object, in serialization order.
    pub fn object_chain(&self, object: ObjectId) -> &[EventId] {
        self.object_chains
            .get(object.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The event that immediately precedes `id` in its thread chain, if any.
    pub fn thread_predecessor(&self, id: EventId) -> Option<EventId> {
        let e = self.event(id);
        if e.thread_seq == 0 {
            None
        } else {
            Some(self.thread_chain(e.thread)[e.thread_seq - 1])
        }
    }

    /// The event that immediately precedes `id` in its object chain, if any.
    pub fn object_predecessor(&self, id: EventId) -> Option<EventId> {
        let e = self.event(id);
        if e.object_seq == 0 {
            None
        } else {
            Some(self.object_chain(e.object)[e.object_seq - 1])
        }
    }

    /// Builds the thread–object bipartite graph of the computation
    /// (Section III-A): one edge per (thread, object) pair with at least one
    /// operation, regardless of how many operations that pair has.
    pub fn bipartite_graph(&self) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(self.thread_index_bound(), self.object_index_bound());
        for e in &self.events {
            let (l, r) = e.edge();
            g.add_edge(l, r);
        }
        g
    }

    /// Builds an exact happened-before oracle for this computation.
    ///
    /// The oracle costs `O(|E|² / 64)` bits of memory (a reachability bitset
    /// per event) and is intended for validation and tests, not for
    /// production timestamping — that is what the vector clocks are for.
    pub fn causality_oracle(&self) -> CausalityOracle {
        CausalityOracle::build(self)
    }
}

impl Extend<(ThreadId, ObjectId)> for Computation {
    fn extend<I: IntoIterator<Item = (ThreadId, ObjectId)>>(&mut self, iter: I) {
        for (t, o) in iter {
            self.record(t, o);
        }
    }
}

impl FromIterator<(ThreadId, ObjectId)> for Computation {
    fn from_iter<I: IntoIterator<Item = (ThreadId, ObjectId)>>(iter: I) -> Self {
        let mut c = Computation::new();
        c.extend(iter);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Computation {
        // T0: o0, o1 ; T1: o1, o0
        [(0, 0), (0, 1), (1, 1), (1, 0)]
            .into_iter()
            .map(|(t, o)| (ThreadId(t), ObjectId(o)))
            .collect()
    }

    #[test]
    fn empty_computation() {
        let c = Computation::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.thread_count(), 0);
        assert_eq!(c.object_count(), 0);
        assert_eq!(c.thread_index_bound(), 0);
        assert_eq!(c.object_index_bound(), 0);
        assert!(c.bipartite_graph().is_empty());
        assert_eq!(c.thread_chain(ThreadId(3)), &[] as &[EventId]);
    }

    #[test]
    fn record_assigns_sequential_ids_and_seqs() {
        let c = simple();
        assert_eq!(c.len(), 4);
        let e0 = c.event(EventId(0));
        let e1 = c.event(EventId(1));
        let e3 = c.event(EventId(3));
        assert_eq!(e0.thread_seq, 0);
        assert_eq!(e1.thread_seq, 1);
        assert_eq!(e3.object_seq, 1, "second op on object 0");
        assert_eq!(c.thread_chain(ThreadId(0)), &[EventId(0), EventId(1)]);
        assert_eq!(c.object_chain(ObjectId(0)), &[EventId(0), EventId(3)]);
    }

    #[test]
    fn predecessors() {
        let c = simple();
        assert_eq!(c.thread_predecessor(EventId(0)), None);
        assert_eq!(c.thread_predecessor(EventId(1)), Some(EventId(0)));
        assert_eq!(c.object_predecessor(EventId(2)), Some(EventId(1)));
        assert_eq!(c.object_predecessor(EventId(0)), None);
    }

    #[test]
    fn counts_and_bounds() {
        let mut c = Computation::new();
        c.record(ThreadId(5), ObjectId(2));
        assert_eq!(c.thread_count(), 1);
        assert_eq!(
            c.thread_index_bound(),
            6,
            "bound follows the raw index, not the count"
        );
        assert_eq!(c.object_index_bound(), 3);
        assert_eq!(c.threads().collect::<Vec<_>>(), vec![ThreadId(5)]);
        assert_eq!(c.objects().collect::<Vec<_>>(), vec![ObjectId(2)]);
    }

    #[test]
    fn bipartite_graph_deduplicates_pairs() {
        let mut c = Computation::new();
        for _ in 0..5 {
            c.record(ThreadId(0), ObjectId(0));
        }
        c.record(ThreadId(1), ObjectId(0));
        let g = c.bipartite_graph();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let c = simple();
        assert!(c.get(EventId(99)).is_none());
        assert!(c.get(EventId(3)).is_some());
    }

    #[test]
    fn record_op_stores_kind() {
        let mut c = Computation::new();
        let id = c.record_op(ThreadId(0), ObjectId(0), OpKind::Write);
        assert_eq!(c.event(id).kind, OpKind::Write);
    }

    #[test]
    fn record_ops_bulk_matches_per_event_appends() {
        let ops = [
            (ThreadId(0), ObjectId(0), OpKind::Write),
            (ThreadId(1), ObjectId(0), OpKind::Read),
            (ThreadId(0), ObjectId(1), OpKind::Acquire),
        ];
        let mut bulk = Computation::new();
        bulk.record_ops(ops);
        let mut single = Computation::new();
        for (t, o, k) in ops {
            single.record_op(t, o, k);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.len(), 3);
    }
}
