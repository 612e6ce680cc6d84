//! Per-thread ingest buffers, the publish signal and the order-preserving
//! merge.
//!
//! The paper's model needs exactly two orders to survive tracing: each
//! thread's program order and each object's serialization order.  This module
//! keeps both with no contention between producers on the event path, and
//! with a drain whose cost follows what was published rather than how many
//! threads are registered:
//!
//! * **Per-thread buffers.**  Every [`ThreadHandle`](crate::ThreadHandle)
//!   owns a `ThreadBuffer`, a mutex-protected vector; a traced operation is
//!   appended to the *performing thread's own* buffer, so buffer order is
//!   program order by construction.
//! * **Per-object sequence numbers.**  Each
//!   [`SharedObject`](crate::SharedObject) carries one atomic counter,
//!   bumped *while the object's lock is held*; the ticket an operation draws
//!   is its position in the object's serialization order.
//! * **Publish signal.**  A push that finds its buffer's `flagged` bit clean
//!   sets it and appends the thread's id to the session's one `published`
//!   list; the drain takes the list and visits only the buffers it names —
//!   three when three of 2 048 registered threads published, none when idle.
//! * **Trading, not copying.**  The drain takes a buffer's events by swapping
//!   its vector for an empty one under the buffer's lock: an O(1) hold
//!   however large the backlog, so a producer mid-push (which runs while the
//!   traced object's lock is held!) never waits out a copy.  In the steady
//!   state the traded vector *is* the thread's stash and the stash's consumed
//!   vector goes back: two vectors circulate, nothing is copied or allocated.
//! * **Order-preserving merge.**  The drain side runs a k-way merge over the
//!   stashes (`OrderedMerge`): an event is emitted only when it is the next
//!   unconsumed ticket of its object, and events of one thread are only
//!   consumed front-to-back.  The merged stream is therefore a linear
//!   extension of both chain families — a faithful interleaving, exactly
//!   what a single global channel would produce.
//!
//! **Why the merge cannot deadlock on a quiescent buffer set** (all
//! producers finished or between operations): consider the unconsumed event
//! `e` that drew its ticket earliest in real time.  Every smaller ticket of
//! `e`'s object was drawn earlier still, so those events are all consumed —
//! `e` is its object's next ticket.  Every earlier operation of `e`'s thread
//! also drew its ticket earlier (a thread runs its operations one after
//! another), so they are consumed too — `e` is at the front of its buffer.
//! Hence `e` is emittable, and induction drains everything.  While producers
//! are mid-operation the merge may stall on a ticket that exists but is not
//! yet published; it simply reports no progress and the next drain resumes —
//! "concurrent operations may or may not be included".
//!
//! **Why no published event is overlooked** (no lost wake-up).  A producer
//! does *append (under the buffer's lock) → read the flag → on clean: set it
//! and list the thread*; the drain, per listed thread, does *clear the flag →
//! take (under the buffer's lock)*.  The flag is set by the one push that
//! wins the clean→flagged edge (a `swap`, so clones of a handle racing on one
//! buffer list it once) and cleared only by the drain that took that push's
//! listing, so the list holds a thread at most once between drains and is
//! bounded by the thread count.  Take a push that appended event `e`:
//!
//! * it reads *clean* — it lists the thread after the append, and the drain
//!   that takes the listing takes the buffer later still: `e` is taken;
//! * it reads *flagged* — a listing is on its way, and the visit `v` it
//!   causes clears the flag, then takes.  Had `e`'s append followed `v`'s
//!   take, the buffer's lock would order `v`'s clear before the read, which
//!   could then not have returned the value `v` overwrote.  So the append
//!   precedes the take: `e` is taken by `v` at the latest.
//!
//! A push between a visit's clear and its take is taken now *and* listed
//! again — one empty visit, nothing lost.  The flag publishes no data (events
//! travel under the buffer's lock, ids under the list's, and those locks
//! carry every happens-before edge the argument uses), so its accesses are
//! `Relaxed`: all that is needed is that a read a lock orders after a write
//! cannot observe an older value.  [`SharedObject::apply`] pushes — and so
//! flags and lists — inside the object's critical section, so the merge
//! still never sees a drawn-but-unpublished ticket from a released lock.
//! The drain takes the list *before* it extends its cached view of the
//! buffer registry: a thread registers before it publishes, so every id in
//! hand has its buffer in the view.
//!
//! [`SharedObject::apply`]: crate::SharedObject::apply

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mvc_trace::{ObjectId, OpKind, ThreadId};

use crate::session::RawEvent;

/// One traced operation as it sits in a thread's ingest buffer: the raw
/// event plus the per-object serialization ticket drawn under the object's
/// lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SequencedEvent {
    pub(crate) thread: ThreadId,
    pub(crate) object: ObjectId,
    pub(crate) kind: OpKind,
    /// Position in the object's serialization order (0-based).
    pub(crate) object_seq: u64,
}

/// A thread's ingest buffer.  [`push`](ThreadBuffer::push) is the producer's
/// half of the publish protocol, `take` the drain's (argument: module docs).
#[derive(Debug)]
pub(crate) struct ThreadBuffer {
    thread: usize,
    events: Mutex<Vec<SequencedEvent>>,
    /// `true` while a listing of `thread` is on its way to a drain.
    flagged: AtomicBool,
    /// The session's list of threads that published since the last drain.
    published: Arc<Mutex<Vec<usize>>>,
}

impl ThreadBuffer {
    /// Appends `event` and, if the buffer was clean, flags it and lists the
    /// thread for the next drain.
    pub(crate) fn push(&self, event: SequencedEvent) {
        self.events.lock().push(event);
        if !self.flagged.load(Ordering::Relaxed) && !self.flagged.swap(true, Ordering::Relaxed) {
            self.published.lock().push(self.thread);
        }
    }

    /// Clears the flag, then trades the buffer's vector for `empty` — in
    /// that order, so a push that lands after the trade flags again.
    fn take(&self, empty: &mut Vec<SequencedEvent>) {
        debug_assert!(empty.is_empty());
        self.flagged.store(false, Ordering::Relaxed);
        std::mem::swap(&mut *self.events.lock(), empty);
    }
}

/// The ingest state producers and the drain share: the buffer registry and
/// the `published` list.
#[derive(Debug, Default)]
pub(crate) struct IngestShared {
    /// Every registered thread's buffer, indexed by thread id.
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    published: Arc<Mutex<Vec<usize>>>,
}

impl IngestShared {
    /// Registers the next thread's buffer; its id is the registry length.
    pub(crate) fn register_buffer(&self) -> Arc<ThreadBuffer> {
        let mut buffers = self.buffers.lock();
        let buffer = Arc::new(ThreadBuffer {
            thread: buffers.len(),
            events: Mutex::default(),
            flagged: AtomicBool::new(false),
            published: Arc::clone(&self.published),
        });
        buffers.push(Arc::clone(&buffer));
        buffer
    }
}

/// Capacity, in events, each of a thread's two circulating vectors may keep
/// once consumed (4 KiB), so a drained backlog's high-water capacity does
/// not stay with the thread for ever: memory follows the backlog down.
const RETAINED_EVENTS: usize = 128;

/// Empties a consumed vector; one grown past [`RETAINED_EVENTS`] is freed,
/// not `shrink_to`'d: shrinking a large block in place hides it from the
/// allocator's mmap-threshold adaptation, and every recurring backlog then
/// faults its pages in again (measured, CHANGES.md PR 18).
fn release(consumed: &mut Vec<SequencedEvent>) {
    consumed.clear();
    if consumed.capacity() > RETAINED_EVENTS {
        *consumed = Vec::new();
    }
}

/// A thread's taken-but-unemitted events: a vector with a consumed-prefix
/// cursor, so the merge pops from the front in O(1).
#[derive(Debug, Default)]
struct Stash {
    events: Vec<SequencedEvent>,
    head: usize,
}

impl Stash {
    fn front(&self) -> Option<&SequencedEvent> {
        self.events.get(self.head)
    }

    fn advance(&mut self) {
        self.head += 1;
        if self.head == self.events.len() {
            release(&mut self.events);
            self.head = 0;
        }
    }

    fn is_empty(&self) -> bool {
        self.head == self.events.len()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.events.len() - self.head
    }

    /// Takes everything currently published in `buffer`.  An empty stash —
    /// the steady state — trades vectors with it.  One still holding stalled
    /// events trades `spare` in instead and appends what came out; its
    /// consumed prefix is compacted away only once it outweighs the live
    /// tail, so each event is moved O(1) amortized times no matter how many
    /// bounded merge rounds nibble at the front.
    fn refill(&mut self, buffer: &ThreadBuffer, spare: &mut Vec<SequencedEvent>) {
        if self.is_empty() {
            buffer.take(&mut self.events);
            return;
        }
        buffer.take(spare);
        if self.head * 2 > self.events.len() {
            self.events.drain(..self.head);
            self.head = 0;
        }
        self.events.append(spare);
        release(spare);
    }
}

/// Every how many drains the queue-depth gauge is sampled.  Sampling locks
/// every registered buffer — the one `O(threads)` step left on the drain
/// side — so it stays off the pump's spin loop and the producers it drains.
const DEPTH_SAMPLE_PERIOD: u32 = 64;

/// Handles into the process-global metrics registry, resolved once per
/// merge. Names are catalogued in `docs/OBSERVABILITY.md`; every update is
/// batch-granular, so an enabled registry costs a handful of `Relaxed`
/// read-modify-writes per *drain*, never per event.
#[derive(Debug)]
struct MergeMetrics {
    /// `ingest.queue_depth` (gauge, events): backlog sitting in the shared
    /// thread buffers, sampled every [`DEPTH_SAMPLE_PERIOD`]th drain.
    queue_depth: mvc_obs::Gauge,
    /// Drain counter driving the depth sampling period.
    depth_tick: u32,
    /// `ingest.drain.buffers` (histogram, buffers): buffers a drain visited,
    /// recorded by every drain that visited any.
    drain_buffers: mvc_obs::Histogram,
    /// `ingest.merge.emitted` (counter, events): merged into the faithful
    /// interleaving.
    emitted: mvc_obs::Counter,
    /// `ingest.merge.parked` (counter, parks): threads parked behind an
    /// out-of-order object ticket during a merge pass.
    parked: mvc_obs::Counter,
    /// `ingest.merge.stalls` (counter, passes): merge passes that emitted
    /// nothing while events were stashed — every front event waits on a
    /// ticket a still-running producer has drawn but not yet published.
    stalls: mvc_obs::Counter,
    /// `ingest.drain.budget_exhausted` (counter, drains): drains that used
    /// their whole emission budget, i.e. more work was immediately ready.
    budget_exhausted: mvc_obs::Counter,
}

impl Default for MergeMetrics {
    fn default() -> Self {
        let registry = mvc_obs::global();
        Self {
            queue_depth: registry.gauge("ingest.queue_depth"),
            depth_tick: 0,
            drain_buffers: registry.histogram("ingest.drain.buffers"),
            emitted: registry.counter("ingest.merge.emitted"),
            parked: registry.counter("ingest.merge.parked"),
            stalls: registry.counter("ingest.merge.stalls"),
            budget_exhausted: registry.counter("ingest.drain.budget_exhausted"),
        }
    }
}

/// Drain-side state of the k-way merge: per-thread stashes of events taken
/// from the shared buffers but not yet emittable, and each object's next
/// expected ticket.
///
/// The merge is incremental — state survives across [`drain`] calls, so a
/// live session can pump repeatedly while producers keep running.
///
/// [`drain`]: OrderedMerge::drain
#[derive(Debug, Default)]
pub(crate) struct OrderedMerge {
    /// Process-global metric handles (resolved once, recorded per drain).
    metrics: MergeMetrics,
    /// Cached view of the buffer registry, extended by the threads
    /// registered since the previous drain.
    buffers: Vec<Arc<ThreadBuffer>>,
    /// The `published` list the latest drain took and visited (traded back,
    /// emptied, by the next one, so the capacity circulates).
    visits: Vec<usize>,
    /// Scratch: the empty vector a stalled stash trades into its buffer.
    spare: Vec<SequencedEvent>,
    /// Taken-but-unemitted events, per thread, in program order.
    stash: Vec<Stash>,
    /// Threads whose stash is non-empty.
    active: Vec<usize>,
    /// `next_expected[o]` is the ticket the merge will emit next for object
    /// `o`; grown on demand.
    next_expected: Vec<u64>,
    /// Scratch: threads whose stash front should be (re)examined.
    ready: Vec<usize>,
    /// Scratch: `waiting[o]` holds threads whose stash front is an
    /// out-of-order ticket on object `o`; they are re-examined when the
    /// merge emits on `o`.  Every list is empty between merge passes.
    waiting: Vec<Vec<usize>>,
    /// Scratch: objects whose `waiting` list this merge pass pushed to, so
    /// the pass clears those lists and no others.
    parked_on: Vec<usize>,
}

impl OrderedMerge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Takes everything the buffers listed in `shared` hold, merges
    /// emittable events onto `out` (a faithful interleaving) up to
    /// `max_events`, and returns how many events were emitted.
    ///
    /// Returning `0` means no further progress is possible right now: the
    /// buffers are drained, or every buffered event is stalled behind a
    /// ticket that a still-running producer has drawn but not yet published.
    /// A return of exactly `max_events` may mean more events are already
    /// mergeable — call again (callers loop anyway, consuming each bounded
    /// batch while it is cache-warm).
    pub(crate) fn drain(
        &mut self,
        shared: &IngestShared,
        out: &mut Vec<RawEvent>,
        max_events: usize,
    ) -> usize {
        // Ids first, registry second: a listed thread registered before it
        // published, so the view extended afterwards holds its buffer.
        self.visits.clear();
        std::mem::swap(&mut *shared.published.lock(), &mut self.visits);
        let registered = self.buffers.len();
        self.buffers
            .extend_from_slice(&shared.buffers.lock()[registered..]);
        self.stash.resize_with(self.buffers.len(), Default::default);
        if mvc_obs::global().enabled() {
            // Sampled: see DEPTH_SAMPLE_PERIOD.
            self.metrics.depth_tick = self.metrics.depth_tick.wrapping_add(1);
            if self.metrics.depth_tick.is_multiple_of(DEPTH_SAMPLE_PERIOD) {
                let depth: usize = self.buffers.iter().map(|b| b.events.lock().len()).sum();
                self.metrics
                    .queue_depth
                    .set(i64::try_from(depth).unwrap_or(i64::MAX));
            }
        }
        for &thread in &self.visits {
            let stash = &mut self.stash[thread];
            let was_empty = stash.is_empty();
            stash.refill(&self.buffers[thread], &mut self.spare);
            if was_empty && !stash.is_empty() {
                self.active.push(thread);
            }
        }
        if !self.visits.is_empty() {
            self.metrics.drain_buffers.record(self.visits.len() as u64);
        }
        let emitted = self.merge(out, max_events);
        if emitted == max_events && max_events > 0 {
            self.metrics.budget_exhausted.inc();
        }
        emitted
    }

    /// Number of events taken from the buffers but not yet emitted
    /// (stalled behind unpublished tickets).
    #[cfg(test)]
    pub(crate) fn stalled(&self) -> usize {
        self.active.iter().map(|&t| self.stash[t].len()).sum()
    }

    /// The k-way merge pass over the current stashes, emitting at most
    /// `max_events`.
    ///
    /// Cost is O(active threads + emitted + waiting wake-ups): a thread is
    /// examined when it has events, after each of its own emissions, and
    /// once per emission on the object its front event waits for.
    fn merge(&mut self, out: &mut Vec<RawEvent>, max_events: usize) -> usize {
        let emitted_before = out.len();
        let out_cap = emitted_before.saturating_add(max_events);
        let mut parked: u64 = 0;
        // Ascending ids popped from the back: the order a scan of every
        // stash would examine them in, so the interleaving does not depend
        // on the order threads happened to publish in.
        self.active.sort_unstable();
        self.ready.clear();
        self.ready.extend_from_slice(&self.active);
        'threads: while let Some(thread) = self.ready.pop() {
            while let Some(&front) = self.stash[thread].front() {
                if out.len() == out_cap {
                    // Budget reached; leftover stash is picked up by the
                    // next call (`ready` is rebuilt from `active`, `waiting`
                    // is emptied below).
                    break 'threads;
                }
                let object = front.object.index();
                if self.next_expected.len() <= object {
                    self.next_expected.resize(object + 1, 0);
                }
                if self.next_expected[object] != front.object_seq {
                    // Out of order: park this thread until the merge emits
                    // the object's current ticket.
                    if self.waiting.len() <= object {
                        self.waiting.resize_with(object + 1, Vec::new);
                    }
                    if self.waiting[object].is_empty() {
                        self.parked_on.push(object);
                    }
                    self.waiting[object].push(thread);
                    parked += 1;
                    break;
                }
                self.next_expected[object] += 1;
                self.stash[thread].advance();
                out.push((front.thread, front.object, front.kind));
                // Emitting on this object may unblock parked threads.
                if let Some(waiters) = self.waiting.get_mut(object) {
                    self.ready.append(waiters);
                }
            }
        }
        for object in self.parked_on.drain(..) {
            self.waiting[object].clear();
        }
        let stash = &self.stash;
        self.active.retain(|&t| !stash[t].is_empty());
        let emitted = out.len() - emitted_before;
        if emitted > 0 {
            self.metrics.emitted.add(emitted as u64);
        } else if !self.active.is_empty() {
            self.metrics.stalls.inc();
        }
        if parked > 0 {
            self.metrics.parked.add(parked);
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionInner, ThreadHandle};
    use mvc_core::stamp_loop::STAMP_WINDOW;

    fn ev(thread: usize, object: usize, seq: u64) -> SequencedEvent {
        SequencedEvent {
            thread: ThreadId(thread),
            object: ObjectId(object),
            kind: OpKind::Op,
            object_seq: seq,
        }
    }

    fn order(out: &[RawEvent]) -> Vec<(usize, usize)> {
        out.iter()
            .map(|&(t, o, _)| (t.index(), o.index()))
            .collect()
    }

    /// A session with `threads` registered threads.
    fn session_of(threads: usize) -> (SessionInner, Vec<ThreadHandle>) {
        let session = SessionInner::new();
        let handles = (0..threads)
            .map(|t| session.register_thread_handle(&format!("t{t}")))
            .collect();
        (session, handles)
    }

    /// Drains with no budget.
    fn drain_all(
        merge: &mut OrderedMerge,
        session: &SessionInner,
        out: &mut Vec<RawEvent>,
    ) -> usize {
        merge.drain(&session.ingest, out, usize::MAX)
    }

    #[test]
    fn single_thread_drains_in_program_order() {
        let (session, t) = session_of(1);
        for (i, o) in [0, 1, 0, 2].into_iter().enumerate() {
            let seq = if o == 0 && i == 2 { 1 } else { 0 };
            t[0].buffer.push(ev(0, o, seq));
        }
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 4);
        assert_eq!(order(&out), vec![(0, 0), (0, 1), (0, 0), (0, 2)]);
        assert_eq!(merge.stalled(), 0);
    }

    #[test]
    fn merge_respects_object_serialization_across_threads() {
        // Object 0's serialization order is T1 then T0, even though T0
        // published first.
        let (session, t) = session_of(2);
        t[0].buffer.push(ev(0, 0, 1));
        t[1].buffer.push(ev(1, 0, 0));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 2);
        assert_eq!(order(&out), vec![(1, 0), (0, 0)]);
    }

    #[test]
    fn merge_chains_wakeups_through_multiple_objects() {
        // T0: o0#1, o1#1 ; T1: o1#0, o0#0 — emitting T1's events unblocks
        // T0's, one object at a time.
        let (session, t) = session_of(2);
        t[0].buffer.push(ev(0, 0, 1));
        t[0].buffer.push(ev(0, 1, 1));
        t[1].buffer.push(ev(1, 1, 0));
        t[1].buffer.push(ev(1, 0, 0));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 4);
        assert_eq!(order(&out), vec![(1, 1), (1, 0), (0, 0), (0, 1)]);
    }

    #[test]
    fn interleaving_does_not_depend_on_publication_order() {
        // Three independent threads: whichever published first, the merge
        // examines them highest id first, as a scan of every stash would.
        for publish_order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let (session, t) = session_of(3);
            for thread in publish_order {
                t[thread].buffer.push(ev(thread, thread, 0));
            }
            let mut merge = OrderedMerge::new();
            let mut out = Vec::new();
            assert_eq!(drain_all(&mut merge, &session, &mut out), 3);
            assert_eq!(order(&out), vec![(2, 2), (1, 1), (0, 0)]);
        }
    }

    #[test]
    fn unpublished_ticket_stalls_without_losing_events() {
        // Ticket 0 of object 0 was drawn by a producer that has not
        // published yet: everything behind it stalls, then resumes.
        let (session, t) = session_of(2);
        t[0].buffer.push(ev(0, 0, 1));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        assert_eq!(merge.stalled(), 1, "the event is parked, not lost");
        assert_eq!(merge.active, vec![0], "and its thread stays active");
        assert_eq!(merge.visits, vec![0]);
        // The slow producer publishes; the next drain visits its buffer
        // only, yet re-examines the stalled thread and emits both in order.
        t[1].buffer.push(ev(1, 0, 0));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 2);
        assert_eq!(merge.visits, vec![1], "thread 0 did not publish again");
        assert_eq!(order(&out), vec![(1, 0), (0, 0)]);
        assert_eq!(merge.stalled(), 0);
        assert!(merge.active.is_empty());
    }

    #[test]
    fn stalled_stash_appends_what_its_thread_publishes_next() {
        // Thread 0 stalls, publishes twice more, and only then is unblocked:
        // the non-empty stash takes the later events behind the stalled one.
        let (session, t) = session_of(2);
        t[0].buffer.push(ev(0, 0, 1));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        t[0].buffer.push(ev(0, 1, 0));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        t[0].buffer.push(ev(0, 2, 0));
        t[1].buffer.push(ev(1, 0, 0));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 4);
        assert_eq!(order(&out), vec![(1, 0), (0, 0), (0, 1), (0, 2)]);
        assert_eq!(merge.active, Vec::<usize>::new());
    }

    #[test]
    fn merge_state_survives_across_drains() {
        let (session, t) = session_of(1);
        t[0].buffer.push(ev(0, 0, 0));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 1);
        // Next ticket on the same object continues from the merged state.
        t[0].buffer.push(ev(0, 0, 1));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 1);
        assert_eq!(order(&out), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn late_threads_grow_the_merge() {
        // Thread 1 registers after the merge has cached its view of the
        // registry and publishes before the next drain: the drain takes the
        // list first and extends the view second, so the buffer is there.
        let (session, t) = session_of(1);
        t[0].buffer.push(ev(0, 0, 0));
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 1);
        assert_eq!(merge.buffers.len(), 1);
        let late = session.register_thread_handle("late");
        late.buffer.push(ev(1, 0, 1));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 1);
        assert_eq!(order(&out), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn a_drain_visits_only_the_buffers_that_published() {
        let (session, t) = session_of(2048);
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        assert!(merge.visits.is_empty(), "nothing published, none visited");
        for (object, thread) in [7, 1000, 2047].into_iter().enumerate() {
            t[thread].buffer.push(ev(thread, object, 0));
        }
        // Publishing twice between two drains lists the thread once.
        t[1000].buffer.push(ev(1000, 1, 1));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 4);
        assert_eq!(merge.visits, vec![7, 1000, 2047], "3 of 2048 buffers");
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        assert!(merge.visits.is_empty(), "an idle drain visits none");
        // The flag was cleared: the next push lists its thread again.
        t[7].buffer.push(ev(7, 0, 1));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 1);
        assert_eq!(merge.visits, vec![7]);
    }

    #[test]
    fn bounded_drains_resume_where_the_budget_stopped() {
        // Successor of the shim's `pop_batch_respects_max_and_order`: 700
        // events of one thread leave in order whatever the budget, and a
        // push between two bounded drains lands behind the leftover.
        let (session, t) = session_of(1);
        for seq in 0..700 {
            t[0].buffer.push(ev(0, 0, seq));
        }
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        assert_eq!(merge.drain(&session.ingest, &mut out, 300), 300);
        assert_eq!(merge.stalled(), 400, "the leftover waits in the stash");
        t[0].buffer.push(ev(0, 1, 0));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 401);
        assert_eq!(merge.drain(&session.ingest, &mut out, 8), 0);
        let mut expected = vec![(0, 0); 700];
        expected.push((0, 1));
        assert_eq!(order(&out), expected, "appends, keeps order");
    }

    #[test]
    fn buffer_is_fifo_across_trades() {
        // Successor of the shim's `push_pop_fifo_across_segments`: pushes
        // interleaved with takes come out in push order, and the two
        // vectors a thread circulates are reused, not reallocated.
        let (session, t) = session_of(1);
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        let mut next = 0;
        for burst in [1, 100, 3, 1000, 1, 1] {
            for _ in 0..burst {
                t[0].buffer.push(ev(0, 0, next));
                next += 1;
            }
            assert_eq!(drain_all(&mut merge, &session, &mut out), burst);
        }
        assert_eq!(out.len(), 1106);
        let buffered = t[0].buffer.events.lock();
        assert!(
            buffered.is_empty() && buffered.capacity() > 0,
            "a vector came back"
        );
    }

    #[test]
    fn concurrent_producer_and_drain_lose_nothing() {
        // Successor of the shim's `concurrent_producer_consumer_loses_nothing`,
        // now through the publish signal: one OS thread pushes 10 000 events
        // while this one spins on drain.  Tickets are the push order, so an
        // overlooked event would stall the merge for ever.
        let (session, t) = session_of(1);
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            let producer = &t[0];
            scope.spawn(move || {
                for seq in 0..10_000 {
                    producer.buffer.push(ev(0, 0, seq));
                }
            });
            while out.len() < 10_000 {
                merge.drain(&session.ingest, &mut out, 512);
            }
        });
        assert_eq!(out.len(), 10_000, "FIFO per producer, each exactly once");
        assert_eq!(merge.stalled(), 0);
    }

    #[test]
    fn drained_backlog_does_not_keep_its_capacity() {
        let (session, t) = session_of(2);
        for seq in 0..100_000 {
            t[0].buffer.push(ev(0, 0, seq));
        }
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        while merge.drain(&session.ingest, &mut out, STAMP_WINDOW) > 0 {}
        assert_eq!(out.len(), 100_000);
        let retained = |merge: &OrderedMerge| {
            t[0].buffer.events.lock().capacity() + merge.stash[0].events.capacity()
        };
        assert!(retained(&merge) <= 2 * RETAINED_EVENTS);
        // The same through a stash that was stalled when the backlog came.
        t[0].buffer.push(ev(0, 1, 1));
        assert_eq!(drain_all(&mut merge, &session, &mut out), 0);
        for seq in 100_000..200_000 {
            t[0].buffer.push(ev(0, 0, seq));
        }
        t[1].buffer.push(ev(1, 1, 0));
        out.clear();
        while merge.drain(&session.ingest, &mut out, STAMP_WINDOW) > 0 {}
        assert_eq!(out.len(), 100_002);
        assert!(retained(&merge) + merge.spare.capacity() <= 3 * RETAINED_EVENTS);
    }
}
