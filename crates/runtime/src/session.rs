//! Trace sessions and thread registration.
//!
//! A [`TraceSession`] owns the identifier spaces (threads and objects get
//! dense ids in registration order) and the ingest side of the event
//! pipeline.  Each registered thread owns an ingest buffer and each
//! [`SharedObject`] draws a per-object sequence ticket *while still holding
//! its lock* (see [`crate::ingest`]), so the per-thread buffers plus the
//! ticket stream carry exactly the two orders the paper's model requires —
//! per-thread program order and per-object serialization order — without a
//! global queue for events to contend on.  All producers share is the
//! session's `published` list, which a thread joins once per drain it has
//! something for; the drain side visits the buffers it names and reassembles
//! a faithful interleaving with an order-preserving merge.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::Arc;

use parking_lot::Mutex;

use mvc_core::stamp_loop::STAMP_WINDOW;
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId};

use crate::ingest::{IngestShared, OrderedMerge, ThreadBuffer};
use crate::object::SharedObject;

/// One recorded operation, as emitted by the order-preserving merge — the
/// `(thread, object, kind)` column layout [`Computation::record_ops`] and
/// [`EventSink::accept_columns`](mvc_core::EventSink::accept_columns)
/// consume directly.
pub(crate) type RawEvent = (ThreadId, ObjectId, OpKind);

/// A handle identifying a registered application thread.
///
/// Handles are cheap to clone and can be moved into spawned threads; every
/// traced operation takes a handle so the trace knows which logical thread
/// performed it.  The handle owns the thread's ingest buffer — operations
/// recorded through it never contend with other threads.
#[derive(Debug, Clone)]
pub struct ThreadHandle {
    id: ThreadId,
    name: Arc<str>,
    pub(crate) buffer: Arc<ThreadBuffer>,
}

impl ThreadHandle {
    /// The thread's dense identifier.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The name given at registration.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Shared interior of a session, referenced by every [`SharedObject`].
///
/// Ids are assigned *under* the registry lock (id = current length), so a
/// thread's dense id, its name slot and its buffer slot are allocated
/// atomically — concurrent registrations can never mis-associate them.
#[derive(Debug)]
pub(crate) struct SessionInner {
    /// Every registered thread's ingest buffer and the list of threads that
    /// published since the last drain: what the drain side merges from.
    pub(crate) ingest: IngestShared,
    names: Mutex<SessionNames>,
}

#[derive(Debug, Default)]
struct SessionNames {
    threads: Vec<String>,
    objects: Vec<String>,
}

impl SessionInner {
    pub(crate) fn new() -> Self {
        SessionInner {
            ingest: IngestShared::default(),
            names: Mutex::new(SessionNames::default()),
        }
    }

    pub(crate) fn register_thread_handle(&self, name: &str) -> ThreadHandle {
        let mut names = self.names.lock();
        let id = ThreadId(names.threads.len());
        names.threads.push(name.to_owned());
        // Register the buffer while still holding the names lock, so the
        // registry's slot `i` really is thread `i`'s buffer: the drain
        // finds a listed thread's buffer by its id.  Lock order: `names`,
        // then the ingest registry's `buffers`; nothing takes `names` while
        // holding `buffers`.
        let buffer = self.ingest.register_buffer();
        drop(names);
        ThreadHandle {
            id,
            name: Arc::from(name),
            buffer,
        }
    }

    pub(crate) fn register_object(&self, name: &str) -> ObjectId {
        let mut names = self.names.lock();
        let id = ObjectId(names.objects.len());
        names.objects.push(name.to_owned());
        id
    }

    pub(crate) fn thread_count(&self) -> usize {
        self.names.lock().threads.len()
    }

    pub(crate) fn object_count(&self) -> usize {
        self.names.lock().objects.len()
    }
}

/// A tracing session: the factory for shared objects and thread handles, and
/// the collector of the resulting computation.
#[derive(Debug)]
pub struct TraceSession {
    pub(crate) inner: Arc<SessionInner>,
}

impl Default for TraceSession {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(SessionInner::new()),
        }
    }

    /// Registers an application thread and returns its handle.
    pub fn register_thread(&self, name: &str) -> ThreadHandle {
        self.inner.register_thread_handle(name)
    }

    /// Creates a traced shared object holding `value`.
    pub fn shared_object<T>(&self, name: &str, value: T) -> SharedObject<T> {
        let id = self.inner.register_object(name);
        SharedObject::new(id, name, value)
    }

    /// Number of threads registered so far.
    pub fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }

    /// Number of objects created so far.
    pub fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    /// Drains every recorded operation into a [`Computation`].
    ///
    /// The per-thread buffers are merged into a faithful interleaving (see
    /// [`crate::ingest`]) and appended in bulk.  Call this after all worker
    /// threads have been joined; operations still being performed
    /// concurrently with the drain may or may not be included.
    pub fn into_computation(self) -> Computation {
        let TraceSession { inner } = self;
        let mut computation = Computation::new();
        let mut merge = OrderedMerge::new();
        let mut batch = Vec::new();
        // Bounded batches: each one is appended while still cache-warm
        // from the merge.
        while merge.drain(&inner.ingest, &mut batch, STAMP_WINDOW) > 0 {
            computation.record_ops(batch.drain(..));
        }
        computation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn registration_assigns_dense_ids_and_names() {
        let session = TraceSession::new();
        let a = session.register_thread("a");
        let b = session.register_thread("b");
        assert_eq!(a.id(), ThreadId(0));
        assert_eq!(b.id(), ThreadId(1));
        assert_eq!(a.name(), "a");
        assert_eq!(session.inner.names.lock().threads, ["a", "b"]);
        assert_eq!(session.thread_count(), 2);

        let o = session.shared_object("obj", 1i32);
        assert_eq!(o.id(), ObjectId(0));
        assert_eq!(session.inner.names.lock().objects, ["obj"]);
        assert_eq!(session.object_count(), 1);
    }

    #[test]
    fn concurrent_registration_keeps_ids_names_and_buffers_associated() {
        // Ids are assigned under the registry lock: however registrations
        // interleave, every handle's id must map back to its own name.
        let session = TraceSession::new();
        let handles: Vec<ThreadHandle> = thread::scope(|scope| {
            let spawned: Vec<_> = (0..8)
                .map(|i| {
                    let session = &session;
                    scope.spawn(move || session.register_thread(&format!("w{i}")))
                })
                .collect();
            spawned.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert_eq!(session.thread_count(), 8);
        let names = session.inner.names.lock();
        for (i, handle) in handles.iter().enumerate() {
            assert_eq!(
                names.threads[handle.id().index()],
                format!("w{i}"),
                "handle {i} mis-associated"
            );
        }
        let mut ids: Vec<usize> = handles.iter().map(|h| h.id().index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>(), "ids are dense");
    }

    #[test]
    fn empty_session_yields_empty_computation() {
        let session = TraceSession::new();
        session.register_thread("unused");
        let _unused = session.shared_object("unused", ());
        let c = session.into_computation();
        assert!(c.is_empty());
    }

    #[test]
    fn single_thread_trace_is_recorded_in_order() {
        let session = TraceSession::new();
        let t = session.register_thread("main");
        let x = session.shared_object("x", 0u32);
        let y = session.shared_object("y", 0u32);
        x.write(&t, |v| *v = 1);
        y.write(&t, |v| *v = 2);
        x.read(&t, |v| *v);
        let c = session.into_computation();
        assert_eq!(c.len(), 3);
        let events: Vec<_> = c.events().collect();
        assert_eq!(events[0].object, ObjectId(0));
        assert_eq!(events[1].object, ObjectId(1));
        assert_eq!(events[2].object, ObjectId(0));
        assert_eq!(events[0].kind, OpKind::Write);
        assert_eq!(events[2].kind, OpKind::Read);
        assert_eq!(c.thread_chain(ThreadId(0)).len(), 3);
    }

    #[test]
    fn multithreaded_trace_preserves_object_serialization() {
        let session = TraceSession::new();
        let counter = session.shared_object("counter", 0u64);
        let mut joins = Vec::new();
        for i in 0..4 {
            let handle = session.register_thread(&format!("worker-{i}"));
            let counter = counter.clone();
            joins.push(thread::spawn(move || {
                for _ in 0..50 {
                    counter.write(&handle, |v| *v += 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let final_value = {
            let probe = session.register_thread("probe");
            counter.read(&probe, |v| *v)
        };
        assert_eq!(final_value, 200);
        let c = session.into_computation();
        // 200 writes + 1 read, all on one object.
        assert_eq!(c.len(), 201);
        assert_eq!(c.object_chain(ObjectId(0)).len(), 201);
        // Each worker contributed exactly 50 events in its own chain.
        for t in 0..4 {
            assert_eq!(c.thread_chain(ThreadId(t)).len(), 50);
        }
    }
}
