//! Traced shared objects.
//!
//! A [`SharedObject<T>`] is a value protected by a `parking_lot` mutex.  All
//! accesses go through [`read`](SharedObject::read) /
//! [`write`](SharedObject::write) (or the lower-level
//! [`apply`](SharedObject::apply)), which run a closure under the lock and
//! record the operation.  Because the object's serialization ticket is drawn
//! and the event is published to the thread's ingest buffer *before the lock
//! is released*, the ticket stream is the true serialization order — the
//! assumption the paper's system model makes about objects — and the
//! drain-side merge can replay it (see [`crate::ingest`]).  Publishing is one
//! uncontended lock on the thread's own buffer plus, for the first event
//! since the drain last visited it, a push onto the session's `published`
//! list.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mvc_trace::{ObjectId, OpKind};

use crate::ingest::SequencedEvent;
use crate::session::ThreadHandle;

/// A shared, lock-protected, traced object.
///
/// Cloning the handle shares the same underlying object (and the same
/// object id in the trace).
#[derive(Debug)]
pub struct SharedObject<T> {
    id: ObjectId,
    name: Arc<str>,
    value: Arc<Mutex<T>>,
    /// The object's serialization ticket counter, bumped while the lock is
    /// held (the lock provides the ordering; the atomic only makes the
    /// counter shareable across handle clones).
    seq: Arc<AtomicU64>,
}

impl<T> Clone for SharedObject<T> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            name: Arc::clone(&self.name),
            value: Arc::clone(&self.value),
            seq: Arc::clone(&self.seq),
        }
    }
}

impl<T> SharedObject<T> {
    pub(crate) fn new(id: ObjectId, name: &str, value: T) -> Self {
        Self {
            id,
            name: Arc::from(name),
            value: Arc::new(Mutex::new(value)),
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The object's identifier in the trace.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The name the object was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `f` on the value under the lock, recording an operation of the
    /// given kind on behalf of `thread`.
    pub fn apply<R>(&self, thread: &ThreadHandle, kind: OpKind, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.value.lock();
        let result = f(&mut guard);
        // Draw the serialization ticket and publish to the thread's own
        // buffer (all of `push`: append, flag, list) while the lock is held,
        // so the ticket stream matches the object's serialization order and
        // the merge never sees a drawn-but-unpublished ticket from a
        // released lock.
        let object_seq = self.seq.fetch_add(1, Ordering::Relaxed);
        thread.buffer.push(SequencedEvent {
            thread: thread.id(),
            object: self.id,
            kind,
            object_seq,
        });
        result
    }

    /// Reads the value (recorded as a [`OpKind::Read`]).
    pub fn read<R>(&self, thread: &ThreadHandle, f: impl FnOnce(&T) -> R) -> R {
        self.apply(thread, OpKind::Read, |v| f(v))
    }

    /// Mutates the value (recorded as a [`OpKind::Write`]).
    pub fn write<R>(&self, thread: &ThreadHandle, f: impl FnOnce(&mut T) -> R) -> R {
        self.apply(thread, OpKind::Write, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;
    use mvc_trace::ThreadId;
    use std::thread;

    #[test]
    fn read_and_write_return_closure_results() {
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let obj = session.shared_object("list", Vec::<u32>::new());
        obj.write(&t, |v| v.push(7));
        obj.write(&t, |v| v.push(9));
        let sum: u32 = obj.read(&t, |v| v.iter().sum());
        assert_eq!(sum, 16);
        assert_eq!(obj.name(), "list");
        let c = session.into_computation();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn apply_records_custom_kinds() {
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let obj = session.shared_object("lock", ());
        obj.apply(&t, OpKind::Acquire, |_| ());
        obj.apply(&t, OpKind::Release, |_| ());
        let c = session.into_computation();
        let kinds: Vec<_> = c.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![OpKind::Acquire, OpKind::Release]);
    }

    #[test]
    fn clones_share_state_and_identity() {
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let a = session.shared_object("x", 0u64);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        a.write(&t, |v| *v += 5);
        assert_eq!(b.read(&t, |v| *v), 5);
    }

    #[test]
    fn concurrent_increments_are_all_applied_and_traced() {
        let session = TraceSession::new();
        let obj = session.shared_object("acc", 0usize);
        let mut joins = Vec::new();
        for i in 0..8 {
            let h = session.register_thread(&format!("w{i}"));
            let obj = obj.clone();
            joins.push(thread::spawn(move || {
                for _ in 0..25 {
                    obj.write(&h, |v| *v += 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = session.register_thread("check");
        assert_eq!(obj.read(&h, |v| *v), 200);
        let c = session.into_computation();
        assert_eq!(c.len(), 201);
        // All eight workers appear in the trace.
        assert_eq!(c.thread_count(), 9);
        assert_eq!(c.thread_chain(ThreadId(0)).len(), 25);
    }
}
