//! The [`Event`] record.
//!
//! An event is "some specific thread doing some operation on a specific
//! object" (Section III-A).  The paper only cares about *which* thread and
//! *which* object; we additionally record an operation kind (read / write /
//! acquire / release / generic) because the runtime crate and the examples use
//! it for race reporting, and two sequence numbers that locate the event in
//! its thread chain and its object chain.

use std::fmt;

use crate::ids::{EventId, ObjectId, ThreadId};

/// The kind of operation an event performed on its object.
///
/// The causality algorithms never branch on this — the happened-before
/// relation only depends on the thread/object chains — but downstream
/// consumers (race observer, examples) use it to classify conflicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read of the object's state.
    Read,
    /// A write to the object's state.
    Write,
    /// Acquisition of the object (e.g. a lock or a message receive).
    Acquire,
    /// Release of the object (e.g. a lock or a message send).
    Release,
    /// An unclassified operation (the paper's generic "operation").
    #[default]
    Op,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Acquire => "acquire",
            OpKind::Release => "release",
            OpKind::Op => "op",
        };
        f.write_str(s)
    }
}

impl OpKind {
    /// Returns `true` if two operations of these kinds on the same object
    /// conflict (at least one of them is a mutation).
    pub fn conflicts_with(self, other: OpKind) -> bool {
        let mutates = |k: OpKind| !matches!(k, OpKind::Read);
        mutates(self) || mutates(other)
    }
}

/// A single event of a computation: thread `thread` performed an operation of
/// kind `kind` on object `object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Global identifier (position in the computation's append order).
    pub id: EventId,
    /// The thread that performed the operation (`e.thread` in the paper).
    pub thread: ThreadId,
    /// The object the operation was performed on (`e.object` in the paper).
    pub object: ObjectId,
    /// Operation kind (not used by the clock algorithms).
    pub kind: OpKind,
    /// Zero-based position of this event within its thread's chain.
    pub thread_seq: usize,
    /// Zero-based position of this event within its object's chain.
    pub object_seq: usize,
}

impl Event {
    /// Returns `(thread index, object index)` — the edge this event
    /// contributes to the thread–object bipartite graph.
    pub fn edge(&self) -> (usize, usize) {
        (self.thread.index(), self.object.index())
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{},{}]({})",
            self.id, self.thread, self.object, self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            id: EventId(3),
            thread: ThreadId(1),
            object: ObjectId(2),
            kind: OpKind::Write,
            thread_seq: 0,
            object_seq: 1,
        }
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(sample().to_string(), "e3[T1,O2](write)");
    }

    #[test]
    fn edge_projection() {
        assert_eq!(sample().edge(), (1, 2));
    }

    #[test]
    fn conflict_matrix() {
        assert!(!OpKind::Read.conflicts_with(OpKind::Read));
        assert!(OpKind::Read.conflicts_with(OpKind::Write));
        assert!(OpKind::Write.conflicts_with(OpKind::Read));
        assert!(OpKind::Write.conflicts_with(OpKind::Write));
        assert!(OpKind::Op.conflicts_with(OpKind::Read));
        assert!(OpKind::Acquire.conflicts_with(OpKind::Release));
    }

    #[test]
    fn default_kind_is_generic_op() {
        assert_eq!(OpKind::default(), OpKind::Op);
        assert_eq!(OpKind::default().to_string(), "op");
    }
}
