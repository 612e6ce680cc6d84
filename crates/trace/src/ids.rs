//! Strongly typed identifiers for threads, objects and events.
//!
//! Newtypes keep the three index spaces from being mixed up (a thread index
//! passed where an object index is expected is a compile error, not a silent
//! off-by-one in an experiment).

use std::fmt;

/// Identifier of a thread (a left vertex of the thread–object graph).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

/// Identifier of a shared object (a right vertex of the thread–object graph).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub usize);

/// Identifier of an event: its position in the computation's global append
/// order (which is *one* linear extension of happened-before, not the
/// relation itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub usize);

impl ThreadId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl ObjectId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl EventId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(i: usize) -> Self {
        ThreadId(i)
    }
}

impl From<usize> for ObjectId {
    fn from(i: usize) -> Self {
        ObjectId(i)
    }
}

impl From<usize> for EventId {
    fn from(i: usize) -> Self {
        EventId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ThreadId(2).to_string(), "T2");
        assert_eq!(ObjectId(0).to_string(), "O0");
        assert_eq!(EventId(17).to_string(), "e17");
    }

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(ThreadId::from(3).index(), 3);
        assert_eq!(ObjectId::from(4).index(), 4);
        assert_eq!(EventId::from(5).index(), 5);
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(ThreadId(1) < ThreadId(2));
        assert!(EventId(0) < EventId(10));
    }
}
