//! Mapping from clock components (threads / objects) to vector indices.
//!
//! A mixed vector clock is defined by *which* threads and objects carry a
//! component.  The paper obtains that set as a vertex cover of the
//! thread–object bipartite graph; this module turns such a set into a dense
//! index map the timestamping protocol can use.

use std::fmt;

use mvc_graph::{Vertex, VertexCover};
use mvc_trace::{Event, ObjectId, ThreadId};

/// One component of a mixed vector clock: either a thread or an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// The component counts operations of this thread.
    Thread(ThreadId),
    /// The component counts operations on this object.
    Object(ObjectId),
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Thread(t) => write!(f, "{t}"),
            Component::Object(o) => write!(f, "{o}"),
        }
    }
}

impl From<Vertex> for Component {
    fn from(v: Vertex) -> Self {
        match v {
            Vertex::Left(i) => Component::Thread(ThreadId(i)),
            Vertex::Right(i) => Component::Object(ObjectId(i)),
        }
    }
}

/// A dense mapping from chosen threads/objects to vector component indices.
///
/// Component indices are assigned in the order components are added (or, when
/// built from a [`VertexCover`], threads in ascending id order followed by
/// objects in ascending id order), so a given cover always produces the same
/// layout.
///
/// Thread and object ids are dense: each side is a `u32` table indexed by
/// id, so a lookup is one bounds-checked load and an id past the end of its
/// table simply has no component.  The tables grow geometrically to cover
/// the largest id added, as the engine's per-thread and per-object rows
/// grow to theirs.  Two maps are equal when they hold the same components
/// in the same order, whatever their table lengths.
#[derive(Debug, Clone, Default)]
pub struct ComponentMap {
    components: Vec<Component>,
    /// `thread_index[t]` is thread `t`'s component index, or `NONE`.
    thread_index: Vec<u32>,
    /// `object_index[o]` is object `o`'s component index, or `NONE`.
    object_index: Vec<u32>,
}

/// "No component" in a [`ComponentMap`] table.
const NONE: u32 = u32::MAX;

/// The component index `table` holds for `id`, if any.
fn lookup(table: &[u32], id: usize) -> Option<usize> {
    table
        .get(id)
        .copied()
        .filter(|&index| index != NONE)
        .map(|index| index as usize)
}

impl PartialEq for ComponentMap {
    fn eq(&self, other: &Self) -> bool {
        // The tables are a function of `components`.
        self.components == other.components
    }
}

impl Eq for ComponentMap {}

impl ComponentMap {
    /// Creates an empty component map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a component map from a vertex cover of the thread–object graph.
    ///
    /// ```
    /// use mvc_graph::{BipartiteGraph, cover::minimum_vertex_cover_of};
    /// use mvc_clock::ComponentMap;
    /// let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]);
    /// let map = ComponentMap::from_cover(&minimum_vertex_cover_of(&g).1);
    /// assert_eq!(map.len(), 1); // the single object O0 covers both edges
    /// ```
    pub fn from_cover(cover: &VertexCover) -> Self {
        let mut map = Self::new();
        map.components.reserve(cover.size());
        for v in cover.members() {
            map.push(Component::from(v));
        }
        map
    }

    /// Builds the thread-based component map for threads `0..n`: under it
    /// the mixed protocol is the traditional thread vector clock of
    /// Section II, since every event bumps its thread's component.
    pub fn all_threads(n: usize) -> Self {
        (0..n).map(|t| Component::Thread(ThreadId(t))).collect()
    }

    /// Builds the object-based component map for objects `0..m`: under it
    /// the mixed protocol is the traditional object vector clock of
    /// Section II, since every event bumps its object's component.
    pub fn all_objects(m: usize) -> Self {
        (0..m).map(|o| Component::Object(ObjectId(o))).collect()
    }

    /// Appends a component, returning its index. Adding a component that is
    /// already present returns the existing index and does not grow the map.
    ///
    /// # Panics
    ///
    /// Panics if the map already holds `u32::MAX` components.
    pub fn push(&mut self, component: Component) -> usize {
        let (table, id) = match component {
            Component::Thread(t) => (&mut self.thread_index, t.index()),
            Component::Object(o) => (&mut self.object_index, o.index()),
        };
        if let Some(index) = lookup(table, id) {
            return index;
        }
        let index = self.components.len();
        let entry = u32::try_from(index)
            .ok()
            .filter(|&entry| entry != NONE)
            .expect("clock width fits in u32");
        if id >= table.len() {
            // Geometric, so ascending ids grow a table `O(log n)` times.
            table.resize((id + 1).max(2 * table.len()), NONE);
        }
        table[id] = entry;
        self.components.push(component);
        index
    }

    /// Number of components (the size of the mixed vector clock).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` if no components have been selected.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The components in index order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The component index assigned to a thread, if the thread is a component.
    pub fn thread_component(&self, thread: ThreadId) -> Option<usize> {
        lookup(&self.thread_index, thread.index())
    }

    /// The component index assigned to an object, if the object is a component.
    pub fn object_component(&self, object: ObjectId) -> Option<usize> {
        lookup(&self.object_index, object.index())
    }

    /// Returns `true` if the thread carries a component.
    pub fn contains_thread(&self, thread: ThreadId) -> bool {
        self.thread_component(thread).is_some()
    }

    /// Returns `true` if the object carries a component.
    pub fn contains_object(&self, object: ObjectId) -> bool {
        self.object_component(object).is_some()
    }

    /// Returns `true` if the event's thread or object (or both) carries a
    /// component — the coverage requirement every event must satisfy for the
    /// mixed clock to be valid.
    pub fn covers_event(&self, event: &Event) -> bool {
        self.contains_thread(event.thread) || self.contains_object(event.object)
    }

    /// The component index the paper designates as `e.c` for an event:
    /// the event's *object* component if the object is in the clock, otherwise
    /// the event's *thread* component.
    ///
    /// When both endpoints are components the paper's pseudo-code increments
    /// the event's component `e.c = e.q`, the object's.  Incrementing both
    /// would also give a valid clock but would advance two counters per
    /// event; following the paper, every event bumps exactly one component.
    ///
    /// Returns `None` when neither endpoint is a component (the event is not
    /// covered — the resulting clock would not be valid).
    pub fn event_component(&self, event: &Event) -> Option<usize> {
        self.object_component(event.object)
            .or_else(|| self.thread_component(event.thread))
    }
}

impl FromIterator<Component> for ComponentMap {
    fn from_iter<I: IntoIterator<Item = Component>>(iter: I) -> Self {
        let mut map = ComponentMap::new();
        for c in iter {
            map.push(c);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_graph::cover::minimum_vertex_cover_of;
    use mvc_graph::BipartiteGraph;
    use mvc_trace::{EventId, OpKind};

    fn event(t: usize, o: usize) -> Event {
        Event {
            id: EventId(0),
            thread: ThreadId(t),
            object: ObjectId(o),
            kind: OpKind::Op,
            thread_seq: 0,
            object_seq: 0,
        }
    }

    #[test]
    fn empty_map() {
        let m = ComponentMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(!m.covers_event(&event(0, 0)));
        assert_eq!(m.event_component(&event(0, 0)), None);
    }

    #[test]
    fn push_deduplicates() {
        let mut m = ComponentMap::new();
        let a = m.push(Component::Thread(ThreadId(3)));
        let b = m.push(Component::Object(ObjectId(3)));
        let c = m.push(Component::Thread(ThreadId(3)));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c, 0, "re-adding an existing component returns its index");
        assert_eq!(m.len(), 2);
        assert_eq!(m.thread_component(ThreadId(3)), Some(0));
        assert_eq!(m.object_component(ObjectId(3)), Some(1));
        assert_eq!(m.thread_component(ThreadId(0)), None);
    }

    #[test]
    fn lookups_past_the_tables_are_none_and_grow_nothing() {
        let mut m = ComponentMap::new();
        m.push(Component::Thread(ThreadId(3)));
        m.push(Component::Object(ObjectId(2)));
        let tables = (m.thread_index.len(), m.object_index.len());
        assert_eq!(m.thread_component(ThreadId(usize::MAX)), None);
        assert_eq!(m.object_component(ObjectId(1 << 40)), None);
        assert!(!m.contains_thread(ThreadId(usize::MAX)));
        assert!(!m.contains_object(ObjectId(1 << 40)));
        assert!(!m.covers_event(&event(usize::MAX, 1 << 40)));
        assert_eq!(m.event_component(&event(usize::MAX, 1 << 40)), None);
        // Covered through the object only, with a thread far past its table.
        assert_eq!(m.event_component(&event(usize::MAX, 2)), Some(1));
        assert_eq!((m.thread_index.len(), m.object_index.len()), tables);
    }

    #[test]
    fn equality_is_by_components_not_table_length() {
        let m: ComponentMap = [
            Component::Object(ObjectId(1)),
            Component::Thread(ThreadId(0)),
        ]
        .into_iter()
        .collect();
        let mut padded = m.clone();
        padded.thread_index.resize(1000, NONE);
        padded.object_index.resize(70, NONE);
        assert_eq!(m, padded);
        assert_eq!(padded.thread_component(ThreadId(999)), None);
        // Same members, another order: another layout, so not equal.
        let reordered: ComponentMap = [
            Component::Thread(ThreadId(0)),
            Component::Object(ObjectId(1)),
        ]
        .into_iter()
        .collect();
        assert_ne!(m, reordered);
    }

    #[test]
    fn all_threads_layout() {
        let t = ComponentMap::all_threads(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.thread_component(ThreadId(2)), Some(2));
        assert!(!t.contains_object(ObjectId(0)));
        assert_eq!(t.event_component(&event(1, 0)), Some(1));

        let o = ComponentMap::all_objects(4);
        assert_eq!(o.len(), 4);
        assert_eq!(o.object_component(ObjectId(3)), Some(3));
        assert!(!o.contains_thread(ThreadId(0)));
        assert_eq!(o.event_component(&event(2, 1)), Some(1));
        assert!(ComponentMap::all_objects(0).is_empty());
    }

    #[test]
    fn from_cover_is_deterministic_and_ordered() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]);
        let (_, cover) = minimum_vertex_cover_of(&g);
        let map = ComponentMap::from_cover(&cover);
        assert_eq!(map.len(), cover.size());
        // The layout is reproducible: building twice gives the same map.
        assert_eq!(map, ComponentMap::from_cover(&cover));
    }

    #[test]
    fn event_component_prefers_object() {
        let mut m = ComponentMap::new();
        m.push(Component::Thread(ThreadId(0)));
        m.push(Component::Object(ObjectId(1)));
        // Event covered by both endpoints: the object component is e.c.
        assert_eq!(m.event_component(&event(0, 1)), Some(1));
        // Covered only by the thread.
        assert_eq!(m.event_component(&event(0, 5)), Some(0));
        // Covered only by the object.
        assert_eq!(m.event_component(&event(7, 1)), Some(1));
        assert!(m.covers_event(&event(7, 1)));
        assert!(!m.covers_event(&event(7, 5)));
    }

    #[test]
    fn component_display_and_conversion() {
        assert_eq!(Component::Thread(ThreadId(2)).to_string(), "T2");
        assert_eq!(Component::Object(ObjectId(0)).to_string(), "O0");
        assert_eq!(
            Component::from(Vertex::Left(4)),
            Component::Thread(ThreadId(4))
        );
        assert_eq!(
            Component::from(Vertex::Right(9)),
            Component::Object(ObjectId(9))
        );
    }

    #[test]
    fn from_iterator_collects() {
        let m: ComponentMap = [
            Component::Thread(ThreadId(1)),
            Component::Object(ObjectId(2)),
            Component::Thread(ThreadId(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.components(),
            &[
                Component::Thread(ThreadId(1)),
                Component::Object(ObjectId(2))
            ]
        );
    }
}
