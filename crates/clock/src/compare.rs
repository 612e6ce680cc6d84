//! Vector timestamps and their partial order.
//!
//! A [`VectorTimestamp`] is a value: it may hold the plain vector or a
//! packed row it shares with its thread until that row's next write (see
//! [`chunked`]), and no operation tells the two apart.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::chunked::{self, ChunkView, Packed, StampPatch, CHUNK};

/// Outcome of comparing two vector timestamps under the component-wise
/// partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockOrd {
    /// The left timestamp is strictly less than the right (`s.v < t.v`).
    Before,
    /// The left timestamp is strictly greater than the right.
    After,
    /// The timestamps are equal in every component.
    Equal,
    /// The timestamps are incomparable: the events are concurrent.
    Concurrent,
}

impl ClockOrd {
    /// Returns `true` for [`ClockOrd::Before`].
    pub fn is_before(self) -> bool {
        self == ClockOrd::Before
    }

    /// Returns `true` for [`ClockOrd::Concurrent`].
    pub fn is_concurrent(self) -> bool {
        self == ClockOrd::Concurrent
    }
}

impl fmt::Display for ClockOrd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClockOrd::Before => "before",
            ClockOrd::After => "after",
            ClockOrd::Equal => "equal",
            ClockOrd::Concurrent => "concurrent",
        };
        f.write_str(s)
    }
}

/// A vector timestamp: a fixed-length vector of event counters.
///
/// The *meaning* of each component (which thread, object or chain it counts)
/// is determined by the clock that produced the timestamp; two timestamps
/// may only be compared when they were produced by the same clock over the
/// same computation.
///
/// A timestamp is stored under the one rule of [`chunked`]:
/// its nonzero 64-entry chunks plus a mask — or, when every chunk is nonzero
/// (and always for one built from explicit components), the plain vector.
/// A packed timestamp shares its storage with its clones and, until the
/// row's next write, with the thread row it was stamped from.
/// Which of the two a timestamp holds is not observable: equality, hashing,
/// formatting and the order are by *value*.  Only [`as_slice`](Self::as_slice)
/// (and what goes through it: `Hash`, `Display`, `Debug`) pays `O(width)` on
/// a packed timestamp; everything else walks masks.
#[derive(Clone, Default)]
pub struct VectorTimestamp(Repr);

/// 24 bytes on the pinned toolchain (the `Arc` fits `Vec`'s capacity niche):
/// a recorder holds one of these per event, and a wider one costs the narrow
/// workloads throughput and memory (docs/WIDE_CLOCKS.md has the measurement).
/// Cloning a packed one shares its row and its materialised form.
#[derive(Clone)]
enum Repr {
    Dense(Vec<u64>),
    Packed(Arc<Packed>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Dense(Vec::new())
    }
}

/// The four-way outcome over `(a, b)` pairs of equally long slices that
/// together cover every entry nonzero on either side.
pub(crate) fn order<'a>(pairs: impl Iterator<Item = (&'a [u64], &'a [u64])>) -> ClockOrd {
    let mut less = false;
    let mut greater = false;
    for (a, b) in pairs {
        for (a, b) in a.iter().zip(b) {
            match a.cmp(b) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
    }
    match (less, greater) {
        (false, false) => ClockOrd::Equal,
        (true, false) => ClockOrd::Before,
        (false, true) => ClockOrd::After,
        (true, true) => ClockOrd::Concurrent,
    }
}

impl VectorTimestamp {
    /// Creates the zero timestamp with `len` components.
    pub fn zeros(len: usize) -> Self {
        Self::from_components(vec![0; len])
    }

    /// Creates a timestamp from explicit component values.
    pub fn from_components(components: Vec<u64>) -> Self {
        Self(Repr::Dense(components))
    }

    /// A timestamp sharing `version`.  (The engine packs a row only while
    /// some chunk of it is zero; nothing here relies on that.)
    pub(crate) fn shared(version: Arc<Packed>) -> Self {
        Self(Repr::Packed(version))
    }

    fn chunks(&self) -> ChunkView<'_> {
        match &self.0 {
            Repr::Dense(v) => ChunkView::dense(v),
            Repr::Packed(p) => p.row.view(),
        }
    }

    /// Turns a packed timestamp into its dense form (taking over a
    /// materialised one nothing else shares) and returns the vector either
    /// way.
    fn dense_mut(&mut self) -> &mut Vec<u64> {
        if let Repr::Packed(p) = &mut self.0 {
            let dense = Arc::get_mut(p)
                .and_then(|own| own.dense.take())
                .unwrap_or_else(|| p.row.to_dense(p.len));
            self.0 = Repr::Dense(dense);
        }
        match &mut self.0 {
            Repr::Dense(v) => v,
            Repr::Packed(_) => unreachable!("densified above"),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Dense(v) => v.len(),
            Repr::Packed(p) => p.len,
        }
    }

    /// Returns `true` if the timestamp has no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `u64` words this timestamp stores: its components, or — packed — its
    /// nonzero chunks plus their mask.
    pub fn stored_words(&self) -> usize {
        match &self.0 {
            Repr::Dense(v) => v.len(),
            Repr::Packed(p) => p.row.stored_words(),
        }
    }

    /// The components as a slice.
    ///
    /// On a packed timestamp the first call materialises the dense vector
    /// (`O(width)`) and every later call serves it, to this timestamp and to
    /// every clone of it: they hold both forms from then on.  While the
    /// timestamp still shares its thread's row, the dense form lives until
    /// that row's next write even if the timestamp is dropped first — at
    /// most one per thread row.  [`as_slice_in`](Self::as_slice_in) reads
    /// the components without keeping anything.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Dense(v) => v,
            Repr::Packed(p) => p.dense.get_or_init(|| p.row.to_dense(p.len)),
        }
    }

    /// The components as a slice, materialising nothing: a dense timestamp
    /// lends its own vector; a packed one is scattered into `scratch`,
    /// cleared and resized to [`len`](Self::len) — a zero-fill and a walk
    /// over the stored chunks, with no allocation once `scratch` is that
    /// long — and nothing is cached in the timestamp.
    pub fn as_slice_in<'a>(&'a self, scratch: &'a mut Vec<u64>) -> &'a [u64] {
        match &self.0 {
            Repr::Dense(v) => v,
            Repr::Packed(p) => {
                scratch.clear();
                scratch.resize(p.len, 0);
                self.chunks().scatter(scratch);
                scratch
            }
        }
    }

    /// The value of component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn component(&self, i: usize) -> u64 {
        self[i]
    }

    /// Increments component `i` by one.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn increment(&mut self, i: usize) {
        self.dense_mut()[i] += 1;
    }

    /// Sets this timestamp to the component-wise maximum of itself and
    /// `other` (the `max(p.v, q.v)` step of every vector clock protocol).
    ///
    /// # Panics
    ///
    /// Panics if the two timestamps have different lengths.
    pub fn merge_max(&mut self, other: &VectorTimestamp) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge timestamps of different widths"
        );
        let dst = self.dense_mut();
        for (chunk, src) in other.chunks().stored() {
            for (a, b) in dst[chunk * CHUNK..].iter_mut().zip(src) {
                *a = (*a).max(*b);
            }
        }
    }

    /// Compares two timestamps under the component-wise partial order.
    ///
    /// # Panics
    ///
    /// Panics if the two timestamps have different lengths.
    pub fn compare(&self, other: &VectorTimestamp) -> ClockOrd {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compare timestamps of different widths"
        );
        match (&self.0, &other.0) {
            (Repr::Dense(a), Repr::Dense(b)) => order(std::iter::once((&a[..], &b[..]))),
            _ => order(chunked::union(self.chunks(), other.chunks())),
        }
    }

    /// Returns `true` iff `self < other` in the strict component-wise order
    /// (the vector clock condition's right-hand side).
    pub fn strictly_less_than(&self, other: &VectorTimestamp) -> bool {
        self.compare(other) == ClockOrd::Before
    }

    /// Sum of all components — a cheap upper bound on the number of events
    /// this timestamp is aware of; used only for diagnostics.
    pub fn magnitude(&self) -> u64 {
        self.chunks()
            .stored()
            .flat_map(|(_, entries)| entries)
            .sum()
    }

    /// The chunk-by-chunk view of `self` against `base` that a differential
    /// encoder walks: one `(chunk, mine, base's)` triple per 64-entry chunk
    /// that either timestamp stores, in chunk order; chunks stored by neither
    /// are zero on both sides and are skipped.  A slice starts at component
    /// `64 * chunk` and an entry past its end is zero (a chunk its side does
    /// not store reads as 64 zeros; the last chunk of a plain vector stops at
    /// the width).  `O(stored chunks)`: a packed timestamp is not
    /// materialised.  [`patch`](Self::patch) is the inverse.
    pub fn chunk_pairs<'a>(
        &'a self,
        base: &'a VectorTimestamp,
    ) -> impl Iterator<Item = (usize, &'a [u64], &'a [u64])> + 'a {
        chunked::indexed_union(self.chunks(), base.chunks())
    }

    /// Starts a timestamp of `len` components that equals `self`, padded
    /// with zeros, except in the chunks the caller then edits — see
    /// [`StampPatch`].
    ///
    /// # Panics
    ///
    /// Panics if `len` is smaller than the current length — truncation
    /// would silently discard counters.
    pub fn patch(&self, len: usize) -> StampPatch<'_> {
        assert!(
            len >= self.len(),
            "cannot patch a width-{} timestamp down to {len} components",
            self.len()
        );
        StampPatch::new(self.chunks(), len)
    }

    /// Returns a copy padded with zeros to `width` components.
    ///
    /// A timestamp taken while a growing clock was still narrow misses the
    /// components added later; those counters were zero at the time, so
    /// zero-padding makes the timestamp directly comparable with wider ones
    /// from the same run.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the current length — truncation
    /// would silently discard counters.
    pub fn padded_to(&self, width: usize) -> VectorTimestamp {
        self.clone().into_padded_to(width)
    }

    /// The by-value form of [`padded_to`](Self::padded_to): pads in place,
    /// so a timestamp already at `width` — the common case when replaying
    /// with a fixed component map — passes through without cloning, and a
    /// packed one only widens its mask (`O(mask words)`, no chunk is stored
    /// for zeros) — after copying its stored chunks if it shares them.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the current length — truncation
    /// would silently discard counters.
    pub fn into_padded_to(mut self, width: usize) -> VectorTimestamp {
        assert!(
            width >= self.len(),
            "cannot pad a width-{} timestamp down to {width} components",
            self.len()
        );
        match &mut self.0 {
            Repr::Dense(v) => v.resize(width, 0),
            Repr::Packed(p) if p.len < width => {
                let own = Arc::make_mut(p);
                own.len = width;
                own.row.ensure_width(width);
                own.dense.take();
            }
            Repr::Packed(_) => {}
        }
        self
    }
}

impl PartialEq for VectorTimestamp {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && match (&self.0, &other.0) {
                (Repr::Dense(a), Repr::Dense(b)) => a == b,
                _ => chunked::union(self.chunks(), other.chunks()).all(|(a, b)| a == b),
            }
    }
}

impl Eq for VectorTimestamp {}

impl Hash for VectorTimestamp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Index<usize> for VectorTimestamp {
    type Output = u64;

    fn index(&self, index: usize) -> &Self::Output {
        match &self.0 {
            Repr::Dense(v) => &v[index],
            Repr::Packed(p) => {
                assert!(
                    index < p.len,
                    "index out of bounds: the len is {} but the index is {index}",
                    p.len
                );
                p.row.entry(index)
            }
        }
    }
}

impl From<Vec<u64>> for VectorTimestamp {
    fn from(components: Vec<u64>) -> Self {
        Self::from_components(components)
    }
}

impl fmt::Debug for VectorTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorTimestamp")
            .field("components", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for VectorTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::ChunkedRow;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    /// `dense` the way the engine emits a row that is not full.
    fn packed(dense: &[u64]) -> VectorTimestamp {
        let row = ChunkedRow::from_dense(dense);
        VectorTimestamp::shared(Arc::new(Packed::new(dense.len(), row)))
    }

    fn materialised(stamp: &VectorTimestamp) -> bool {
        matches!(&stamp.0, Repr::Packed(p) if p.dense.get().is_some())
    }

    fn shares(a: &VectorTimestamp, b: &VectorTimestamp) -> bool {
        matches!((&a.0, &b.0), (Repr::Packed(x), Repr::Packed(y)) if Arc::ptr_eq(x, y))
    }

    fn hash_of(stamp: &VectorTimestamp) -> u64 {
        let mut hasher = DefaultHasher::new();
        stamp.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn zeros_and_accessors() {
        let t = VectorTimestamp::zeros(3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.as_slice(), &[0, 0, 0]);
        assert_eq!(t.component(1), 0);
        assert_eq!(t[2], 0);
        assert_eq!(t.magnitude(), 0);
        assert!(VectorTimestamp::zeros(0).is_empty());
    }

    #[test]
    fn increment_and_merge() {
        let mut a = VectorTimestamp::zeros(3);
        a.increment(0);
        a.increment(0);
        a.increment(2);
        let b = VectorTimestamp::from_components(vec![1, 5, 0]);
        a.merge_max(&b);
        assert_eq!(a.as_slice(), &[2, 5, 1]);
        assert_eq!(a.magnitude(), 8);
    }

    #[test]
    fn comparison_outcomes() {
        let a = VectorTimestamp::from(vec![1, 2, 3]);
        let b = VectorTimestamp::from(vec![2, 2, 4]);
        let c = VectorTimestamp::from(vec![0, 9, 0]);
        assert_eq!(a.compare(&b), ClockOrd::Before);
        assert_eq!(b.compare(&a), ClockOrd::After);
        assert_eq!(a.compare(&a.clone()), ClockOrd::Equal);
        assert_eq!(a.compare(&c), ClockOrd::Concurrent);
        assert!(a.strictly_less_than(&b));
        assert!(!a.strictly_less_than(&a.clone()));
        assert!(ClockOrd::Before.is_before());
        assert!(ClockOrd::Concurrent.is_concurrent());
        assert!(!ClockOrd::Equal.is_before());
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn comparing_different_widths_panics() {
        let a = VectorTimestamp::zeros(2);
        let b = VectorTimestamp::zeros(3);
        let _ = a.compare(&b);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merging_different_widths_panics() {
        let mut a = VectorTimestamp::zeros(2);
        a.merge_max(&VectorTimestamp::zeros(1));
    }

    #[test]
    fn padded_to_extends_with_zeros() {
        let t = VectorTimestamp::from(vec![3, 1]);
        assert_eq!(t.padded_to(4).as_slice(), &[3, 1, 0, 0]);
        assert_eq!(t.padded_to(2), t, "padding to the current width is a copy");
        // Padding preserves comparability: the padded old stamp still sits
        // below a wider successor.
        let wide = VectorTimestamp::from(vec![3, 2, 1, 0]);
        assert!(t.padded_to(4).strictly_less_than(&wide));
    }

    #[test]
    #[should_panic(expected = "cannot pad")]
    fn padded_to_rejects_truncation() {
        let _ = VectorTimestamp::from(vec![1, 2, 3]).padded_to(2);
    }

    #[test]
    fn into_padded_to_matches_padded_to() {
        let t = VectorTimestamp::from(vec![3, 1]);
        assert_eq!(t.clone().into_padded_to(4), t.padded_to(4));
        assert_eq!(t.clone().into_padded_to(2), t, "same width passes through");
    }

    #[test]
    #[should_panic(expected = "cannot pad")]
    fn into_padded_to_rejects_truncation() {
        let _ = VectorTimestamp::from(vec![1, 2, 3]).into_padded_to(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VectorTimestamp::from(vec![1, 0, 2]).to_string(), "[1,0,2]");
        assert_eq!(VectorTimestamp::zeros(0).to_string(), "[]");
        assert_eq!(ClockOrd::Concurrent.to_string(), "concurrent");
        assert_eq!(ClockOrd::Before.to_string(), "before");
    }

    #[test]
    fn a_timestamp_is_three_words() {
        // docs/WIDE_CLOCKS.md: an 80-byte stamp cost `live-narrow` 15 % of
        // its events/s and 28 MiB; the recorder holds one per event.
        assert_eq!(std::mem::size_of::<VectorTimestamp>(), 24);
    }

    #[test]
    fn a_packed_stamp_materialises_once_and_its_clones_share_it() {
        let mut dense = vec![0u64; 4096];
        dense[2100] = 7;
        let stamp = packed(&dense);
        assert_eq!(stamp.stored_words(), CHUNK + 1, "one chunk, one mask word");
        let early = stamp.clone();
        assert!(shares(&stamp, &early), "a clone shares the packed form");
        assert_eq!(early, stamp);
        let other = packed(&dense);
        assert_eq!(other, stamp);
        assert!(
            !materialised(&stamp) && !materialised(&other),
            "== reads masks"
        );
        let first = stamp.as_slice().as_ptr();
        assert_eq!(stamp.as_slice().as_ptr(), first, "served from the cache");
        assert_eq!(stamp.as_slice(), &dense[..]);
        let late = stamp.clone();
        for clone in [&early, &late] {
            assert!(shares(clone, &stamp) && materialised(clone));
            assert_eq!(clone.as_slice().as_ptr(), first, "one dense form per value");
        }
        assert_eq!(other, stamp);
        assert!(!materialised(&other), "== still reads masks");

        let plain = VectorTimestamp::from(dense);
        assert_eq!(plain.stored_words(), 4096);
        let slice = plain.as_slice().as_ptr();
        assert!(matches!(&plain.0, Repr::Dense(own) if own.as_ptr() == slice));
    }

    #[test]
    fn padding_a_packed_stamp_stores_nothing_for_the_zeros() {
        let stamp = packed(&[0, 3]).into_padded_to(1 << 20);
        assert_eq!(stamp.len(), 1 << 20);
        assert_eq!(stamp.stored_words(), CHUNK + (1 << 20) / (CHUNK * 64));
        assert_eq!(stamp[1], 3);
        assert_eq!(stamp[(1 << 20) - 1], 0);
        assert!(!materialised(&stamp));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn comparing_packed_stamps_of_different_widths_panics() {
        let _ = packed(&[0; 70]).compare(&packed(&[0; 71]));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merging_a_packed_stamp_of_another_width_panics() {
        VectorTimestamp::zeros(70).merge_max(&packed(&[0; 130]));
    }

    #[test]
    #[should_panic(expected = "cannot pad")]
    fn padding_a_packed_stamp_down_panics() {
        let _ = packed(&[0; 130]).padded_to(70);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn indexing_a_packed_stamp_beyond_its_width_panics() {
        // Index 70 lies inside the stored tail chunk, but not inside the stamp.
        let _ = packed(&[1; 70])[70];
    }

    /// `stamp` rebuilt from `base` and the chunks in which the two differ,
    /// the way a differential codec does it.
    fn rebuilt(stamp: &VectorTimestamp, base: &VectorTimestamp) -> VectorTimestamp {
        let at = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        let mut patch = base.patch(stamp.len());
        let mut bounds = vec![patch.min_words()];
        for (chunk, new, old) in stamp.chunk_pairs(base) {
            if (0..CHUNK).all(|i| at(new, i) == at(old, i)) {
                continue;
            }
            let entries = patch.chunk_mut(chunk).expect("ascending and in range");
            assert!(CHUNK * chunk + entries.len() <= stamp.len());
            for (i, entry) in entries.iter_mut().enumerate() {
                *entry = at(new, i);
            }
            bounds.push(patch.min_words());
        }
        assert!(patch.chunk_mut(stamp.len().div_ceil(CHUNK)).is_none());
        let built = patch.finish();
        assert!(bounds.iter().all(|&b| b <= built.stored_words()));
        built
    }

    /// What the storage rule says a vector stores.
    fn canonical_words(dense: &[u64]) -> usize {
        let nonzero = dense
            .chunks(CHUNK)
            .filter(|c| c.iter().any(|&v| v != 0))
            .count();
        if nonzero == dense.len().div_ceil(CHUNK) {
            dense.len()
        } else {
            CHUNK * nonzero + dense.len().div_ceil(CHUNK).div_ceil(64)
        }
    }

    #[test]
    fn a_one_chunk_stamp_at_width_4096_is_patched_without_a_dense_vector() {
        let mut dense = vec![0u64; 4096];
        dense[2100] = 7;
        let base = packed(&dense);
        dense[2101] = 1;
        let stamp = packed(&dense);
        let pairs: Vec<_> = stamp.chunk_pairs(&base).map(|(c, ..)| c).collect();
        assert_eq!(pairs, [2100 / CHUNK], "one stored chunk, one pair");
        let built = rebuilt(&stamp, &base);
        assert_eq!(built, stamp);
        assert_eq!(built.stored_words(), CHUNK + 1);
        assert!(!materialised(&base) && !materialised(&stamp) && !materialised(&built));
        // From the zero vector, and a chunk that goes back to zero.
        let zero = VectorTimestamp::default();
        assert_eq!(rebuilt(&stamp, &zero).stored_words(), CHUNK + 1);
        let emptied = rebuilt(&packed(&[0; 4096]), &stamp);
        assert_eq!(emptied.stored_words(), 1, "the mask alone");
        assert_eq!(emptied, VectorTimestamp::zeros(4096));
    }

    #[test]
    fn a_patch_hands_out_chunks_in_ascending_order_only() {
        let base = VectorTimestamp::from(vec![1; 200]);
        let mut patch = base.patch(260);
        assert_eq!(patch.chunk_mut(1).map(|e| e.len()), Some(CHUNK));
        assert!(patch.chunk_mut(1).is_none(), "visited");
        assert!(patch.chunk_mut(0).is_none(), "behind");
        assert_eq!(patch.chunk_mut(4).map(|e| e.len()), Some(4), "the tail");
        assert!(patch.chunk_mut(5).is_none(), "beyond the width");
        let built = patch.finish();
        let mut expect = vec![1; 200];
        expect.resize(260, 0);
        assert_eq!(built.as_slice(), &expect[..]);
    }

    #[test]
    #[should_panic(expected = "cannot patch")]
    fn patching_down_panics() {
        let _ = VectorTimestamp::zeros(70).patch(64);
    }

    /// Zeroes the chunks of `values` that `live` does not keep, so that the
    /// packed form has something to skip.
    fn sparse(mut values: Vec<u64>, live: &[bool]) -> Vec<u64> {
        for (chunk, keep) in values.chunks_mut(CHUNK).zip(live) {
            if !keep {
                chunk.fill(0);
            }
        }
        values
    }

    proptest! {
        /// Every operation answers the same on the packed and on the dense
        /// form of a vector, and the ones that walk masks leave the packed
        /// form unmaterialised.
        #[test]
        fn prop_packed_and_dense_forms_are_one_value(
            len in 0usize..300,
            a in proptest::collection::vec(0u64..4, 300),
            b in proptest::collection::vec(0u64..4, 300),
            live_a in proptest::collection::vec(0u8..2, 5),
            live_b in proptest::collection::vec(0u8..2, 5),
            at in 0usize..300,
            extra in 0usize..200,
        ) {
            let keep = |live: &[u8]| live.iter().map(|&l| l == 1).collect::<Vec<_>>();
            let a = sparse(a[..len].to_vec(), &keep(&live_a));
            let b = sparse(b[..len].to_vec(), &keep(&live_b));
            let (da, db) = (VectorTimestamp::from(a.clone()), VectorTimestamp::from(b.clone()));
            let (pa, pb) = (packed(&a), packed(&b));

            prop_assert_eq!(pa.len(), len);
            prop_assert_eq!(pa.is_empty(), da.is_empty());
            prop_assert_eq!(pa.magnitude(), da.magnitude());
            for i in 0..len {
                prop_assert_eq!(pa.component(i), a[i]);
                prop_assert_eq!(pa[i], da[i]);
            }
            prop_assert!(pa == da);
            prop_assert!(da == pa);
            prop_assert_eq!(pa == pb, a == b);
            prop_assert_eq!(pa == db, a == b);
            for (x, y) in [(&pa, &pb), (&pa, &db), (&da, &pb)] {
                prop_assert_eq!(x.compare(y), da.compare(&db));
                prop_assert_eq!(x.strictly_less_than(y), da.strictly_less_than(&db));
                let (mut merged, mut expect) = (x.clone(), da.clone());
                merged.merge_max(y);
                expect.merge_max(&db);
                prop_assert_eq!(&merged, &expect);
                prop_assert_eq!(merged.as_slice(), expect.as_slice());
            }
            let width = len + extra;
            prop_assert_eq!(&pa.padded_to(width), &da.padded_to(width));
            let padded = pa.clone().into_padded_to(width);
            prop_assert_eq!(&padded, &da.clone().into_padded_to(width));
            // Padding adds mask words, never chunks.
            let mask_words = |w: usize| w.div_ceil(CHUNK).div_ceil(64);
            prop_assert_eq!(
                padded.stored_words() - mask_words(width),
                pa.stored_words() - mask_words(len)
            );
            prop_assert!(!materialised(&pa) && !materialised(&pb) && !materialised(&padded));

            // The difference walk and its inverse, in every mix of forms,
            // onto a base that is narrower or as wide.
            let cut = at % (len + 1);
            let (short_d, short_p) = (VectorTimestamp::from(b[..cut].to_vec()), packed(&b[..cut]));
            for base in [&db, &pb, &short_d, &short_p, &VectorTimestamp::default()] {
                for stamp in [&da, &pa] {
                    let built = rebuilt(stamp, base);
                    prop_assert_eq!(&built, &da);
                    prop_assert_eq!(built.stored_words(), canonical_words(&a));
                    prop_assert!(!materialised(&built));
                }
            }
            prop_assert!(!materialised(&pa) && !materialised(&pb) && !materialised(&short_p));

            if len > 0 {
                let (mut bumped, mut expect) = (pa.clone(), da.clone());
                bumped.increment(at % len);
                expect.increment(at % len);
                prop_assert_eq!(&bumped, &expect);
            }
            prop_assert_eq!(pa.to_string(), da.to_string());
            prop_assert_eq!(format!("{pa:?}"), format!("{da:?}"));
            prop_assert_eq!(hash_of(&pa), hash_of(&da));
            prop_assert_eq!(pa.as_slice(), &a[..]);
        }
    }
}
