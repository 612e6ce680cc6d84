//! Packed chunks: the one storage rule for rows and stamps, and the protocol
//! step over them.
//!
//! The paper makes timestamps *small* (a minimum vertex cover instead of one
//! entry per thread plus one per object), but a dense `Vec<u64>` still pays
//! O(width) per event even when almost every entry is zero — which is
//! exactly the wide-clock regime (thousands of components, a handful touched
//! per event) the Singhal–Kshemkalyani observation in the paper's Section VI
//! predicts.  A row therefore stores only the [`CHUNK`]-entry chunks that
//! hold a nonzero entry, packed in chunk order, plus one mask bit per chunk,
//! all in one buffer: a row that has touched one chunk of a width-4096 clock
//! stores 64 words and one mask word, not 4096.  The protocol's `max`-merge,
//! increment and comparison visit stored chunks only.
//!
//! After the write-back step (`p.v = q.v = e.v`) the event's stamp *is* its
//! thread's new row, so a stamp *shares* that row until the row's next
//! write ([`ClockRows::step`] hands out the row itself, reference-counted).
//! The next step of the thread writes the row in place when no stamp holds
//! it any more and copies it first when one does: a stamp nobody keeps costs
//! two reference-count operations, a kept one the copy it always cost.  When
//! every chunk is stored the packed chunks *are* the dense vector, so narrow
//! and fully occupied clocks emit a plain `Vec<u64>` — the same rule, not a
//! second format — and a row that has only ever been full is never shared,
//! so narrow clocks pay no reference count.  See `docs/WIDE_CLOCKS.md` for
//! the contract [`VectorTimestamp`] keeps on top of it.
//!
//! Invariant maintained by every method: a mask bit is set ⇔ the chunk is
//! stored ⇔ the chunk has a nonzero entry, so occupancy numbers are exact,
//! derived equality is value equality, and a row's buffer is [`CHUNK`]
//! times the number of set bits plus the mask words.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::{Arc, OnceLock};

use mvc_trace::{ObjectId, ThreadId};

use crate::compare::VectorTimestamp;

/// Entries per chunk.  64 keeps a chunk one cache-line pair (512 bytes of
/// `u64`s) and makes the bitmap arithmetic plain shifts.
pub const CHUNK: usize = 64;

/// What every chunk that is not stored reads as.
static ZEROS: [u64; CHUNK] = [0; CHUNK];

/// One mixed-vector row (a thread's or an object's clock) as packed chunks.
///
/// The row covers `chunks` chunks.  `words` is the stored chunks, [`CHUNK`]
/// entries each in chunk order, followed by `chunks.div_ceil(64)` mask
/// words; bit `c % 64` of mask word `c / 64` is set iff chunk `c` contains a
/// nonzero entry.  The mask goes last so that widening the row appends to
/// the buffer and a full row's entries start at word 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ChunkedRow {
    chunks: usize,
    words: Vec<u64>,
}

/// Number of chunks needed to hold `width` entries.
#[inline]
fn chunks_for(width: usize) -> usize {
    width.div_ceil(CHUNK)
}

/// What a walker sees of a vector, packed or dense: its stored chunks and
/// which ones they are.  `mask: None` is a dense vector — every chunk
/// stored, the last one possibly short.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkView<'a> {
    mask: Option<&'a [u64]>,
    values: &'a [u64],
}

impl<'a> ChunkView<'a> {
    /// The view of a dense vector.
    pub(crate) fn dense(values: &'a [u64]) -> Self {
        Self { mask: None, values }
    }

    /// `(chunk index, entries)` of every stored chunk, in chunk order.
    pub(crate) fn stored(self) -> Stored<'a> {
        Stored {
            mask: self.mask,
            values: self.values.chunks(CHUNK),
            chunk: 0,
        }
    }

    /// Copies the stored chunks into `out`, which reads as zero elsewhere;
    /// entries past `out`'s end are dropped.
    pub(crate) fn scatter(self, out: &mut [u64]) {
        for (chunk, src) in self.stored() {
            if let Some(dst) = out.get_mut(chunk * CHUNK..) {
                let n = dst.len().min(src.len());
                dst[..n].copy_from_slice(&src[..n]);
            }
        }
    }
}

/// Iterator behind [`ChunkView::stored`].
#[derive(Debug)]
pub(crate) struct Stored<'a> {
    mask: Option<&'a [u64]>,
    values: std::slice::Chunks<'a, u64>,
    /// The next chunk index to consider.
    chunk: usize,
}

impl<'a> Iterator for Stored<'a> {
    type Item = (usize, &'a [u64]);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(mask) = self.mask {
            // Skip to the next set bit at or after `self.chunk`.
            loop {
                let rest = mask.get(self.chunk / 64)? >> (self.chunk % 64);
                if rest != 0 {
                    self.chunk += rest.trailing_zeros() as usize;
                    break;
                }
                self.chunk = (self.chunk / 64 + 1) * 64;
            }
        }
        let entries = self.values.next()?;
        self.chunk += 1;
        Some((self.chunk - 1, entries))
    }
}

/// The two-cursor union walk: one `(chunk, a, b)` triple per chunk stored on
/// either side, in chunk order.  Each slice is what its side stores of the
/// chunk — 64 zeros when it stores nothing, fewer than 64 entries for the last
/// chunk of a dense vector — so an entry past a slice's end is zero.
pub(crate) fn indexed_union<'a>(
    a: ChunkView<'a>,
    b: ChunkView<'a>,
) -> impl Iterator<Item = (usize, &'a [u64], &'a [u64])> {
    let (mut a, mut b) = (a.stored().peekable(), b.stored().peekable());
    std::iter::from_fn(move || {
        let chunk = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(&(i, _)), None) | (None, Some(&(i, _))) => i,
            (Some(&(i, _)), Some(&(j, _))) => i.min(j),
        };
        let x = a.next_if(|&(i, _)| i == chunk).map_or(&ZEROS[..], |c| c.1);
        let y = b.next_if(|&(j, _)| j == chunk).map_or(&ZEROS[..], |c| c.1);
        Some((chunk, x, y))
    })
}

/// [`indexed_union`] for walkers that compare entry by entry: `(a, b)` pairs
/// of equally long slices.  (A short dense tail chunk truncates its partner:
/// entries beyond a vector's width are zero.)
pub(crate) fn union<'a>(
    a: ChunkView<'a>,
    b: ChunkView<'a>,
) -> impl Iterator<Item = (&'a [u64], &'a [u64])> {
    indexed_union(a, b).map(|(_, x, y)| {
        let n = x.len().min(y.len());
        (&x[..n], &y[..n])
    })
}

impl ChunkedRow {
    /// Creates an empty (zero-width) row.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A row of `chunks` chunks from its packed chunks and its mask.
    fn from_parts(chunks: usize, mut values: Vec<u64>, mask: &[u64]) -> Self {
        debug_assert_eq!(mask.len(), chunks.div_ceil(64));
        values.extend_from_slice(mask);
        ChunkedRow {
            chunks,
            words: values,
        }
    }

    /// Grows the row (with zeros) so it covers at least `width` entries:
    /// `O(mask words)`, no chunk is stored for it.  Never shrinks: the
    /// clock only grows.
    pub(crate) fn ensure_width(&mut self, width: usize) {
        let chunks = chunks_for(width);
        if chunks > self.chunks {
            let grown = chunks.div_ceil(64) - self.mask_words();
            self.chunks = chunks;
            self.words.resize(self.words.len() + grown, 0);
        }
    }

    /// Entries the row currently covers (a multiple of [`CHUNK`]; entries
    /// beyond the logical clock width are zero).
    fn padded_width(&self) -> usize {
        self.chunks * CHUNK
    }

    /// Number of chunks the row currently covers.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// Number of chunks containing at least one nonzero entry — the chunks
    /// the row stores.
    pub(crate) fn nonzero_chunks(&self) -> usize {
        self.values().len() / CHUNK
    }

    /// Fraction of chunks that are nonzero (0.0 for an empty row): the
    /// per-row sparsity number the wide-clock bench reports.
    pub(crate) fn occupancy(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.nonzero_chunks() as f64 / self.chunks as f64
        }
    }

    /// `u64` words the row stores: its packed chunks plus its mask.
    pub(crate) fn stored_words(&self) -> usize {
        self.words.len()
    }

    fn mask_words(&self) -> usize {
        self.chunks.div_ceil(64)
    }

    /// Where the mask starts in `words`.
    fn mask_at(&self) -> usize {
        self.words.len() - self.mask_words()
    }

    fn values(&self) -> &[u64] {
        &self.words[..self.mask_at()]
    }

    fn mask(&self) -> &[u64] {
        &self.words[self.mask_at()..]
    }

    pub(crate) fn view(&self) -> ChunkView<'_> {
        let (values, mask) = self.words.split_at(self.mask_at());
        ChunkView {
            mask: Some(mask),
            values,
        }
    }

    #[inline]
    fn has(&self, chunk: usize) -> bool {
        let word = self.mask().get(chunk / 64).copied().unwrap_or(0);
        (word >> (chunk % 64)) & 1 != 0
    }

    /// Offset in `words` at which a covered chunk is (or would be) stored.
    #[inline]
    fn offset(&self, chunk: usize) -> usize {
        let mask = self.mask();
        let below = mask[chunk / 64] & ((1u64 << (chunk % 64)) - 1);
        let before: u32 = mask[..chunk / 64].iter().map(|w| w.count_ones()).sum();
        (before + below.count_ones()) as usize * CHUNK
    }

    /// Entry `k` by reference (a shared zero when its chunk is not stored).
    pub(crate) fn entry(&self, k: usize) -> &u64 {
        if self.has(k / CHUNK) {
            &self.words[self.offset(k / CHUNK) + k % CHUNK]
        } else {
            &ZEROS[0]
        }
    }

    /// Increments entry `k`, growing the row if needed.  A chunk that was
    /// all-zero is inserted at its rank: one bounded `memmove`, at most
    /// once per chunk in the row's life.
    pub(crate) fn increment(&mut self, k: usize) {
        self.ensure_width(k + 1);
        let chunk = k / CHUNK;
        let at = self.offset(chunk);
        if !self.has(chunk) {
            self.words.splice(at..at, ZEROS);
            let word = self.mask_at() + chunk / 64;
            self.words[word] |= 1u64 << (chunk % 64);
        }
        self.words[at + k % CHUNK] += 1;
    }

    /// Elementwise `max` of `other` into `self`.  In place when both rows
    /// store the same chunks (the steady state — the object was last written
    /// from a row like this one — and always at full occupancy); otherwise
    /// the stored chunks are rebuilt by one union walk.
    pub(crate) fn merge_max(&mut self, other: &ChunkedRow) {
        self.ensure_width(other.padded_width());
        let at = self.mask_at();
        if self.words[at..] == *other.mask() {
            // The same chunks at the same offsets.
            for (d, &s) in self.words[..at].iter_mut().zip(other.values()) {
                *d = (*d).max(s);
            }
            return;
        }
        let theirs = other.mask().iter().chain(std::iter::repeat(&0));
        let mask = self.mask().iter().zip(theirs).map(|(s, o)| s | o);
        let stored: u32 = mask.clone().map(u64::count_ones).sum();
        let mut words = Vec::with_capacity(stored as usize * CHUNK + self.mask_words());
        for (a, b) in union(self.view(), other.view()) {
            words.extend(a.iter().zip(b).map(|(a, b)| *a.max(b)));
        }
        words.extend(mask);
        self.words = words;
    }

    /// Makes `self` identical to `src`, reusing `self`'s buffer.
    fn copy_from(&mut self, src: &ChunkedRow) {
        self.chunks = src.chunks;
        self.words.clone_from(&src.words);
    }

    /// The row as a dense vector truncated/padded to exactly `width`
    /// entries: zero-fill, then scatter the stored chunks.
    pub(crate) fn to_dense(&self, width: usize) -> Vec<u64> {
        let mut out = vec![0u64; width];
        self.view().scatter(&mut out);
        out
    }

    /// Whether every chunk is stored: the packed chunks are then the dense
    /// vector.
    fn is_full(&self) -> bool {
        self.nonzero_chunks() == self.chunks
    }
}

/// A version of a thread's row as stamps share it: the row, the width it
/// was stamped at, and its dense form once a stamp asked for one.  The
/// thread's [`ThreadRow`] and every stamp of this version hold the same
/// `Arc`.
#[derive(Debug)]
pub(crate) struct Packed {
    /// Components of the stamps of this version; the row covers exactly
    /// `len` entries.
    pub(crate) len: usize,
    pub(crate) row: ChunkedRow,
    /// The dense form, materialised by the first `as_slice()` of a stamp of
    /// this version and dropped by the row's next write.
    pub(crate) dense: OnceLock<Vec<u64>>,
}

impl Packed {
    pub(crate) fn new(len: usize, row: ChunkedRow) -> Self {
        Packed {
            len,
            row,
            dense: OnceLock::new(),
        }
    }
}

impl Clone for Packed {
    /// Copies the packed form only: a copy is made to be written, and the
    /// dense form would be stale after the write.
    fn clone(&self) -> Self {
        Packed::new(self.len, self.row.clone())
    }
}

/// A thread's row: owned until its first step that leaves a chunk of it
/// zero, shared with its stamps from then on.  A full row's stamps are plain
/// copies, so sharing it would buy nothing, and the uniqueness check of a
/// shared row (an atomic read-modify-write per step) measured ≈ 20 ns/event
/// of `live-narrow`'s `core.stamp` (docs/WIDE_CLOCKS.md).
#[derive(Debug, Clone)]
enum ThreadRow {
    Own(ChunkedRow),
    Shared(Arc<Packed>),
}

impl PartialEq for ThreadRow {
    /// By value, whichever way the row is held.
    fn eq(&self, other: &Self) -> bool {
        self.row() == other.row()
    }
}

impl Eq for ThreadRow {}

impl ThreadRow {
    fn row(&self) -> &ChunkedRow {
        match self {
            ThreadRow::Own(row) => row,
            ThreadRow::Shared(version) => &version.row,
        }
    }

    /// The row to write for a stamp of `width` components: in place when no
    /// stamp holds it any more; otherwise a copy without the dense form
    /// (`Packed::clone`), and the stamps keep theirs.
    fn row_mut(&mut self, width: usize) -> &mut ChunkedRow {
        match self {
            ThreadRow::Own(row) => row,
            ThreadRow::Shared(version) => {
                let version = Arc::make_mut(version);
                version.dense.take();
                version.len = width;
                &mut version.row
            }
        }
    }

    /// The row as the version its stamp of `width` components shares.
    fn share(&mut self, width: usize) -> Arc<Packed> {
        let version = match std::mem::replace(self, ThreadRow::Own(ChunkedRow::new())) {
            ThreadRow::Own(row) => Arc::new(Packed::new(width, row)),
            ThreadRow::Shared(version) => version,
        };
        *self = ThreadRow::Shared(Arc::clone(&version));
        version
    }
}

/// The protocol's state over packed rows: one row per thread and one per
/// object, indexed by id and grown on first touch, and the write-back step
/// that turns an event into its stamp.
///
/// A thread's row is shared with the stamps that [`step`](Self::step) emits
/// for it (see the module docs); an object's row is never shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClockRows {
    threads: Vec<ThreadRow>,
    objects: Vec<ChunkedRow>,
}

impl ClockRows {
    /// Creates empty tables (every row reads as zeros).
    pub fn new() -> Self {
        Self::default()
    }

    /// One write-back protocol step (the paper's Section III-C update):
    /// merge the object's row into the thread's, increment the event's
    /// `component`, copy the result back to the object, and return the
    /// event's stamp of `width` components — the thread's row itself, or,
    /// when every chunk of it is stored, the plain vector.  All of it is
    /// proportional to the rows' nonzero chunks; nothing is `O(width)`.
    ///
    /// `width` must not be below any width an earlier step was given, and
    /// `component` must lie below it.
    pub fn step(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
        component: usize,
        width: usize,
    ) -> VectorTimestamp {
        let (t, o) = (thread.index(), object.index());
        if t >= self.threads.len() {
            self.threads
                .resize_with(t + 1, || ThreadRow::Own(ChunkedRow::new()));
        }
        if o >= self.objects.len() {
            self.objects.resize_with(o + 1, ChunkedRow::new);
        }
        let slot = &mut self.threads[t];
        let row = slot.row_mut(width);
        let object = &mut self.objects[o];
        row.ensure_width(width);
        row.merge_max(object);
        row.increment(component);
        object.copy_from(row);
        debug_assert_eq!(row.chunk_count(), chunks_for(width), "a width went down");
        if row.is_full() {
            VectorTimestamp::from_components(row.values()[..width].to_vec())
        } else {
            VectorTimestamp::shared(slot.share(width))
        }
    }

    /// Drops a thread's row, keeping its slot: an empty entry of fixed size
    /// that reads as zeros, so thread ids stay dense and are never reused.
    /// For a thread that will take no further step — stamps already
    /// emitted keep the row they share.
    pub fn release_thread(&mut self, thread: ThreadId) {
        if let Some(slot) = self.threads.get_mut(thread.index()) {
            *slot = ThreadRow::Own(ChunkedRow::new());
        }
    }

    /// The current clock of a thread as a plain vector, padded to `width`
    /// (not below the widths stepped so far).  A copy, so nothing done with
    /// it reaches the row.
    pub fn thread_clock(&self, thread: ThreadId, width: usize) -> VectorTimestamp {
        padded(self.threads.get(thread.index()).map(ThreadRow::row), width)
    }

    /// The current clock of an object as a plain vector, padded to `width`
    /// (not below the widths stepped so far).
    pub fn object_clock(&self, object: ObjectId, width: usize) -> VectorTimestamp {
        padded(self.objects.get(object.index()), width)
    }

    /// Mean fraction of nonzero 64-entry chunks across every touched row —
    /// the measured sparsity of the clock.  `None` until the first row is
    /// touched (a mean over zero rows).
    pub fn occupancy(&self) -> Option<f64> {
        let threads = self.threads.iter().map(ThreadRow::row);
        let (mut sum, mut n) = (0.0, 0usize);
        for row in threads.chain(&self.objects) {
            if row.chunk_count() > 0 {
                sum += row.occupancy();
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

fn padded(row: Option<&ChunkedRow>, width: usize) -> VectorTimestamp {
    match row {
        Some(row) => VectorTimestamp::from_components(row.to_dense(width)),
        None => VectorTimestamp::zeros(width),
    }
}

/// A timestamp being built from a base and the chunks in which it differs —
/// the inverse of [`VectorTimestamp::chunk_pairs`], and what a differential
/// decoder drives (see [`VectorTimestamp::patch`]).
///
/// Chunks are visited in ascending order: [`chunk_mut`](Self::chunk_mut)
/// copies the base's chunks below the one asked for and hands that one out for
/// editing; [`finish`](Self::finish) copies the rest.  The result obeys the
/// storage rule whatever the base's form was — all-zero chunks are dropped, a
/// timestamp with every chunk stored is the plain vector — and costs
/// `O(stored chunks)`, never `O(width)`.
#[derive(Debug)]
pub struct StampPatch<'a> {
    base: std::iter::Peekable<Stored<'a>>,
    len: usize,
    /// Mask of the chunks kept so far.  Stays empty (and unallocated) while
    /// those are exactly chunks `0..values.len() / CHUNK`, which is all a
    /// timestamp that ends up dense ever sees (allocating it up front cost
    /// the width-64 frame decoder 17 ns of 98 per stamp).
    mask: Vec<u64>,
    /// The kept chunks; a packed result appends its mask to this buffer.
    values: Vec<u64>,
    /// The chunk whose entries are the tail of `values`, not yet known to be
    /// nonzero.
    open: Option<usize>,
    /// The lowest chunk not visited yet.
    next: usize,
}

impl<'a> StampPatch<'a> {
    /// Starts from `base` padded to `len` components (`len` is not below the
    /// base's width).
    pub(crate) fn new(base: ChunkView<'a>, len: usize) -> Self {
        StampPatch {
            values: Vec::with_capacity(base.values.len().div_ceil(CHUNK) * CHUNK),
            base: base.stored().peekable(),
            len,
            mask: Vec::new(),
            open: None,
            next: 0,
        }
    }

    /// Mask words a packed timestamp of this width stores.
    fn mask_words(&self) -> usize {
        chunks_for(self.len).div_ceil(64)
    }

    /// Appends one chunk to `values` and leaves it open.
    fn push(&mut self, chunk: usize, entries: &[u64]) {
        if self.values.capacity() - self.values.len() < CHUNK {
            self.values.reserve_exact(CHUNK);
        }
        self.values.extend_from_slice(entries);
        self.values.extend_from_slice(&ZEROS[entries.len()..]);
        self.open = Some(chunk);
    }

    /// Allocates the mask, with the bits of the `stored` leading chunks set.
    fn start_mask(&mut self, stored: usize) {
        self.mask = vec![0; self.mask_words()];
        self.mask[..stored / 64].fill(u64::MAX);
        if !stored.is_multiple_of(64) {
            self.mask[stored / 64] = (1u64 << (stored % 64)) - 1;
        }
    }

    /// Settles the open chunk: dropped when all zero, kept otherwise.
    fn seal(&mut self) {
        let Some(chunk) = self.open.take() else {
            return;
        };
        let at = self.values.len() - CHUNK;
        if self.values[at..].iter().all(|&v| v == 0) {
            self.values.truncate(at);
            return;
        }
        if self.mask.is_empty() {
            if chunk == at / CHUNK {
                return;
            }
            self.start_mask(at / CHUNK);
        }
        self.mask[chunk / 64] |= 1u64 << (chunk % 64);
    }

    /// The components of chunk `chunk` — the base's, zeros where it has none
    /// — to be edited in place; the slice stops at the timestamp's width.
    /// `None` when `chunk` lies beyond the width or at or below a chunk
    /// already visited.
    pub fn chunk_mut(&mut self, chunk: usize) -> Option<&mut [u64]> {
        if chunk < self.next || chunk >= chunks_for(self.len) {
            return None;
        }
        self.seal();
        while let Some((below, entries)) = self.base.next_if(|&(i, _)| i < chunk) {
            self.push(below, entries);
            self.seal();
        }
        let entries = self
            .base
            .next_if(|&(i, _)| i == chunk)
            .map_or(&[][..], |c| c.1);
        self.push(chunk, entries);
        self.next = chunk + 1;
        let at = self.values.len() - CHUNK;
        let within = (self.len - chunk * CHUNK).min(CHUNK);
        Some(&mut self.values[at..at + within])
    }

    /// A lower bound on [`VectorTimestamp::stored_words`] of the finished
    /// timestamp, within two chunks of what is held right now: a decoder
    /// checks it against its budget before it asks for the next chunk, so
    /// hostile input cannot make it allocate far beyond that budget.
    pub fn min_words(&self) -> usize {
        self.mask_words()
            .max(self.values.len().saturating_sub(2 * CHUNK))
    }

    /// Copies the base's remaining chunks and returns the timestamp.
    pub fn finish(mut self) -> VectorTimestamp {
        self.seal();
        while let Some((chunk, entries)) = self.base.next() {
            self.push(chunk, entries);
            self.seal();
        }
        let chunks = chunks_for(self.len);
        if self.mask.is_empty() && self.values.len() == chunks * CHUNK {
            self.values.truncate(self.len);
            self.values.shrink_to_fit();
            return VectorTimestamp::from_components(self.values);
        }
        if self.mask.is_empty() {
            self.start_mask(self.values.len() / CHUNK);
        }
        let row = ChunkedRow::from_parts(chunks, self.values, &self.mask);
        VectorTimestamp::shared(Arc::new(Packed::new(self.len, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{self, ClockOrd};
    use proptest::prelude::*;

    /// What only the tests ask of a row.
    impl ChunkedRow {
        /// Creates an all-zero row covering at least `width` entries.
        fn with_width(width: usize) -> Self {
            let mut row = Self::default();
            row.ensure_width(width);
            row
        }

        /// Builds a row from a dense slice.
        pub(crate) fn from_dense(dense: &[u64]) -> Self {
            let chunks = chunks_for(dense.len());
            let mut mask = vec![0; chunks.div_ceil(64)];
            let mut values = Vec::new();
            for (chunk, window) in dense.chunks(CHUNK).enumerate() {
                if window.iter().any(|&v| v != 0) {
                    values.extend_from_slice(window);
                    values.extend_from_slice(&ZEROS[window.len()..]);
                    mask[chunk / 64] |= 1u64 << (chunk % 64);
                }
            }
            Self::from_parts(chunks, values, &mask)
        }

        /// Entry `k` (zero beyond the padded width).
        fn get(&self, k: usize) -> u64 {
            *self.entry(k)
        }

        /// `self < other` in the vector-clock order: every entry `<=` and at
        /// least one `<`.  Chunks stored on neither side are skipped.
        fn strictly_less_than(&self, other: &ChunkedRow) -> bool {
            compare::order(union(self.view(), other.view())) == ClockOrd::Before
        }
    }

    fn dense_strictly_less(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().max(b.len());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        (0..n).all(|i| at(a, i) <= at(b, i)) && (0..n).any(|i| at(a, i) < at(b, i))
    }

    /// The strict invariant: bit set ⇔ chunk stored ⇔ chunk has a nonzero
    /// entry, and no storage beyond that.
    fn assert_mask_exact(row: &ChunkedRow) {
        assert_eq!(row.mask().len(), row.chunks.div_ceil(64));
        let set: Vec<usize> = (0..row.mask().len() * 64).filter(|&c| row.has(c)).collect();
        assert!(set.iter().all(|&c| c < row.chunks), "bit beyond the row");
        assert_eq!(row.values().len(), CHUNK * set.len(), "one chunk per bit");
        for (stored, chunk) in row.values().chunks(CHUNK).zip(&set) {
            assert!(stored.iter().any(|&v| v != 0), "chunk {chunk} is all zero");
        }
    }

    #[test]
    fn roundtrip_and_padding() {
        let dense = vec![0, 3, 0, 0, 1];
        let row = ChunkedRow::from_dense(&dense);
        assert_eq!(row.padded_width(), CHUNK);
        assert_eq!(row.to_dense(5), dense);
        assert_eq!(row.to_dense(3), vec![0, 3, 0], "truncation");
        assert_eq!(row.to_dense(70)[5..], vec![0u64; 65][..], "zero padding");
        assert_mask_exact(&row);
    }

    #[test]
    fn empty_row_is_all_zero_chunks() {
        let row = ChunkedRow::with_width(200);
        assert_eq!(row.chunk_count(), 4);
        assert_eq!(row.nonzero_chunks(), 0);
        assert_eq!(row.occupancy(), 0.0);
        assert_eq!(ChunkedRow::new().occupancy(), 0.0);
        assert_eq!(row.get(199), 0);
        assert_eq!(row.get(10_000), 0, "reads beyond the padding are zero");
    }

    #[test]
    fn increment_grows_and_sets_exactly_one_chunk() {
        let mut row = ChunkedRow::new();
        row.increment(130);
        assert_eq!(row.get(130), 1);
        assert_eq!(row.chunk_count(), 3);
        assert_eq!(row.nonzero_chunks(), 1);
        assert!((row.occupancy() - 1.0 / 3.0).abs() < 1e-12);
        assert_mask_exact(&row);
    }

    #[test]
    fn merge_skips_zero_chunks_but_matches_dense_max() {
        let mut a = ChunkedRow::from_dense(&[1, 0, 0, 7]);
        let mut wide = vec![0u64; 300];
        wide[290] = 5;
        wide[2] = 9;
        let b = ChunkedRow::from_dense(&wide);
        a.merge_max(&b);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(2), 9);
        assert_eq!(a.get(3), 7);
        assert_eq!(a.get(290), 5);
        assert_eq!(a.nonzero_chunks(), 2, "chunk 0 and chunk 4 only");
        assert_mask_exact(&a);
    }

    #[test]
    fn merge_is_in_place_when_both_rows_store_the_same_chunks() {
        let mut dense = vec![0u64; 320];
        (dense[3], dense[130], dense[300]) = (1, 2, 3);
        let mut a = ChunkedRow::from_dense(&dense);
        let mut b = a.clone();
        b.increment(131);
        b.increment(300);
        let buffer = a.words.as_ptr();
        a.merge_max(&b);
        assert_eq!(a.words.as_ptr(), buffer);
        assert_eq!(a, b);
        // Different chunk sets, either way round: rebuilt, in chunk order.
        let mut c = ChunkedRow::with_width(320);
        c.increment(200);
        a.merge_max(&c);
        c.merge_max(&b);
        assert_eq!(a, c);
        assert_eq!((a.get(3), a.get(131), a.get(200), a.get(300)), (1, 1, 1, 4));
        assert_eq!(a.values().len(), 4 * CHUNK);
        assert_mask_exact(&a);
    }

    #[test]
    fn strict_order_matches_dense_semantics() {
        let zero = ChunkedRow::with_width(64);
        let one = ChunkedRow::from_dense(&[0, 1]);
        assert!(zero.strictly_less_than(&one));
        assert!(!one.strictly_less_than(&zero));
        assert!(!one.strictly_less_than(&one), "irreflexive");
        // Incomparable: nonzero in disjoint chunks.
        let mut far = vec![0u64; 200];
        far[190] = 1;
        let far = ChunkedRow::from_dense(&far);
        assert!(!one.strictly_less_than(&far) || !far.strictly_less_than(&one));
        assert!(one.strictly_less_than(&{
            let mut m = one.clone();
            m.merge_max(&far);
            m
        }));
    }

    #[test]
    fn step_matches_the_dense_protocol_by_hand() {
        // Same arithmetic as slicing's single-shard test: three events over
        // a width-2 clock.
        let mut rows = ClockRows::new();
        let (t, o) = (ThreadId, ObjectId);
        assert_eq!(rows.step(t(0), o(0), 0, 2).as_slice(), [1, 0]);
        assert_eq!(rows.step(t(1), o(0), 0, 2).as_slice(), [2, 0]);
        assert_eq!(rows.step(t(0), o(1), 1, 2).as_slice(), [1, 1]);
        let thread = rows.threads[0].row();
        assert_eq!(thread.to_dense(2), vec![1, 1], "write-back reached the row");
        assert_eq!(rows.objects[0].to_dense(2), vec![2, 0]);
        for row in rows.threads.iter().map(ThreadRow::row).chain(&rows.objects) {
            assert_mask_exact(row);
        }
    }

    #[test]
    fn a_row_is_shared_from_its_first_step_that_leaves_a_chunk_zero() {
        let mut rows = ClockRows::new();
        let (t, o) = (ThreadId, ObjectId);
        let shared = |rows: &ClockRows| matches!(rows.threads[0], ThreadRow::Shared(_));
        rows.step(t(0), o(0), 3, 64);
        assert!(!shared(&rows), "a full row's stamp is a plain copy");
        let stamp = rows.step(t(0), o(0), 3, 128);
        assert_eq!(
            stamp.stored_words(),
            CHUNK + 1,
            "packed: one chunk, one mask word"
        );
        assert!(shared(&rows));
        rows.step(t(0), o(0), 100, 128);
        assert!(shared(&rows), "full again, and still shared");
        assert_eq!(
            stamp.component(3),
            2,
            "the kept stamp was copied, not written"
        );
    }

    #[test]
    fn a_released_thread_keeps_an_empty_slot_and_its_stamps_keep_their_row() {
        let mut rows = ClockRows::new();
        let (t, o) = (ThreadId, ObjectId);
        rows.step(t(0), o(0), 0, 128);
        let stamp = rows.step(t(1), o(0), 1, 128);
        rows.release_thread(t(1));
        assert_eq!(rows.threads.len(), 2, "the id stays taken");
        assert_eq!(rows.threads[1].row().stored_words(), 0, "the row is gone");
        assert_eq!(rows.thread_clock(t(1), 128), VectorTimestamp::zeros(128));
        assert_eq!((stamp.component(0), stamp.component(1)), (1, 1));
        assert_eq!(
            rows.object_clock(o(0), 128),
            stamp.clone().into_padded_to(128),
            "the object's row stays"
        );
        rows.release_thread(t(9));
        assert_eq!(rows.threads.len(), 2, "an untouched id allocates nothing");
    }

    #[test]
    fn copy_from_clears_stale_chunks() {
        // After a merge the destination can only gain chunks, but copy_from
        // is written for arbitrary rows: chunks nonzero in the destination
        // and zero in the source must be wiped.
        let mut dst = ChunkedRow::from_dense(&[9, 9, 9]);
        let mut src_dense = vec![0u64; 128];
        src_dense[100] = 4;
        let src = ChunkedRow::from_dense(&src_dense);
        dst.copy_from(&src);
        assert_eq!(dst.to_dense(128), src.to_dense(128));
        assert_mask_exact(&dst);
    }

    proptest! {
        /// Chunked ops are bit-for-bit the dense ops, including across chunk
        /// boundaries and width growth.
        #[test]
        fn prop_chunked_ops_match_dense(
            a in proptest::collection::vec(0u64..5, 0..200),
            b in proptest::collection::vec(0u64..5, 0..200),
            c in 0usize..200,
        ) {
            let (ra, rb) = (ChunkedRow::from_dense(&a), ChunkedRow::from_dense(&b));
            prop_assert_eq!(ra.to_dense(a.len()), a.clone());

            let mut merged = ra.clone();
            merged.merge_max(&rb);
            let n = a.len().max(b.len());
            let expect: Vec<u64> = (0..n)
                .map(|i| a.get(i).copied().unwrap_or(0).max(b.get(i).copied().unwrap_or(0)))
                .collect();
            prop_assert_eq!(merged.to_dense(n), expect);
            assert_mask_exact(&merged);

            prop_assert_eq!(ra.strictly_less_than(&rb), dense_strictly_less(&a, &b));

            let mut inc = ra.clone();
            inc.increment(c);
            let mut expect = a.clone();
            expect.resize(expect.len().max(c + 1), 0);
            expect[c] += 1;
            prop_assert_eq!(inc.to_dense(expect.len()), expect);
            assert_mask_exact(&inc);
        }

        /// A random event sequence stepped through the chunked kernel equals
        /// the naive dense protocol, stamp by stamp and row by row.
        #[test]
        fn prop_step_matches_naive_dense_protocol(
            events in proptest::collection::vec((0usize..6, 0usize..6, 0usize..150), 1..60),
        ) {
            let width = 150;
            let mut rows = ClockRows::new();
            let mut dt = vec![vec![0u64; width]; 6];
            let mut dobj = vec![vec![0u64; width]; 6];
            for &(t, o, c) in &events {
                let stamp = rows.step(ThreadId(t), ObjectId(o), c, width);
                let merged: Vec<u64> = (0..width)
                    .map(|k| dt[t][k].max(dobj[o][k]) + u64::from(k == c))
                    .collect();
                dt[t] = merged.clone();
                dobj[o] = merged.clone();
                prop_assert_eq!(stamp.as_slice(), &merged[..]);
            }
            for (t, dense) in dt.iter().enumerate() {
                prop_assert_eq!(rows.thread_clock(ThreadId(t), width).as_slice().to_vec(), dense.clone());
            }
            for (o, dense) in dobj.iter().enumerate() {
                prop_assert_eq!(rows.object_clock(ObjectId(o), width).as_slice().to_vec(), dense.clone());
            }
            for row in rows.threads.iter().map(ThreadRow::row).chain(&rows.objects) {
                assert_mask_exact(row);
            }
        }
    }
}
