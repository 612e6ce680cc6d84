//! Component slicing: how the clock's components are divided across shards,
//! and the per-shard state that applies the protocol to one slice.
//!
//! Placement is modulo striping, in closed form: component `k` lives on
//! shard `k % N` at local index `k / N`, shard `s` owns
//! `local_width(width, s, N)` components, and the inverse is
//! `k = s + j * N`.  A component added mid-run lands on some shard without
//! moving any existing slice data.  Which shard owns a component cannot
//! change anyone's work — every shard applies every event to its whole
//! slice and the merge scatters every component of every stamp — so there is
//! exactly one placement.
//!
//! The protocol itself is componentwise independent: for every component
//! `k`, an event `e = (t, o)` performs
//!
//! ```text
//! m = max(T[t][k], O[o][k]) + (1 if k == e.c else 0)
//! T[t][k] = O[o][k] = e.v[k] = m
//! ```
//!
//! and no other component's value participates.  A shard can therefore apply
//! the *whole event stream in arrival order* to just its slice of every
//! per-thread / per-object vector, and the concatenation of the slices is
//! bit-for-bit the sequential engine's result.  That independence is the
//! entire correctness argument for the sharded engine: shards never
//! communicate, they only have to see the same events in the same order.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

/// Number of components shard `shard` owns when the clock has `width`
/// components: the size of `{k < width : k % shards == shard}`.
pub(crate) fn local_width(width: usize, shard: usize, shards: usize) -> usize {
    if width > shard {
        (width - shard).div_ceil(shards)
    } else {
        0
    }
}

/// One routed event, as shipped to every shard: dense thread / object
/// indices and the component the protocol increments (`e.c` in the paper —
/// the object's component if the object is in the clock, otherwise the
/// thread's), pre-resolved to the owning shard and its local index (a shard
/// never sees global indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventRec {
    pub(crate) t: u32,
    pub(crate) o: u32,
    pub(crate) c_shard: u32,
    pub(crate) c_local: u32,
}

impl EventRec {
    /// The record of an event of thread `t` on object `o` incrementing
    /// global component `c`, striped over `shards` shards.
    pub(crate) fn striped(t: u32, o: u32, c: u32, shards: u32) -> Self {
        EventRec {
            t,
            o,
            c_shard: c % shards,
            c_local: c / shards,
        }
    }
}

/// A shard's slice of the engine state: for every thread and object, the
/// values of the components this shard owns, at local indices.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    shard: u32,
    threads: Vec<Vec<u64>>,
    objects: Vec<Vec<u64>>,
}

impl ShardState {
    pub(crate) fn new(shard: usize) -> Self {
        ShardState {
            shard: shard as u32,
            threads: Vec::new(),
            objects: Vec::new(),
        }
    }

    /// Applies a chunk of routed events, in order, to this shard's slice and
    /// appends each event's slice values (event-major: `events.len()` groups
    /// of `ln` values) to `out`.
    ///
    /// `ln` is this shard's slice width for the whole chunk — the engine
    /// never grows the clock inside a batch, so a single value suffices; new
    /// components appear to the shard as a larger `ln` on a later chunk and
    /// their counters start at zero, exactly like the sequential engine's
    /// lazy padding.
    pub(crate) fn apply(&mut self, ln: usize, events: &[EventRec], out: &mut Vec<u64>) {
        if ln == 0 {
            return;
        }
        out.reserve(events.len() * ln);
        for ev in events {
            let (t, o) = (ev.t as usize, ev.o as usize);
            grow_row(&mut self.threads, t, ln);
            grow_row(&mut self.objects, o, ln);
            let trow = &mut self.threads[t][..ln];
            let orow = &mut self.objects[o][..ln];
            // Elementwise max-merge first (a clean, vectorisable loop), then
            // fix up the single incremented component, if this shard owns it.
            let base = out.len();
            for (tj, oj) in trow.iter_mut().zip(orow.iter_mut()) {
                let m = (*tj).max(*oj);
                *tj = m;
                *oj = m;
                out.push(m);
            }
            if ev.c_shard == self.shard {
                let local_c = ev.c_local as usize;
                let m = trow[local_c] + 1;
                trow[local_c] = m;
                orow[local_c] = m;
                out[base + local_c] = m;
            }
        }
    }

    /// Empties a thread's slice row and keeps its slot, so thread ids stay
    /// dense; for a thread that will apply no further event.
    pub(crate) fn release_thread(&mut self, thread: usize) {
        if let Some(row) = self.threads.get_mut(thread) {
            *row = Vec::new();
        }
    }

    /// A thread's slice row, if its slot exists.
    #[cfg(test)]
    pub(crate) fn thread_row(&self, thread: usize) -> Option<&[u64]> {
        self.threads.get(thread).map(Vec::as_slice)
    }
}

/// Ensures `rows[index]` exists and holds at least `len` counters (new ones
/// are zero: a component no past event incremented).
fn grow_row(rows: &mut Vec<Vec<u64>>, index: usize, len: usize) {
    if index >= rows.len() {
        rows.resize_with(index + 1, Vec::new);
    }
    let row = &mut rows[index];
    if row.len() < len {
        row.resize(len, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_width_partitions_every_component_exactly_once() {
        for width in 0..40 {
            for shards in 1..10 {
                let total: usize = (0..shards).map(|s| local_width(width, s, shards)).sum();
                assert_eq!(total, width, "width {width} over {shards} shards");
                // Balanced: slice sizes differ by at most one.
                let sizes: Vec<_> = (0..shards).map(|s| local_width(width, s, shards)).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn striped_assignment_round_trips() {
        let shards = 3;
        let width = 8;
        for k in 0..width {
            let rec = EventRec::striped(0, 0, k as u32, shards as u32);
            let (shard, local) = (rec.c_shard as usize, rec.c_local as usize);
            assert!(local < local_width(width, shard, shards));
            assert_eq!(shard + local * shards, k, "k = shard + local * shards");
        }
    }

    #[test]
    fn single_shard_apply_is_the_whole_protocol() {
        // One shard owning everything must reproduce the sequential engine's
        // arithmetic exactly: increments on the event's component, max-merge
        // of thread and object rows.
        let mut s = ShardState::new(0);
        let mut out = Vec::new();
        let events = [
            EventRec::striped(0, 0, 0, 1),
            EventRec::striped(1, 0, 0, 1),
            EventRec::striped(0, 1, 1, 1),
        ];
        s.apply(2, &events, &mut out);
        assert_eq!(out, vec![1, 0, 2, 0, 1, 1]);
    }

    #[test]
    fn shard_without_components_emits_nothing() {
        let mut s = ShardState::new(3);
        let mut out = Vec::new();
        s.apply(0, &[EventRec::striped(0, 0, 0, 4)], &mut out);
        assert!(out.is_empty(), "a shard with ln = 0 owns nothing");
    }

    #[test]
    fn two_shard_slices_merge_to_the_single_shard_protocol() {
        // The N-sharded apply-and-merge decomposition is the same protocol
        // as one shard owning everything; check a hand-merged 2-shard run.
        let raw = [(0, 0, 0), (1, 0, 0), (1, 1, 2), (0, 1, 1)];
        let width = 3;
        let mut whole = Vec::new();
        let one: Vec<EventRec> = raw
            .iter()
            .map(|&(t, o, c)| EventRec::striped(t, o, c, 1))
            .collect();
        ShardState::new(0).apply(width, &one, &mut whole);

        let two: Vec<EventRec> = raw
            .iter()
            .map(|&(t, o, c)| EventRec::striped(t, o, c, 2))
            .collect();
        let mut bufs = [Vec::new(), Vec::new()];
        for (s, buf) in bufs.iter_mut().enumerate() {
            ShardState::new(s).apply(local_width(width, s, 2), &two, buf);
        }
        for i in 0..raw.len() {
            for k in 0..width {
                let ln = local_width(width, k % 2, 2);
                assert_eq!(
                    whole[i * width + k],
                    bufs[k % 2][i * ln + k / 2],
                    "event {i}, component {k}"
                );
            }
        }
    }

    #[test]
    fn width_growth_between_chunks_pads_with_zeros() {
        let mut s = ShardState::new(0);
        let mut out = Vec::new();
        // Width 1 over 2 shards: shard 0 owns component 0.
        s.apply(1, &[EventRec::striped(0, 0, 0, 2)], &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        // Width 3: shard 0 now owns components 0 and 2; component 2 starts
        // at zero for the existing thread/object rows.
        s.apply(2, &[EventRec::striped(0, 0, 2, 2)], &mut out);
        assert_eq!(out, vec![1, 1], "component 0 carried over, 2 incremented");
    }
}
