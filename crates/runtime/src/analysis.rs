//! Streaming analyses that ride the ingest pipeline as event sinks.
//!
//! The mixed vector timestamp *is* the causality index: `e → f` iff
//! `V(e) < V(f)` componentwise (Section II).  So an analysis that sees the
//! stamped stream needs no transitive closure, no BFS and no post-hoc
//! offline plan — an O(width) clock compare answers every ordering
//! question.  This module packages three such analyses as
//! [`EventSink`]s, so they run *at pipeline rate* inside the
//! merge → stamp → sink loop instead of waiting for a materialised
//! [`Computation`](mvc_trace::Computation):
//!
//! * [`ReachabilityIndexSink`] — a bounded window of recent stamps;
//!   `happened_before` / `concurrent` queries on in-window events are
//!   single clock compares.  Replaces
//!   [`CausalityOracle`](mvc_trace::CausalityOracle)'s `O(n²/64)` bitsets
//!   for live use.
//! * [`ConflictSink`] — the streaming form of
//!   [`ConflictAnalyzer`](crate::ConflictAnalyzer): flags concurrent
//!   cross-thread conflicting pairs within declared object groups as
//!   batches arrive, using the live stamps.  A low-watermark prune keeps
//!   retained state bounded on contended workloads *without* losing pairs:
//!   it flags exactly what the post-hoc analyzer finds (conformance
//!   oracle 8).
//! * [`CompetitiveSink`] — windowed competitive-ratio tracking: every
//!   stamped batch feeds its revealed thread–object edges into an
//!   [`IncrementalOptimum`] (cost per edge: [`mvc_graph::incremental`]), so
//!   the gap between the provisioned clock width and the offline optimum of
//!   the revealed graph is visible while the run is still going — also as
//!   the `analysis.competitive.*` gauges.
//!
//! All three are infallible sinks (they never reject a batch), so they
//! compose freely under [`TeeSink`](mvc_core::sink::TeeSink) with
//! recording and persistence backends — one live run can record, persist
//! and monitor simultaneously.
//!
//! # Why live stamps agree with post-hoc analysis
//!
//! Any component map that covers the computation characterises
//! happened-before exactly (the paper's Theorem 1), so concurrency verdicts
//! do not depend on *which* valid clock produced the stamps.  The streaming
//! sinks therefore reach the same verdicts from the live engine's stamps as
//! [`ConflictAnalyzer`](crate::ConflictAnalyzer) reaches from a fresh
//! offline-optimal plan.  Stamps taken at different clock widths are
//! zero-padded before comparing, exactly like
//! [`LiveRun`](crate::LiveRun)'s final padding.

use std::cmp::Ordering;
use std::collections::VecDeque;

use mvc_clock::{ClockOrd, VectorTimestamp};
use mvc_core::sink::{EventSink, SinkError};
use mvc_graph::IncrementalOptimum;
use mvc_online::TrajectoryPoint;
use mvc_trace::{EventId, ObjectId, OpKind, ThreadId};

use crate::conflict::ConflictPair;

/// Compares two stamps that may have been taken at different clock widths,
/// zero-padding a copy of the narrower one (widths only grow, and a new
/// component's counter is implicitly zero before its first increment).
/// Equal widths — every pair under a fixed component map — copy nothing.
pub(crate) fn compare_padded(a: &VectorTimestamp, b: &VectorTimestamp) -> ClockOrd {
    match a.len().cmp(&b.len()) {
        Ordering::Equal => a.compare(b),
        Ordering::Less => a.padded_to(b.len()).compare(b),
        Ordering::Greater => a.compare(&b.padded_to(a.len())),
    }
}

// ---------------------------------------------------------------------------
// ReachabilityIndexSink
// ---------------------------------------------------------------------------

/// One retained event of the reachability window.
#[derive(Debug, Clone)]
struct WindowEntry {
    thread: ThreadId,
    object: ObjectId,
    stamp: VectorTimestamp,
}

/// A streaming happened-before index: a bounded window of recent stamps.
///
/// Events are identified by their stamping sequence number (which equals
/// their post-hoc [`EventId`], because the sink sees the merged
/// interleaving in recording order).  Queries about two in-window events
/// are a single O(width) clock compare; queries touching an evicted event
/// return `None` — the caller chose the window, so "too old to answer" is
/// an explicit outcome, not a wrong one.
///
/// Memory is `O(window × width)` regardless of run length: the window is
/// a ring.
#[derive(Debug, Clone)]
pub struct ReachabilityIndexSink {
    capacity: usize,
    window: VecDeque<WindowEntry>,
    accepted: usize,
    metrics: ReachMetrics,
}

/// Process-global metric handles for the reachability index (resolved once
/// per sink; see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone)]
struct ReachMetrics {
    /// `analysis.reach_spills` (counter, events): evicted from the bounded
    /// window — queries about them now answer `None`.
    spills: mvc_obs::Counter,
}

impl Default for ReachMetrics {
    fn default() -> Self {
        Self {
            spills: mvc_obs::global().counter("analysis.reach_spills"),
        }
    }
}

impl ReachabilityIndexSink {
    /// Creates an index retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity window answers nothing");
        Self {
            capacity,
            window: VecDeque::new(),
            accepted: 0,
            metrics: ReachMetrics::default(),
        }
    }

    /// Creates an index that never evicts (for test-sized runs where every
    /// pair must stay answerable).
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Number of events evicted from the window so far.
    pub fn spilled(&self) -> usize {
        self.accepted - self.window.len()
    }

    /// Returns `true` iff `e` has been accepted and is still in the window.
    pub fn contains(&self, e: EventId) -> bool {
        e.index() >= self.spilled() && e.index() < self.accepted
    }

    fn entry(&self, e: EventId) -> Option<&WindowEntry> {
        if !self.contains(e) {
            return None;
        }
        self.window.get(e.index() - self.spilled())
    }

    /// The retained stamp of `e`, if it is still in the window.
    fn stamp_of(&self, e: EventId) -> Option<&VectorTimestamp> {
        self.entry(e).map(|w| &w.stamp)
    }

    /// The `(thread, object)` of `e`, if it is still in the window.
    pub fn event(&self, e: EventId) -> Option<(ThreadId, ObjectId)> {
        self.entry(e).map(|w| (w.thread, w.object))
    }

    /// Compares two in-window events under the clock partial order; `None`
    /// if either has been evicted (or not yet accepted).
    pub fn compare(&self, a: EventId, b: EventId) -> Option<ClockOrd> {
        Some(compare_padded(self.stamp_of(a)?, self.stamp_of(b)?))
    }

    /// Returns `Some(true)` iff `a → b`; `None` when either event is out of
    /// the window.
    pub fn happened_before(&self, a: EventId, b: EventId) -> Option<bool> {
        Some(self.compare(a, b)?.is_before())
    }

    /// Returns `Some(true)` iff the events are concurrent (distinct and
    /// incomparable); `None` when either event is out of the window.
    pub fn concurrent(&self, a: EventId, b: EventId) -> Option<bool> {
        Some(a != b && self.compare(a, b)?.is_concurrent())
    }

    fn ingest(&mut self, thread: ThreadId, object: ObjectId, stamp: VectorTimestamp) {
        self.window.push_back(WindowEntry {
            thread,
            object,
            stamp,
        });
        if self.window.len() > self.capacity {
            self.window.pop_front();
            self.metrics.spills.inc();
        }
        self.accepted += 1;
    }
}

impl EventSink for ReachabilityIndexSink {
    fn name(&self) -> &str {
        "reach"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        for (&(thread, object, _), stamp) in events.iter().zip(stamps.drain(..)) {
            self.ingest(thread, object, stamp);
        }
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.accepted
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// ConflictSink
// ---------------------------------------------------------------------------

/// The per-event metadata of one retained event; its stamp lives at the
/// same index in the group's flat stamp array.  `mutates` caches
/// `kind != Read` — a pair conflicts iff either side mutates
/// ([`OpKind::conflicts_with`]).
#[derive(Debug, Clone, Copy)]
struct RetainedMeta {
    id: EventId,
    thread: ThreadId,
    mutates: bool,
}

/// One declared object group and its still-live retained events.
///
/// Stamps are stored *flat* — `stamps[i * stride .. (i + 1) * stride]` is
/// entry `i`'s components, zero-padded to the group's stride — so the
/// per-event compare loop walks linear memory instead of chasing one heap
/// pointer per retained stamp, and pushing an entry is a `memcpy`, not an
/// allocation.
#[derive(Debug, Clone)]
struct GroupState {
    objects: Vec<ObjectId>,
    meta: Vec<RetainedMeta>,
    stamps: Vec<u64>,
    /// Components per retained stamp; grows (re-padding every entry) when a
    /// wider stamp arrives.
    stride: usize,
    touched: bool,
    /// Retained-list length that triggers an opportunistic mid-batch prune.
    /// Doubles when a prune frees little (the group is genuinely
    /// concurrency-dense), so prune work stays amortised O(1) per event.
    prune_threshold: usize,
}

impl GroupState {
    /// Widens every retained stamp to `stride` components, padding new
    /// components with zero (a component's counter is implicitly zero before
    /// its first increment).  Rare: the engine's width only grows on
    /// re-planning.
    fn restride(&mut self, stride: usize) {
        debug_assert!(stride > self.stride);
        let mut widened = vec![0u64; self.meta.len() * stride];
        for i in 0..self.meta.len() {
            widened[i * stride..i * stride + self.stride]
                .copy_from_slice(&self.stamps[i * self.stride..(i + 1) * self.stride]);
        }
        self.stamps = widened;
        self.stride = stride;
    }
}

/// Initial [`GroupState::prune_threshold`].  Small enough that the per-event
/// compare loop never scans long stale lists inside a large pipeline batch;
/// large enough that pruning stays a rounding error on sparse groups.
const PRUNE_BASE: usize = 8;

/// The streaming form of [`ConflictAnalyzer`](crate::ConflictAnalyzer):
/// flags concurrent cross-thread conflicting pairs within declared object
/// groups as stamped batches arrive.
///
/// Every accepted event on a group's object is compared (one padded clock
/// compare each) against the group's retained events; a pair is flagged
/// when the threads differ, at least one side mutates
/// ([`OpKind::conflicts_with`]) and the stamps are concurrent.  Flagged
/// pairs are exactly the pairs the post-hoc analyzer reports — conformance
/// oracle 8 holds the two implementations to that bit-for-bit.
///
/// # Low-watermark pruning
///
/// Retained events are pruned against the group's *low watermark*: the
/// componentwise minimum over the latest stamp of each of the group's
/// object chains.  Any future event of the group must touch one of those
/// objects, so its stamp strictly dominates that object's frontier — and
/// therefore dominates (is causally after) every retained event at or
/// below the watermark.  Pruned events can never form another concurrent
/// pair, which is why the prune loses nothing; on contended workloads the
/// frontiers advance quickly and retained state stays small.  A group with
/// an untouched object has no watermark yet and prunes nothing.
#[derive(Debug, Clone, Default)]
pub struct ConflictSink {
    groups: Vec<GroupState>,
    /// Dense object-index → group-indices table (object ids are small and
    /// dense, so this beats hashing on the per-event hot path).
    object_groups: Vec<Vec<usize>>,
    /// Flat per-object frontier stamps: object `o`'s latest stamp is
    /// `frontier[o * stride .. (o + 1) * stride]`, valid iff
    /// `frontier_set[o]`.  Updating a frontier is a `memcpy` into the slot.
    frontier: Vec<u64>,
    frontier_set: Vec<bool>,
    frontier_stride: usize,
    accepted: usize,
    conflicts: Vec<ConflictPair>,
    /// Reusable watermark buffer so pruning allocates nothing.
    watermark_scratch: Vec<u64>,
    /// The current event's components when its stamp is packed, scattered
    /// from the stored chunks: `as_slice()` would allocate a dense copy per
    /// packed stamp (32 KiB at width 4096) and pin it in the thread's row.
    stamp_scratch: Vec<u64>,
    metrics: ConflictMetrics,
}

/// Process-global metric handles for the conflict sink (resolved once per
/// sink; see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone)]
struct ConflictMetrics {
    /// `analysis.conflict_pairs` (counter, pairs): concurrent cross-thread
    /// conflicting pairs flagged within declared groups.
    pairs: mvc_obs::Counter,
}

impl Default for ConflictMetrics {
    fn default() -> Self {
        Self {
            pairs: mvc_obs::global().counter("analysis.conflict_pairs"),
        }
    }
}

impl ConflictSink {
    /// Creates a sink with no groups (nothing will be flagged).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a group of objects related by an application invariant,
    /// returning the group's index.  Duplicate objects within the group are
    /// ignored — each membership counts once.
    pub fn add_group(&mut self, objects: impl IntoIterator<Item = ObjectId>) -> usize {
        let gi = self.groups.len();
        let mut deduped: Vec<ObjectId> = Vec::new();
        for o in objects {
            if !deduped.contains(&o) {
                deduped.push(o);
                if o.index() >= self.object_groups.len() {
                    self.object_groups.resize(o.index() + 1, Vec::new());
                }
                self.object_groups[o.index()].push(gi);
            }
        }
        self.groups.push(GroupState {
            objects: deduped,
            meta: Vec::new(),
            stamps: Vec::new(),
            stride: 0,
            touched: false,
            prune_threshold: PRUNE_BASE,
        });
        gi
    }

    /// Creates a sink from explicit groups.
    pub fn with_groups(groups: impl IntoIterator<Item = Vec<ObjectId>>) -> Self {
        let mut sink = Self::new();
        for g in groups {
            sink.add_group(g);
        }
        sink
    }

    /// Creates a sink declaring the same groups as a post-hoc analyzer —
    /// the pairing oracle 8 cross-checks.
    pub fn mirroring(analyzer: &crate::ConflictAnalyzer) -> Self {
        Self::with_groups(analyzer.groups().iter().cloned())
    }

    /// Number of declared groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Every pair flagged so far, in discovery order (second event's
    /// stamping order, then group index).
    pub fn conflicts(&self) -> &[ConflictPair] {
        &self.conflicts
    }

    /// Total events currently retained across all groups — bounded on
    /// contended workloads by the low-watermark prune.
    #[cfg(test)]
    fn retained_events(&self) -> usize {
        self.groups.iter().map(|g| g.meta.len()).sum()
    }

    fn ingest(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
        kind: OpKind,
        stamp: &VectorTimestamp,
    ) {
        let id = EventId(self.accepted);
        self.accepted += 1;
        if self
            .object_groups
            .get(object.index())
            .is_none_or(|g| g.is_empty())
        {
            // Unmonitored object: nothing scans it and no watermark reads
            // its frontier, so the event costs one table lookup.
            return;
        }
        let mut scratch = std::mem::take(&mut self.stamp_scratch);
        let s = stamp.as_slice_in(&mut scratch);
        // Advance the frontier *before* scanning: the watermark then
        // includes this event's own stamp, and a mid-batch prune removes
        // exactly the retained events this scan would have found ordered
        // (an entry at or below a watermark that includes the current stamp
        // is componentwise ≤ it).  The scan that follows therefore mostly
        // touches genuinely concurrent entries, which exit on their first
        // excess component.
        self.store_frontier(object.index(), s);
        let mutates = kind.conflicts_with(OpKind::Read);
        let group_ids = &self.object_groups[object.index()];
        for &gi in group_ids {
            let group = &mut self.groups[gi];
            if s.len() > group.stride {
                group.restride(s.len());
            }
            // Opportunistic mid-batch prune: pipeline batches run to
            // thousands of events, and an unpruned retained list makes
            // the compare loop below O(batch²) per batch.  The watermark
            // argument holds at any point in the stream, so pruning here
            // loses nothing (the same pairs are still flagged — oracle 8
            // checks exact parity).  Unpruneable groups double their
            // threshold instead of re-scanning every event.
            if group.meta.len() >= group.prune_threshold {
                prune_group(
                    group,
                    &self.frontier,
                    &self.frontier_set,
                    self.frontier_stride,
                    &mut self.watermark_scratch,
                );
            }
            let stride = group.stride;
            // Width-0 stamps (an empty clock) are all equal, never
            // concurrent — and chunks_exact needs a non-zero chunk anyway.
            if stride > 0 {
                for (m, r) in group.meta.iter().zip(group.stamps.chunks_exact(stride)) {
                    if m.thread != thread
                        && (mutates || m.mutates)
                        && flat_concurrent_with_later(r, s)
                    {
                        self.conflicts.push(ConflictPair {
                            group: gi,
                            first: m.id,
                            second: id,
                        });
                        self.metrics.pairs.inc();
                    }
                }
            }
            group.meta.push(RetainedMeta {
                id,
                thread,
                mutates,
            });
            let filled = group.stamps.len();
            group.stamps.extend_from_slice(s);
            group.stamps.resize(filled + stride, 0);
            group.touched = true;
        }
        self.stamp_scratch = scratch;
    }

    /// Copies `s` into object `oi`'s frontier slot, widening the flat table
    /// first if this stamp is wider than the current stride.
    fn store_frontier(&mut self, oi: usize, s: &[u64]) {
        if s.len() > self.frontier_stride {
            let old = self.frontier_stride;
            let n = self.frontier_set.len();
            let mut widened = vec![0u64; n * s.len()];
            for i in 0..n {
                widened[i * s.len()..i * s.len() + old]
                    .copy_from_slice(&self.frontier[i * old..(i + 1) * old]);
            }
            self.frontier = widened;
            self.frontier_stride = s.len();
        }
        let stride = self.frontier_stride;
        if oi >= self.frontier_set.len() {
            self.frontier_set.resize(oi + 1, false);
            self.frontier.resize(self.frontier_set.len() * stride, 0);
        }
        let slot = &mut self.frontier[oi * stride..(oi + 1) * stride];
        slot[..s.len()].copy_from_slice(s);
        slot[s.len()..].fill(0);
        self.frontier_set[oi] = true;
    }

    /// Prunes every group touched since the last prune against its low
    /// watermark.  Called once per accepted batch (the mid-batch prune in
    /// [`ingest`](Self::ingest) handles growth inside large batches), so the
    /// per-event hot path stays compare-and-push.
    fn prune_touched(&mut self) {
        for group in &mut self.groups {
            if !group.touched {
                continue;
            }
            group.touched = false;
            prune_group(
                group,
                &self.frontier,
                &self.frontier_set,
                self.frontier_stride,
                &mut self.watermark_scratch,
            );
        }
    }
}

/// Prunes one group's retained events against its current low watermark,
/// compacting the metadata and flat stamp arrays in lockstep, then re-arms
/// the group's prune threshold.
fn prune_group(
    group: &mut GroupState,
    frontier: &[u64],
    frontier_set: &[bool],
    frontier_stride: usize,
    scratch: &mut Vec<u64>,
) {
    if write_group_watermark(
        frontier,
        frontier_set,
        frontier_stride,
        &group.objects,
        scratch,
    ) {
        let stride = group.stride;
        let mut keep = 0;
        for i in 0..group.meta.len() {
            if !flat_below_watermark(&group.stamps[i * stride..(i + 1) * stride], scratch) {
                if keep != i {
                    group.meta[keep] = group.meta[i];
                    group
                        .stamps
                        .copy_within(i * stride..(i + 1) * stride, keep * stride);
                }
                keep += 1;
            }
        }
        group.meta.truncate(keep);
        group.stamps.truncate(keep * stride);
    }
    group.prune_threshold = (group.meta.len() * 2).max(PRUNE_BASE);
}

/// Writes the group's low watermark — the componentwise minimum over the
/// frontier stamps of `objects`, all implicitly zero-padded — into
/// `scratch`, allocating nothing.  Returns `false` (scratch contents
/// unspecified) while any object is still untouched: no event of that chain
/// exists yet, so nothing can be proven dominated.
fn write_group_watermark(
    frontier: &[u64],
    frontier_set: &[bool],
    stride: usize,
    objects: &[ObjectId],
    scratch: &mut Vec<u64>,
) -> bool {
    scratch.clear();
    let mut first = true;
    for o in objects {
        let oi = o.index();
        if !frontier_set.get(oi).copied().unwrap_or(false) {
            return false;
        }
        let f = &frontier[oi * stride..(oi + 1) * stride];
        if first {
            scratch.extend_from_slice(f);
            first = false;
        } else {
            for (w, &c) in scratch.iter_mut().zip(f) {
                *w = (*w).min(c);
            }
        }
    }
    !first
}

/// Returns `true` iff `earlier` is concurrent with `later`, where `earlier`
/// was retained before `later` was stamped and components past either
/// slice's width are implicitly zero.
///
/// The merge order is a linear extension of happened-before (it preserves
/// every thread and object chain), so `later → earlier` is impossible and
/// `earlier` can never strictly dominate `later` (Theorem 1).  That
/// collapses the four-way clock compare to a one-directional check: the
/// pair is concurrent iff `earlier` is *not* componentwise `≤ later` — and
/// the first component where `earlier` exceeds `later` proves it, so
/// concurrent pairs exit early.
fn flat_concurrent_with_later(earlier: &[u64], later: &[u64]) -> bool {
    debug_assert!(
        !(earlier
            .iter()
            .enumerate()
            .all(|(k, &e)| e >= later.get(k).copied().unwrap_or(0))
            && later
                .iter()
                .enumerate()
                .any(|(k, &l)| earlier.get(k).copied().unwrap_or(0) > l)),
        "an earlier-stamped event cannot dominate a later one"
    );
    let n = earlier.len().min(later.len());
    earlier[..n].iter().zip(later).any(|(&e, &l)| e > l) || earlier[n..].iter().any(|&e| e > 0)
}

/// Returns `true` iff `stamp ≤ watermark` componentwise — the prune
/// condition — where components past either slice's width are zero.
fn flat_below_watermark(stamp: &[u64], watermark: &[u64]) -> bool {
    let n = stamp.len().min(watermark.len());
    stamp[..n].iter().zip(watermark).all(|(&a, &w)| a <= w) && stamp[n..].iter().all(|&a| a == 0)
}

impl EventSink for ConflictSink {
    fn name(&self) -> &str {
        "conflict"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        for (&(thread, object, kind), stamp) in events.iter().zip(stamps.iter()) {
            self.ingest(thread, object, kind, stamp);
        }
        // The sink copies what it retains into its flat arrays, so the
        // owned stamps are simply consumed (dropped in one pass).
        stamps.clear();
        self.prune_touched();
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.accepted
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// CompetitiveSink
// ---------------------------------------------------------------------------

/// Windowed competitive-ratio tracking as a sink: every stamped batch
/// reveals its thread–object edges to an [`IncrementalOptimum`], and one
/// [`TrajectoryPoint`] per batch records the provisioned clock width (the
/// widest stamp seen) against the offline optimum of the revealed graph.
///
/// The trajectory window keeps the last 64 points, so memory stays
/// constant over arbitrarily long runs while the recent trend — is the
/// provisioned clock drifting away from what the revealed graph actually
/// needs? — remains queryable.
#[derive(Debug)]
pub struct CompetitiveSink {
    optimum: IncrementalOptimum,
    online_width: usize,
    accepted: usize,
    trajectory: VecDeque<TrajectoryPoint>,
    metrics: CompetitiveMetrics,
}

/// Process-global metric handles for the competitive sink (resolved once
/// per sink; see `docs/OBSERVABILITY.md`).  Both gauges are set once per
/// sampled batch, to the values of that batch's [`TrajectoryPoint`].
#[derive(Debug, Clone)]
struct CompetitiveMetrics {
    /// `analysis.competitive.optimum` (gauge, components): the offline
    /// optimum of the revealed graph.
    optimum: mvc_obs::Gauge,
    /// `analysis.competitive.online_width` (gauge, components): the widest
    /// stamp seen.
    online_width: mvc_obs::Gauge,
}

impl Default for CompetitiveMetrics {
    fn default() -> Self {
        Self {
            optimum: mvc_obs::global().gauge("analysis.competitive.optimum"),
            online_width: mvc_obs::global().gauge("analysis.competitive.online_width"),
        }
    }
}

impl CompetitiveSink {
    /// The trajectory window: the per-batch points kept.
    const WINDOW: usize = 64;

    /// Creates a tracker keeping the last 64 per-batch points.
    pub fn new() -> Self {
        Self {
            optimum: IncrementalOptimum::new(),
            online_width: 0,
            accepted: 0,
            trajectory: VecDeque::new(),
            metrics: CompetitiveMetrics::default(),
        }
    }

    /// Distinct thread–object edges revealed so far.
    pub fn revealed_edges(&self) -> usize {
        self.optimum.graph().edge_count()
    }

    /// The offline optimum (minimum vertex cover) of the revealed graph.
    pub fn offline_optimum(&self) -> usize {
        self.optimum.cover_size()
    }

    /// The widest stamp seen — the clock width the run actually pays for.
    pub fn online_size(&self) -> usize {
        self.online_width
    }

    /// The in-window trajectory, oldest first (at most 64 points).
    pub fn trajectory(&self) -> impl Iterator<Item = &TrajectoryPoint> {
        self.trajectory.iter()
    }

    /// The most recent per-batch point, if any batch carried events.
    fn latest(&self) -> Option<TrajectoryPoint> {
        self.trajectory.back().copied()
    }

    /// The current competitive ratio (provisioned width over revealed
    /// optimum; 1.0 before any event).
    pub fn ratio(&self) -> f64 {
        self.latest().map_or(1.0, |p| p.ratio())
    }

    /// The worst ratio among the in-window points (1.0 before any event).
    pub fn worst_ratio(&self) -> f64 {
        self.trajectory
            .iter()
            .map(TrajectoryPoint::ratio)
            .fold(1.0, f64::max)
    }

    fn ingest(&mut self, thread: ThreadId, object: ObjectId, width: usize) {
        self.optimum.insert_edge(thread.index(), object.index());
        self.online_width = self.online_width.max(width);
        self.accepted += 1;
    }

    fn sample(&mut self) {
        let point = TrajectoryPoint {
            revealed_edges: self.revealed_edges(),
            online_size: self.online_width,
            offline_optimum: self.optimum.cover_size(),
        };
        self.metrics.optimum.set(point.offline_optimum as i64);
        self.metrics.online_width.set(point.online_size as i64);
        self.trajectory.push_back(point);
        if self.trajectory.len() > Self::WINDOW {
            self.trajectory.pop_front();
        }
    }
}

impl Default for CompetitiveSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for CompetitiveSink {
    fn name(&self) -> &str {
        "competitive"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        if events.is_empty() {
            stamps.clear();
            return Ok(());
        }
        for (&(thread, object, _), stamp) in events.iter().zip(stamps.iter()) {
            self.ingest(thread, object, stamp.len());
        }
        stamps.clear();
        self.sample();
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.accepted
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictAnalyzer;
    use mvc_core::sink::StampedEvent;
    use mvc_core::{replay, OfflineOptimizer, TimestampingEngine};
    use mvc_online::{Naive, OnlineTimestamper};
    use mvc_trace::Computation;

    /// Stamps `ops` with the offline-optimal clock and returns the
    /// computation plus one [`StampedEvent`] per operation.
    fn stamped(ops: &[(usize, usize, OpKind)]) -> (Computation, Vec<StampedEvent>) {
        let mut c = Computation::new();
        for &(t, o, k) in ops {
            c.record_op(ThreadId(t), ObjectId(o), k);
        }
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let run = replay(&mut engine, &c).unwrap();
        let events = c
            .events()
            .zip(run.timestamps)
            .map(|(e, timestamp)| StampedEvent {
                thread: e.thread,
                object: e.object,
                kind: e.kind,
                timestamp,
            })
            .collect();
        (c, events)
    }

    #[test]
    fn different_width_timestamps_compare_correctly() {
        // The first event is stamped at width 1, later ones at width 2+; the
        // padded comparison must still order causally related operations.
        let mut online = OnlineTimestamper::new(Naive::threads());
        let a = online.observe(ThreadId(0), ObjectId(0)).unwrap();
        let _ = online.observe(ThreadId(1), ObjectId(5)).unwrap();
        let c = online.observe(ThreadId(1), ObjectId(0)).unwrap(); // sees a via object 0
        assert!(a.len() < c.len());
        assert_eq!(compare_padded(&a, &c), ClockOrd::Before);
        assert_eq!(compare_padded(&c, &a), ClockOrd::After);
    }

    #[test]
    fn packed_stamps_compare_with_narrower_wider_and_equal_ones() {
        // 131 thread components; a thread that kept to its own object has
        // seen one chunk of them, so its stamps are packed.
        let mut online = OnlineTimestamper::new(Naive::threads());
        let a = online.observe(ThreadId(0), ObjectId(0)).unwrap();
        let own: Vec<_> = (1..=130)
            .map(|t| online.observe(ThreadId(t), ObjectId(1000 + t)).unwrap())
            .collect();
        let c = online.observe(ThreadId(130), ObjectId(0)).unwrap(); // sees a via object 0
        assert_eq!((a.len(), own[64].len(), c.len()), (1, 66, 131));
        assert!(own[64].stored_words() < 66 && c.stored_words() < 131);
        // Narrower against wider, both ways round.
        assert_eq!(compare_padded(&a, &c), ClockOrd::Before);
        assert_eq!(compare_padded(&c, &a), ClockOrd::After);
        assert_eq!(compare_padded(&own[64], &c), ClockOrd::Concurrent);
        assert_eq!(compare_padded(&own[129], &c), ClockOrd::Before);
        // Equal widths: nothing is padded.
        let d = online.observe(ThreadId(130), ObjectId(7)).unwrap();
        assert_eq!(compare_padded(&c, &d), ClockOrd::Before);
        assert_eq!(compare_padded(&d, &d.clone()), ClockOrd::Equal);
    }

    #[test]
    fn reach_sink_answers_in_window_queries() {
        let (c, events) = stamped(&[
            (0, 0, OpKind::Write),
            (0, 1, OpKind::Write),
            (1, 1, OpKind::Read),
            (2, 2, OpKind::Write),
        ]);
        let mut sink = ReachabilityIndexSink::unbounded();
        sink.accept_batch(&events).unwrap();
        let oracle = c.causality_oracle();
        for a in 0..events.len() {
            for b in 0..events.len() {
                let (a, b) = (EventId(a), EventId(b));
                assert_eq!(
                    sink.happened_before(a, b),
                    Some(oracle.happened_before(a, b))
                );
                assert_eq!(sink.concurrent(a, b), Some(oracle.concurrent(a, b)));
            }
        }
        assert_eq!(sink.spilled(), 0);
        assert_eq!(sink.events_accepted(), 4);
        assert_eq!(sink.event(EventId(3)), Some((ThreadId(2), ObjectId(2))));
    }

    #[test]
    fn reach_sink_window_evicts_and_reports_spill() {
        let ops: Vec<_> = (0..10).map(|i| (i % 2, 0, OpKind::Write)).collect();
        let (_, events) = stamped(&ops);
        let mut sink = ReachabilityIndexSink::with_capacity(4);
        sink.accept_batch(&events).unwrap();
        assert_eq!(sink.spilled(), 6);
        assert!(!sink.contains(EventId(5)));
        assert!(sink.contains(EventId(6)));
        assert_eq!(sink.compare(EventId(0), EventId(9)), None, "evicted");
        assert_eq!(
            sink.happened_before(EventId(6), EventId(9)),
            Some(true),
            "same object chain, both in window"
        );
        assert_eq!(sink.compare(EventId(9), EventId(10)), None, "not accepted");
    }

    #[test]
    fn reach_sink_equal_event_is_not_concurrent() {
        let (_, events) = stamped(&[(0, 0, OpKind::Write)]);
        let mut sink = ReachabilityIndexSink::unbounded();
        sink.accept_batch(&events).unwrap();
        assert_eq!(sink.concurrent(EventId(0), EventId(0)), Some(false));
        assert_eq!(sink.happened_before(EventId(0), EventId(0)), Some(false));
    }

    /// Feeds the same stamped stream to the streaming sink and the post-hoc
    /// analyzer and asserts identical flagged pairs.
    fn assert_conflict_parity(ops: &[(usize, usize, OpKind)], groups: Vec<Vec<ObjectId>>) {
        let (c, events) = stamped(ops);
        let analyzer = ConflictAnalyzer::with_groups(groups);
        let mut sink = ConflictSink::mirroring(&analyzer);
        // Deliver in small batches to exercise cross-batch retention.
        for chunk in events.chunks(2) {
            sink.accept_batch(chunk).unwrap();
        }
        let mut streaming = sink.conflicts().to_vec();
        let mut posthoc = analyzer.analyze(&c);
        streaming.sort();
        posthoc.sort();
        assert_eq!(streaming, posthoc);
    }

    #[test]
    fn conflict_sink_matches_posthoc_analyzer() {
        use OpKind::{Read, Write};
        assert_conflict_parity(
            &[(0, 0, Write), (1, 1, Write)],
            vec![vec![ObjectId(0), ObjectId(1)]],
        );
        assert_conflict_parity(
            &[(0, 0, Write), (1, 0, Read), (1, 1, Write)],
            vec![vec![ObjectId(0), ObjectId(1)]],
        );
        assert_conflict_parity(
            &[(0, 0, Read), (1, 1, Read)],
            vec![vec![ObjectId(0), ObjectId(1)]],
        );
        assert_conflict_parity(
            &[
                (0, 0, Write),
                (1, 1, Write),
                (2, 2, Write),
                (3, 3, Write),
                (0, 2, Write),
                (3, 1, Read),
            ],
            vec![
                vec![ObjectId(0), ObjectId(1)],
                vec![ObjectId(2), ObjectId(3)],
                vec![ObjectId(1), ObjectId(2)],
            ],
        );
    }

    #[test]
    fn conflict_sink_dedupes_group_objects() {
        let mut sink = ConflictSink::new();
        sink.add_group([ObjectId(0), ObjectId(1), ObjectId(0)]);
        let (_, events) = stamped(&[(0, 0, OpKind::Write), (1, 1, OpKind::Write)]);
        sink.accept_batch(&events).unwrap();
        assert_eq!(sink.conflicts().len(), 1, "one membership, one pair");
    }

    #[test]
    fn conflict_sink_prunes_retained_state_on_contended_objects() {
        // 200 writes, two threads cycling over a two-object group: the
        // object chains keep serialising the threads against each other, so
        // the watermark advances and old events get pruned; retention must
        // stay far below the run length.
        let ops: Vec<_> = (0..200)
            .map(|i| (i % 2, (i / 2) % 2, OpKind::Write))
            .collect();
        let (c, events) = stamped(&ops);
        let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
        let mut sink = ConflictSink::mirroring(&analyzer);
        for chunk in events.chunks(8) {
            sink.accept_batch(chunk).unwrap();
        }
        assert!(
            sink.retained_events() <= 16,
            "watermark prune failed: {} events retained",
            sink.retained_events()
        );
        let mut streaming = sink.conflicts().to_vec();
        let mut posthoc = analyzer.analyze(&c);
        streaming.sort();
        posthoc.sort();
        assert_eq!(streaming, posthoc, "pruning must not lose pairs");
    }

    #[test]
    fn conflict_sink_without_groups_flags_nothing() {
        let (_, events) = stamped(&[(0, 0, OpKind::Write), (1, 1, OpKind::Write)]);
        let mut sink = ConflictSink::new();
        sink.accept_batch(&events).unwrap();
        assert!(sink.conflicts().is_empty());
        assert_eq!(sink.events_accepted(), 2);
        assert_eq!(sink.group_count(), 0);
    }

    #[test]
    fn competitive_sink_tracks_revealed_optimum_per_batch() {
        // Ten threads all touching one object: revealed optimum is 1.
        let ops: Vec<_> = (0..10).map(|t| (t, 0, OpKind::Write)).collect();
        let (_, events) = stamped(&ops);
        let mut sink = CompetitiveSink::new();
        for chunk in events.chunks(3) {
            sink.accept_batch(chunk).unwrap();
        }
        assert_eq!(sink.offline_optimum(), 1);
        assert_eq!(sink.revealed_edges(), 10);
        assert_eq!(sink.online_size(), 1, "offline-optimal clock is width 1");
        assert_eq!(sink.ratio(), 1.0);
        assert_eq!(sink.trajectory().count(), 4, "one point per batch");
        assert_eq!(sink.events_accepted(), 10);
    }

    #[test]
    fn competitive_sink_window_is_bounded() {
        let (_, events) = stamped(&[(0, 0, OpKind::Write), (1, 1, OpKind::Write)]);
        let mut sink = CompetitiveSink::new();
        for _ in 0..CompetitiveSink::WINDOW + 10 {
            sink.accept_batch(&events).unwrap();
        }
        assert_eq!(sink.trajectory().count(), CompetitiveSink::WINDOW);
        assert!(sink.worst_ratio() >= 1.0);
        assert!(sink.latest().is_some());
        // Ratio is provisioned width over revealed optimum — both 2 here.
        assert_eq!(sink.ratio(), 1.0);
    }

    #[test]
    fn competitive_sink_empty_batches_add_no_points() {
        let mut sink = CompetitiveSink::new();
        sink.accept_batch(&[]).unwrap();
        assert_eq!(sink.trajectory().count(), 0);
        assert_eq!(sink.ratio(), 1.0);
        assert_eq!(sink.worst_ratio(), 1.0);
    }

    #[test]
    fn analysis_sinks_compose_under_tee() {
        let (_, events) = stamped(&[
            (0, 0, OpKind::Write),
            (1, 1, OpKind::Write),
            (0, 1, OpKind::Read),
        ]);
        let mut tee = mvc_core::sink::TeeSink::new(vec![
            Box::new(mvc_core::sink::MemoryRecorder::new()) as Box<dyn EventSink>,
            Box::new(ConflictSink::with_groups([vec![ObjectId(0), ObjectId(1)]])),
            Box::new(ReachabilityIndexSink::unbounded()),
            Box::new(CompetitiveSink::new()),
        ]);
        tee.accept_batch(&events).unwrap();
        assert_eq!(tee.events_accepted(), 3);
        let children = tee.into_children();
        let conflict = children[1].as_any().downcast_ref::<ConflictSink>().unwrap();
        assert_eq!(conflict.conflicts().len(), 1);
        let reach = children[2]
            .as_any()
            .downcast_ref::<ReachabilityIndexSink>()
            .unwrap();
        assert_eq!(reach.concurrent(EventId(0), EventId(1)), Some(true));
        let comp = children[3]
            .as_any()
            .downcast_ref::<CompetitiveSink>()
            .unwrap();
        assert!(comp.ratio() >= 1.0);
    }
}
