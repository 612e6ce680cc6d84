//! Lock-free metric cells: sharded counters, gauges, log₂ histograms, and
//! span timers.
//!
//! Recording never takes a lock and never allocates. Counters and histograms
//! stripe their state across [`SHARDS`] cache-line-padded shards; each OS
//! thread is assigned one shard lazily (round-robin over a process-global
//! counter) and all of its `Relaxed` read-modify-writes land there, so two
//! recording threads touch the same cache line only when the thread count
//! exceeds the shard count. Shards are merged on snapshot — the one place a
//! total is computed — which is what makes per-event recording cheap enough
//! to leave on permanently.
//!
//! Every handle carries a shared `enabled` flag (its registry's, or a
//! private always-on flag for [`Counter::detached`]-style cells). A disabled
//! handle's record path is one `Relaxed` load and a branch; span timers
//! additionally skip the `Instant::now()` calls entirely.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Instant;

use crate::snapshot::HistogramSummary;

/// Number of per-thread stripes in a counter or histogram cell.
pub const SHARDS: usize = 16;

/// Number of log₂ latency buckets in a histogram.
///
/// Bucket `0` holds exact zeros; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b - 1]`; the last bucket additionally absorbs everything
/// from `2^62` up.
pub const BUCKETS: usize = 64;

/// Round-robin source for thread → shard assignment.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's assigned shard, or `usize::MAX` before first use.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns the calling thread's shard index, assigning one on first use.
fn shard_index() -> usize {
    THREAD_SHARD.with(|slot| {
        let cached = slot.get();
        if cached != usize::MAX {
            return cached;
        }
        let assigned = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
        slot.set(assigned);
        assigned
    })
}

/// One cache line's worth of counter state, so neighbouring shards never
/// false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// The shared storage behind one [`Counter`] handle.
pub(crate) struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A monotonically increasing event count.
///
/// Handles are cheap to clone (two `Arc`s) and all clones share one cell;
/// resolve the handle once at construction and call [`Counter::inc`] /
/// [`Counter::add`] from the hot path.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    pub(crate) fn from_parts(enabled: Arc<AtomicBool>, cell: Arc<CounterCell>) -> Self {
        Self { enabled, cell }
    }

    /// A counter attached to no registry, always enabled.
    ///
    /// Use this for per-instance exact counts (e.g. a sink's own figures)
    /// that must keep counting whether or not process-wide metrics are on;
    /// publish it into a registry later with
    /// [`Registry::adopt_counter`](crate::Registry::adopt_counter).
    pub fn detached() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            cell: Arc::new(CounterCell::new()),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op (one `Relaxed` load + branch) while disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Relaxed) {
            self.cell.add(n);
        }
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.cell.value()
    }

    pub(crate) fn cell(&self) -> Arc<CounterCell> {
        Arc::clone(&self.cell)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// The shared storage behind one [`Gauge`] handle.
///
/// Gauges are set at batch granularity (queue depths, windows in flight),
/// not per event, so a single unsharded atomic is the right trade.
pub(crate) struct GaugeCell {
    value: AtomicI64,
}

impl GaugeCell {
    pub(crate) fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    pub(crate) fn value(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// An instantaneous level: queue depth, credit occupancy, chunks in flight.
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    pub(crate) fn from_parts(enabled: Arc<AtomicBool>, cell: Arc<GaugeCell>) -> Self {
        Self { enabled, cell }
    }

    /// A gauge attached to no registry, always enabled.
    pub fn detached() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            cell: Arc::new(GaugeCell::new()),
        }
    }

    /// Overwrites the level. A no-op while disabled.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.enabled.load(Relaxed) {
            self.cell.value.store(value, Relaxed);
        }
    }

    /// Moves the level by `delta` (negative to decrease), enabled or not:
    /// a level kept by moves pairs each up-move with a down-move, and the
    /// switch may flip between the two.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.value.fetch_add(delta, Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.cell.value()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

/// Maps a recorded value to its log₂ bucket.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The largest value bucket `bucket` can hold (`u64::MAX` for the last,
/// open-ended bucket).
pub fn bucket_upper_edge(bucket: usize) -> u64 {
    if bucket >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// One shard of histogram state. No `#[repr(align)]`: at 66 words a shard
/// already spans several cache lines, so padding would only waste memory.
struct HistogramShard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramShard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The shared storage behind one [`Histogram`] handle.
pub(crate) struct HistogramCell {
    shards: [HistogramShard; SHARDS],
}

impl HistogramCell {
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| HistogramShard::new()),
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        let shard = &self.shards[shard_index()];
        shard.count.fetch_add(1, Relaxed);
        shard.sum.fetch_add(value, Relaxed);
        shard.buckets[bucket_index(value)].fetch_add(1, Relaxed);
    }

    /// Merges every shard into one summary (the snapshot-side total).
    pub(crate) fn summary(&self) -> HistogramSummary {
        let mut out = HistogramSummary::empty();
        for shard in &self.shards {
            out.count = out.count.wrapping_add(shard.count.load(Relaxed));
            out.sum = out.sum.wrapping_add(shard.sum.load(Relaxed));
            for (total, bucket) in out.buckets.iter_mut().zip(shard.buckets.iter()) {
                *total = total.wrapping_add(bucket.load(Relaxed));
            }
        }
        out
    }
}

/// A log₂-bucketed value distribution — latencies in nanoseconds, batch
/// sizes in events.
///
/// Recording rounds the value up to its power-of-two bucket; quantiles read
/// from a [`HistogramSummary`] are therefore upper bounds with at most 2×
/// resolution, which is plenty for p50/p95/p99 latency tracking and costs
/// three `Relaxed` `fetch_add`s per record.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    pub(crate) fn from_parts(enabled: Arc<AtomicBool>, cell: Arc<HistogramCell>) -> Self {
        Self { enabled, cell }
    }

    /// A histogram attached to no registry, always enabled.
    pub fn detached() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            cell: Arc::new(HistogramCell::new()),
        }
    }

    /// Records one observation. A no-op while disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Relaxed) {
            self.cell.record(value);
        }
    }

    /// Starts a span timer that records its elapsed nanoseconds into this
    /// histogram when dropped (or explicitly [`stopped`](SpanTimer::stop)).
    ///
    /// While the histogram is disabled the timer holds no start instant and
    /// its drop is free — no clock is read on either end.
    #[inline]
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer {
            histogram: self,
            start: self.enabled.load(Relaxed).then(Instant::now),
        }
    }

    /// Merged totals across all shards.
    pub fn summary(&self) -> HistogramSummary {
        self.cell.summary()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let summary = self.summary();
        f.debug_struct("Histogram")
            .field("count", &summary.count)
            .field("sum", &summary.sum)
            .finish()
    }
}

/// A stage-scoped latency timer; see [`Histogram::span`].
#[must_use = "a span timer records on drop; binding it to `_` drops it immediately"]
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    start: Option<Instant>,
}

impl SpanTimer<'_> {
    /// Stops the timer now and records the elapsed nanoseconds.
    pub fn stop(self) {
        // Dropping does the recording.
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.histogram.record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_disabled_counters_do_not() {
        let c = Counter::detached();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);

        let off = Counter::from_parts(
            Arc::new(AtomicBool::new(false)),
            Arc::new(CounterCell::new()),
        );
        off.add(7);
        assert_eq!(off.value(), 0);
    }

    #[test]
    fn gauges_set_and_move() {
        let g = Gauge::detached();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn a_gauge_moved_across_the_switch_returns_to_its_level() {
        let registry = crate::Registry::disabled();
        let live = registry.gauge("live");
        live.add(1);
        registry.set_enabled(true);
        live.add(-1);
        assert_eq!(live.value(), 0);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(BUCKETS - 1), u64::MAX);
        // Every value falls inside its bucket's range.
        for v in [1u64, 2, 3, 4, 7, 8, 1000, 1 << 40] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_edge(b), "{v} in bucket {b}");
            assert!(b == 0 || v > bucket_upper_edge(b - 1), "{v} in bucket {b}");
        }
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = Histogram::detached();
        for v in [0u64, 1, 1, 3, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1005);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn span_timer_records_once_per_span() {
        let h = Histogram::detached();
        h.span().stop();
        assert_eq!(h.summary().count, 1);
        {
            let _guard = h.span();
        }
        assert_eq!(h.summary().count, 2);
    }

    #[test]
    fn disabled_span_reads_no_clock_and_records_nothing() {
        let h = Histogram::from_parts(
            Arc::new(AtomicBool::new(false)),
            Arc::new(HistogramCell::new()),
        );
        let span = h.span();
        assert!(
            span.start.is_none(),
            "disabled span must not read the clock"
        );
        drop(span);
        assert_eq!(h.summary().count, 0);
    }
}
