//! The named-metric registry.
//!
//! A [`Registry`] maps stable dotted names (`pipeline.stamp_ns`,
//! `net.frames_sent`) to shared metric cells. Handles are resolved **once**
//! at construction time — the only lock in the crate guards the name table,
//! and it is taken at registration and snapshot time, never on record.
//!
//! Each registry carries one `enabled` flag shared by every handle it
//! issues. The process-global registry ([`global`](crate::global)) starts
//! disabled, so permanently instrumented hot paths cost one `Relaxed` load
//! and a predictable branch until a harness opts in with
//! [`Registry::set_enabled`].

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, PoisonError};

use crate::cell::{Counter, CounterCell, Gauge, GaugeCell, Histogram, HistogramCell};
use crate::snapshot::{Snapshot, SnapshotEntry, SnapshotValue};

/// The storage behind one registered name.
enum MetricCell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// One registered metric.
struct MetricEntry {
    name: String,
    cell: MetricCell,
}

/// A named-metric table issuing [`Counter`] / [`Gauge`] / [`Histogram`]
/// handles that share its enabled flag.
///
/// Cloning a registry clones the handle to one shared table, so a clone
/// sees (and toggles) the same metrics.
#[derive(Clone)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Arc<Mutex<Vec<MetricEntry>>>,
}

impl Registry {
    /// An enabled registry (private harnesses, tests).
    pub fn new() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            metrics: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A disabled registry — the process-global default. Handles record
    /// nothing (one `Relaxed` load + branch) until
    /// [`set_enabled`](Self::set_enabled)`(true)`.
    pub fn disabled() -> Self {
        let registry = Self::new();
        registry.enabled.store(false, Relaxed);
        registry
    }

    /// Whether handles issued by this registry currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Turns recording on or off for every handle this registry issued
    /// (past and future). Cells keep their accumulated values across
    /// toggles.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Resolves (registering on first use) the counter named `name`.
    ///
    /// All handles resolved under one name share one cell. If `name` is
    /// already registered as a different metric kind, a detached
    /// always-enabled counter is returned instead of clobbering it — the
    /// caller keeps working, the registry keeps its invariant that a name
    /// has exactly one kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = metrics.iter().find(|e| e.name == name) {
            return match &entry.cell {
                MetricCell::Counter(cell) => {
                    Counter::from_parts(Arc::clone(&self.enabled), Arc::clone(cell))
                }
                _ => Counter::detached(),
            };
        }
        let cell = Arc::new(CounterCell::new());
        metrics.push(MetricEntry {
            name: name.to_string(),
            cell: MetricCell::Counter(Arc::clone(&cell)),
        });
        Counter::from_parts(Arc::clone(&self.enabled), cell)
    }

    /// Resolves (registering on first use) the gauge named `name`; same
    /// kind-mismatch contract as [`counter`](Self::counter).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = metrics.iter().find(|e| e.name == name) {
            return match &entry.cell {
                MetricCell::Gauge(cell) => {
                    Gauge::from_parts(Arc::clone(&self.enabled), Arc::clone(cell))
                }
                _ => Gauge::detached(),
            };
        }
        let cell = Arc::new(GaugeCell::new());
        metrics.push(MetricEntry {
            name: name.to_string(),
            cell: MetricCell::Gauge(Arc::clone(&cell)),
        });
        Gauge::from_parts(Arc::clone(&self.enabled), cell)
    }

    /// Resolves (registering on first use) the histogram named `name`;
    /// same kind-mismatch contract as [`counter`](Self::counter).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = metrics.iter().find(|e| e.name == name) {
            return match &entry.cell {
                MetricCell::Histogram(cell) => {
                    Histogram::from_parts(Arc::clone(&self.enabled), Arc::clone(cell))
                }
                _ => Histogram::detached(),
            };
        }
        let cell = Arc::new(HistogramCell::new());
        metrics.push(MetricEntry {
            name: name.to_string(),
            cell: MetricCell::Histogram(Arc::clone(&cell)),
        });
        Histogram::from_parts(Arc::clone(&self.enabled), cell)
    }

    /// Publishes an existing counter (typically a
    /// [`Counter::detached`] cell owned by a sink) under `name`,
    /// replacing whatever that name held. Snapshots then read the
    /// adopted cell; the donor handle keeps its own enabled flag.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = MetricCell::Counter(counter.cell());
        if let Some(entry) = metrics.iter_mut().find(|e| e.name == name) {
            entry.cell = cell;
        } else {
            metrics.push(MetricEntry {
                name: name.to_string(),
                cell,
            });
        }
    }

    /// Takes a point-in-time view of every registered metric, sorted by
    /// name. Shards are merged here — the snapshot side pays the sum, the
    /// record side never does.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<SnapshotEntry> = metrics
            .iter()
            .map(|entry| SnapshotEntry {
                name: entry.name.clone(),
                value: match &entry.cell {
                    MetricCell::Counter(cell) => SnapshotValue::Counter(cell.value()),
                    MetricCell::Gauge(cell) => SnapshotValue::Gauge(cell.value()),
                    MetricCell::Histogram(cell) => {
                        SnapshotValue::Histogram(Box::new(cell.summary()))
                    }
                },
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolved_under_one_name_share_one_cell() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("hits"), Some(5));
    }

    #[test]
    fn disabling_stops_recording_but_keeps_totals() {
        let registry = Registry::new();
        let c = registry.counter("hits");
        c.add(2);
        registry.set_enabled(false);
        c.add(100);
        assert!(!registry.enabled());
        assert_eq!(registry.snapshot().counter("hits"), Some(2));
        registry.set_enabled(true);
        c.inc();
        assert_eq!(registry.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn kind_mismatch_returns_a_detached_cell_not_a_clobbered_table() {
        let registry = Registry::new();
        registry.counter("x").add(1);
        let g = registry.gauge("x");
        g.set(9);
        assert_eq!(registry.snapshot().counter("x"), Some(1));
        assert_eq!(g.value(), 9, "the detached gauge still works locally");
    }

    #[test]
    fn adopted_cells_appear_in_snapshots() {
        let registry = Registry::disabled();
        let own = Counter::detached();
        own.add(7);
        registry.adopt_counter("sink.events", &own);
        // Detached cells keep counting even while the registry is off.
        own.add(1);
        assert_eq!(registry.snapshot().counter("sink.events"), Some(8));
        // Re-adoption replaces the cell.
        let other = Counter::detached();
        other.add(2);
        registry.adopt_counter("sink.events", &other);
        assert_eq!(registry.snapshot().counter("sink.events"), Some(2));
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        let registry = Registry::new();
        registry.counter("b");
        registry.counter("a");
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
