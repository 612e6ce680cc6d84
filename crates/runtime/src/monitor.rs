//! Live causality monitoring with online mixed vector clocks.
//!
//! The [`OnlineMonitor`] is a thread-safe wrapper around the online
//! timestamping pipeline (`mvc-online`): application threads report their
//! operations as they happen and receive the operation's mixed-clock
//! timestamp back; any two reported timestamps can later be compared to
//! decide whether the operations were causally ordered or concurrent, without
//! stopping the program or knowing the thread–object interaction in advance.
//!
//! Internally the monitor serialises all updates behind one mutex.  That is
//! deliberate: the paper's model assumes a total order per object anyway, and
//! the monitor's single lock gives a total order that is a linear extension
//! of it.  (A production implementation could shard the lock per object; the
//! single lock keeps the reference implementation obviously correct.)

use parking_lot::Mutex;

use mvc_clock::{ClockOrd, VectorTimestamp};
use mvc_core::TimestampError;
use mvc_online::{OnlineMechanism, OnlineTimestamper, Popularity};
use mvc_trace::{ObjectId, ThreadId};

/// A thread-safe, online causality monitor.
#[derive(Debug)]
pub struct OnlineMonitor<M = Popularity> {
    inner: Mutex<OnlineTimestamper<M>>,
}

impl Default for OnlineMonitor<Popularity> {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineMonitor<Popularity> {
    /// Creates a monitor using the Popularity mechanism (the paper's best
    /// online policy on skewed workloads).
    pub fn new() -> Self {
        Self::with_mechanism(Popularity::new())
    }
}

impl<M: OnlineMechanism> OnlineMonitor<M> {
    /// Creates a monitor with an explicit component-selection mechanism.
    fn with_mechanism(mechanism: M) -> Self {
        Self {
            inner: Mutex::new(OnlineTimestamper::new(mechanism)),
        }
    }

    /// Records one operation and returns its timestamp, padded to the clock
    /// width at the time of the call.
    ///
    /// # Errors
    ///
    /// Propagates [`TimestampError::RogueComponent`] when the mechanism
    /// violates its contract; the paper's mechanisms never do.
    pub fn record(
        &self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        self.inner.lock().observe(thread, object)
    }

    /// Current clock width (number of components selected so far).
    pub fn clock_size(&self) -> usize {
        self.inner.lock().clock_size()
    }

    /// Compares two timestamps previously returned by [`record`](Self::record).
    ///
    /// Timestamps recorded at different clock widths are padded with zeros
    /// before comparison — a missing component is exactly a counter that was
    /// still zero when the earlier timestamp was taken.
    pub fn compare(&self, a: &VectorTimestamp, b: &VectorTimestamp) -> ClockOrd {
        crate::analysis::compare_padded(a, b)
    }

    /// Returns `true` iff the operation stamped `a` happened before the
    /// operation stamped `b`.
    pub fn happened_before(&self, a: &VectorTimestamp, b: &VectorTimestamp) -> bool {
        self.compare(a, b) == ClockOrd::Before
    }

    /// Returns `true` iff the two stamped operations are concurrent.
    pub fn concurrent(&self, a: &VectorTimestamp, b: &VectorTimestamp) -> bool {
        self.compare(a, b) == ClockOrd::Concurrent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_online::Naive;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn same_thread_operations_are_ordered() {
        let m = OnlineMonitor::new();
        let a = m.record(ThreadId(0), ObjectId(0)).unwrap();
        let b = m.record(ThreadId(0), ObjectId(1)).unwrap();
        assert!(m.happened_before(&a, &b));
        assert!(!m.happened_before(&b, &a));
        assert!(m.clock_size() >= 1);
    }

    #[test]
    fn same_object_operations_are_ordered() {
        let m = OnlineMonitor::new();
        let a = m.record(ThreadId(0), ObjectId(3)).unwrap();
        let b = m.record(ThreadId(5), ObjectId(3)).unwrap();
        assert_eq!(m.compare(&a, &b), ClockOrd::Before);
    }

    #[test]
    fn unrelated_operations_are_concurrent() {
        let m = OnlineMonitor::new();
        let a = m.record(ThreadId(0), ObjectId(0)).unwrap();
        let b = m.record(ThreadId(1), ObjectId(1)).unwrap();
        assert!(m.concurrent(&a, &b));
        assert_eq!(m.compare(&a, &a), ClockOrd::Equal);
    }

    #[test]
    fn different_width_timestamps_compare_correctly() {
        // The first record happens at width 1, later ones at width 2+; the
        // padded comparison must still order causally related operations.
        let m = OnlineMonitor::with_mechanism(Naive::threads());
        let a = m.record(ThreadId(0), ObjectId(0)).unwrap();
        let _ = m.record(ThreadId(1), ObjectId(5)).unwrap();
        let c = m.record(ThreadId(1), ObjectId(0)).unwrap(); // sees a via object 0
        assert!(a.len() < c.len());
        assert!(m.happened_before(&a, &c));
        assert!(!m.happened_before(&c, &a));
    }

    #[test]
    fn packed_stamps_compare_with_narrower_wider_and_equal_ones() {
        // 131 thread components; a thread that kept to its own object has
        // seen one chunk of them, so its stamps are packed.
        let m = OnlineMonitor::with_mechanism(Naive::threads());
        let a = m.record(ThreadId(0), ObjectId(0)).unwrap();
        let own: Vec<_> = (1..=130)
            .map(|t| m.record(ThreadId(t), ObjectId(1000 + t)).unwrap())
            .collect();
        let c = m.record(ThreadId(130), ObjectId(0)).unwrap(); // sees a via object 0
        assert_eq!((a.len(), own[64].len(), c.len()), (1, 66, 131));
        assert!(own[64].stored_words() < 66 && c.stored_words() < 131);
        // Narrower against wider, both ways round.
        assert_eq!(m.compare(&a, &c), ClockOrd::Before);
        assert_eq!(m.compare(&c, &a), ClockOrd::After);
        assert_eq!(m.compare(&own[64], &c), ClockOrd::Concurrent);
        assert_eq!(m.compare(&own[129], &c), ClockOrd::Before);
        // Equal widths: nothing is padded.
        let d = m.record(ThreadId(130), ObjectId(7)).unwrap();
        assert_eq!(m.compare(&c, &d), ClockOrd::Before);
        assert_eq!(m.compare(&d, &d.clone()), ClockOrd::Equal);
    }

    #[test]
    fn monitor_is_usable_from_many_threads() {
        let m = Arc::new(OnlineMonitor::new());
        let mut joins = Vec::new();
        for t in 0..4 {
            let m = Arc::clone(&m);
            joins.push(thread::spawn(move || {
                let mut stamps = Vec::new();
                for i in 0..50 {
                    stamps.push(m.record(ThreadId(t), ObjectId(i % 5)).unwrap());
                }
                stamps
            }));
        }
        let per_thread: Vec<Vec<VectorTimestamp>> =
            joins.into_iter().map(|j| j.join().unwrap()).collect();
        // Within each thread, timestamps must be strictly increasing.
        for stamps in &per_thread {
            for w in stamps.windows(2) {
                assert!(m.happened_before(&w[0], &w[1]));
            }
        }
    }
}
