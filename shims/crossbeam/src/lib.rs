//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{unbounded, Sender, Receiver}` backed by a
//! mutex-protected `VecDeque`.  Unlike `std::sync::mpsc`, the senders are
//! `Sync` (crossbeam's senders can be shared behind an `Arc` without
//! cloning per thread), which is what `mvc_runtime::session` relies on.
//! Throughput is adequate for trace recording; swap in the real crossbeam
//! for contended production use.
//!
//! Beyond the real crate's API subset, the shim adds one **extension**:
//! [`SegQueue::pop_batch`](queue::SegQueue::pop_batch), which moves up to
//! `max` queued elements under a single lock acquisition.  The real
//! `crossbeam::queue::SegQueue` is lock-free; replace `pop_batch` with a
//! `while let Some(v) = q.pop()` loop (bounded by `max`) when swapping it in.

#![forbid(unsafe_code)]

/// Concurrent queues, mirroring `crossbeam::queue`.
pub mod queue {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::Mutex;

    /// Events per segment.  The real crate uses 32; a larger segment
    /// amortises the shim's allocation better because each segment is one
    /// heap block that lives until fully drained.
    const SEGMENT_CAPACITY: usize = 256;

    /// An unbounded queue of fixed-size segments, mirroring
    /// `crossbeam::queue::SegQueue`.
    ///
    /// Producers [`push`](SegQueue::push) through a shared reference; memory
    /// grows one segment (not one element) at a time and is reclaimed a
    /// whole segment at a time as the consumer drains.  The real crate is
    /// lock-free; this shim serialises on one internal mutex, which is still
    /// uncontended in the intended deployment — one queue *per producer
    /// thread* (see `mvc_runtime::ingest`), where the only contention is the
    /// occasional drain.
    pub struct SegQueue<T> {
        inner: Mutex<Segments<T>>,
    }

    struct Segments<T> {
        /// Ring of segments: the consumer pops from the front segment, the
        /// producer pushes onto the back one.  Each segment is itself a ring
        /// (`VecDeque` with fixed capacity) so a pop is O(1) without
        /// shifting.
        ring: VecDeque<VecDeque<T>>,
        len: usize,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> SegQueue<T> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            SegQueue {
                inner: Mutex::new(Segments {
                    ring: VecDeque::new(),
                    len: 0,
                }),
            }
        }

        /// Appends an element at the back of the queue.
        pub fn push(&self, value: T) {
            let mut inner = self.inner.lock().unwrap();
            let needs_segment = inner
                .ring
                .back()
                .is_none_or(|seg| seg.len() == SEGMENT_CAPACITY);
            if needs_segment {
                inner
                    .ring
                    .push_back(VecDeque::with_capacity(SEGMENT_CAPACITY));
            }
            inner
                .ring
                .back_mut()
                .expect("segment exists")
                .push_back(value);
            inner.len += 1;
        }

        /// Removes the element at the front of the queue, if any.
        pub fn pop(&self) -> Option<T> {
            let mut inner = self.inner.lock().unwrap();
            let value = inner.ring.front_mut()?.pop_front();
            if value.is_some() {
                inner.len -= 1;
                if inner.ring.front().is_some_and(|seg| seg.is_empty()) {
                    inner.ring.pop_front();
                }
            }
            value
        }

        /// Number of elements currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap().len
        }

        /// Returns `true` if the queue holds no elements.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Moves up to `max` front elements into `buf` under a single lock
        /// acquisition, returning how many were moved.  `Copy` elements are
        /// transferred slice-wise (one or two `memcpy`s per segment), which
        /// is what makes the drain side cheap.  (Shim extension — see the
        /// crate docs for the real-crossbeam equivalent.)
        pub fn pop_batch(&self, buf: &mut Vec<T>, max: usize) -> usize
        where
            T: Copy,
        {
            let mut inner = self.inner.lock().unwrap();
            let take = inner.len.min(max);
            buf.reserve(take);
            let mut moved = 0;
            while moved < take {
                let segment = inner.ring.front_mut().expect("len > 0 implies a segment");
                let from_segment = segment.len().min(take - moved);
                let (front, back) = segment.as_slices();
                if from_segment <= front.len() {
                    buf.extend_from_slice(&front[..from_segment]);
                } else {
                    buf.extend_from_slice(front);
                    buf.extend_from_slice(&back[..from_segment - front.len()]);
                }
                segment.drain(..from_segment);
                moved += from_segment;
                if segment.is_empty() {
                    inner.ring.pop_front();
                }
            }
            inner.len -= take;
            take
        }
    }

    impl<T> fmt::Debug for SegQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SegQueue { .. }")
        }
    }
}

/// Multi-producer multi-consumer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Error returned when sending on a channel with no receiver.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueues a message; never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Hold the queue lock while notifying so the disconnect
                // cannot slip between a blocked receiver's empty-queue check
                // and its wait() — without this the final wakeup can be lost
                // and recv() would sleep forever.
                let _guard = self.shared.queue.lock().unwrap();
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap();
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self.shared.ready.wait(queue).unwrap();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn multi_producer_drain() {
        let (sender, receiver) = unbounded();
        let sender = Arc::new(sender);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&sender);
                thread::spawn(move || {
                    for i in 0..100 {
                        s.send((t, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(sender);
        let mut got = 0;
        while receiver.recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 400);
        assert_eq!(receiver.recv(), Err(RecvError), "disconnected and drained");
    }
}

#[cfg(test)]
mod queue_tests {
    use super::queue::SegQueue;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_fifo_across_segments() {
        let q = SegQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Cross several segment boundaries.
        for i in 0..1000 {
            q.push(i);
        }
        assert_eq!(q.len(), 1000);
        for i in 0..1000 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_respects_max_and_order() {
        let q = SegQueue::new();
        for i in 0..700 {
            q.push(i);
        }
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf, 300), 300, "spans two segments");
        assert_eq!(buf, (0..300).collect::<Vec<_>>());
        assert_eq!(q.pop_batch(&mut buf, usize::MAX), 400);
        assert_eq!(buf, (0..700).collect::<Vec<_>>(), "appends, keeps order");
        assert_eq!(q.pop_batch(&mut buf, 8), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        let q = Arc::new(SegQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..10_000u64 {
                    q.push(i);
                }
            })
        };
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while got.len() < 10_000 {
            if q.pop_batch(&mut buf, 512) > 0 {
                got.append(&mut buf);
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>(), "FIFO per producer");
    }
}
