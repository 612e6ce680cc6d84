//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{unbounded, Sender, Receiver}` backed by a
//! mutex-protected `VecDeque`.  Unlike `std::sync::mpsc`, the senders are
//! `Sync` (crossbeam's senders can be shared behind an `Arc` without
//! cloning per thread).  The one user is `mvc-shard`, whose router and
//! workers exchange chunks over these channels; swap in the real crossbeam
//! for contended production use.

#![forbid(unsafe_code)]

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
