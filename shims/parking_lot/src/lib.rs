//! Offline shim for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s poison-free API
//! (`lock()` returns the guard directly).  A poisoned std lock is recovered
//! rather than propagated, matching `parking_lot`'s behaviour of not
//! poisoning on panic.

#![forbid(unsafe_code)]

use std::sync;

pub use sync::MutexGuard;

/// Mutual exclusion lock, mirroring `parking_lot::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }
}
