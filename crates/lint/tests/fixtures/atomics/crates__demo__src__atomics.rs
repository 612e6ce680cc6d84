//! Atomic-ordering fixture.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub fn explicit_orderings_ok(flag: &AtomicBool, n: &AtomicUsize) {
    flag.store(true, Ordering::Release);
    let _ = flag.load(Ordering::Acquire);
    let _ = n.fetch_add(1, Ordering::Relaxed);
}

pub fn positive_seqcst(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}

pub fn suppressed_seqcst(flag: &AtomicBool) {
    // mvc-lint: allow(atomic-ordering) — fixture: migration stepping stone
    flag.store(true, Ordering::SeqCst);
}

pub fn false_positives_do_not_fire() {
    // Ordering::SeqCst in a comment must not fire.
    let _s = "Ordering::SeqCst in a string must not fire";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_seqcst(flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
    }
}
