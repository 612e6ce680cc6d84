//! Reference stamps and the checks that compare the system's output to them.
//!
//! A mixed-clock stamp depends only on its event's causal history, so the
//! stamp of "thread `t`'s `i`-th event" is the same in every faithful
//! interleaving.  Both checks key on `(thread, per-thread index)` and are
//! therefore insensitive to the order events left the merge:
//!
//! * [`Reference::mismatches`] compares event by event (used once per run,
//!   on the verification pass, so `failed` is an exact count);
//! * [`digest`] folds the whole stream into one number (used on measured
//!   passes, where keeping the reference stamps alive would distort
//!   `peak_rss_mb`).

use mvc_clock::VectorTimestamp;

/// Stamps are compared modulo trailing zeros: a component a stamp does not
/// have yet is a counter that was still zero when it was taken.
fn trimmed(stamp: &[u64]) -> &[u64] {
    let len = stamp.iter().rposition(|&c| c != 0).map_or(0, |p| p + 1);
    &stamp[..len]
}

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

fn event_hash(thread: usize, index: u64, stamp: &[u64]) -> u64 {
    let mut h = mix(mix(0x243F_6A88_85A3_08D3, thread as u64), index);
    for &component in trimmed(stamp) {
        h = mix(h, component);
    }
    // splitmix64 finaliser, so the wrapping sum below mixes every bit.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Order-insensitive digest over `(thread, per-thread index, stamp)` of a
/// delivered stream: `threads[i]` performed the event `stamps[i]` belongs to.
pub fn digest(threads: impl IntoIterator<Item = usize>, stamps: &[VectorTimestamp]) -> u64 {
    let mut next: Vec<u64> = Vec::new();
    let mut sum = 0u64;
    for (thread, stamp) in threads.into_iter().zip(stamps) {
        if thread >= next.len() {
            next.resize(thread + 1, 0);
        }
        sum = sum.wrapping_add(event_hash(thread, next[thread], stamp.as_slice()));
        next[thread] += 1;
    }
    sum
}

/// The expected stamps of one event stream.
#[derive(Debug)]
pub struct Reference {
    stamps: Vec<VectorTimestamp>,
    /// `by_thread[t][i]` = position in `stamps` of thread `t`'s `i`-th event.
    by_thread: Vec<Vec<u32>>,
    threads: Vec<usize>,
}

impl Reference {
    /// `threads[i]` performed the event `stamps[i]` belongs to.
    pub fn new(threads: Vec<usize>, stamps: Vec<VectorTimestamp>) -> Self {
        assert_eq!(threads.len(), stamps.len());
        let mut by_thread: Vec<Vec<u32>> = Vec::new();
        for (pos, &thread) in threads.iter().enumerate() {
            if thread >= by_thread.len() {
                by_thread.resize_with(thread + 1, Vec::new);
            }
            by_thread[thread].push(pos as u32);
        }
        Reference {
            stamps,
            by_thread,
            threads,
        }
    }

    /// Number of reference events.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Bumps one component of the middle stamp — the deliberate fault behind
    /// `--corrupt stamp`.
    pub fn corrupt(&mut self) {
        let mid = self.stamps.len() / 2;
        let mut components = self.stamps[mid].as_slice().to_vec();
        match components.first_mut() {
            Some(first) => *first += 1,
            None => components.push(1),
        }
        self.stamps[mid] = VectorTimestamp::from_components(components);
    }

    /// The digest a correct delivery of this stream must produce.
    pub fn digest(&self) -> u64 {
        digest(self.threads.iter().copied(), &self.stamps)
    }

    /// Events of the delivered stream that are missing from, or differ from,
    /// the reference — plus reference events never delivered.
    pub fn mismatches(
        &self,
        threads: impl IntoIterator<Item = usize>,
        stamps: &[VectorTimestamp],
    ) -> u64 {
        let mut next = vec![0usize; self.by_thread.len()];
        let mut good = 0u64;
        let mut delivered = 0u64;
        for (thread, stamp) in threads.into_iter().zip(stamps) {
            delivered += 1;
            let Some(pos) = self
                .by_thread
                .get(thread)
                .and_then(|positions| positions.get(next[thread]))
            else {
                continue;
            };
            next[thread] += 1;
            if trimmed(self.stamps[*pos as usize].as_slice()) == trimmed(stamp.as_slice()) {
                good += 1;
            }
        }
        (self.stamps.len() as u64).max(delivered) - good
    }

    /// Mean number of components in which a stamp differs from the same
    /// thread's previous stamp (the first stamp of a thread counts its
    /// nonzero components) — what a differential encoding would ship.
    pub fn changed_components_per_stamp(&self) -> f64 {
        let mut changed = 0u64;
        for positions in &self.by_thread {
            let mut previous: &[u64] = &[];
            for &pos in positions {
                let current = self.stamps[pos as usize].as_slice();
                let width = current.len().max(previous.len());
                changed += (0..width)
                    .filter(|&k| {
                        current.get(k).copied().unwrap_or(0)
                            != previous.get(k).copied().unwrap_or(0)
                    })
                    .count() as u64;
                previous = current;
            }
        }
        changed as f64 / self.stamps.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: &[u64]) -> VectorTimestamp {
        VectorTimestamp::from_components(c.to_vec())
    }

    #[test]
    fn digest_ignores_order_and_padding_but_not_values() {
        let a = digest([0, 1, 0], &[ts(&[1, 0]), ts(&[0, 1]), ts(&[2, 1])]);
        let b = digest([1, 0, 0], &[ts(&[0, 1, 0]), ts(&[1]), ts(&[2, 1])]);
        assert_eq!(a, b);
        let c = digest([0, 1, 0], &[ts(&[1, 0]), ts(&[0, 1]), ts(&[2, 2])]);
        assert_ne!(a, c);
    }

    #[test]
    fn corrupt_reference_is_caught_by_both_checks() {
        let threads = vec![0, 1, 0];
        let stamps = vec![ts(&[1, 0]), ts(&[0, 1]), ts(&[2, 1])];
        let mut reference = Reference::new(threads.clone(), stamps.clone());
        assert_eq!(reference.mismatches(threads.iter().copied(), &stamps), 0);
        assert_eq!(reference.mismatches([0, 1], &stamps[..2]), 1, "one missing");
        let clean = reference.digest();
        reference.corrupt();
        assert_eq!(reference.mismatches(threads.iter().copied(), &stamps), 1);
        assert_ne!(reference.digest(), clean);
    }

    #[test]
    fn changed_components_counts_the_differential_payload() {
        let reference = Reference::new(vec![0, 0], vec![ts(&[1, 0, 0]), ts(&[2, 0, 5])]);
        // first stamp: 1 nonzero; second: components 0 and 2 changed.
        assert_eq!(reference.changed_components_per_stamp(), 1.5);
    }
}
