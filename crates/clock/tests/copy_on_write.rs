//! Copy-on-write rows: a stamp shares its thread's row until that row's next
//! write, and nothing a consumer does with a stamp — keep it, drop it,
//! materialise it and drop it — reaches another stamp or a row.

use mvc_clock::{ClockRows, VectorTimestamp};
use mvc_trace::{ObjectId, ThreadId};
use proptest::prelude::*;

/// Stamps cross threads (pipeline workers, the network server); sharing a
/// row must not take that away.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<VectorTimestamp>();
};

const THREADS: usize = 5;
const OBJECTS: usize = 5;

#[test]
fn a_materialised_then_dropped_stamp_is_never_served_again() {
    let width = 4096;
    let mut rows = ClockRows::new();
    let first = rows.step(ThreadId(0), ObjectId(0), 2100, width);
    assert_eq!(first.as_slice()[2100], 1);
    drop(first);
    // The row is written in place now, and its stale dense form goes with
    // the write.
    let second = rows.step(ThreadId(0), ObjectId(1), 2100, width);
    let mut expect = vec![0u64; width];
    expect[2100] = 2;
    assert_eq!(second.as_slice(), &expect[..]);
    assert_eq!(second.stored_words(), 64 + 1, "still packed");
    // A stamp still alive keeps its own dense form through the next write.
    let third = rows.step(ThreadId(0), ObjectId(0), 2101, width);
    assert_eq!(second.as_slice(), &expect[..]);
    expect[2101] = 1;
    assert_eq!(third.as_slice(), &expect[..]);
    drop((second, third));
    expect[2101] = 2;
    let fourth = rows.step(ThreadId(0), ObjectId(0), 2101, width);
    assert_eq!(fourth.as_slice(), &expect[..]);
}

proptest! {
    /// Random events at widths 70 (a truncated second chunk: rows fill and
    /// stamps turn plain), 512 and 4096; before the next event each stamp
    /// is kept, dropped, or materialised and dropped.  Every kept stamp
    /// equals the naive dense protocol's, and every row reads back as its
    /// last stamp.
    #[test]
    fn prop_kept_stamps_and_rows_match_the_dense_protocol(
        which in 0usize..3,
        events in proptest::collection::vec(
            (0..THREADS, 0..OBJECTS, 0usize..4096, 0u8..3),
            1..80,
        ),
    ) {
        let width = [70, 512, 4096][which];
        let mut rows = ClockRows::new();
        let mut threads = vec![vec![0u64; width]; THREADS];
        let mut objects = vec![vec![0u64; width]; OBJECTS];
        let mut kept = Vec::new();
        for &(t, o, component, fate) in &events {
            let component = component % width;
            let stamp = rows.step(ThreadId(t), ObjectId(o), component, width);
            let merged: Vec<u64> = (0..width)
                .map(|k| threads[t][k].max(objects[o][k]) + u64::from(k == component))
                .collect();
            threads[t].clone_from(&merged);
            objects[o].clone_from(&merged);
            match fate {
                0 => kept.push((stamp, merged)),
                1 => drop(stamp),
                _ => prop_assert_eq!(stamp.as_slice(), &merged[..]),
            }
        }
        for (stamp, dense) in &kept {
            prop_assert_eq!(stamp, &VectorTimestamp::from(dense.clone()));
        }
        for (t, dense) in threads.into_iter().enumerate() {
            prop_assert_eq!(rows.thread_clock(ThreadId(t), width), VectorTimestamp::from(dense));
        }
        for (o, dense) in objects.into_iter().enumerate() {
            prop_assert_eq!(rows.object_clock(ObjectId(o), width), VectorTimestamp::from(dense));
        }
    }
}
