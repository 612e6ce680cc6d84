//! The shard workers.
//!
//! Each shard is one OS thread owning a [`ShardState`](crate::slicing) and
//! fed by its own queue.  The router broadcasts every [`Chunk`] (a shared
//! `Arc` of routed events plus a `start..end` window, so a whole batch is
//! one allocation no matter how many chunks it splits into) to every shard;
//! a shard applies the chunk to its slice and sends the resulting flat
//! buffer (slice values, event-major) back on its private reply channel.
//!
//! Ordering needs no sequence numbers: both channels are FIFO and each
//! worker processes its queue in order, so the `k`-th reply on shard `s`'s
//! channel is always shard `s`'s slice of the `k`-th chunk.  The router's
//! merge consumes one reply per shard per chunk, which is exactly the
//! epoch/watermark discipline described in the crate docs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{Receiver, Sender};

use crate::slicing::{EventRec, ShardState};

/// One unit of work broadcast to every shard.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// The receiving shard's slice width for the whole chunk (the router
    /// never grows the clock inside a batch).
    pub(crate) ln: usize,
    /// The routed events of the enclosing batch, shared across shards.
    pub(crate) events: Arc<Vec<EventRec>>,
    /// The window of `events` this chunk covers.
    pub(crate) start: usize,
    /// Exclusive end of the window.
    pub(crate) end: usize,
}

/// Spawns the worker thread for one shard.
///
/// The worker exits when the router drops its `Sender` (every queued chunk
/// is still processed first, because the channel drains before reporting
/// disconnection) or when the router stops listening for replies.
#[expect(
    clippy::expect_used,
    reason = "spawn fails only on OS thread exhaustion at engine construction, before any event flows"
)]
pub(crate) fn spawn(
    shard: usize,
    input: Receiver<Chunk>,
    output: Sender<Vec<u64>>,
) -> JoinHandle<()> {
    // `shard.apply_ns` (histogram, ns): one worker's slice application for
    // one chunk — resolved here, before the loop, so recording in the loop
    // never touches the registry (see docs/OBSERVABILITY.md).
    let apply_ns = mvc_obs::global().histogram("shard.apply_ns");
    std::thread::Builder::new()
        .name(format!("mvc-shard-{shard}"))
        .spawn(move || {
            let mut state = ShardState::new(shard);
            while let Ok(chunk) = input.recv() {
                let mut out = Vec::new();
                let span = apply_ns.span();
                state.apply(chunk.ln, &chunk.events[chunk.start..chunk.end], &mut out);
                span.stop();
                if output.send(out).is_err() {
                    break;
                }
            }
        })
        .expect("spawning a shard worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn worker_processes_chunks_in_order_and_exits_on_disconnect() {
        let (to_shard, input) = unbounded();
        let (output, replies) = unbounded();
        let handle = spawn(0, input, output);
        let events = Arc::new(vec![
            EventRec::striped(0, 0, 0, 1),
            EventRec::striped(0, 1, 0, 1),
        ]);
        for (start, end) in [(0, 1), (1, 2)] {
            to_shard
                .send(Chunk {
                    ln: 1,
                    events: Arc::clone(&events),
                    start,
                    end,
                })
                .unwrap();
        }
        assert_eq!(replies.recv().unwrap(), vec![1]);
        assert_eq!(replies.recv().unwrap(), vec![2], "state persists FIFO");
        drop(to_shard);
        handle.join().unwrap();
    }
}
