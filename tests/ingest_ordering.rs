//! Tier-1 stress tests for the ingest pipeline's ordering guarantees.
//!
//! Eight real OS threads hammer a handful of contended objects through
//! their per-thread buffers; the drain-side merge must reassemble an
//! interleaving that preserves **every per-thread program order** and
//! **every per-object serialization order** — the two chain families the
//! paper's happened-before model is built from.  Ground truth for the
//! serialization order is captured *inside* each object's critical section
//! (the mutation log written under the lock **is** the serialization
//! order), so the tests do not assume what they are trying to prove.  The
//! first test drains after the workers are joined and cross-checks the
//! merged interleaving against the exact `CausalityOracle`; the second
//! races a spinning `pump` against the workers, so every push meets the
//! publish signal (flag → list → visit, see `mvc_runtime::ingest`) in
//! whatever state the drain left it — an overlooked buffer would lose
//! events or stall the merge behind them.

use std::sync::{Mutex, MutexGuard};
use std::thread;

use mvc_online::{OnlineTimestamper, Popularity};
use mvc_runtime::{SharedObject, ThreadHandle, TraceSession};
use mvc_trace::{Computation, EventId, ObjectId, OpKind, ThreadId};

const THREADS: usize = 8;
const OBJECTS: usize = 4;
const OPS_PER_THREAD: usize = 200;

/// Both tests spawn eight workers and want them to run *in parallel*; on a
/// small host they would serialise each other's workers, so they take turns.
fn cores() -> MutexGuard<'static, ()> {
    static CORES: Mutex<()> = Mutex::new(());
    CORES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Thread `t`'s deterministic program of `ops` operations: op `k` touches
/// object `(t + k) % OBJECTS`, cycling so every thread contends on every
/// object.
fn program(t: usize, ops: usize) -> Vec<usize> {
    (0..ops).map(|k| (t + k) % OBJECTS).collect()
}

/// An object whose value is its ground-truth serialization log: one
/// `(thread, per-thread op index)` entry appended under the lock.
type LoggedObject = SharedObject<Vec<(usize, usize)>>;

/// Runs `program(t, ops)` on its own OS thread, logging under each lock.
fn spawn_worker(
    t: usize,
    ops: usize,
    handle: ThreadHandle,
    objects: Vec<LoggedObject>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        for (k, &o) in program(t, ops).iter().enumerate() {
            objects[o].write(&handle, |log| log.push((t, k)));
        }
    })
}

/// Both chain families of the drained `computation` replay the ground
/// truth: each worker's program, and each object's lock-order log (`truth`,
/// read by a probe thread whose trailing read ends every object chain).
fn assert_chains_replay_ground_truth(
    computation: &Computation,
    ops: usize,
    truth: &[Vec<(usize, usize)>],
) {
    for t in 0..THREADS {
        let chain: Vec<usize> = computation
            .thread_chain(ThreadId(t))
            .iter()
            .map(|&id| computation.event(id).object.index())
            .collect();
        assert_eq!(chain, program(t, ops), "thread {t} program order broken");
    }
    // Map each chain event back to (thread, per-thread op index) through
    // the thread chains, skipping the probe's trailing read.
    for (o, truth_log) in truth.iter().enumerate() {
        let chain = computation.object_chain(ObjectId(o));
        let replayed: Vec<(usize, usize)> = chain
            .iter()
            .map(|&id| {
                let e = computation.event(id);
                (e.thread.index(), e.thread_seq)
            })
            .filter(|&(t, _)| t < THREADS)
            .collect();
        assert_eq!(
            &replayed, truth_log,
            "object {o} serialization order broken"
        );
        assert_eq!(chain.len(), truth_log.len() + 1, "plus the probe read");
    }
}

#[test]
fn stress_merge_preserves_both_chain_families() {
    let _cores = cores();
    let session = TraceSession::new();
    // Each object's value is its ground-truth serialization log: one
    // (thread, per-thread op index) entry appended under the lock.
    let objects: Vec<LoggedObject> = (0..OBJECTS)
        .map(|o| session.shared_object(&format!("o{o}"), Vec::new()))
        .collect();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let handle = session.register_thread(&format!("worker-{t}"));
            spawn_worker(t, OPS_PER_THREAD, handle, objects.clone())
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Capture the ground-truth serialization logs, then drain.
    let probe = session.register_thread("probe");
    let truth: Vec<Vec<(usize, usize)>> = objects
        .iter()
        .map(|o| o.read(&probe, |log| log.clone()))
        .collect();
    let computation = session.into_computation();
    assert_eq!(
        computation.len(),
        THREADS * OPS_PER_THREAD + OBJECTS,
        "every operation drained (workers + probe reads)"
    );

    assert_chains_replay_ground_truth(&computation, OPS_PER_THREAD, &truth);

    // Cross-check against the exact happened-before oracle: the merged
    // append order must be a linear extension of the full causal closure,
    // and both chain families must be causally ordered step by step.
    let oracle = computation.causality_oracle();
    for (a, b) in oracle.all_ordered_pairs() {
        assert!(a < b, "append order must linearise happened-before");
    }
    for t in 0..THREADS {
        let chain = computation.thread_chain(ThreadId(t));
        for pair in chain.windows(2) {
            assert!(oracle.happened_before(pair[0], pair[1]));
        }
    }
    for o in 0..OBJECTS {
        let chain = computation.object_chain(ObjectId(o));
        for pair in chain.windows(2) {
            assert!(oracle.happened_before(pair[0], pair[1]));
        }
        // First and last are transitively ordered through the whole chain.
        assert!(oracle.happened_before(chain[0], *chain.last().unwrap()));
    }

    // The tracer invents no order.  The workers above need not have
    // overlapped (a spawn can cost more than a worker's whole program, so
    // the OS may run them one after another), so this is checked where it
    // holds on every schedule: two handles on one OS thread, each on its
    // own object, must leave two concurrent events.
    let pair = TraceSession::new();
    let (p, q) = (pair.register_thread("p"), pair.register_thread("q"));
    let (x, y) = (pair.shared_object("x", ()), pair.shared_object("y", ()));
    x.write(&p, |_| ());
    y.write(&q, |_| ());
    let pair = pair.into_computation();
    assert!(
        pair.causality_oracle().concurrent(EventId(0), EventId(1)),
        "events of two threads on two objects must stay concurrent"
    );

    // Kind fidelity: workers wrote, the probe read.
    let kinds: Vec<OpKind> = computation.events().map(|e| e.kind).collect();
    assert_eq!(
        kinds.iter().filter(|&&k| k == OpKind::Write).count(),
        THREADS * OPS_PER_THREAD
    );
    assert_eq!(
        kinds.iter().filter(|&&k| k == OpKind::Read).count(),
        OBJECTS
    );
}

#[test]
fn racing_pump_overlooks_no_published_event() {
    let _cores = cores();
    const OPS: usize = 5_000;
    const IDLE: usize = 500;
    for round in 0..20 {
        let session = TraceSession::new();
        let objects: Vec<LoggedObject> = (0..OBJECTS)
            .map(|o| session.shared_object(&format!("o{o}"), Vec::new()))
            .collect();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| session.register_thread(&format!("worker-{t}")))
            .collect();
        // Registered and silent: a drain must neither need nor mind them.
        let idle: Vec<_> = (0..IDLE)
            .map(|i| session.register_thread(&format!("idle-{i}")))
            .collect();
        let mut live = session.live(OnlineTimestamper::new(Popularity::new()));
        let workers: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(t, handle)| spawn_worker(t, OPS, handle, objects.clone()))
            .collect();
        let mut pumped = 0;
        while !workers.iter().all(|w| w.is_finished()) {
            pumped += live
                .pump()
                .expect("an online timestamper covers everything");
        }
        for w in workers {
            w.join().unwrap();
        }
        let probe = live.register_thread("probe");
        let truth: Vec<Vec<(usize, usize)>> = objects
            .iter()
            .map(|o| o.read(&probe, |log| log.clone()))
            .collect();
        let run = live.finish().expect("the final drain is clean");
        drop(idle);

        // Exactly once: the count is right and every chain is gap-free.
        let total = THREADS * OPS + OBJECTS;
        assert_eq!(run.computation.len(), total, "round {round}");
        assert!(pumped <= total);
        assert_chains_replay_ground_truth(&run.computation, OPS, &truth);
        // And the stamps are those of a batch replay of what was drained.
        let batch = OnlineTimestamper::new(Popularity::new())
            .run(&run.computation)
            .expect("batch replay");
        assert_eq!(run.timestamps, batch.timestamps, "round {round}");
    }
}
