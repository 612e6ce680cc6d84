//! The in-process workloads (`live-narrow`, `live-wide`): seeded inputs,
//! reference stamps, and the drivers that push events through
//! `TraceSession` → `LiveSession::pump` → sink.
//!
//! [`live_session`] is generic over the timestamper and the sink, so `bench`
//! builds sessions on the system's own types and `trace` on its
//! span-recording wrappers.

use std::time::{Duration, Instant};

use mvc_clock::{Component, ComponentMap};
use mvc_core::{
    replay, BatchReplay, EventSink, MemoryRecorder, OfflineOptimizer, TimestampReport, Timestamper,
    TimestampingEngine,
};
use mvc_runtime::{LiveSession, SharedObject, ThreadHandle, TraceSession};
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId, WorkloadBuilder, WorkloadKind};

use crate::args::{Corrupt, Workload};
use crate::verify::Reference;

/// One operation, in the column layout the pipeline uses.
pub type Op = (ThreadId, ObjectId, OpKind);

/// Events of `live-wide` the reference covers; the rest of a pass is checked
/// by count (a storing sink for the full pass would hold 3 GB).
pub const WIDE_VERIFY_PREFIX: usize = 4096;

/// The shape of one in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Thread count.
    pub threads: usize,
    /// Object count.
    pub objects: usize,
    /// Events per pass.
    pub events: usize,
    /// Events staged between two pumps of a closed pass.
    pub round: usize,
}

/// The shape of `workload`, or `None` for the workloads that are not
/// in-process pipelines.
pub fn shape(workload: Workload) -> Option<Shape> {
    match workload {
        Workload::LiveNarrow => Some(Shape {
            threads: 64,
            objects: 64,
            events: 200_000,
            // One round: stage the whole pass, then drain it.
            round: 200_000,
        }),
        Workload::LiveWide => Some(Shape {
            threads: 2048,
            objects: 2048,
            events: 100_000,
            // At width 4096 a round's stamps are `round` x 32 KiB.  512 keeps
            // them (16 MiB) cache-resident; a whole-pass round streams 134 MB
            // stamp windows through the shared L3 and DRAM, whose speed on
            // this host follows the neighbours (+-15 % between identical
            // runs).  The whole-pass drain survives as the layer metric
            // `runtime.backlog_drain_ns_per_event`.
            round: 512,
        }),
        Workload::NetEcho | Workload::PlanSparse => None,
    }
}

/// Everything set-up derives from the seed for an in-process workload.
#[derive(Debug)]
pub struct LiveInput {
    /// The workload's shape.
    pub shape: Shape,
    /// The events of one pass, in generation order.
    pub ops: Vec<Op>,
    /// The component map the engine is loaded with.
    pub map: ComponentMap,
    /// Time `WorkloadBuilder::build` took, per event.
    pub generate_ns_per_event: f64,
}

impl LiveInput {
    /// Generates the inputs from `seed`, and the expected stamps of their
    /// first events (all of them on `live-narrow`, [`WIDE_VERIFY_PREFIX`] on
    /// `live-wide`).  The reference is as large as a pass's output, so it is
    /// returned apart from the input and can be dropped once verified.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not an in-process workload.
    pub fn build(workload: Workload, seed: u64, corrupt: Option<Corrupt>) -> (Self, Reference) {
        let shape = shape(workload).expect("an in-process workload");
        let kind = match workload {
            Workload::LiveNarrow => WorkloadKind::Uniform,
            _ => WorkloadKind::Clustered { clusters: 64 },
        };
        let started = Instant::now();
        let computation = WorkloadBuilder::new(shape.threads, shape.objects)
            .operations(shape.events)
            .kind(kind)
            .seed(seed)
            .build();
        let generate_ns_per_event = started.elapsed().as_nanos() as f64 / shape.events as f64;
        let ops: Vec<Op> = computation
            .events()
            .map(|e| (e.thread, e.object, e.kind))
            .collect();

        let (map, mut reference) = match workload {
            // The offline-optimal plan, replayed by the batch protocol.
            Workload::LiveNarrow => {
                let plan = OfflineOptimizer::new().plan_for_computation(&computation);
                let run = replay(&mut plan.timestamper(), &computation)
                    .expect("the plan covers its own computation");
                let threads = ops.iter().map(|op| op.0.index()).collect();
                (
                    plan.components().clone(),
                    Reference::new(threads, run.timestamps),
                )
            }
            // Every thread then every object, in id order: width 4096, the
            // acceptance shape of docs/WIDE_CLOCKS.md.
            _ => {
                let mut map = ComponentMap::new();
                for t in 0..shape.threads {
                    map.push(Component::Thread(ThreadId(t)));
                }
                for o in 0..shape.objects {
                    map.push(Component::Object(ObjectId(o)));
                }
                let mut prefix = Computation::new();
                prefix.record_ops(ops[..WIDE_VERIFY_PREFIX].iter().copied());
                let run = replay(&mut BatchReplay::new(map.clone()), &prefix)
                    .expect("every endpoint is a component");
                let threads = ops[..WIDE_VERIFY_PREFIX]
                    .iter()
                    .map(|op| op.0.index())
                    .collect();
                (map, Reference::new(threads, run.timestamps))
            }
        };
        if corrupt == Some(Corrupt::Stamp) {
            reference.corrupt();
        }
        let input = LiveInput {
            shape,
            ops,
            map,
            generate_ns_per_event,
        };
        (input, reference)
    }

    /// A fresh engine loaded with the workload's component map.
    pub fn engine(&self) -> TimestampingEngine {
        TimestampingEngine::with_components(self.map.clone())
    }

    /// Runs the reference's events through the real pipeline into a
    /// [`MemoryRecorder`] and returns `(events checked, events wrong)`.
    ///
    /// # Errors
    ///
    /// A pipeline failure, as text.
    pub fn verification_pass(&self, reference: &Reference) -> Result<(u64, u64), String> {
        let ops = &self.ops[..reference.len()];
        let (live, producers) = live_session(self.shape, self.engine(), MemoryRecorder::new());
        producers.stage(ops);
        let (sink, _report) = finish(live)?;
        let (delivered, stamps) = sink.into_parts();
        let wrong = reference.mismatches(delivered.events().map(|e| e.thread.index()), &stamps);
        Ok((ops.len() as u64, wrong))
    }
}

/// The producer side of a session: registered threads and traced objects.
#[derive(Debug)]
pub struct Producers {
    handles: Vec<ThreadHandle>,
    objects: Vec<SharedObject<()>>,
}

impl Producers {
    /// Performs `ops` through `SharedObject::apply`, in order.
    pub fn stage(&self, ops: &[Op]) {
        for &(thread, object, kind) in ops {
            self.objects[object.index()].apply(&self.handles[thread.index()], kind, |_| ());
        }
    }
}

/// A fresh session in live mode around `engine` and `sink`, with the shape's
/// threads and unit objects registered.
pub fn live_session<T: Timestamper, S: EventSink>(
    shape: Shape,
    engine: T,
    sink: S,
) -> (LiveSession<T, S>, Producers) {
    let session = TraceSession::new();
    let handles = (0..shape.threads)
        .map(|i| session.register_thread(&format!("t{i}")))
        .collect();
    let objects = (0..shape.objects)
        .map(|i| session.shared_object(&format!("o{i}"), ()))
        .collect();
    (
        session.live_with_sink(engine, sink),
        Producers { handles, objects },
    )
}

/// `finish_into_sink`: everything still staged is merged, stamped and
/// delivered, and the sink comes back.
///
/// # Errors
///
/// The pipeline's error, as text.
pub fn finish<T: Timestamper, S: EventSink>(
    live: LiveSession<T, S>,
) -> Result<(S, TimestampReport), String> {
    live.finish_into_sink().map_err(|(_, e)| e.to_string())
}

/// One closed pass: what it cost and what it produced.
#[derive(Debug)]
pub struct Pass<S> {
    /// Time of the `SharedObject::apply` staging loops.
    pub produce: Duration,
    /// Time of the `pump`s and the final `finish_into_sink`.
    pub drain: Duration,
    /// The sink, holding whatever the pass delivered.
    pub sink: S,
    /// The engine's final report.
    pub report: TimestampReport,
}

/// Offers the input's events in rounds of `shape.round`: stage a round through
/// `SharedObject::apply` (timed), `pump` it (timed); `finish_into_sink`
/// (timed) ends the pass.
///
/// # Errors
///
/// The pipeline's error, as text.
pub fn closed_pass<S: EventSink>(input: &LiveInput, sink: S) -> Result<Pass<S>, String> {
    let (mut live, producers) = live_session(input.shape, input.engine(), sink);
    let (mut produce, mut drain) = (Duration::ZERO, Duration::ZERO);
    for round in input.ops.chunks(input.shape.round) {
        let started = Instant::now();
        producers.stage(round);
        let staged = Instant::now();
        live.pump().map_err(|e| e.to_string())?;
        produce += staged - started;
        drain += staged.elapsed();
    }
    let started = Instant::now();
    let (sink, report) = finish(live)?;
    drain += started.elapsed();
    Ok(Pass {
        produce,
        drain,
        sink,
        report,
    })
}
