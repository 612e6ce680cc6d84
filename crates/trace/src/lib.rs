//! Computation model for thread–object systems.
//!
//! The paper's system model (Section II): `n` sequential threads perform
//! operations on `m` shared objects; all operations on any single object are
//! serialized (e.g. by a lock).  A *computation* is the set of events together
//! with Lamport's happened-before relation, which is the smallest transitive
//! relation ordering consecutive events of the same thread and consecutive
//! events on the same object.
//!
//! This crate provides:
//!
//! * [`ids`] — strongly typed [`ThreadId`], [`ObjectId`], [`EventId`].
//! * [`event`] — the [`Event`] record (thread, object, operation kind,
//!   per-thread and per-object sequence numbers).
//! * [`computation`] — [`Computation`]: an append-only event log organised
//!   into per-thread and per-object chains, with conversion to the
//!   thread–object bipartite graph of [`mvc_graph`].
//! * [`causality`] — the [`CausalityOracle`]: an exact happened-before oracle
//!   computed by BFS over the event DAG, used as ground truth when validating
//!   clock implementations.
//! * [`generator`] — synthetic workload generators (uniform, nonuniform,
//!   producer–consumer, lock-striped, phased) and conversion of random
//!   bipartite graphs into computations.
//! * [`examples`] — the paper's Figure 1 computation, used in documentation,
//!   tests and the `paper_example` binary.
//! * [`codec`] — a compact binary trace encoding for storing and replaying
//!   computations.
//!
//! # Example
//!
//! ```
//! use mvc_trace::{Computation, ThreadId, ObjectId};
//!
//! let mut c = Computation::new();
//! let e1 = c.record(ThreadId(0), ObjectId(0));
//! let e2 = c.record(ThreadId(0), ObjectId(1));
//! let e3 = c.record(ThreadId(1), ObjectId(1));
//! let oracle = c.causality_oracle();
//! assert!(oracle.happened_before(e1, e2)); // same thread
//! assert!(oracle.happened_before(e2, e3)); // same object
//! assert!(oracle.happened_before(e1, e3)); // transitivity
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causality;
pub mod codec;
pub mod computation;
pub mod event;
pub mod examples;
pub mod generator;
pub mod ids;

pub use causality::CausalityOracle;
pub use computation::Computation;
pub use event::{Event, OpKind};
pub use generator::{WorkloadBuilder, WorkloadKind};
pub use ids::{EventId, ObjectId, ThreadId};
