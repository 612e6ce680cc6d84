//! Online mixed-vector-clock mechanisms (Section IV of the paper).
//!
//! In the online setting events arrive one at a time and the components of
//! the mixed vector clock may only be *added*, never removed or replaced —
//! existing timestamps would otherwise be invalidated.  When a revealed event
//! `(t, o)` is not covered by the current components, a mechanism must pick
//! which endpoint to promote to a component:
//!
//! * [`Naive`] — always pick the thread (or always the object); the final
//!   clock has one component per active thread (or object), exactly the
//!   traditional vector clock.
//! * [`Random`] — pick the thread or the object with probability ½ each.
//! * [`Popularity`] — pick the endpoint with higher popularity
//!   `deg(v) / |E|` in the bipartite graph revealed so far (Definition 1).
//! * [`Adaptive`] — the practical hybrid sketched in the paper's conclusion
//!   of Section V: use Popularity while the revealed graph is small and
//!   sparse, and fall back to Naive once density or node-count thresholds are
//!   exceeded.
//!
//! The [`OnlineTimestamper`] couples any mechanism with the incremental
//! [`TimestampingEngine`](mvc_core::TimestampingEngine), so the chosen
//! components immediately drive real timestamps, and implements the unified
//! [`Timestamper`](mvc_core::Timestamper) trait so harnesses can swap it for
//! the batch replay path or the raw engine; [`simulate_final_size`] replays
//! only the component-selection decision over an edge stream, which is what
//! the evaluation figures need.
//!
//! Both reveal an event's edge into the graph only while the mechanism
//! [reads it](OnlineMechanism::reads_graph): once that returns `false` it
//! stays `false`, and the driver stops revealing.  Revealing an edge is
//! most of what a simulated decision costs, so a simulation of [`Naive`] or
//! [`Random`] costs a cover lookup per edge, one of [`Adaptive`] costs that
//! from the moment it switches, and one of [`Popularity`] pays the reveal
//! for every edge.  [`CompetitiveTracker`] reveals every edge whatever the
//! mechanism, because the offline optimum it tracks needs all of them.
//!
//! [`OnlineMechanism`] is dyn-compatible, and the [`MechanismRegistry`]
//! builds any of the paper's mechanisms as a `Box<dyn OnlineMechanism>` from
//! its stable name, so sweeps are configured with strings instead of type
//! lists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod competitive;
pub mod mechanism;
pub mod registry;
pub mod timestamper;

pub use competitive::{CompetitiveReport, CompetitiveTracker, TrajectoryPoint};
pub use mechanism::{Adaptive, Naive, NaiveSide, OnlineMechanism, Popularity, Random};
pub use registry::{MechanismRegistry, UnknownMechanismError};
pub use timestamper::{simulate_final_size, MechanismStats, OnlineRun, OnlineTimestamper};
