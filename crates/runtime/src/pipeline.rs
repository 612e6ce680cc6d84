//! The pipeline's error.  A [`LiveSession`](crate::LiveSession) is ingest
//! buffers, the ticket merge (see [`crate::ingest`]) and mvc-core's
//! [`StampLoop`](mvc_core::StampLoop), which stamps the merged
//! interleaving in bounded windows, hands each window to the sink, and
//! holds back whatever either stage refused; [`PipelineError`] names the
//! stage that failed.

pub use mvc_core::stamp_loop::PipelineError;
