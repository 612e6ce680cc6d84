//! `mvc-net` — the timestamping pipeline as a networked multi-client
//! service.
//!
//! Producer processes stream length-delimited event frames to a server
//! that runs the library's engine → sink pipeline and streams the
//! stamped results back.  The crate has three layers:
//!
//! * [`frame`] — the versioned wire format: `Hello`/`HelloAck` session
//!   handshake, `Events`, `Stamps`, `Credit` (explicit credit-based
//!   backpressure), `StampsAck`, `Goodbye` and `Error` frames, layered on
//!   the varint primitives of [`mvc_trace::codec`].
//! * [`transport`] — a [`Transport`] byte-pipe abstraction with blocking
//!   `std::net` TCP ([`TcpTransport`], thread-per-connection, no async
//!   runtime) and an in-process duplex pair ([`InProcTransport`]) for
//!   deterministic, network-free tests.
//! * [`server`] / [`client`] — the sans-I/O session server
//!   ([`NetServer`]: plain data around one engine and one
//!   [`StampLoop`](mvc_core::StampLoop) that every client's `Events`
//!   frames feed, with reconnect-and-replay, and a finished session
//!   leaving only its summary) and the producer state machine
//!   ([`ProducerClient`]).
//!
//! ## Why the result is exactly the batch result
//!
//! The server stamps events in the order their `Events` frames arrive.
//! One lock serialises the frames and each client sends its events in
//! program order, so arrival order is one faithful interleaving — a linear
//! extension of every thread's and every object's chain — no matter how
//! many connections fed it.  Mixed-vector-clock stamps depend only on each
//! event's causal history (its thread and object predecessors), so the
//! stamps of that interleaving equal those of a sequential batch replay —
//! bit for bit, including across a client disconnect, because replayed
//! events below the ingest watermark are never re-ingested.
//!
//! The server is sans I/O: whoever owns the transports moves the bytes.
//! Here one loop plays the I/O layer for one in-process connection.
//!
//! ```
//! use mvc_core::{MemoryRecorder, TimestampingEngine};
//! use mvc_net::{
//!     ClientConfig, InProcTransport, NetServer, ProducerClient, Recv, ServerConfig, Transport,
//! };
//! use mvc_trace::OpKind;
//! use std::time::Duration;
//!
//! let mut server = NetServer::new(
//!     TimestampingEngine::new(),
//!     Box::new(MemoryRecorder::new()),
//!     ServerConfig::default(),
//! );
//! let (near, far) = InProcTransport::pair();
//! let conn = server.connect();
//! let mut client = ProducerClient::connect(
//!     near,
//!     ClientConfig::new(vec!["t0".into()], vec!["x".into()], true),
//! )?;
//! let (mut far, mut buf) = (far, [0u8; 4096]);
//! client.record(0, 0, OpKind::Write);
//! client.record(0, 0, OpKind::Read);
//! client.request_finish();
//! while !client.is_finished() {
//!     while let Recv::Bytes(n) = far.recv(&mut buf, Some(Duration::ZERO))? {
//!         server.feed(conn, &buf[..n])?;
//!     }
//!     server.pump()?;
//!     far.send(&server.take_outgoing(conn))?;
//!     client.step(Some(Duration::ZERO))?;
//! }
//! let run = client.into_run()?;
//! assert_eq!(run.stamps.len(), 2);
//! let server_run = server.finish()?;
//! assert_eq!(server_run.report.events, 2);
//! # Ok::<(), mvc_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;
pub mod transport;

pub use client::{ClientConfig, ClientRun, ProducerClient};
pub use frame::{Frame, FrameError, FrameReader, MAX_FRAME_LEN, NET_MAGIC, NET_VERSION};
pub use server::{
    serve_tcp, ConnId, NetServer, ServeEngine, ServerConfig, ServerRun, SessionSummary,
};
pub use transport::{InProcTransport, Recv, TcpTransport, Transport, TransportError};

/// Errors raised by the networked service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The framed stream was corrupt or spoke the wrong version.
    Frame(FrameError),
    /// The underlying transport failed or closed.
    Transport(TransportError),
    /// The peer violated the protocol state machine.
    Protocol(String),
    /// The server's timestamping pipeline failed.
    Pipeline(String),
    /// The peer reported an error frame (code, message).
    Remote(u8, String),
    /// A listener or socket operation failed.
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Transport(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Pipeline(msg) => write!(f, "pipeline failure: {msg}"),
            NetError::Remote(code, msg) => write!(f, "peer error (code {code}): {msg}"),
            NetError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<TransportError> for NetError {
    fn from(e: TransportError) -> Self {
        NetError::Transport(e)
    }
}
