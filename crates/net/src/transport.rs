//! Byte transports for the framed protocol.
//!
//! A [`Transport`] is a bidirectional, ordered, reliable byte pipe with
//! explicit close semantics — exactly what the framing layer assumes.  Two
//! implementations:
//!
//! * [`TcpTransport`] — blocking `std::net` TCP, one transport per
//!   connection (the server runs thread-per-connection; no async runtime).
//! * [`InProcTransport`] — an in-process duplex pair over plain mutexes
//!   and condition variables, for deterministic, network-free tests.  It
//!   can be [severed](InProcTransport::sever); a test that cuts a link at an
//!   exact byte position holds the undelivered bytes itself and drops them.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Errors surfaced by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection (or it was severed).
    Closed,
    /// An I/O error other than an orderly close.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Io(msg) => write!(f, "transport I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Outcome of a [`Transport::recv`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// `n` bytes were read into the buffer.
    Bytes(usize),
    /// No bytes were available within the timeout.
    Empty,
    /// The peer closed its sending direction; no more bytes will arrive.
    Closed,
}

/// A bidirectional, ordered, reliable byte pipe.
pub trait Transport: Send {
    /// Writes all of `bytes` to the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the peer is gone; partial writes
    /// before the failure may or may not have been delivered (the framing
    /// layer recovers via reconnect-and-replay either way).
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Reads available bytes into `buf`.
    ///
    /// `timeout` selects the blocking mode: `None` blocks until bytes
    /// arrive or the peer closes; `Some(Duration::ZERO)` polls without
    /// blocking; any other duration waits at most that long.  Returns
    /// [`Recv::Empty`] on timeout, [`Recv::Closed`] once the peer's stream
    /// has ended (after all pending bytes were drained).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] for failures other than an orderly close.
    fn recv(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> Result<Recv, TransportError>;
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpMode {
    Blocking,
    Poll,
    Timeout(Duration),
}

/// Blocking TCP transport over a [`TcpStream`].
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    mode: Option<TcpMode>,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream (enables `TCP_NODELAY`; the
    /// protocol is latency-sensitive credit/stamp chatter).
    pub fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        TcpTransport { stream, mode: None }
    }

    /// Connects to a server address.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(TcpTransport::new(stream))
    }

    fn set_mode(&mut self, mode: TcpMode) -> Result<(), TransportError> {
        if self.mode == Some(mode) {
            return Ok(());
        }
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        match mode {
            TcpMode::Poll => self.stream.set_nonblocking(true).map_err(io)?,
            TcpMode::Blocking => {
                self.stream.set_nonblocking(false).map_err(io)?;
                self.stream.set_read_timeout(None).map_err(io)?;
            }
            TcpMode::Timeout(d) => {
                self.stream.set_nonblocking(false).map_err(io)?;
                // set_read_timeout rejects a zero duration; Poll covers it.
                self.stream.set_read_timeout(Some(d)).map_err(io)?;
            }
        }
        self.mode = Some(mode);
        Ok(())
    }
}

fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof
    )
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        // Writes block whatever the last read's mode was.  A poll leaves the
        // socket non-blocking, where a burst larger than the socket buffer
        // fails with `WouldBlock`: make it blocking again (`None`: the next
        // `recv` sets its mode afresh).
        if self.mode == Some(TcpMode::Poll) {
            self.stream
                .set_nonblocking(false)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.mode = None;
        }
        match self.stream.write_all(bytes) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::WriteZero || is_disconnect(e.kind()) => {
                Err(TransportError::Closed)
            }
            Err(e) => Err(TransportError::Io(e.to_string())),
        }
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> Result<Recv, TransportError> {
        let mode = match timeout {
            None => TcpMode::Blocking,
            Some(d) if d.is_zero() => TcpMode::Poll,
            Some(d) => TcpMode::Timeout(d),
        };
        self.set_mode(mode)?;
        match self.stream.read(buf) {
            Ok(0) => Ok(Recv::Closed),
            Ok(n) => Ok(Recv::Bytes(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(Recv::Empty)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(Recv::Empty),
            Err(e) if is_disconnect(e.kind()) => Ok(Recv::Closed),
            Err(e) => Err(TransportError::Io(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// In-process duplex pair
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

impl Pipe {
    fn lock(&self) -> std::sync::MutexGuard<'_, PipeState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One half of an in-process duplex byte pipe.
///
/// Clones share the same underlying pipes, so a test can keep a clone of
/// the client's half to [sever](Self::sever) the link while the client
/// owns the original.
#[derive(Debug, Clone)]
pub struct InProcTransport {
    /// Peer → us.
    incoming: Arc<Pipe>,
    /// Us → peer.
    outgoing: Arc<Pipe>,
}

impl InProcTransport {
    /// Creates a connected pair of transport halves.
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let a = Arc::new(Pipe::default());
        let b = Arc::new(Pipe::default());
        (
            InProcTransport {
                incoming: Arc::clone(&a),
                outgoing: Arc::clone(&b),
            },
            InProcTransport {
                incoming: b,
                outgoing: a,
            },
        )
    }

    /// Closes the link: the bytes already sent stay deliverable, then both
    /// directions read as closed and sends fail.
    pub fn sever(&self) {
        // Lock order: `outgoing`, then `incoming`, never both at once.  The
        // peer's `outgoing` is this half's `incoming`, so nesting them would
        // deadlock against a peer severing at the same time.
        for pipe in [&self.outgoing, &self.incoming] {
            pipe.lock().closed = true;
            pipe.ready.notify_all();
        }
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut out = self.outgoing.lock();
        if out.closed {
            return Err(TransportError::Closed);
        }
        out.buf.extend(bytes.iter().copied());
        self.outgoing.ready.notify_all();
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> Result<Recv, TransportError> {
        let mut state = self.incoming.lock();
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for (slot, byte) in buf.iter_mut().zip(state.buf.drain(..n)) {
                    *slot = byte;
                }
                return Ok(Recv::Bytes(n));
            }
            if state.closed {
                return Ok(Recv::Closed);
            }
            match timeout {
                Some(d) if d.is_zero() => return Ok(Recv::Empty),
                Some(d) => {
                    let (next, result) = self
                        .incoming
                        .ready
                        .wait_timeout(state, d)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    state = next;
                    if result.timed_out() && state.buf.is_empty() && !state.closed {
                        return Ok(Recv::Empty);
                    }
                }
                None => {
                    state = self
                        .incoming
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_delivers_bytes_in_order_both_ways() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(b"hello").unwrap();
        b.send(b"world").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Bytes(5)));
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(a.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Bytes(5)));
        assert_eq!(&buf[..5], b"world");
        assert_eq!(a.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Empty));
    }

    #[test]
    fn sever_delivers_the_bytes_already_sent_and_closes() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(b"0123").unwrap();
        a.sever();
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Bytes(4)));
        assert_eq!(&buf[..4], b"0123");
        assert_eq!(b.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Closed));
        assert_eq!(a.send(b"more"), Err(TransportError::Closed));
        assert_eq!(a.recv(&mut buf, Some(Duration::ZERO)), Ok(Recv::Closed));
    }

    #[test]
    fn blocking_recv_wakes_on_send_from_another_thread() {
        let (mut a, mut b) = InProcTransport::pair();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let got = b.recv(&mut buf, None).unwrap();
            (got, buf)
        });
        std::thread::sleep(Duration::from_millis(10));
        a.send(b"ping").unwrap();
        let (got, buf) = handle.join().unwrap();
        assert_eq!(got, Recv::Bytes(4));
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn timed_recv_returns_empty_after_the_deadline() {
        let (_a, mut b) = InProcTransport::pair();
        let mut buf = [0u8; 4];
        let got = b.recv(&mut buf, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(got, Recv::Empty);
    }
}
