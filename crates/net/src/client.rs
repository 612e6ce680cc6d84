//! The producer client: records events locally, streams them to the
//! server within its credit window, and (optionally) collects the stamps
//! streamed back.
//!
//! The client is a state machine driven by [`step`](ProducerClient::step)
//! — a single non-blocking-capable call that sends what credit allows and
//! processes whatever frames have arrived.  A step runs send, read, send,
//! decode: it acts on control frames (`Credit`, `Goodbye`, …) as it reads
//! them but only queues `Stamps` bodies, and decodes those after its second
//! send, so that the next window of events is on its way to the server
//! while the client rebuilds the last one's stamps.  The server writes
//! `Credit` behind the `Stamps` it covers, so the client writes again only
//! once the server's write has landed.  Deterministic tests interleave
//! `step(Some(Duration::ZERO))` with the server's sans-I/O calls over an
//! in-process pair; the blocking [`finish`](ProducerClient::finish)
//! convenience just loops `step` with a short wait until the server's
//! goodbye arrives.
//!
//! ## Replay log and reconnect
//!
//! Every recorded event stays in a local log until the server
//! acknowledges it via `Credit.acked` (the ingest watermark).  On
//! reconnect the client re-sends `Hello` with its session token and how
//! many stamps it already holds; the server replies with the watermark,
//! and the client replays its log from there.  Events the server already
//! ingested are never re-sent, events it lost in flight are, so the
//! server-side interleaving is exactly what an uninterrupted connection
//! would have produced.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mvc_clock::VectorTimestamp;
use mvc_trace::OpKind;

use crate::frame::{
    decode_deferred, write_frame, write_stream_header, Frame, FrameReader, Incoming,
};
use crate::transport::{Recv, Transport, TransportError};
use crate::NetError;

/// Client-side session parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Names of this producer's threads (local thread `i` = `threads[i]`).
    pub threads: Vec<String>,
    /// Names of the objects it operates on (local object `i` =
    /// `objects[i]`).  Objects are shared across clients *by name*.
    pub objects: Vec<String>,
    /// Whether to request the stamped results back.
    pub want_stamps: bool,
    /// Maximum events per `Events` frame.
    pub events_per_frame: usize,
    /// Send a `StampsAck` every this many newly received stamps (lets the
    /// server prune its retransmit log).
    pub ack_every: u64,
}

impl ClientConfig {
    /// A config with the given registrations and default tuning.
    pub fn new(threads: Vec<String>, objects: Vec<String>, want_stamps: bool) -> Self {
        ClientConfig {
            threads,
            objects,
            want_stamps,
            events_per_frame: 16384,
            ack_every: 8192,
        }
    }
}

/// Registry handles for the client's metrics, resolved once at connect
/// (see docs/OBSERVABILITY.md for the catalogue).
#[derive(Debug)]
struct ClientMetrics {
    /// `net.client.reconnects`: reconnect-and-replay handshakes started.
    reconnects: mvc_obs::Counter,
    /// `net.client.stamp_rtt_ns` (ns): send of an `Events` frame to the
    /// arrival of the stamp that completes it.
    stamp_rtt: mvc_obs::Histogram,
}

impl Default for ClientMetrics {
    fn default() -> Self {
        let registry = mvc_obs::global();
        ClientMetrics {
            reconnects: registry.counter("net.client.reconnects"),
            stamp_rtt: registry.histogram("net.client.stamp_rtt_ns"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Hello sent, waiting for the ack.
    AwaitAck,
    /// Session open, streaming.
    Streaming,
    /// Server goodbye received; the session is complete.
    Done,
}

/// Everything the client ended up with, from
/// [`into_run`](ProducerClient::into_run).
#[derive(Debug, Clone)]
pub struct ClientRun {
    /// Session token assigned by the server.
    pub token: u64,
    /// Total events sent (and acknowledged) in the session.
    pub events: u64,
    /// Stamps received, indexed by the client's event order (empty unless
    /// `want_stamps`).
    pub stamps: Vec<VectorTimestamp>,
    /// Global thread index of each local thread.
    pub thread_ids: Vec<u64>,
    /// Global object index of each local object.
    pub object_ids: Vec<u64>,
    /// Times the session reconnected.
    pub reconnects: u32,
    /// Client-side stamp round-trip latency — send of an `Events` frame
    /// to the arrival of the stamp that completes it — in nanoseconds.
    /// Empty unless `want_stamps`.
    pub stamp_rtt: mvc_obs::HistogramSummary,
}

/// A producer streaming events to a [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub struct ProducerClient<T: Transport> {
    transport: T,
    config: ClientConfig,
    reader: FrameReader,
    phase: Phase,
    token: u64,
    thread_ids: Vec<u64>,
    object_ids: Vec<u64>,
    /// Unacknowledged events; front is event number `log_base`.
    log: VecDeque<(u32, u32, OpKind)>,
    /// Server-acknowledged ingest watermark.
    log_base: u64,
    /// Total events recorded.
    total: u64,
    /// Events sent so far (absolute index; rewound on reconnect).
    sent: u64,
    credit: u64,
    stamps: Vec<VectorTimestamp>,
    /// `Stamps` payloads read in this step and not yet decoded, oldest
    /// first.
    deferred: Vec<Vec<u8>>,
    last_ack: u64,
    finishing: bool,
    goodbye_sent: bool,
    reconnects: u32,
    scratch: Vec<u8>,
    /// Receive buffer, sized like the server handler's: a burst of stamps
    /// takes a few `recv` calls, not one per 16 KiB.
    recv_buf: Vec<u8>,
    metrics: ClientMetrics,
    /// Always-on per-client RTT histogram (detached from the registry so
    /// each client's summary is exact even with many clients sharing the
    /// global `net.client.stamp_rtt_ns`).
    rtt: mvc_obs::Histogram,
    /// `(stamp index that completes the frame, send time)` per in-flight
    /// `Events` frame, oldest first.  Cleared on reconnect — an RTT
    /// spanning a reconnect measures the outage, not the pipeline.
    rtt_pending: VecDeque<(u64, Instant)>,
}

impl<T: Transport> ProducerClient<T> {
    /// Opens a session over `transport`: writes the stream header and the
    /// initial `Hello` (does not wait for the ack — the first
    /// [`step`](Self::step) processes it).
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if the handshake cannot be written.
    pub fn connect(mut transport: T, config: ClientConfig) -> Result<Self, NetError> {
        let mut scratch = Vec::with_capacity(4096);
        write_stream_header(&mut scratch);
        write_frame(
            &mut scratch,
            &Frame::Hello {
                token: 0,
                want_stamps: config.want_stamps,
                stamps_received: 0,
                threads: config.threads.clone(),
                objects: config.objects.clone(),
            },
        );
        transport.send(&scratch)?;
        scratch.clear();
        Ok(ProducerClient {
            transport,
            config,
            reader: FrameReader::new(),
            phase: Phase::AwaitAck,
            token: 0,
            thread_ids: Vec::new(),
            object_ids: Vec::new(),
            log: VecDeque::new(),
            log_base: 0,
            total: 0,
            sent: 0,
            credit: 0,
            stamps: Vec::new(),
            deferred: Vec::new(),
            last_ack: 0,
            finishing: false,
            goodbye_sent: false,
            reconnects: 0,
            scratch,
            recv_buf: vec![0; 256 * 1024],
            metrics: ClientMetrics::default(),
            rtt: mvc_obs::Histogram::detached(),
            rtt_pending: VecDeque::new(),
        })
    }

    /// Resumes the session over a fresh transport after a disconnect.
    ///
    /// Replays start from the server's watermark, carried by the
    /// `HelloAck` the next [`step`](Self::step) processes.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] if called before the first ack assigned a
    /// token, [`NetError::Transport`] if the handshake cannot be written.
    pub fn reconnect(&mut self, transport: T) -> Result<(), NetError> {
        if self.token == 0 {
            return Err(NetError::Protocol(
                "cannot reconnect before the first HelloAck assigned a token".to_owned(),
            ));
        }
        self.transport = transport;
        self.reader = FrameReader::new();
        self.phase = Phase::AwaitAck;
        self.credit = 0;
        self.goodbye_sent = false;
        self.reconnects += 1;
        self.metrics.reconnects.inc();
        self.rtt_pending.clear();
        self.scratch.clear();
        write_stream_header(&mut self.scratch);
        write_frame(
            &mut self.scratch,
            &Frame::Hello {
                token: self.token,
                want_stamps: self.config.want_stamps,
                stamps_received: self.stamps.len() as u64,
                threads: self.config.threads.clone(),
                objects: self.config.objects.clone(),
            },
        );
        let result = self.transport.send(&self.scratch);
        self.scratch.clear();
        result.map_err(NetError::from)
    }

    /// Records one event (local thread and object indices).  Purely
    /// local — the next [`step`](Self::step) sends it, credit permitting.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range for the registrations in
    /// the [`ClientConfig`].
    pub fn record(&mut self, thread: usize, object: usize, kind: OpKind) {
        assert!(thread < self.config.threads.len(), "unregistered thread");
        assert!(object < self.config.objects.len(), "unregistered object");
        self.log.push_back((thread as u32, object as u32, kind));
        self.total += 1;
    }

    /// Events recorded but not yet sent on the current connection.
    pub fn backlog(&self) -> u64 {
        self.total - self.sent
    }

    /// Stamps received so far (client event order).
    pub fn stamps(&self) -> &[VectorTimestamp] {
        &self.stamps
    }

    /// Whether the server's goodbye has arrived.
    pub fn is_finished(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Declares the event stream complete: once the backlog drains, the
    /// next [`step`](Self::step) sends `Goodbye` and the session finishes
    /// when the server's goodbye (after all stamps) arrives.
    pub fn request_finish(&mut self) {
        self.finishing = true;
    }

    /// One protocol round: send what credit allows, read and process
    /// incoming frames, send what the credit just read allows, and decode
    /// the stamps read.  `wait` bounds the first read (`None` blocks,
    /// `Some(Duration::ZERO)` polls).
    ///
    /// Stamps read before a failure are decoded and kept all the same, so a
    /// [`reconnect`](Self::reconnect) resumes after them.
    ///
    /// Returns `true` if any bytes moved or frames were processed —
    /// `false` means the caller should wait (for credit, stamps, or the
    /// peer's goodbye) or declare the link dead.
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] when the connection drops (recoverable via
    /// [`reconnect`](Self::reconnect)); [`NetError::Remote`] when the
    /// server reports a session error; [`NetError::Frame`] or
    /// [`NetError::Protocol`] on a corrupt or out-of-order stream.
    pub fn step(&mut self, wait: Option<Duration>) -> Result<bool, NetError> {
        let exchanged = self.exchange(wait);
        // Acknowledge only over a link that is still up.
        let decoded = self.decode_stamps(exchanged.is_ok());
        let progress = exchanged?;
        decoded?;
        Ok(progress)
    }

    /// The I/O half of a step: send, read, send.
    fn exchange(&mut self, wait: Option<Duration>) -> Result<bool, NetError> {
        let mut progress = false;
        if self.phase == Phase::Streaming {
            progress |= self.send_ready()?;
        }
        progress |= self.read_frames(wait)?;
        // The ack that opened the stream, or a `Credit`, may have granted
        // credit.
        if self.phase == Phase::Streaming {
            progress |= self.send_ready()?;
        }
        Ok(progress)
    }

    /// Sends as many events as credit allows, plus the goodbye when the
    /// stream is complete.
    fn send_ready(&mut self) -> Result<bool, NetError> {
        let mut progress = false;
        while self.credit > 0 && self.sent < self.total {
            let available = self.total - self.sent;
            let count = available
                .min(self.credit)
                .min(self.config.events_per_frame as u64) as usize;
            let start = (self.sent - self.log_base) as usize;
            let events: Vec<(u32, u32, OpKind)> =
                self.log.iter().skip(start).take(count).copied().collect();
            self.scratch.clear();
            write_frame(&mut self.scratch, &Frame::Events { events });
            self.transport.send(&self.scratch)?;
            self.sent += count as u64;
            self.credit -= count as u64;
            if self.config.want_stamps {
                self.rtt_pending.push_back((self.sent, Instant::now()));
            }
            progress = true;
        }
        if self.finishing && self.sent == self.total && !self.goodbye_sent {
            self.scratch.clear();
            write_frame(&mut self.scratch, &Frame::Goodbye { events: self.total });
            self.transport.send(&self.scratch)?;
            self.goodbye_sent = true;
            progress = true;
        }
        Ok(progress)
    }

    fn read_frames(&mut self, wait: Option<Duration>) -> Result<bool, NetError> {
        let mut progress = false;
        let mut timeout = wait;
        loop {
            match self.transport.recv(&mut self.recv_buf, timeout) {
                Ok(Recv::Bytes(n)) => {
                    self.reader.feed(&self.recv_buf[..n]);
                    progress = true;
                }
                Ok(Recv::Empty) => break,
                Ok(Recv::Closed) => {
                    // Process what arrived before the close; the caller
                    // sees the close on its next step.
                    if self.process_buffered()? {
                        return Ok(true);
                    }
                    if self.phase == Phase::Done {
                        return Ok(progress);
                    }
                    return Err(NetError::Transport(TransportError::Closed));
                }
                Err(e) => return Err(NetError::Transport(e)),
            }
            // Only the first read waits; drain the rest without blocking.
            timeout = Some(Duration::ZERO);
        }
        progress |= self.process_buffered()?;
        Ok(progress)
    }

    fn process_buffered(&mut self) -> Result<bool, NetError> {
        let mut progress = false;
        while let Some(incoming) = self.reader.try_next_deferring_stamps()? {
            match incoming {
                Incoming::Frame(frame) => self.handle_frame(frame)?,
                Incoming::Stamps(payload) => self.deferred.push(payload),
            }
            progress = true;
        }
        Ok(progress)
    }

    /// Decodes the `Stamps` payloads read so far, in order, and sends a
    /// `StampsAck` after each one that completes `ack_every` stamps, if
    /// `ack`.
    fn decode_stamps(&mut self, ack: bool) -> Result<(), NetError> {
        for payload in std::mem::take(&mut self.deferred) {
            let (first, stamps) = decode_deferred(&payload)?;
            if first != self.stamps.len() as u64 {
                return Err(NetError::Protocol(format!(
                    "stamp stream jumped to {first}, expected {}",
                    self.stamps.len()
                )));
            }
            self.stamps.extend(stamps);
            let received = self.stamps.len() as u64;
            while let Some(&(end, sent_at)) = self.rtt_pending.front() {
                if end > received {
                    break;
                }
                self.rtt_pending.pop_front();
                let ns = u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.rtt.record(ns);
                self.metrics.stamp_rtt.record(ns);
            }
            if ack && received - self.last_ack >= self.config.ack_every {
                self.last_ack = received;
                self.scratch.clear();
                write_frame(
                    &mut self.scratch,
                    &Frame::StampsAck {
                        received: self.last_ack,
                    },
                );
                self.transport.send(&self.scratch)?;
            }
        }
        Ok(())
    }

    fn handle_frame(&mut self, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::HelloAck {
                token,
                watermark,
                credit,
                thread_ids,
                object_ids,
            } => {
                if self.phase != Phase::AwaitAck {
                    return Err(NetError::Protocol("unexpected HelloAck".to_owned()));
                }
                if watermark < self.log_base || watermark > self.total {
                    return Err(NetError::Protocol(format!(
                        "server watermark {watermark} outside the client log \
                         ({}..={})",
                        self.log_base, self.total
                    )));
                }
                self.token = token;
                self.thread_ids = thread_ids;
                self.object_ids = object_ids;
                // Everything below the watermark is ingested for good.
                while self.log_base < watermark {
                    self.log.pop_front();
                    self.log_base += 1;
                }
                self.sent = watermark;
                self.credit = credit;
                self.phase = Phase::Streaming;
                Ok(())
            }
            Frame::Credit { acked, more } => {
                if acked < self.log_base || acked > self.total {
                    return Err(NetError::Protocol(format!(
                        "server acked {acked} events outside the client log \
                         ({}..={})",
                        self.log_base, self.total
                    )));
                }
                while self.log_base < acked {
                    self.log.pop_front();
                    self.log_base += 1;
                }
                self.credit += more;
                Ok(())
            }
            Frame::Goodbye { events } => {
                if events != self.total {
                    return Err(NetError::Protocol(format!(
                        "server goodbye covers {events} events, client sent {}",
                        self.total
                    )));
                }
                self.phase = Phase::Done;
                Ok(())
            }
            Frame::Error { code, message } => Err(NetError::Remote(code, message)),
            // `Stamps` never gets here: the reader defers it.
            Frame::Hello { .. }
            | Frame::Events { .. }
            | Frame::StampsAck { .. }
            | Frame::Stamps { .. } => Err(NetError::Protocol(
                "client received a client-only frame".to_owned(),
            )),
        }
    }

    /// Blocking completion for real transports: requests the finish and
    /// loops [`step`](Self::step) with a short wait until the server's
    /// goodbye arrives, then returns the run.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] raised by the remaining protocol rounds
    /// (including a dropped connection — for reconnect-capable loops use
    /// [`step`](Self::step) directly).
    pub fn finish(mut self) -> Result<ClientRun, NetError> {
        self.request_finish();
        while !self.is_finished() {
            self.step(Some(Duration::from_millis(5)))?;
        }
        self.into_run()
    }

    /// Consumes the client, returning the run.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] if the session has not finished.
    pub fn into_run(self) -> Result<ClientRun, NetError> {
        if self.phase != Phase::Done {
            return Err(NetError::Protocol(
                "session has not completed its goodbye handshake".to_owned(),
            ));
        }
        if self.config.want_stamps && self.stamps.len() as u64 != self.total {
            return Err(NetError::Protocol(format!(
                "session finished with {} stamps for {} events",
                self.stamps.len(),
                self.total
            )));
        }
        Ok(ClientRun {
            token: self.token,
            events: self.total,
            stamps: self.stamps,
            thread_ids: self.thread_ids,
            object_ids: self.object_ids,
            reconnects: self.reconnects,
            stamp_rtt: self.rtt.summary(),
        })
    }
}
