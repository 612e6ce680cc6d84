//! Every implementation of a system trait the benchmark owns: thin wrappers
//! that open a span around each call into the wrapped layer and forward it
//! unchanged.  They live only in the `trace` binary, so a change to
//! `Timestamper`, `EventSink`, `ServeEngine` or `Transport` can break only
//! the traced run.

use std::time::Duration;

use mvc_clock::VectorTimestamp;
use mvc_core::{
    EventSink, SinkError, StampedEvent, TimestampError, TimestampReport, Timestamper,
    TimestampingEngine,
};
use mvc_net::{Recv, ServeEngine, Transport, TransportError};
use mvc_trace::{ObjectId, OpKind, ThreadId};

use crate::spans;

/// Spans `core.stamp` around `observe_batch` (`batch` = events in the
/// window).
pub struct SpanEngine<T>(pub T);

impl<T: Timestamper> Timestamper for SpanEngine<T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let _span = spans::enter("core.stamp", 1);
        self.0.observe(thread, object)
    }

    fn observe_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        let _span = spans::enter("core.stamp", events.len() as u64);
        self.0.observe_batch(events, out)
    }

    fn width(&self) -> usize {
        self.0.width()
    }

    fn finish(&self) -> TimestampReport {
        self.0.finish()
    }
}

impl ServeEngine for SpanEngine<TimestampingEngine> {
    fn cover_object(&mut self, object: ObjectId) {
        self.0.cover_object(object);
    }
}

/// Spans `core.sink` around every delivery (`batch` = events delivered).
pub struct SpanSink<S>(pub S);

impl<S: EventSink + 'static> EventSink for SpanSink<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn accept_batch(&mut self, batch: &[StampedEvent]) -> Result<(), SinkError> {
        let _span = spans::enter("core.sink", batch.len() as u64);
        self.0.accept_batch(batch)
    }

    fn accept_owned(&mut self, batch: &mut Vec<StampedEvent>) -> Result<(), SinkError> {
        let _span = spans::enter("core.sink", batch.len() as u64);
        self.0.accept_owned(batch)
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        let _span = spans::enter("core.sink", events.len() as u64);
        self.0.accept_columns(events, stamps)
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        self.0.flush()
    }

    fn events_accepted(&self) -> usize {
        self.0.events_accepted()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Spans a transport's calls.  `send` is `<side>.send`; a `recv` that may
/// block (non-zero timeout) is `<side>.wait`, because nearly all of its time
/// is spent waiting for the peer; a polling `recv` is `<side>.recv`.
/// `batch` = bytes moved, so the spans are also the benchmark's own count of
/// what crossed the socket.
pub struct SpanTransport<T> {
    inner: T,
    names: [&'static str; 3],
}

impl<T> SpanTransport<T> {
    /// The client's end: spans `net.client.{send,recv,wait}`.
    pub fn client(inner: T) -> Self {
        SpanTransport {
            inner,
            names: ["net.client.send", "net.client.recv", "net.client.wait"],
        }
    }

    /// The server's end: spans `net.server.{send,recv,wait}`.
    pub fn server(inner: T) -> Self {
        SpanTransport {
            inner,
            names: ["net.server.send", "net.server.recv", "net.server.wait"],
        }
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let _span = spans::enter(self.names[0], bytes.len() as u64);
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> Result<Recv, TransportError> {
        let polling = timeout.is_some_and(|t| t.is_zero());
        let span = spans::enter(self.names[if polling { 1 } else { 2 }], 0);
        let result = self.inner.recv(buf, timeout);
        if let Ok(Recv::Bytes(n)) = result {
            span.set_batch(n as u64);
        }
        result
    }
}
