//! The proxy's side of an origin or cluster-peer connection: one
//! [`Exchange`] — a request out, one reply back — on a non-blocking
//! socket the event loop waits on under `epoll`. Connections only: an
//! origin's response is parsed by [`http::ResponseReader`], the one
//! response parser, and a peer's reply by [`FrameReader`], the one frame
//! reader; both keep their place between reads, so an exchange is fed
//! whatever has arrived each time the socket is readable.
//!
//! Every miss and every revalidation is one request/response exchange
//! with the origin. Idle kept-alive sockets sit in the event loop's own
//! pool (at most [`MAX_IDLE`]): an exchange takes one when there is one
//! and puts it back only if the origin answered `Connection: keep-alive`
//! with a `Content-Length`-delimited response, so the next miss skips the
//! TCP handshake. Any other answer — HTTP/1.0's default — closes the
//! connection. With no idle socket at hand the exchange opens one with a
//! non-blocking `connect`, which completes when the socket turns
//! writable.
//!
//! **Stale connections.** An origin may close an idle connection at any
//! time, and the proxy only finds out when it next uses it. A failure on
//! a *reused* socket therefore says nothing about the origin's health:
//! the event loop runs the same attempt again on a fresh connection,
//! uncounted, so the retries, the timeout counter and the circuit breaker
//! never see it; only the fresh connection's outcome counts. (A malformed
//! response is the origin talking nonsense, not a stale socket, and
//! counts as it is.)
//!
//! **Nagle.** Request and response each leave in a single write and the
//! sockets set `TCP_NODELAY`: on a connection that stays open, a trailing
//! partial segment would otherwise wait for the peer's delayed ACK.

use crate::cluster::{Frame, FrameReader};
use crate::http::{self, HttpError, Response, ResponseHead, ResponseReader};
use crate::reactor::connect_nonblocking;
use bytes::Bytes;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};

/// An origin's answer, reduced to what the cache uses.
#[derive(Debug)]
pub struct Fetched {
    /// Status code.
    pub status: u16,
    /// `Last-Modified`, if any.
    pub last_modified: Option<u64>,
    /// Body bytes.
    pub body: Bytes,
}

impl Fetched {
    fn new(head: ResponseHead, body: Bytes) -> Fetched {
        Fetched {
            status: head.status,
            last_modified: head.last_modified,
            body,
        }
    }

    /// The answer as a client-facing response, for statuses the proxy
    /// passes through (neither a document nor a `304`).
    pub fn into_response(self) -> Response {
        let mut resp = Response::ok(self.body, self.last_modified);
        resp.status = self.status;
        resp
    }
}

/// Encode a plain or conditional GET asking for a persistent connection,
/// byte-identical to [`http::write_request`] of the same request (header
/// names lower-case, in its map's order).
pub(crate) fn encode_request(buf: &mut Vec<u8>, target: &str, if_modified_since: Option<u64>) {
    buf.clear();
    buf.extend_from_slice(b"GET ");
    buf.extend_from_slice(target.as_bytes());
    buf.extend_from_slice(b" HTTP/1.0\r\nconnection: keep-alive\r\n");
    if let Some(since) = if_modified_since {
        buf.extend_from_slice(b"if-modified-since: ");
        http::push_u64(buf, since);
        buf.extend_from_slice(b"\r\n");
    }
    buf.extend_from_slice(b"\r\n");
}

/// Idle origin sockets kept at most; beyond it a finished exchange closes
/// its socket.
pub(crate) const MAX_IDLE: usize = 32;

/// Body bytes the event loop takes from one socket per readiness event.
/// A large document arrives over many events, with every other
/// connection served in between, instead of in one long drain.
const READ_BUDGET: usize = 256 * 1024;

/// How an exchange's reply is read.
#[derive(Debug)]
pub(crate) enum Reply {
    /// An origin's HTTP response.
    Http(ResponseReader),
    /// A cluster peer's frame.
    Frame(FrameReader),
}

/// Why an exchange ended without a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Failure {
    /// The socket failed or the peer hung up early.
    Io,
    /// The deadline passed, or the kernel gave up connecting.
    TimedOut,
    /// The peer answered with something that is not a reply.
    Malformed,
}

impl From<&io::Error> for Failure {
    fn from(e: &io::Error) -> Failure {
        match e.kind() {
            ErrorKind::TimedOut => Failure::TimedOut,
            ErrorKind::InvalidData => Failure::Malformed,
            _ => Failure::Io,
        }
    }
}

/// What a readiness event on an [`Exchange`] amounted to.
pub(crate) enum Progress {
    /// More is due; bytes arrived, so the peer is not stalled.
    Pending,
    /// An origin's whole response; `keep_alive` says whether the socket
    /// may carry another request.
    Response { fetched: Fetched, keep_alive: bool },
    /// A peer's whole reply.
    Frame(Frame),
    /// The exchange cannot be completed on this socket.
    Failed(Failure),
}

/// One exchange in flight on the event loop: the socket (this is its one
/// holder) and the reader that keeps the reply's place between readiness
/// events.
#[derive(Debug)]
pub(crate) struct Exchange {
    stream: TcpStream,
    /// Taken from the idle pool (module docs, *stale connections*).
    pub reused: bool,
    /// The `connect` is still in progress: the socket waits to turn
    /// writable, and nothing has been sent.
    pub connecting: bool,
    reply: Reply,
}

impl Exchange {
    /// Start connecting to `addr` without waiting. Out of descriptors
    /// (`EMFILE` and kin) or refused at once, it fails here.
    pub fn connect(addr: SocketAddr, reply: Reply) -> io::Result<Exchange> {
        let (stream, connecting) = connect_nonblocking(addr)?;
        Ok(Exchange {
            stream,
            reused: false,
            connecting,
            reply,
        })
    }

    /// An exchange on a kept socket from the idle pool.
    pub fn reuse(stream: TcpStream, reply: Reply) -> Exchange {
        Exchange {
            stream,
            reused: true,
            connecting: false,
            reply,
        }
    }

    /// The socket, for epoll registration.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The socket turned writable while connecting: whether it connected.
    pub fn connected(&mut self) -> Result<(), Failure> {
        if let Some(e) = self.stream.take_error().unwrap_or_else(Some) {
            return Err(Failure::from(&e));
        }
        self.connecting = false;
        Ok(())
    }

    /// Send the whole `request` at once. The socket is fresh or idle, so
    /// its send buffer is empty: a request that does not fit means the
    /// socket is no good.
    pub fn send(&self, request: &[u8]) -> Result<(), Failure> {
        match (&self.stream).write(request) {
            Ok(n) if n == request.len() => Ok(()),
            Ok(_) => Err(Failure::Io),
            Err(e) => Err(Failure::from(&e)),
        }
    }

    /// The socket is readable: take what has arrived, never waiting.
    pub fn on_readable(&mut self) -> Progress {
        let stream = &mut &self.stream;
        match &mut self.reply {
            Reply::Http(reader) => match reader.resume(stream, READ_BUDGET) {
                Ok(Some((head, body))) => Progress::Response {
                    fetched: Fetched::new(head, body),
                    keep_alive: head.keep_alive,
                },
                Ok(None) => Progress::Pending,
                Err(HttpError::Io(e)) if e.kind() == ErrorKind::WouldBlock => Progress::Pending,
                Err(HttpError::Io(e)) => Progress::Failed(Failure::from(&e)),
                Err(HttpError::Malformed(_)) => Progress::Failed(Failure::Malformed),
            },
            Reply::Frame(reader) => match reader.resume(stream) {
                Ok(Some(frame)) => Progress::Frame(frame),
                Ok(None) => Progress::Pending,
                Err(e) => Progress::Failed(Failure::from(&e)),
            },
        }
    }

    /// The socket and the reader, for the idle pool and the next exchange.
    pub fn into_parts(self) -> (TcpStream, Reply) {
        (self.stream, self.reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    #[test]
    fn encoded_requests_match_the_blocking_writer() {
        let target = "http://server0.x.edu/doc1.html";
        let mut buf = b"left over from the last request".to_vec();
        for since in [None, Some(0), Some(12345), Some(u64::MAX)] {
            let mut req = Request::get(target).with_header("Connection", "keep-alive");
            if let Some(t) = since {
                req = req.with_header("If-Modified-Since", &t.to_string());
            }
            let mut oracle = Vec::new();
            http::write_request(&mut oracle, &req).unwrap();
            encode_request(&mut buf, target, since);
            assert_eq!(buf, oracle, "if-modified-since {since:?}");
        }
    }
}
