//! The proxy's side of the origin connection: persistent sockets, and the
//! two ways an exchange is driven — blocking on a worker, or from the
//! event loop under `epoll`. Connections only: the responses that arrive
//! on them are parsed by [`http::ResponseReader`], the one response
//! parser.
//!
//! Every miss and every revalidation is one request/response exchange
//! with the origin. Idle kept-alive sockets sit in one bounded
//! [`IdlePool`] shared by the event loop and the workers: whoever runs an
//! exchange takes a socket from it and puts it back only if the origin
//! answered `Connection: keep-alive` with a `Content-Length`-delimited
//! response, so the next miss skips the TCP handshake (and the origin's
//! accept and thread hand-off). Any other answer — HTTP/1.0's default —
//! closes the connection as before.
//!
//! **Two drivers, one parser.** [`ResponseReader`] is resumable: it keeps
//! its place between reads, so the same code serves a worker that blocks
//! on the socket ([`Upstream::fetch`], [`ResponseReader::read`]) and the
//! event loop, which feeds it whatever has arrived each time `epoll`
//! reports the socket readable ([`InlineExchange`]). Neither builds a
//! header map: the reader keeps only the [`ResponseHead`]. Only a worker
//! ever opens a connection, sleeps, retries or consults a breaker; the loop
//! runs an exchange only on a socket that is already open and idle, and
//! never waits on it: it sends and receives with `MSG_DONTWAIT`
//! ([`DontWait`]), so a pooled socket stays in blocking mode with its
//! timeouts set, ready for whichever side takes it next.
//!
//! **Stale connections.** An origin may close an idle connection at any
//! time, and the proxy only finds out when it next uses it. A failure on
//! a *reused* socket therefore says nothing about the origin's health.
//! On a worker an I/O error discards the socket and the same attempt runs
//! once more on a fresh connection, inside [`Upstream::fetch`], so the
//! retry loop, the timeout counter and the circuit breaker never see it;
//! only the fresh connection's outcome counts. (A malformed response is
//! the origin talking nonsense, not a stale socket, and is returned as it
//! is.) On the event loop *any* failure — I/O error, end of stream, short
//! body, stall, malformed head, `5xx` — discards the socket and hands the
//! request to a worker, which runs the whole resilient fetch from the top:
//! the same rule one level up, and the reason the inline path needs no
//! retry, backoff, timeout or breaker accounting of its own.
//!
//! **Nagle.** Request and response each leave in a single write and the
//! sockets set `TCP_NODELAY`: on a connection that stays open, a trailing
//! partial segment would otherwise wait for the peer's delayed ACK.

use crate::config::ProxyConfig;
use crate::http::{self, HttpError, Response, ResponseHead, ResponseReader};
use crate::reactor::DontWait;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// An origin's answer, reduced to what the cache uses.
#[derive(Debug)]
pub(crate) struct Fetched {
    pub status: u16,
    pub last_modified: Option<u64>,
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
fn encode_request(buf: &mut Vec<u8>, target: &str, if_modified_since: Option<u64>) {
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

/// Idle sockets kept at most. Enough for every worker of a default
/// configuration on a few cores plus the event loop's exchanges in
/// flight; beyond it a finished exchange closes its socket, which is
/// what every fetch did before connections were kept.
const MAX_IDLE: usize = 32;

/// The idle kept-alive origin sockets, shared by the event loop and the
/// workers. A socket is in the pool only between exchanges, in blocking
/// mode with its timeouts set; whoever takes it is its one holder until
/// it is put back or dropped. Last in, first out: the socket most
/// recently used is the one least likely to have been closed by the
/// origin meanwhile.
#[derive(Debug)]
pub(crate) struct IdlePool {
    sockets: Mutex<Vec<TcpStream>>,
}

impl IdlePool {
    pub fn new() -> IdlePool {
        IdlePool {
            sockets: Mutex::new(Vec::with_capacity(MAX_IDLE)),
        }
    }

    fn take(&self) -> Option<TcpStream> {
        self.sockets.lock().pop()
    }

    /// Keep `stream` for the next exchange, or close it if the pool is
    /// full.
    fn put(&self, stream: TcpStream) {
        let mut sockets = self.sockets.lock();
        if sockets.len() < MAX_IDLE {
            sockets.push(stream);
        }
    }
}

/// One worker's way to the origin (see the module docs): the shared idle
/// pool, a retained request buffer and a retained reader.
pub(crate) struct Upstream {
    origin: SocketAddr,
    connect_timeout: Duration,
    /// Read and write timeout of every origin socket.
    io_timeout: Duration,
    idle: Arc<IdlePool>,
    request: Vec<u8>,
    reader: ResponseReader,
}

impl Upstream {
    pub fn new(origin: SocketAddr, config: &ProxyConfig, idle: Arc<IdlePool>) -> Upstream {
        Upstream {
            origin,
            connect_timeout: config.connect_timeout,
            io_timeout: config.read_timeout,
            idle,
            request: Vec::new(),
            reader: ResponseReader::new(),
        }
    }

    /// One bounded fetch attempt: connect (unless a kept connection is at
    /// hand), send, read — each under its timeout. A stalled, truncating
    /// or closing origin surfaces as `Err`, never as a hang or a short
    /// body.
    pub fn fetch(
        &mut self,
        target: &str,
        if_modified_since: Option<u64>,
    ) -> Result<Fetched, HttpError> {
        encode_request(&mut self.request, target, if_modified_since);
        if let Some(stream) = self.idle.take() {
            match self.exchange(stream) {
                // Stale idle connection, not an origin fault: fall
                // through to a fresh one (module docs).
                Err(HttpError::Io(_)) => {}
                done => return done,
            }
        }
        let stream = TcpStream::connect_timeout(&self.origin, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_nodelay(true)?;
        self.exchange(stream)
    }

    /// Send the encoded request on `stream` and read the response; keep
    /// the socket only after a complete exchange the origin agreed to
    /// continue. On any error the socket is dropped here.
    fn exchange(&mut self, mut stream: TcpStream) -> Result<Fetched, HttpError> {
        stream.write_all(&self.request)?;
        let (head, body) = self.reader.read(&mut stream)?;
        if head.keep_alive {
            self.idle.put(stream);
        }
        Ok(Fetched::new(head, body))
    }
}

/// Body bytes the event loop takes from one origin socket per readiness
/// event. A large document arrives over many events, with every other
/// connection served in between, instead of in one long drain.
const INLINE_READ_BUDGET: usize = 256 * 1024;

/// Readers kept for the next inline exchange (16 KiB each).
const MAX_SPARE_READERS: usize = 8;

/// The event loop's way to the origin: the shared idle pool, and buffers
/// kept across exchanges so that starting one allocates nothing.
pub(crate) struct InlineUpstream {
    idle: Arc<IdlePool>,
    request: Vec<u8>,
    readers: Vec<ResponseReader>,
}

/// How [`InlineUpstream::begin`] went.
pub(crate) enum Begun {
    /// Nothing was tried: the pool is empty.
    NoIdleSocket,
    /// The socket would not take the request whole at once; it is gone.
    SendFailed,
    /// The request is on its way.
    Sent(InlineExchange),
}

/// An exchange in flight on the event loop: the socket (this is its one
/// holder) and the reader that keeps the response's place between
/// readiness events.
#[derive(Debug)]
pub(crate) struct InlineExchange {
    stream: TcpStream,
    reader: ResponseReader,
}

/// What a readiness event on an [`InlineExchange`] amounted to.
pub(crate) enum Progress {
    /// More is due; bytes arrived, so the origin is not stalled.
    Pending,
    /// The whole response; `keep_alive` says whether the socket may be
    /// used again.
    Done { fetched: Fetched, keep_alive: bool },
    /// The exchange cannot be completed on this socket.
    Failed,
}

impl InlineUpstream {
    pub fn new(idle: Arc<IdlePool>) -> InlineUpstream {
        InlineUpstream {
            idle,
            request: Vec::new(),
            readers: Vec::new(),
        }
    }

    /// Take an idle socket and send the request on it without waiting.
    pub fn begin(&mut self, target: &str, if_modified_since: Option<u64>) -> Begun {
        let Some(stream) = self.idle.take() else {
            return Begun::NoIdleSocket;
        };
        encode_request(&mut self.request, target, if_modified_since);
        // An idle socket's send buffer is empty, so a request that does
        // not fit at once means the socket is no good.
        match DontWait(&stream).write(&self.request) {
            Ok(n) if n == self.request.len() => {}
            _ => return Begun::SendFailed,
        }
        let mut reader = self.readers.pop().unwrap_or_default();
        reader.reset();
        Begun::Sent(InlineExchange { stream, reader })
    }

    /// Take back what a finished or abandoned exchange held: the reader
    /// always, the socket when it may carry another request (the caller
    /// has taken it out of epoll). A socket not kept is closed here.
    pub fn end(&mut self, exchange: InlineExchange, keep_socket: bool) {
        if keep_socket {
            self.idle.put(exchange.stream);
        }
        if self.readers.len() < MAX_SPARE_READERS {
            self.readers.push(exchange.reader);
        }
    }
}

impl InlineExchange {
    /// The origin socket, for epoll registration.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The socket is readable: take what has arrived, never waiting.
    pub fn on_readable(&mut self) -> Progress {
        match self
            .reader
            .resume(&mut DontWait(&self.stream), INLINE_READ_BUDGET)
        {
            Ok(Some((head, body))) => Progress::Done {
                fetched: Fetched::new(head, body),
                keep_alive: head.keep_alive,
            },
            Ok(None) => Progress::Pending,
            Err(HttpError::Io(e)) if e.kind() == ErrorKind::WouldBlock => Progress::Pending,
            Err(_) => Progress::Failed,
        }
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
