//! The proxy's side of the origin connection: persistent sockets, an
//! allocation-light reader for the responses that arrive on them, and the
//! two ways an exchange is driven — blocking on a worker, or from the
//! event loop under `epoll`.
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
//! reports the socket readable ([`InlineExchange`]). Only a worker ever
//! opens a connection, sleeps, retries or consults a breaker; the loop
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
//!
//! [`http::read_response`] and [`http::write_request`] remain the
//! blocking oracle: the reader here accepts the same grammar and bounds
//! (`tests/upstream_pool.rs` holds the two equal on generated heads,
//! however the bytes are split across reads) and differs only where it is
//! stricter — end of stream inside the head is an error, never an
//! implicit end of headers, and [`http::MAX_HEADERS`] counts header lines
//! rather than distinct names.

use crate::config::ProxyConfig;
use crate::http::{self, HttpError, Response, MAX_BODY, MAX_HEADERS, MAX_LINE};
use crate::reactor::DontWait;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// What the proxy needs from a response head, parsed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// `Content-Length`; zero when the header is absent.
    pub content_length: u64,
    /// `Last-Modified`, if present and valid.
    pub last_modified: Option<u64>,
    /// The connection may carry another request: the peer answered
    /// `Connection: keep-alive`, delimited the body with a
    /// `Content-Length`, and sent nothing beyond it.
    pub keep_alive: bool,
}

fn malformed(what: impl Into<String>) -> HttpError {
    HttpError::Malformed(what.into())
}

fn unexpected_eof(what: &str) -> HttpError {
    HttpError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, what))
}

/// A reusable, resumable response reader: one fixed buffer, kept across
/// responses, through which the head is read and parsed line by line
/// without a `String` or a header map. The body is read into a `Vec`
/// sized from the (bounded) `Content-Length`, in place. From a
/// `TcpStream`, a worker's, std's `read_to_end` reads into the spare
/// capacity without filling it first; from a reader that implements only
/// `read`, the event loop's `DontWait`, it zero-fills each stretch before
/// reading into it, in 8, 16, 32 KiB… steps.
///
/// The reader keeps its place between calls to [`ResponseReader::resume`],
/// so a response may arrive over any number of them — that is how the
/// event loop reads from a socket it must not wait on.
/// [`ResponseReader::read`] is the blocking driver over the same steps.
#[derive(Debug)]
pub struct ResponseReader {
    /// Room for an unfinished line of up to [`MAX_LINE`] bytes plus a
    /// read of at least as much again.
    buf: Box<[u8]>,
    /// Where the response in progress stands.
    at: Place,
}

/// A [`ResponseReader`]'s place in one response; the default is the
/// start of the next.
#[derive(Debug, Default)]
struct Place {
    /// `buf[start..end]` holds bytes read but not yet parsed.
    start: usize,
    /// `buf[start..scan]` is known to hold no line break, so a head that
    /// arrives a byte at a time is not rescanned on every read.
    scan: usize,
    end: usize,
    /// Lines parsed so far, the status line included.
    lines: usize,
    head: ResponseHead,
    /// The last `content-length` seen, `Some(None)` if unparseable.
    length: Option<Option<u64>>,
    /// The last `connection` header seen said `keep-alive`.
    keep_alive_asked: bool,
    /// The body received so far, once the head is complete; its capacity
    /// is the `Content-Length`.
    body: Option<Vec<u8>>,
}

impl Default for ResponseReader {
    fn default() -> Self {
        ResponseReader::new()
    }
}

impl ResponseReader {
    /// A reader with its buffer allocated.
    pub fn new() -> ResponseReader {
        ResponseReader {
            buf: vec![0u8; 2 * MAX_LINE].into_boxed_slice(),
            at: Place::default(),
        }
    }

    /// Forget the response in progress, if any; the buffer is kept.
    pub fn reset(&mut self) {
        self.at = Place::default();
    }

    /// Read one response — head, then exactly `Content-Length` body bytes
    /// — from `stream`, blocking as `stream` blocks. A stream that ends
    /// early, in the head or in the body, is an [`HttpError::Io`] of kind
    /// `UnexpectedEof`; a body is never returned short. Nothing is
    /// allocated for the body until its length has passed the
    /// [`MAX_BODY`] check.
    pub fn read<S: Read>(&mut self, stream: &mut S) -> Result<(ResponseHead, Bytes), HttpError> {
        self.reset();
        loop {
            if let Some(response) = self.resume(stream, usize::MAX)? {
                return Ok(response);
            }
        }
    }

    /// Take the response in progress further with what `stream` yields
    /// now. `Ok(Some(..))` is the complete response (the reader is then
    /// ready for [`ResponseReader::reset`]); `Ok(None)` means `budget`
    /// body bytes were taken in this call and more are due — the event
    /// loop's bound on one connection's turn. Every byte received stays
    /// in place when `stream` returns an error, so after `WouldBlock` from
    /// a socket that is not to be waited on, the next call picks up where
    /// this one stopped. Errors and bounds are those of
    /// [`ResponseReader::read`]; after any other error the reader must be
    /// reset.
    pub fn resume<S: Read>(
        &mut self,
        stream: &mut S,
        budget: usize,
    ) -> Result<Option<(ResponseHead, Bytes)>, HttpError> {
        if self.at.body.is_none() {
            self.resume_head(stream)?;
        }
        let len = self.at.head.content_length as usize;
        let body = self.at.body.as_mut().expect("resume_head returned Ok");
        let want = (len - body.len()).min(budget);
        if want > 0 {
            // `read_to_end` fills the spare capacity in place, and the
            // limit keeps it from reading (or growing) past the body.
            // What it read before an error stays in `body`.
            let got = stream.by_ref().take(want as u64).read_to_end(body)?;
            if got < want {
                return Err(unexpected_eof("body shorter than its content-length"));
            }
        }
        if body.len() < len {
            return Ok(None);
        }
        let body = self.at.body.take().expect("checked above");
        Ok(Some((self.at.head, Bytes::from(body))))
    }

    /// Read and parse head lines until the blank line, then check the
    /// length and set `body` to the bytes that arrived with the head.
    fn resume_head<S: Read>(&mut self, stream: &mut S) -> Result<(), HttpError> {
        let buf = &mut self.buf[..];
        let Place {
            start,
            scan,
            end,
            lines,
            head,
            length,
            keep_alive_asked,
            body,
        } = &mut self.at;
        'head: loop {
            while let Some(nl) = buf[*scan..*end].iter().position(|&b| b == b'\n') {
                let line = &buf[*start..=*scan + nl];
                *start = *scan + nl + 1;
                *scan = *start;
                if line.len() > MAX_LINE {
                    return Err(line_too_long());
                }
                let line = std::str::from_utf8(line)
                    .map_err(|_| malformed("non-UTF-8 bytes in response head"))?;
                if *lines == 0 {
                    head.status = parse_status_line(line)?;
                } else {
                    let line = line.trim_end();
                    if line.is_empty() {
                        break 'head;
                    }
                    if *lines > MAX_HEADERS {
                        return Err(malformed(format!("more than {MAX_HEADERS} headers")));
                    }
                    let (name, value) = line
                        .split_once(':')
                        .ok_or_else(|| malformed(format!("bad header {line:?}")))?;
                    let (name, value) = (name.trim(), value.trim());
                    // A repeated header replaces the earlier one, as in
                    // the oracle's map.
                    if name.eq_ignore_ascii_case("content-length") {
                        *length = Some(value.parse().ok());
                    } else if name.eq_ignore_ascii_case("last-modified") {
                        head.last_modified = value.parse().ok();
                    } else if name.eq_ignore_ascii_case("connection") {
                        *keep_alive_asked = value.eq_ignore_ascii_case("keep-alive");
                    }
                }
                *lines += 1;
            }
            if *end - *start >= MAX_LINE {
                return Err(line_too_long());
            }
            // Move the unfinished line to the front: at least MAX_LINE
            // bytes of room follow it.
            buf.copy_within(*start..*end, 0);
            *end -= *start;
            (*start, *scan) = (0, *end);
            match stream.read(&mut buf[*end..]) {
                Ok(0) => return Err(unexpected_eof("stream ended inside the response head")),
                Ok(n) => *end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        head.content_length = match *length {
            Some(parsed) => parsed.ok_or_else(|| malformed("bad content-length"))?,
            None => 0,
        };
        if head.content_length > MAX_BODY {
            return Err(malformed(format!(
                "content-length {} exceeds the {MAX_BODY}-byte limit",
                head.content_length
            )));
        }
        let len = usize::try_from(head.content_length)
            .map_err(|_| malformed("content-length exceeds the address space"))?;
        let read_ahead = &buf[*start..*end];
        head.keep_alive = *keep_alive_asked && length.is_some() && read_ahead.len() <= len;
        let mut received = Vec::with_capacity(len);
        received.extend_from_slice(&read_ahead[..read_ahead.len().min(len)]);
        *body = Some(received);
        Ok(())
    }
}

fn line_too_long() -> HttpError {
    malformed(format!("line exceeds the {MAX_LINE}-byte limit"))
}

fn parse_status_line(line: &str) -> Result<u16, HttpError> {
    let mut parts = line.split_ascii_whitespace();
    let version = parts.next().ok_or_else(|| malformed("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("bad version {version:?}")));
    }
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status"))
}

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

    #[test]
    fn reader_splits_head_from_body_wherever_reads_land() {
        let body = http::synthetic_body("http://s/x", 5000);
        let mut wire = b"HTTP/1.0 200 OK\r\nContent-Length: 5000\r\nlast-modified: 7\r\n\
                         Connection: Keep-Alive\r\n\r\n"
            .to_vec();
        wire.extend_from_slice(&body);
        /// Hands out at most `chunk` bytes per read.
        struct Dribble<'a>(&'a [u8], usize);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.1.min(out.len()).min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut reader = ResponseReader::new();
        for chunk in [1, 2, 7, 64, 4096, wire.len()] {
            let (head, got) = reader.read(&mut Dribble(&wire, chunk)).unwrap();
            assert_eq!(
                head,
                ResponseHead {
                    status: 200,
                    content_length: 5000,
                    last_modified: Some(7),
                    keep_alive: true,
                },
                "chunk {chunk}"
            );
            assert_eq!(got, body, "chunk {chunk}");
        }
        // Bytes beyond the body: the response stands, the connection is
        // not reused.
        wire.extend_from_slice(b"surplus");
        let (head, got) = reader.read(&mut wire.as_slice()).unwrap();
        assert!(!head.keep_alive);
        assert_eq!(got, body);
    }

    #[test]
    fn early_end_of_stream_is_an_io_error_never_a_short_message() {
        let wire = b"HTTP/1.0 200 OK\r\ncontent-length: 10\r\n\r\n0123456789";
        let mut reader = ResponseReader::new();
        for cut in 0..wire.len() {
            match reader.read(&mut &wire[..cut]) {
                Err(HttpError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        assert!(reader.read(&mut &wire[..]).is_ok());
    }

    #[test]
    fn keep_alive_needs_the_header_and_a_length() {
        let mut reader = ResponseReader::new();
        for (wire, keep) in [
            (
                &b"HTTP/1.0 304 Not Modified\r\ncontent-length: 0\r\nconnection: keep-alive\r\n\r\n"[..],
                true,
            ),
            (b"HTTP/1.0 200 OK\r\nconnection: keep-alive\r\n\r\n", false),
            (b"HTTP/1.0 200 OK\r\ncontent-length: 0\r\n\r\n", false),
            (
                b"HTTP/1.0 200 OK\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
                false,
            ),
        ] {
            let (head, body) = reader.read(&mut &wire[..]).unwrap();
            assert_eq!(head.keep_alive, keep, "{}", String::from_utf8_lossy(wire));
            assert!(body.is_empty());
        }
    }
}
