//! Per-connection state machine for the reactor.
//!
//! One [`Conn`] exists per client socket the event loop holds, always in
//! non-blocking mode, from accept to close: the loop is the only thread
//! that serves a request. A fresh accept enters `Reading` *unregistered*,
//! its first bytes already in (the listener defers accepts until they
//! are), and is read at once; only if the head is still incomplete does
//! its socket join the epoll set, under `EPOLLIN` ([`Conn::watched`]):
//!
//! ```text
//! accept ──▶ Reading, unregistered ── head incomplete ──▶ Reading under EPOLLIN
//!                 │ whole head read at accept                  │ rest of the head
//!                 └────────────▶ request parsed ◀──────────────┘
//! ```
//!
//! From there, in the same turn:
//!
//! ```text
//!              fresh hit, reject, admin (inline)
//! Reading ──────────────────────────────────────────▶ Writing ──drained──▶ closed
//!    │                                                 ▲
//!    │ miss or expired copy                            │
//!    └──▶ Fetching ── answer, or none, concluded ──────┘
//!          │ ▲  connect, send, read; a failed attempt
//!          └─┘  waits out its backoff on the wheel
//! ```
//!
//! A cluster peer's connection, accepted on the peer port, reads its one
//! request frame instead (`Peer`, registered under `EPOLLIN` once it
//! would block) and is answered from the cache in the turn the frame is
//! whole: `Peer ──▶ Writing ──▶ closed`.
//!
//! The last turn is the close, right after the last response byte is
//! handed to the kernel. The socket is corked (it inherits `TCP_CORK` from
//! the listener), so a partial last segment waits for that close and
//! leaves with its FIN. A close that finds unread client bytes resets the
//! connection instead and discards what the cork held, so
//! [`Conn::on_readable`] records whether the read that completed the head
//! came back short of the buffer ([`Conn::head_drained`]): only then did
//! the kernel hold nothing more from the client. Otherwise the reactor
//! uncorks before the response is written.
//!
//! The connection owns only buffers — a pooled [`RequestParser`], a
//! pooled response-head `Vec`, and (while writing) a refcounted `Bytes`
//! body straight out of the cache shard — plus, while `Fetching`, the
//! origin or peer socket its request went out on: the "one holder per
//! `TcpStream`" rule covers that socket too, from the idle pool to the
//! connection and back (or to its close). The response is never
//! assembled into one contiguous buffer: [`Conn::on_writable`] flushes
//! head and body as two segments with vectored I/O, so a cache hit
//! moves document bytes from shard to socket with zero copies. The
//! connection never blocks and never touches the cache; all I/O methods
//! translate readiness into an [`Event`] (or, for the origin socket, a
//! [`crate::upstream::Progress`]) the reactor interprets — the reactor alone talks to
//! epoll, the deadline wheel and the cache.

use crate::cluster::FrameReader;
use crate::fetch::Tries;
use crate::http::{self, RequestParser, Response};
use crate::serve::Miss;
use crate::upstream::Exchange;
use bytes::Bytes;
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Instant;

/// A request's way to its document past the cache: first the key's
/// owner when this node is a cluster member that does not own it, then
/// the origin, attempt after attempt.
#[derive(Debug)]
pub(crate) struct Fetch {
    pub miss: Miss,
    /// The cluster peer (node id and address) whose reply is awaited.
    pub peer: Option<(u32, SocketAddr)>,
    /// The origin attempts, once the host's breaker admitted the fetch.
    pub tries: Option<Tries>,
    /// The exchange in flight; `None` while a backoff runs.
    pub exchange: Option<Exchange>,
}

/// Where a connection is in its single request/response exchange.
// `Fetching` is much the largest variant. Boxing it would put an
// allocation on every miss, while the space it takes here is a slab
// slot's, reused from connection to connection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ConnState {
    /// Accumulating request bytes through the incremental parser (which
    /// lives on [`Conn`] itself so it can be recycled at close).
    Reading,
    /// A cluster peer's connection, its request frame read as it arrives.
    Peer(FrameReader),
    /// The request is parsed, the cache had no fresh copy, and the
    /// document is being asked for. The exchange's socket, if one is in
    /// flight, is registered with epoll under this connection's token
    /// while the client socket is not.
    Fetching(Fetch),
    /// Draining the two-segment response (`Conn::head`, then `body`) to
    /// the socket. `pos` counts flushed bytes across *both* segments —
    /// a single cursor makes partial-write resumption trivial to reason
    /// about (see [`write_segments`]).
    Writing { body: Bytes, pos: usize },
}

/// What a readiness notification amounted to.
#[derive(Debug)]
pub(crate) enum Event {
    /// Not done yet — keep the connection armed and wait for more
    /// readiness.
    Continue,
    /// A complete request head was parsed; it is readable in place via
    /// the connection's parser (no `Request` is built — the hit path
    /// never needs one).
    Request,
    /// Protocol error from the client: answer with this status, then
    /// close.
    Reject(u16),
    /// The exchange is over (response drained, peer gone, or I/O
    /// error): close the connection.
    Done,
}

/// One client connection owned by the event loop.
#[derive(Debug)]
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    /// Incremental request parser, checked out of the buffer pool at
    /// accept and returned at close.
    pub parser: RequestParser,
    /// Serialised response status line + headers, likewise pooled. Empty
    /// until one of the `start_*` methods encodes into it.
    pub head: Vec<u8>,
    /// Generation tag distinguishing this occupancy of a slab slot from
    /// earlier ones, so late epoll events or deadline-wheel entries for
    /// a recycled slot are recognised as stale.
    pub gen: u32,
    /// Absolute deadline for the current I/O phase, moved forward on
    /// progress. The connection's one deadline-wheel entry is checked
    /// against it when it fires.
    pub deadline: Instant,
    /// Whether `stream` is in the event loop's epoll set. A connection
    /// enters the loop unregistered; one whose whole request was read at
    /// accept and answered in that turn never joins it, and one waiting
    /// on the origin has left it.
    pub watched: bool,
    /// The read that completed the request head came back short of the
    /// buffer: the kernel held nothing more from the client then, so the
    /// close after the response finds no unread bytes and the response
    /// may keep the listener's cork (module docs, *last turn*).
    pub head_drained: bool,
}

impl Conn {
    /// A connection entering the loop in `state`; the slab stamps `gen`
    /// when it stores it.
    pub fn new(
        stream: TcpStream,
        parser: RequestParser,
        head: Vec<u8>,
        state: ConnState,
        deadline: Instant,
    ) -> Conn {
        Conn {
            stream,
            state,
            parser,
            head,
            gen: 0,
            deadline,
            watched: false,
            head_drained: false,
        }
    }

    /// Pull whatever bytes are ready through `buf`, the event loop's one
    /// read buffer, and feed the parser. A completed head records whether
    /// its read left the kernel's receive queue empty
    /// ([`Conn::head_drained`]).
    pub fn on_readable(&mut self, buf: &mut [u8]) -> Event {
        if !matches!(self.state, ConnState::Reading) {
            return Event::Continue;
        }
        loop {
            match self.stream.read(buf) {
                // EOF before a complete request: 400 (usually into a
                // closed socket; the write simply fails).
                Ok(0) => return Event::Reject(400),
                Ok(n) => match self.parser.feed_complete(&buf[..n]) {
                    Ok(true) => {
                        self.head_drained = n < buf.len();
                        return Event::Request;
                    }
                    Ok(false) => continue,
                    Err(_) => return Event::Reject(400),
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Event::Continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Event::Done,
            }
        }
    }

    /// Queue a response and switch to the writing phase. The caller
    /// should follow up with [`Conn::on_writable`] immediately — the
    /// socket buffer usually has room, saving an epoll round trip.
    ///
    /// The body is a refcount clone of `resp.body`, never copied; the
    /// head is encoded into the pooled `self.head` buffer.
    pub fn start_response(&mut self, resp: &Response) {
        http::encode_response_head_into(&mut self.head, resp);
        self.state = ConnState::Writing {
            body: resp.body.clone(),
            pos: 0,
        };
    }

    /// Fast-path variant of [`Conn::start_response`] for a fresh cache
    /// hit: encodes the fixed-form hit head (200, content-length,
    /// last-modified, `x-cache: HIT`) straight into the pooled head
    /// buffer — no `Response`, no allocation.
    pub fn start_hit(&mut self, body: Bytes, last_modified: Option<u64>) {
        http::encode_hit_head_into(&mut self.head, body.len() as u64, last_modified);
        self.state = ConnState::Writing { body, pos: 0 };
    }

    /// Fast-path variant for a conditional GET answered from cache with
    /// a bodyless `304` (see `finalize_response`): fixed head, no body,
    /// no allocation.
    pub fn start_not_modified_hit(&mut self) {
        http::encode_not_modified_hit_head_into(&mut self.head);
        self.state = ConnState::Writing {
            body: Bytes::new(),
            pos: 0,
        };
    }

    /// Push buffered response bytes while the socket accepts them, head
    /// and body as one vectored write per syscall.
    pub fn on_writable(&mut self) -> Event {
        let ConnState::Writing { body, pos } = &mut self.state else {
            return Event::Continue;
        };
        write_segments(&mut self.stream, &self.head, body, pos)
    }

    /// Dismantle the connection: the pooled buffers go back to the
    /// event loop's pool, and the stream is dropped, closing the socket.
    pub fn into_parts(self) -> (TcpStream, RequestParser, Vec<u8>) {
        (self.stream, self.parser, self.head)
    }
}

/// A sink that accepts two byte segments per call — `writev` with an
/// iovec of (up to) two. Abstracted so the resumption logic in
/// [`write_segments`] is testable against a scripted mock that returns
/// short counts and `EAGAIN` at chosen points.
pub(crate) trait WriteTwo {
    fn write_two(&mut self, a: &[u8], b: &[u8]) -> io::Result<usize>;
}

impl WriteTwo for TcpStream {
    fn write_two(&mut self, a: &[u8], b: &[u8]) -> io::Result<usize> {
        crate::reactor::write_two(self.as_raw_fd(), a, b)
    }
}

/// Flush `head` then `body` through `w`, resuming at `*pos` (a single
/// cursor over the concatenation of both segments, though they are never
/// actually concatenated). Invariants:
///
/// - `*pos` only grows, by exactly the kernel-reported write count, so a
///   short `writev` inside the head, at the head/body boundary, or
///   mid-body resumes at precisely the next unsent byte;
/// - segments already fully flushed are sliced down to empty and skipped
///   at the iovec level — the kernel never sees a stale byte;
/// - `EAGAIN` keeps the state machine in `Writing` ([`Event::Continue`]:
///   wait for the next writability event), `EINTR` retries immediately,
///   anything else (including a peer that stopped reading: `Ok(0)`)
///   abandons the connection with [`Event::Done`].
pub(crate) fn write_segments<W: WriteTwo>(
    w: &mut W,
    head: &[u8],
    body: &[u8],
    pos: &mut usize,
) -> Event {
    loop {
        let total = head.len() + body.len();
        if *pos >= total {
            return Event::Done;
        }
        let (a, b) = http::unsent(head, body, *pos);
        match w.write_two(a, b) {
            Ok(0) => return Event::Done,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Event::Continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Event::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_report_via_events_not_panics() {
        // A connection in the Writing state ignores read readiness and
        // vice versa — late epoll events on a transitioned connection
        // must be harmless.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(
            server,
            RequestParser::new(),
            Vec::new(),
            ConnState::Reading,
            Instant::now(),
        );
        conn.start_response(&Response::status_only(204));
        assert!(matches!(conn.on_readable(&mut [0; 64]), Event::Continue));
        assert!(matches!(conn.on_writable(), Event::Done));
        drop(client);
    }

    /// A `WriteTwo` whose per-call byte budgets are scripted, recording
    /// everything "sent" so tests can assert byte-identical output under
    /// adversarial short counts and `EAGAIN`.
    struct ScriptedWriter {
        /// Per-call allowances; `None` injects `EAGAIN`.
        script: Vec<Option<usize>>,
        next: usize,
        sent: Vec<u8>,
    }

    impl ScriptedWriter {
        fn new(script: Vec<Option<usize>>) -> ScriptedWriter {
            ScriptedWriter {
                script,
                next: 0,
                sent: Vec::new(),
            }
        }
    }

    impl WriteTwo for ScriptedWriter {
        fn write_two(&mut self, a: &[u8], b: &[u8]) -> io::Result<usize> {
            let budget = match self.script.get(self.next) {
                Some(&entry) => {
                    self.next += 1;
                    match entry {
                        Some(n) => n,
                        None => return Err(io::Error::from(ErrorKind::WouldBlock)),
                    }
                }
                // Script exhausted: accept everything (a drained socket
                // buffer with a fast peer).
                None => a.len() + b.len(),
            };
            // Like writev: take from the first segment, spill into the
            // second, never exceed what was offered.
            let from_a = budget.min(a.len());
            self.sent.extend_from_slice(&a[..from_a]);
            let from_b = (budget - from_a).min(b.len());
            self.sent.extend_from_slice(&b[..from_b]);
            Ok(from_a + from_b)
        }
    }

    fn drive(head: &[u8], body: &[u8], script: Vec<Option<usize>>) -> (ScriptedWriter, usize) {
        let mut w = ScriptedWriter::new(script);
        let mut pos = 0;
        let mut rounds = 0;
        loop {
            rounds += 1;
            match write_segments(&mut w, head, body, &mut pos) {
                Event::Done => break,
                Event::Continue => continue, // simulate the next EPOLLOUT
                other => panic!("unexpected event {other:?}"),
            }
            // The script is finite, so this always terminates.
        }
        assert_eq!(pos, head.len() + body.len());
        (w, rounds)
    }

    #[test]
    fn short_write_inside_head_resumes_byte_exact() {
        let head = b"HTTP/1.0 200 OK\r\ncontent-length: 6\r\n\r\n";
        let body = b"abcdef";
        // 5 bytes lands mid-head; EAGAIN; then the rest.
        let (w, rounds) = drive(head, body, vec![Some(5), None]);
        assert_eq!(w.sent, [&head[..], &body[..]].concat());
        assert!(rounds >= 2, "EAGAIN must surface as Continue");
    }

    #[test]
    fn short_write_at_head_body_boundary_resumes_into_body() {
        let head = b"HTTP/1.0 200 OK\r\ncontent-length: 6\r\n\r\n";
        let body = b"abcdef";
        // Exactly the head, then stall, then the body — the resume path
        // must slice the head down to empty and start inside the body.
        let (w, _) = drive(head, body, vec![Some(head.len()), None, Some(3), None]);
        assert_eq!(w.sent, [&head[..], &body[..]].concat());
    }

    #[test]
    fn short_write_mid_body_after_eagain_resumes() {
        let head = b"HTTP/1.0 200 OK\r\ncontent-length: 10\r\n\r\n";
        let body = b"0123456789";
        // Head + 2 body bytes in one vectored call, EAGAIN, dribble.
        let (w, _) = drive(
            head,
            body,
            vec![Some(head.len() + 2), None, Some(1), Some(1), None, Some(2)],
        );
        assert_eq!(w.sent, [&head[..], &body[..]].concat());
    }

    #[test]
    fn zero_length_body_and_empty_segments_terminate() {
        let head = b"HTTP/1.0 304 Not Modified\r\ncontent-length: 0\r\n\r\n";
        let (w, _) = drive(head, b"", vec![Some(7), None]);
        assert_eq!(w.sent, head.to_vec());
        // Peer closed: Ok(0) must be Done, not a spin.
        let mut w = ScriptedWriter::new(vec![Some(0)]);
        let mut pos = 0;
        assert!(matches!(
            write_segments(&mut w, head, b"xyz", &mut pos),
            Event::Done
        ));
    }

    #[test]
    fn vectored_writer_output_is_byte_identical_to_blocking_writer() {
        // The authoritative comparison: the same Response serialised by
        // the blocking `http::write_response` and drained through the
        // two-segment writer under hostile fragmentation must put the
        // same bytes on the wire.
        let body = http::synthetic_body("http://o.test/a", 3000);
        let resp = Response::ok(body, Some(42)).with_cache_status(true);

        let mut blocking = Vec::new();
        http::write_response(&mut blocking, &resp).unwrap();

        let mut head = Vec::new();
        http::encode_response_head_into(&mut head, &resp);
        let script = (0..).map(|i| if i % 3 == 0 { None } else { Some(7) });
        let (w, _) = drive(&head, &resp.body, script.take(40).collect());
        assert_eq!(w.sent, blocking);
    }
}
