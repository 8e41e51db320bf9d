//! A minimal HTTP/1.0 message layer: exactly what a 1996 CERN-style proxy
//! needed — `GET`/conditional-`GET` requests, status-line responses, and
//! `Content-Length` body framing. No chunked encoding, no TLS.
//!
//! **One parser per direction.** A request head is parsed by
//! [`RequestParser`], a response by [`ResponseReader`]. Each keeps its
//! place between reads, so the event loop feeds it whatever a socket it
//! must not wait on yields. The blocking readers drive the same two:
//! [`read_request_from`] feeds a `RequestParser` a line at a time and
//! leaves whatever follows the head in the caller's buffer, and
//! [`read_response`] is [`ResponseReader::read`] plus the header map a
//! [`Response`] carries. The grammar and its bounds ([`MAX_LINE`],
//! [`MAX_HEADERS`], [`MAX_BODY`]) live in this module alone; the proxy's
//! persistent origin connections (`Connection: keep-alive`) are built on
//! top of it.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use webcache_core::util::{splitmix64_finalise, SPLITMIX64_GAMMA};

/// Upper bound accepted for `Content-Length`, so a corrupt or hostile
/// peer cannot make the reader allocate unbounded memory.
pub const MAX_BODY: u64 = 1 << 30;
/// Upper bound on the header count of one message.
pub const MAX_HEADERS: usize = 128;
/// Upper bound on any single request/status/header line, so a peer that
/// never sends a line break cannot make the reader allocate unbounded
/// memory. Oversized lines surface as [`HttpError::Malformed`] (the proxy
/// answers 400), never as a panic or an unbounded buffer.
pub const MAX_LINE: usize = 8 * 1024;

/// Errors from reading or writing HTTP messages.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The message violated the subset of HTTP/1.0 we speak.
    Malformed(String),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed http: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` or `HEAD`.
    pub method: String,
    /// Request target: absolute URI (proxy form) or origin path.
    pub target: String,
    /// Header map, keys lower-cased.
    pub headers: BTreeMap<String, String>,
}

impl Request {
    /// A plain GET.
    pub fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: BTreeMap::new(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_string());
        self
    }

    /// The `If-Modified-Since` epoch-seconds value, if present and valid.
    /// (We transmit epoch seconds rather than RFC 1123 dates — both ends
    /// are ours, and the trace timestamps are already relative seconds.)
    pub fn if_modified_since(&self) -> Option<u64> {
        self.headers.get("if-modified-since")?.parse().ok()
    }
}

/// A response with its body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 304, 400, 404, 502, …).
    pub status: u16,
    /// Header map, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes (empty for 304).
    pub body: Bytes,
}

impl Response {
    /// Build a 200 response with a body and optional `Last-Modified`.
    pub fn ok(body: Bytes, last_modified: Option<u64>) -> Response {
        let mut headers = BTreeMap::new();
        headers.insert("content-length".to_string(), body.len().to_string());
        if let Some(lm) = last_modified {
            headers.insert("last-modified".to_string(), lm.to_string());
        }
        Response {
            status: 200,
            headers,
            body,
        }
    }

    /// A bodyless response with the given status.
    pub fn status_only(status: u16) -> Response {
        let mut headers = BTreeMap::new();
        headers.insert("content-length".to_string(), "0".to_string());
        Response {
            status,
            headers,
            body: Bytes::new(),
        }
    }

    /// The `Last-Modified` value, if present.
    pub fn last_modified(&self) -> Option<u64> {
        self.headers.get("last-modified")?.parse().ok()
    }

    /// Mark whether this response was served by a cache (an `X-Cache`
    /// header, as real proxies emit).
    pub fn with_cache_status(mut self, hit: bool) -> Response {
        self.headers.insert(
            "x-cache".to_string(),
            if hit { "HIT" } else { "MISS" }.to_string(),
        );
        self
    }

    /// True if the response carries `X-Cache: HIT`.
    pub fn is_cache_hit(&self) -> bool {
        self.headers.get("x-cache").map(String::as_str) == Some("HIT")
    }

    /// Say whether the connection stays open after this response:
    /// `Connection: keep-alive`, or an explicit `Connection: close`.
    pub fn with_connection(mut self, keep_alive: bool) -> Response {
        self.headers.insert(
            "connection".to_string(),
            if keep_alive { "keep-alive" } else { "close" }.to_string(),
        );
        self
    }

    /// Mark this response as degraded: a stale cached copy served because
    /// the origin could not be reached (HTTP `Warning: 110`, the
    /// "response is stale" code RFC 7234 pairs with `stale-if-error`).
    pub fn with_degraded(mut self) -> Response {
        self.headers.insert(
            "warning".to_string(),
            "110 webcache \"Response is Stale\"".to_string(),
        );
        self
    }

    /// True if the response carries the `Warning: 110` degraded marker.
    pub fn is_degraded(&self) -> bool {
        self.headers
            .get("warning")
            .is_some_and(|w| w.starts_with("110"))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

// The error constructors are cold: kept out of line, they leave the
// parsers' per-line loops as tight as the hit path needs.
#[cold]
fn malformed(what: impl Into<String>) -> HttpError {
    HttpError::Malformed(what.into())
}

#[cold]
fn unexpected_eof(what: &str) -> HttpError {
    HttpError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, what))
}

#[cold]
fn line_too_long() -> HttpError {
    malformed(format!("line exceeds the {MAX_LINE}-byte limit"))
}

/// A head's line after its first, given the `count` header lines before
/// it: `None` for the blank line that ends the head, otherwise the
/// header's name and value, trimmed. Header *lines* are counted, so a
/// peer that repeats one name is refused like any other past
/// [`MAX_HEADERS`].
fn header_line(line: &str, count: usize) -> Result<Option<(&str, &str)>, HttpError> {
    let line = line.trim_end();
    if line.is_empty() {
        return Ok(None);
    }
    if count >= MAX_HEADERS {
        return Err(malformed(format!("more than {MAX_HEADERS} headers")));
    }
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| malformed(format!("bad header {line:?}")))?;
    Ok(Some((name.trim(), value.trim())))
}

/// Read one request from a stream (any `Read` — a socket or a test
/// buffer).
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    read_request_from(&mut BufReader::new(stream))
}

/// [`read_request`] over a caller-owned buffered reader: a
/// [`RequestParser`] fed from `fill_buf` one line per call — up to and
/// including the next `\n`, or all the buffer holds if it has none — and
/// `consume`d by exactly what it was fed. Whatever follows the head stays
/// in `reader`, so a server that keeps a connection open reads successive
/// requests through one buffer. A stream that ends inside the head is an
/// [`HttpError::Io`] of kind `UnexpectedEof`.
pub fn read_request_from<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => return Err(unexpected_eof("stream ended inside the request head")),
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let n = buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf.len(), |nl| nl + 1);
        let complete = parser.feed_complete(&buf[..n]);
        reader.consume(n);
        if complete? {
            return Ok(parser.take_request());
        }
    }
}

/// Write a request to a stream.
pub fn write_request<S: Write>(stream: &mut S, req: &Request) -> Result<(), HttpError> {
    let mut out = format!("{} {} HTTP/1.0\r\n", req.method, req.target);
    for (k, v) in &req.headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    stream.write_all(out.as_bytes())?;
    Ok(())
}

/// Read a response (head + `Content-Length` body) from a stream:
/// [`ResponseReader::read`] plus the header map, names lower-cased, a
/// repeated name keeping its last value.
pub fn read_response<S: Read>(stream: &mut S) -> Result<Response, HttpError> {
    let mut headers = BTreeMap::new();
    let (head, body) = ResponseReader::new().read_with(stream, |name, value| {
        headers.insert(name.to_ascii_lowercase(), value.to_string());
    })?;
    Ok(Response {
        status: head.status,
        headers,
        body,
    })
}

/// Append the decimal digits of `n` to `buf` without going through
/// `format!`/`String` — the head encoders below run on the reactor's
/// allocation-free hit path.
pub(crate) fn push_u64(buf: &mut Vec<u8>, n: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Serialise a response's status line and headers into `buf` (cleared
/// first), byte-identical to [`encode_response_head`] but reusing the
/// buffer's capacity and formatting integers manually — no `format!`, no
/// `String`, no allocation once `buf` has grown to the head size.
pub fn encode_response_head_into(buf: &mut Vec<u8>, resp: &Response) {
    buf.clear();
    buf.extend_from_slice(b"HTTP/1.0 ");
    push_u64(buf, resp.status as u64);
    buf.push(b' ');
    buf.extend_from_slice(reason(resp.status).as_bytes());
    buf.extend_from_slice(b"\r\n");
    for (k, v) in &resp.headers {
        buf.extend_from_slice(k.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
    buf.extend_from_slice(b"\r\n");
}

/// Encode the head of a cache-hit `200` directly from its parts,
/// byte-identical to `encode_response_head(&Response::ok(body, lm)
/// .with_cache_status(true))` without building the `Response` (no
/// `BTreeMap`, no `String`s) — the reactor's fast path calls this with a
/// pooled buffer, so a warmed hit formats its head with zero allocations.
/// Header order matches the `BTreeMap` serialisation: `content-length`,
/// `last-modified`, `x-cache`.
pub fn encode_hit_head_into(buf: &mut Vec<u8>, body_len: u64, last_modified: Option<u64>) {
    buf.clear();
    buf.extend_from_slice(b"HTTP/1.0 200 OK\r\ncontent-length: ");
    push_u64(buf, body_len);
    buf.extend_from_slice(b"\r\n");
    if let Some(lm) = last_modified {
        buf.extend_from_slice(b"last-modified: ");
        push_u64(buf, lm);
        buf.extend_from_slice(b"\r\n");
    }
    buf.extend_from_slice(b"x-cache: HIT\r\n\r\n");
}

/// Encode the head of a bodyless `304` hit (the downstream conditional
/// GET answer), byte-identical to `encode_response_head(
/// &Response::status_only(304).with_cache_status(true))`.
pub fn encode_not_modified_hit_head_into(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(
        b"HTTP/1.0 304 Not Modified\r\ncontent-length: 0\r\nx-cache: HIT\r\n\r\n",
    );
}

/// Serialise a response's status line and headers (everything before the
/// body). Split out so a fault injector can send a truthful head and then
/// deliver fewer body bytes than it promised.
pub fn encode_response_head(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_head_into(&mut out, resp);
    out
}

/// Write a response to a stream: head and body leave in one vectored
/// write, so on a socket they share a segment instead of the body waiting
/// behind the head for Nagle's algorithm and the peer's delayed ACK.
pub fn write_response<S: Write>(stream: &mut S, resp: &Response) -> Result<(), HttpError> {
    write_all_two(stream, &encode_response_head(resp), &resp.body)?;
    stream.flush()?;
    Ok(())
}

/// What is left of a two-segment message (`head`, then `body`, never
/// concatenated) once its first `pos` bytes are sent. A segment already
/// flushed comes back empty, so a vectored write never sees a stale byte.
pub(crate) fn unsent<'a>(head: &'a [u8], body: &'a [u8], pos: usize) -> (&'a [u8], &'a [u8]) {
    if pos < head.len() {
        (&head[pos..], body)
    } else {
        (&body[pos - head.len()..], &[])
    }
}

/// `write_all` over two segments: a short write resumes at the next
/// unsent byte wherever it landed — inside the head, on the boundary, or
/// inside the body — as `conn::write_segments` does for the reactor's
/// non-blocking sockets.
fn write_all_two<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut pos = 0;
    while pos < head.len() + body.len() {
        let (a, b) = unsent(head, body, pos);
        match w.write_vectored(&[IoSlice::new(a), IoSlice::new(b)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Incremental, resumable HTTP/1.0 request parser, the only one: the
/// reactor feeds it whatever bytes each readiness event yields (possibly
/// one at a time), [`read_request_from`] a line at a time, and it either
/// produces the parsed [`Request`], asks for more bytes, or rejects the
/// stream.
///
/// The [`MAX_LINE`] / [`MAX_HEADERS`] bounds are enforced *mid-stream*:
/// an attacker dribbling an endless header line is rejected as soon as
/// the line passes the limit, long before a terminator arrives, so a
/// hostile peer can neither buffer unbounded memory nor park a connection
/// in a huge parse state.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Bytes of the current, not-yet-terminated line.
    line: Vec<u8>,
    state: ParseState,
    method: String,
    target: String,
    headers: BTreeMap<String, String>,
    /// Header lines parsed so far; a repeated name counts each time.
    header_lines: usize,
    /// Total bytes fed so far (diagnostics; lets callers distinguish an
    /// idle connection from one mid-request).
    fed: usize,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum ParseState {
    #[default]
    RequestLine,
    Headers,
    Done,
}

impl RequestParser {
    /// A parser at the start of a request.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Total bytes fed so far (zero ⇒ the peer has sent nothing yet).
    pub fn bytes_fed(&self) -> usize {
        self.fed
    }

    /// Consume `bytes`. Returns `Ok(Some(request))` once the final
    /// header terminator has been seen (further bytes in the same call
    /// are ignored), `Ok(None)` when more input is needed, or
    /// [`HttpError::Malformed`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        if self.feed_complete(bytes)? {
            return Ok(Some(self.take_request()));
        }
        Ok(None)
    }

    /// [`RequestParser::feed`] without materialising the [`Request`]:
    /// returns `Ok(true)` once the request head is complete, leaving the
    /// parsed method/target/headers readable in place through
    /// [`RequestParser::method`] and friends. The reactor's hit path
    /// uses this so a warmed connection parses a request with zero
    /// allocations (the line buffer and method/target strings reuse
    /// their pooled capacity).
    pub fn feed_complete(&mut self, bytes: &[u8]) -> Result<bool, HttpError> {
        self.fed += bytes.len();
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.state == ParseState::Done {
                return Ok(true);
            }
            match rest.iter().position(|&b| b == b'\n') {
                None => {
                    self.line.extend_from_slice(rest);
                    // A line of MAX_LINE bytes none of which is the
                    // terminator is malformed, as in ResponseReader.
                    if self.line.len() >= MAX_LINE {
                        return Err(line_too_long());
                    }
                    rest = &[];
                }
                Some(nl) => {
                    self.line.extend_from_slice(&rest[..=nl]);
                    rest = &rest[nl + 1..];
                    if self.line.len() > MAX_LINE {
                        return Err(line_too_long());
                    }
                    // Lend the line buffer out for the borrow, then put
                    // it back cleared so its capacity is reused for the
                    // next line instead of reallocated.
                    let line = std::mem::take(&mut self.line);
                    let consumed = self.consume_line(&line);
                    self.line = line;
                    self.line.clear();
                    consumed?;
                }
            }
        }
        Ok(self.state == ParseState::Done)
    }

    /// Process one complete line (terminator included).
    fn consume_line(&mut self, raw: &[u8]) -> Result<(), HttpError> {
        // HTTP/1.0 here is ASCII, and invalid UTF-8 cannot match any
        // accepted grammar, so reject it as malformed.
        let line =
            std::str::from_utf8(raw).map_err(|_| malformed("non-UTF-8 bytes in request head"))?;
        match self.state {
            ParseState::RequestLine => {
                let mut parts = line.split_ascii_whitespace();
                let method = parts
                    .next()
                    .ok_or_else(|| malformed("empty request line"))?;
                let target = parts.next().ok_or_else(|| malformed("missing target"))?;
                // push_str into the retained Strings: a pooled parser
                // re-parses typical request lines with no allocation.
                self.method.clear();
                self.method.push_str(method);
                self.target.clear();
                self.target.push_str(target);
                let version = parts.next().unwrap_or("HTTP/1.0");
                if !version.starts_with("HTTP/1.") {
                    return Err(malformed(format!("bad version {version:?}")));
                }
                self.state = ParseState::Headers;
            }
            ParseState::Headers => {
                let Some((name, value)) = header_line(line, self.header_lines)? else {
                    self.state = ParseState::Done;
                    return Ok(());
                };
                self.header_lines += 1;
                self.headers
                    .insert(name.to_ascii_lowercase(), value.to_string());
            }
            ParseState::Done => {}
        }
        Ok(())
    }

    /// Request method parsed so far (valid once [`feed_complete`]
    /// returned `true`).
    ///
    /// [`feed_complete`]: RequestParser::feed_complete
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Request target parsed so far (valid once [`feed_complete`]
    /// returned `true`).
    ///
    /// [`feed_complete`]: RequestParser::feed_complete
    pub fn target(&self) -> &str {
        &self.target
    }

    /// `If-Modified-Since` header as a logical timestamp, mirroring
    /// [`Request::if_modified_since`] without building a [`Request`].
    pub fn if_modified_since(&self) -> Option<u64> {
        self.headers.get("if-modified-since")?.parse().ok()
    }

    /// Materialise the parsed head as an owned [`Request`]. The parser's
    /// method/target keep their capacity (cloned out, not moved) so a
    /// pooled parser stays warm; headers are moved because the miss path
    /// needs to own them anyway.
    pub fn take_request(&mut self) -> Request {
        Request {
            method: self.method.clone(),
            target: self.target.clone(),
            headers: std::mem::take(&mut self.headers),
        }
    }

    /// Return the parser to its initial state, retaining every buffer's
    /// capacity. Called when a parser is returned to the pool.
    pub fn reset(&mut self) {
        self.line.clear();
        self.state = ParseState::RequestLine;
        self.method.clear();
        self.target.clear();
        self.headers.clear();
        self.header_lines = 0;
        self.fed = 0;
    }
}

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

/// A reusable, resumable response reader, the only one: one fixed buffer,
/// kept across responses, through which the head is read and parsed line
/// by line without a `String` or a header map. The body is read into a
/// `Vec` sized from the (bounded) `Content-Length`, in place: from a
/// `TcpStream`, std's `read_to_end` reads into the spare capacity without
/// filling it first.
///
/// The reader keeps its place between calls to [`ResponseReader::resume`],
/// so a response may arrive over any number of them — that is how the
/// event loop reads from a socket it must not wait on.
/// [`ResponseReader::read`] is the blocking loop over the same steps,
/// and [`read_response`] that loop with a header map.
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
        self.read_with(stream, |_, _| {})
    }

    /// [`ResponseReader::read`], handing each header's trimmed name and
    /// value to `on_header` as its line is parsed.
    fn read_with<S: Read>(
        &mut self,
        stream: &mut S,
        mut on_header: impl FnMut(&str, &str),
    ) -> Result<(ResponseHead, Bytes), HttpError> {
        self.reset();
        loop {
            if let Some(response) = self.resume_with(stream, usize::MAX, &mut on_header)? {
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
        self.resume_with(stream, budget, &mut |_, _| {})
    }

    fn resume_with<S: Read>(
        &mut self,
        stream: &mut S,
        budget: usize,
        on_header: &mut impl FnMut(&str, &str),
    ) -> Result<Option<(ResponseHead, Bytes)>, HttpError> {
        if self.at.body.is_none() {
            self.resume_head(stream, on_header)?;
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
    fn resume_head<S: Read>(
        &mut self,
        stream: &mut S,
        on_header: &mut impl FnMut(&str, &str),
    ) -> Result<(), HttpError> {
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
                    let Some((name, value)) = header_line(line, *lines - 1)? else {
                        break 'head;
                    };
                    on_header(name, value);
                    // A repeated header replaces the earlier one, as in
                    // a header map.
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

/// Deterministic document body of `size` bytes for `url`: the origin
/// server's synthetic content, and what every check of a served body
/// compares against.
///
/// The body is SplitMix64 in counter mode, a word at a time. With `s`
/// the URL's bytes folded as `h * 1_000_003 + b`, word `k` (from 0) is
/// `splitmix64_finalise(s + (k + 1) * SPLITMIX64_GAMMA)` with the top
/// bit of each byte cleared, stored little-endian; the last word is cut
/// to fit. No word depends on the one before it, so the fill has no
/// serial chain.
///
/// The contract, pinned by this module's tests:
/// - the bytes depend only on `(url, size)`;
/// - prefix-stable: `synthetic_body(u, n)` is `synthetic_body(u, m)[..n]`
///   for `n <= m`;
/// - every byte is below `0x80`;
/// - different URLs give different bodies, so `DocStore::modify`'s
///   `"{url}#{now}"` changes a document at equal size.
pub fn synthetic_body(url: &str, size: u64) -> Bytes {
    const SEVEN_BITS: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let seed = url.bytes().fold(0u64, |h, b| {
        h.wrapping_mul(1_000_003).wrapping_add(b as u64)
    });
    let word = |k: usize| {
        let counter = (k as u64).wrapping_add(1).wrapping_mul(SPLITMIX64_GAMMA);
        (splitmix64_finalise(seed.wrapping_add(counter)) & SEVEN_BITS).to_le_bytes()
    };
    let mut out = vec![0u8; size as usize];
    let mut words = out.chunks_exact_mut(8);
    let whole = words.len();
    for (k, chunk) in words.by_ref().enumerate() {
        chunk.copy_from_slice(&word(k));
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&word(whole)[..tail.len()]);
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn request_round_trip() {
        let (mut a, mut b) = pair();
        let req = Request::get("http://server0.x.edu/doc1.html")
            .with_header("If-Modified-Since", "12345");
        write_request(&mut a, &req).unwrap();
        let got = read_request(&mut b).unwrap();
        assert_eq!(got.method, "GET");
        assert_eq!(got.target, "http://server0.x.edu/doc1.html");
        assert_eq!(got.if_modified_since(), Some(12345));
    }

    #[test]
    fn response_round_trip_with_body() {
        let (mut a, mut b) = pair();
        let body = synthetic_body("http://s/x", 1000);
        let resp = Response::ok(body.clone(), Some(77)).with_cache_status(true);
        write_response(&mut b, &resp).unwrap();
        let got = read_response(&mut a).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, body);
        assert_eq!(got.last_modified(), Some(77));
        assert!(got.is_cache_hit());
    }

    #[test]
    fn bodyless_304_round_trip() {
        let (mut a, mut b) = pair();
        write_response(&mut b, &Response::status_only(304)).unwrap();
        let got = read_response(&mut a).unwrap();
        assert_eq!(got.status, 304);
        assert!(got.body.is_empty());
        assert!(!got.is_cache_hit());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let (mut a, mut b) = pair();
        use std::io::Write as _;
        a.write_all(b"BANANA\r\n\r\n").unwrap();
        drop(a);
        assert!(read_request(&mut b).is_err());
    }

    #[test]
    fn degraded_marker_round_trips() {
        let (mut a, mut b) = pair();
        let resp = Response::ok(Bytes::copy_from_slice(b"x"), None)
            .with_cache_status(true)
            .with_degraded();
        write_response(&mut b, &resp).unwrap();
        let got = read_response(&mut a).unwrap();
        assert!(got.is_degraded());
        assert!(got.is_cache_hit());
        assert!(!Response::status_only(200).is_degraded());
    }

    #[test]
    fn bogus_content_length_is_rejected() {
        use std::io::Write as _;
        for cl in ["banana", "-3", &format!("{}", MAX_BODY + 1)] {
            let (mut a, mut b) = pair();
            b.write_all(format!("HTTP/1.0 200 OK\r\ncontent-length: {cl}\r\n\r\n").as_bytes())
                .unwrap();
            drop(b);
            assert!(
                read_response(&mut a).is_err(),
                "content-length {cl:?} accepted"
            );
        }
    }

    #[test]
    fn unbounded_header_count_is_rejected() {
        use std::io::Write as _;
        let (mut a, mut b) = pair();
        std::thread::spawn(move || {
            let _ = b.write_all(b"HTTP/1.0 200 OK\r\n");
            for i in 0..(MAX_HEADERS + 2) {
                if b.write_all(format!("h{i}: v\r\n").as_bytes()).is_err() {
                    return;
                }
            }
            let _ = b.write_all(b"\r\n");
        });
        assert!(read_response(&mut a).is_err());
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        // Request line 2×MAX_LINE long: malformed, not an unbounded read.
        let mut big = b"GET http://o.test/".to_vec();
        big.extend(std::iter::repeat_n(b'a', 2 * MAX_LINE));
        big.extend_from_slice(b" HTTP/1.0\r\n\r\n");
        assert!(read_request(&mut big.as_slice()).is_err());
        // Oversized header line on the response path, too.
        let mut hdr = b"HTTP/1.0 200 OK\r\nx: ".to_vec();
        hdr.extend(std::iter::repeat_n(b'v', 2 * MAX_LINE));
        hdr.extend_from_slice(b"\r\n\r\n");
        assert!(read_response(&mut hdr.as_slice()).is_err());
        // A line exactly at the limit (incl. newline) still parses.
        let target_len = MAX_LINE - "GET  HTTP/1.0\r\n".len();
        let exact = format!("GET {} HTTP/1.0\r\n\r\n", "b".repeat(target_len)).into_bytes();
        assert_eq!(exact.len() - 2, MAX_LINE);
        let got = read_request(&mut exact.as_slice()).unwrap();
        assert_eq!(got.target.len(), target_len);
    }

    /// Encode a request and feed it to the parser in chunks of `n`.
    fn feed_chunked(wire: &[u8], n: usize) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new();
        for chunk in wire.chunks(n) {
            if let Some(req) = p.feed(chunk)? {
                return Ok(Some(req));
            }
        }
        Ok(None)
    }

    #[test]
    fn incremental_parser_is_resumable_across_header_fragments() {
        // Header name and value split across readiness events, including
        // mid-CRLF.
        let mut p = RequestParser::new();
        for frag in [
            &b"GET http://o.test/a HT"[..],
            b"TP/1.0\r",
            b"\n",
            b"if-modi",
            b"fied-since",
            b": 99",
            b"\r",
            b"\n\r",
        ] {
            assert!(p.feed(frag).unwrap().is_none(), "complete too early");
        }
        let req = p.feed(b"\n").unwrap().expect("complete");
        assert_eq!(req.target, "http://o.test/a");
        assert_eq!(req.if_modified_since(), Some(99));
        assert_eq!(p.bytes_fed(), 55);
    }

    #[test]
    fn incremental_parser_rejects_oversized_lines_mid_stream() {
        // The line never terminates; rejection must land as soon as the
        // limit is passed, not wait for a terminator that never comes.
        let mut p = RequestParser::new();
        let mut total = 0usize;
        let r = loop {
            match p.feed(&[b'a'; 64]) {
                Ok(None) => {
                    total += 64;
                    assert!(total < MAX_LINE + 64, "parser buffered past the bound");
                }
                Ok(Some(_)) => panic!("nonsense parsed as a request"),
                Err(e) => break e,
            }
        };
        assert!(matches!(r, HttpError::Malformed(_)));
        // Oversized *header* line mid-request, one byte at a time.
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"GET http://o.test/a HTTP/1.0\r\nx: ")
            .unwrap()
            .is_none());
        let mut rejected = false;
        for i in 0..2 * MAX_LINE {
            match p.feed(b"v") {
                Ok(None) => {}
                Ok(Some(_)) => panic!("oversized header accepted"),
                Err(HttpError::Malformed(_)) => {
                    assert!((MAX_LINE - 64..=MAX_LINE).contains(&i), "bound off: {i}");
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected, "oversized header line never rejected");
    }

    #[test]
    fn incremental_parser_enforces_header_count_and_boundary_line() {
        let mut p = RequestParser::new();
        p.feed(b"GET http://o.test/a HTTP/1.0\r\n").unwrap();
        for i in 0..MAX_HEADERS {
            assert!(p.feed(format!("h{i}: v\r\n").as_bytes()).unwrap().is_none());
        }
        assert!(matches!(
            p.feed(b"one-too-many: v\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // A request line exactly at the limit (incl. newline) parses.
        let target_len = MAX_LINE - "GET  HTTP/1.0\r\n".len();
        let exact = format!("GET {} HTTP/1.0\r\n\r\n", "b".repeat(target_len));
        let req = feed_chunked(exact.as_bytes(), 1)
            .unwrap()
            .expect("exact-limit line parses");
        assert_eq!(req.target.len(), target_len);
    }

    #[test]
    fn hit_head_encoders_match_response_based_encoding_byte_for_byte() {
        // The direct hit-head encoders must stay bit-identical to the
        // generic Response path: the reactor fast path uses them while
        // the responses it concludes, the blocking `write_response` and
        // every test oracle use the latter.
        for (len, lm) in [
            (0u64, None),
            (1, Some(0)),
            (12345, Some(98765)),
            (u64::MAX, Some(u64::MAX)),
        ] {
            let body = vec![0u8; if len > 1 << 20 { 0 } else { len as usize }];
            let mut resp = Response::ok(Bytes::from(body), lm).with_cache_status(true);
            // For the huge length, fake the header rather than allocate.
            if len > 1 << 20 {
                resp.headers
                    .insert("content-length".to_string(), len.to_string());
            }
            let oracle = encode_response_head(&resp);
            let mut fast = Vec::new();
            encode_hit_head_into(&mut fast, len, lm);
            assert_eq!(fast, oracle, "len={len} lm={lm:?}");
        }

        let oracle = encode_response_head(&Response::status_only(304).with_cache_status(true));
        let mut fast = Vec::new();
        encode_not_modified_hit_head_into(&mut fast);
        assert_eq!(fast, oracle);
    }

    /// A sink that takes at most `budget` bytes per call, through either
    /// entry point, and counts the calls.
    struct Trickle {
        budget: usize,
        sent: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.budget;
            for b in bufs {
                let n = left.min(b.len());
                self.sent.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.budget - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_response_is_one_vectored_write_and_resumes_short_writes() {
        for resp in [
            Response::ok(synthetic_body("http://s/x", 300), Some(77)).with_cache_status(false),
            Response::status_only(304),
        ] {
            let mut wire = encode_response_head(&resp);
            wire.extend_from_slice(&resp.body);
            // Every budget from one byte a call to more than the whole
            // message: short writes land inside the head, on the
            // head/body boundary and inside the body.
            for budget in 1..=wire.len() + 1 {
                let mut w = Trickle {
                    budget,
                    sent: Vec::new(),
                    calls: 0,
                };
                write_response(&mut w, &resp).unwrap();
                assert_eq!(w.sent, wire, "budget {budget}");
                assert_eq!(w.calls, wire.len().div_ceil(budget), "budget {budget}");
            }
        }
        // A sink that accepts nothing is an error, not a spin.
        let mut w = Trickle {
            budget: 0,
            sent: Vec::new(),
            calls: 0,
        };
        assert!(write_response(&mut w, &Response::status_only(200)).is_err());
    }

    #[test]
    fn reset_parser_reparses_with_retained_buffers() {
        let mut p = RequestParser::new();
        let wire = b"GET http://o.test/a HTTP/1.0\r\nif-modified-since: 7\r\n\r\n";
        assert!(p.feed_complete(wire).unwrap());
        assert_eq!(p.method(), "GET");
        assert_eq!(p.target(), "http://o.test/a");
        assert_eq!(p.if_modified_since(), Some(7));
        let req = p.take_request();
        assert_eq!(req.if_modified_since(), Some(7));
        p.reset();
        assert_eq!(p.bytes_fed(), 0);
        let req2 = p.feed(b"GET http://o.test/b HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req2.unwrap().target, "http://o.test/b");
    }

    #[test]
    fn reader_splits_head_from_body_wherever_reads_land() {
        let body = synthetic_body("http://s/x", 5000);
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

    #[test]
    fn synthetic_bodies_are_deterministic_and_sized() {
        let a = synthetic_body("http://s/a", 500);
        let b = synthetic_body("http://s/a", 500);
        let c = synthetic_body("http://s/b", 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert!(synthetic_body("x", 0).is_empty());

        const MIB: u64 = 1 << 20;
        let url = "http://s/contract";
        for m in 0..=67u64 {
            let body = synthetic_body(url, m);
            assert_eq!(body.len() as u64, m);
            assert!(body.iter().all(|&b| b < 0x80), "size {m}: a byte >= 0x80");
            for n in 0..=m {
                assert_eq!(synthetic_body(url, n)[..], body[..n as usize], "{n} vs {m}");
            }
        }
        let big = synthetic_body(url, MIB + 5);
        assert!(big[..(MIB + 3) as usize].iter().all(|&b| b < 0x80));
        assert_eq!(synthetic_body(url, MIB + 3)[..], big[..(MIB + 3) as usize]);
        assert_eq!(synthetic_body(url, MIB)[..], big[..MIB as usize]);

        let distinct: std::collections::HashSet<Bytes> = (0..10_000)
            .map(|i| synthetic_body(&format!("http://s/{i}"), 64))
            .collect();
        assert_eq!(distinct.len(), 10_000, "two URLs gave one body");
    }

    /// The content itself, as FNV-1a fingerprints: a change to what the
    /// origin serves has to show up as an edit here.
    #[test]
    fn synthetic_body_fingerprints_are_pinned() {
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }
        let sizes = [1u64, 7, 8, 9, 4096, (1 << 20) + 3];
        for (url, pinned) in [
            (
                "http://server0.x.edu/doc1.html",
                [
                    0xaf63_e14c_8601_f50b,
                    0x612e_dcf3_3d94_b9b4,
                    0xb75b_0351_a3b7_5316,
                    0x46f9_ccb9_3082_4eab,
                    0x3bbb_c858_4820_3cbf,
                    0x8aa6_4060_c23a_2b11,
                ],
            ),
            (
                "http://s/b",
                [
                    0xaf64_174c_8602_50cd,
                    0x674c_c4dc_4c10_64df,
                    0x97d7_0255_3fda_c580,
                    0xdd1e_e2db_80be_5004,
                    0x4c3e_ca5f_ba1b_7a4b,
                    0x5c8e_007c_d7d4_46fa,
                ],
            ),
        ] {
            let got = sizes.map(|size| fnv1a(&synthetic_body(url, size)));
            assert_eq!(got, pinned, "{url}: {got:#018x?}");
        }
    }
}
