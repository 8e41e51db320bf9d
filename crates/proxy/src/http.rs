//! A minimal HTTP/1.0 message layer: exactly what a 1996 CERN-style proxy
//! needed — `GET`/conditional-`GET` requests, status-line responses, and
//! `Content-Length` body framing. No chunked encoding, no TLS. The
//! readers and writers here handle one message and know nothing about
//! connection reuse; the proxy's persistent origin connections
//! (`Connection: keep-alive`, see [`crate::upstream`]) are built on top,
//! with [`read_response`] / [`write_request`] kept as the blocking oracle
//! the upstream reader is tested against.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};

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

/// Read one line of at most [`MAX_LINE`] bytes. A longer line is rejected
/// as malformed instead of buffering without bound.
fn read_line_bounded<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut line = String::new();
    reader.by_ref().take(MAX_LINE as u64).read_line(&mut line)?;
    if line.len() >= MAX_LINE && !line.ends_with('\n') {
        return Err(HttpError::Malformed(format!(
            "line exceeds the {MAX_LINE}-byte limit"
        )));
    }
    Ok(line)
}

/// Read one request from a stream (any `Read` — a socket or a test
/// buffer).
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    read_request_from(&mut BufReader::new(stream))
}

/// [`read_request`] over a caller-owned buffered reader, so a server that
/// keeps a connection open reads successive requests through one buffer.
pub fn read_request_from<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let line = read_line_bounded(reader)?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    let headers = read_headers(reader)?;
    Ok(Request {
        method,
        target,
        headers,
    })
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

/// Read a response (headers + `Content-Length` body) from a stream.
pub fn read_response<S: Read>(stream: &mut S) -> Result<Response, HttpError> {
    let mut reader = BufReader::new(stream);
    let line = read_line_bounded(&mut reader)?;
    let mut parts = line.split_ascii_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty status line".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed("bad status".into()))?;
    let headers = read_headers(&mut reader)?;
    let len: u64 = match headers.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(HttpError::Malformed(format!(
            "content-length {len} exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body: Bytes::from(body),
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

/// Incremental, resumable HTTP/1.0 request parser for non-blocking
/// readers: the reactor feeds it whatever bytes each readiness event
/// yields (possibly one at a time), and it either produces the parsed
/// [`Request`], asks for more bytes, or rejects the stream.
///
/// Parsing semantics are exactly [`read_request`]'s — same accepted
/// grammar, same [`MAX_LINE`] / [`MAX_HEADERS`] bounds — but the bounds
/// are enforced *mid-stream*: an attacker dribbling an endless header
/// line is rejected as soon as the line passes the limit, long before a
/// terminator arrives, so a hostile peer can neither buffer unbounded
/// memory nor park a connection in a huge parse state.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Bytes of the current, not-yet-terminated line.
    line: Vec<u8>,
    state: ParseState,
    method: String,
    target: String,
    headers: BTreeMap<String, String>,
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
    /// header terminator has been seen (further bytes are ignored, as
    /// the blocking path ignores pipelined bytes), `Ok(None)` when more
    /// input is needed, or the same [`HttpError::Malformed`] the
    /// blocking reader would produce.
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
                    // Same bound as read_line_bounded: a line of MAX_LINE
                    // bytes none of which is the terminator is malformed.
                    if self.line.len() >= MAX_LINE {
                        return Err(HttpError::Malformed(format!(
                            "line exceeds the {MAX_LINE}-byte limit"
                        )));
                    }
                    rest = &[];
                }
                Some(nl) => {
                    self.line.extend_from_slice(&rest[..=nl]);
                    rest = &rest[nl + 1..];
                    if self.line.len() > MAX_LINE {
                        return Err(HttpError::Malformed(format!(
                            "line exceeds the {MAX_LINE}-byte limit"
                        )));
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
        // The blocking reader goes through String (read_line); mirror its
        // lossy-free behaviour: HTTP/1.0 here is ASCII, and invalid UTF-8
        // cannot match any accepted grammar, so reject it as malformed.
        let line = std::str::from_utf8(raw)
            .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in request head".into()))?;
        match self.state {
            ParseState::RequestLine => {
                let mut parts = line.split_ascii_whitespace();
                let method = parts
                    .next()
                    .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
                let target = parts
                    .next()
                    .ok_or_else(|| HttpError::Malformed("missing target".into()))?;
                // push_str into the retained Strings: a pooled parser
                // re-parses typical request lines with no allocation.
                self.method.clear();
                self.method.push_str(method);
                self.target.clear();
                self.target.push_str(target);
                let version = parts.next().unwrap_or("HTTP/1.0");
                if !version.starts_with("HTTP/1.") {
                    return Err(HttpError::Malformed(format!("bad version {version:?}")));
                }
                self.state = ParseState::Headers;
            }
            ParseState::Headers => {
                let line = line.trim_end();
                if line.is_empty() {
                    self.state = ParseState::Done;
                    return Ok(());
                }
                if self.headers.len() >= MAX_HEADERS {
                    return Err(HttpError::Malformed(format!(
                        "more than {MAX_HEADERS} headers"
                    )));
                }
                let (name, value) = line
                    .split_once(':')
                    .ok_or_else(|| HttpError::Malformed(format!("bad header {line:?}")))?;
                self.headers
                    .insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
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
        self.fed = 0;
    }
}

fn read_headers<R: BufRead>(reader: &mut R) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    loop {
        let line = read_line_bounded(reader)?;
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header {line:?}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// Deterministic document body of a given size for a URL: the origin
/// server's synthetic content.
pub fn synthetic_body(url: &str, size: u64) -> Bytes {
    let mut out = Vec::with_capacity(size as usize);
    let seed = url.bytes().fold(0u64, |h, b| {
        h.wrapping_mul(1_000_003).wrapping_add(b as u64)
    });
    let mut x = seed | 1;
    while (out.len() as u64) < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((x & 0x7F) as u8);
    }
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
        big.extend(std::iter::repeat(b'a').take(2 * MAX_LINE));
        big.extend_from_slice(b" HTTP/1.0\r\n\r\n");
        assert!(read_request(&mut big.as_slice()).is_err());
        // Oversized header line on the response path, too.
        let mut hdr = b"HTTP/1.0 200 OK\r\nx: ".to_vec();
        hdr.extend(std::iter::repeat(b'v').take(2 * MAX_LINE));
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
    fn incremental_parser_matches_blocking_reader_byte_by_byte() {
        let req = Request::get("http://server0.x.edu/doc1.html")
            .with_header("If-Modified-Since", "12345")
            .with_header("X-Forwarded-For", " 10.0.0.1 ");
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let blocking = read_request(&mut wire.as_slice()).unwrap();
        for chunk in [1, 2, 3, 7, wire.len()] {
            let inc = feed_chunked(&wire, chunk)
                .unwrap()
                .unwrap_or_else(|| panic!("parser incomplete at chunk size {chunk}"));
            assert_eq!(inc.method, blocking.method);
            assert_eq!(inc.target, blocking.target);
            assert_eq!(inc.headers, blocking.headers, "chunk size {chunk}");
        }
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
                    assert!(i >= MAX_LINE - 64 && i <= MAX_LINE, "bound off: {i}");
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
        // A request line exactly at the limit (incl. newline) parses, as
        // in the blocking reader.
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
        // worker-built responses, the blocking `write_response` and
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
    fn synthetic_bodies_are_deterministic_and_sized() {
        let a = synthetic_body("http://s/a", 500);
        let b = synthetic_body("http://s/a", 500);
        let c = synthetic_body("http://s/b", 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert!(synthetic_body("x", 0).is_empty());
    }
}
