//! The proxy's side of the origin connection: persistent sockets and an
//! allocation-light reader for the responses that arrive on them.
//!
//! Every miss and every revalidation is one request/response exchange
//! with the origin. Each proxy worker owns an [`Upstream`]: at most one
//! idle `TcpStream` to the origin, a retained request buffer and a
//! retained [`ResponseReader`]. A fetch asks for `Connection:
//! keep-alive`; the socket goes back on the shelf only if the origin
//! answered in kind with a `Content-Length`-delimited response, so the
//! next miss on this worker skips the TCP handshake (and the origin's
//! accept and thread hand-off). Any other answer — HTTP/1.0's default —
//! closes the connection as before.
//!
//! **Stale connections.** An origin may close an idle connection at any
//! time, and the proxy only finds out when it next uses it. An I/O error
//! on a *reused* socket therefore says nothing about the origin's health:
//! the socket is discarded and the same attempt runs once more on a fresh
//! connection, inside [`Upstream::fetch`], so the retry loop, the timeout
//! counter and the circuit breaker never see it. Only the fresh
//! connection's outcome counts. (A malformed response is the origin
//! talking nonsense, not a stale socket, and is returned as it is.)
//!
//! **Nagle.** Request and response each leave in a single write and the
//! sockets set `TCP_NODELAY`: on a connection that stays open, a trailing
//! partial segment would otherwise wait for the peer's delayed ACK.
//!
//! [`http::read_response`] and [`http::write_request`] remain the
//! blocking oracle: the reader here accepts the same grammar and bounds
//! (`tests/upstream_pool.rs` holds the two equal on generated heads) and
//! differs only where it is stricter — end of stream inside the head is an
//! error, never an implicit end of headers, and [`http::MAX_HEADERS`]
//! counts header lines rather than distinct names.

use crate::config::ProxyConfig;
use crate::http::{self, HttpError, Response, MAX_BODY, MAX_HEADERS, MAX_LINE};
use bytes::Bytes;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
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

/// A reusable response reader: one fixed buffer, kept across responses,
/// through which the head is read and parsed line by line without a
/// `String` or a header map. The body is read into a `Vec` sized from the
/// (bounded) `Content-Length` and never zero-filled.
#[derive(Debug)]
pub struct ResponseReader {
    /// Room for an unfinished line of up to [`MAX_LINE`] bytes plus a
    /// read of at least as much again.
    buf: Box<[u8]>,
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
        }
    }

    /// Read one response — head, then exactly `Content-Length` body bytes
    /// — from `stream`. A stream that ends early, in the head or in the
    /// body, is an [`HttpError::Io`] of kind `UnexpectedEof`; a body is
    /// never returned short. Nothing is allocated for the body until its
    /// length has passed the [`MAX_BODY`] check.
    pub fn read<S: Read>(&mut self, stream: &mut S) -> Result<(ResponseHead, Bytes), HttpError> {
        let buf = &mut self.buf[..];
        // buf[start..end] holds bytes read but not yet parsed;
        // buf[start..scan] is known to hold no line break, so a head that
        // arrives a byte at a time is not rescanned on every read.
        let (mut start, mut scan, mut end) = (0usize, 0usize, 0usize);
        let mut head = ResponseHead::default();
        // Lines parsed so far, the status line included.
        let mut lines = 0usize;
        // The last `content-length` seen, `Some(None)` if unparseable.
        let mut length: Option<Option<u64>> = None;
        let mut connection_keep_alive = false;
        'head: loop {
            while let Some(nl) = buf[scan..end].iter().position(|&b| b == b'\n') {
                let line = &buf[start..=scan + nl];
                start = scan + nl + 1;
                scan = start;
                if line.len() > MAX_LINE {
                    return Err(line_too_long());
                }
                let line = std::str::from_utf8(line)
                    .map_err(|_| malformed("non-UTF-8 bytes in response head"))?;
                if lines == 0 {
                    head.status = parse_status_line(line)?;
                } else {
                    let line = line.trim_end();
                    if line.is_empty() {
                        break 'head;
                    }
                    if lines > MAX_HEADERS {
                        return Err(malformed(format!("more than {MAX_HEADERS} headers")));
                    }
                    let (name, value) = line
                        .split_once(':')
                        .ok_or_else(|| malformed(format!("bad header {line:?}")))?;
                    let (name, value) = (name.trim(), value.trim());
                    // A repeated header replaces the earlier one, as in
                    // the oracle's map.
                    if name.eq_ignore_ascii_case("content-length") {
                        length = Some(value.parse().ok());
                    } else if name.eq_ignore_ascii_case("last-modified") {
                        head.last_modified = value.parse().ok();
                    } else if name.eq_ignore_ascii_case("connection") {
                        connection_keep_alive = value.eq_ignore_ascii_case("keep-alive");
                    }
                }
                lines += 1;
            }
            if end - start >= MAX_LINE {
                return Err(line_too_long());
            }
            // Move the unfinished line to the front: at least MAX_LINE
            // bytes of room follow it.
            buf.copy_within(start..end, 0);
            end -= start;
            (start, scan) = (0, end);
            match stream.read(&mut buf[end..]) {
                Ok(0) => return Err(unexpected_eof("stream ended inside the response head")),
                Ok(n) => end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        head.content_length = match length {
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
        let read_ahead = &buf[start..end];
        head.keep_alive = connection_keep_alive && length.is_some() && read_ahead.len() <= len;
        if len == 0 {
            return Ok((head, Bytes::new()));
        }
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&read_ahead[..read_ahead.len().min(len)]);
        let missing = len - body.len();
        if missing > 0 {
            // `read_to_end` fills the spare capacity in place, and the
            // limit keeps it from reading (or growing) past the body.
            let got = stream
                .by_ref()
                .take(missing as u64)
                .read_to_end(&mut body)?;
            if got < missing {
                return Err(unexpected_eof("body shorter than its content-length"));
            }
        }
        Ok((head, Bytes::from(body)))
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

/// One worker's connection to the origin (see the module docs). Dropped
/// with the worker, which closes the idle socket.
pub(crate) struct Upstream {
    origin: SocketAddr,
    connect_timeout: Duration,
    /// Read and write timeout of every origin socket.
    io_timeout: Duration,
    /// The socket of the last exchange, when the origin agreed to keep it.
    idle: Option<TcpStream>,
    request: Vec<u8>,
    reader: ResponseReader,
}

impl Upstream {
    pub fn new(origin: SocketAddr, config: &ProxyConfig) -> Upstream {
        Upstream {
            origin,
            connect_timeout: config.connect_timeout,
            io_timeout: config.read_timeout,
            idle: None,
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
            self.idle = Some(stream);
        }
        Ok(Fetched {
            status: head.status,
            last_modified: head.last_modified,
            body,
        })
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
