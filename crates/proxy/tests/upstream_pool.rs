//! Persistent upstream connections (`proxy::upstream`): misses reuse a
//! pooled origin connection — the event loop running the exchange itself
//! once one is idle — a stale idle connection is replaced without the
//! retry loop or the breaker noticing, whether it was closed, cut short
//! or left hanging mid-exchange, a dead origin is still a dead origin,
//! the fault shim is never reused, a body is never served short — and the
//! reader behind it all, `http::ResponseReader`, agrees with a naive
//! whole-buffer reference (`common::reference`) however the bytes are
//! split across reads. The cluster frame reader is held to the same
//! allocation rule here, beside the tracker that can show it.

mod common;
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use common::reference::{self, Refusal};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webcache_core::policy::named;
use webcache_proxy::cluster::{read_frame, MAX_FRAME};
use webcache_proxy::http::{
    self, HttpError, Request, Response, ResponseHead, ResponseReader, MAX_BODY, MAX_HEADERS,
    MAX_LINE,
};
use webcache_proxy::{DocStore, FaultPlan, FaultyOrigin, OriginServer, ProxyConfig, ProxyServer};

// -----------------------------------------------------------------------

fn get(proxy: &ProxyServer, url: &str) -> Response {
    let mut s = TcpStream::connect(proxy.addr()).expect("connect proxy");
    http::write_request(&mut s, &Request::get(url)).expect("send");
    http::read_response(&mut s).expect("recv")
}

fn doc_url(i: usize) -> String {
    format!("http://o.test/doc{i}.html")
}

fn origin_with_docs(n: usize) -> OriginServer {
    let store = Arc::new(DocStore::new());
    for i in 0..n {
        store.put_synthetic(&doc_url(i), 700 + i as u64, 10);
    }
    OriginServer::start(store).expect("origin")
}

/// What a [`ScriptedOrigin`] does with one request.
#[derive(Clone, Copy)]
enum Reply {
    /// The whole 1000-byte document, promising `Connection: keep-alive`.
    Full,
    /// The same head, 400 of the 1000 bytes, then close.
    Short,
    /// The same head and 400 bytes, then nothing for [`STALL`], then
    /// close.
    Stall,
}

/// Several times the read timeout of the test that uses it.
const STALL: Duration = Duration::from_millis(900);

const SCRIPTED_BODY: u64 = 1000;

/// An origin that follows a script: connection `i` answers one request
/// per entry of `script[i]` and is then closed, whatever it promised.
/// One thread per connection, so a stalled one does not hold up the next.
struct ScriptedOrigin {
    addr: SocketAddr,
    connections: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedOrigin {
    fn start(script: Vec<Vec<Reply>>) -> ScriptedOrigin {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let connections = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let connections = Arc::clone(&connections);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let mut serving = Vec::new();
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let index = connections.fetch_add(1, Ordering::SeqCst) as usize;
                    let replies = script.get(index).cloned().unwrap_or_default();
                    serving.push(std::thread::spawn(move || follow(stream, replies)));
                }
                for thread in serving {
                    let _ = thread.join();
                }
            })
        };
        ScriptedOrigin {
            addr,
            connections,
            shutdown,
            handle: Some(handle),
        }
    }

    fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }
}

/// Answer one request per entry of `replies`, then close.
fn follow(stream: TcpStream, replies: Vec<Reply>) {
    let mut reader = std::io::BufReader::new(stream);
    for reply in replies {
        let Ok(req) = http::read_request_from(&mut reader) else {
            break;
        };
        let body = http::synthetic_body(&req.target, SCRIPTED_BODY);
        let resp = Response::ok(body, Some(10)).with_connection(true);
        let stream = reader.get_mut();
        match reply {
            Reply::Full => {
                let _ = http::write_response(stream, &resp);
            }
            Reply::Short | Reply::Stall => {
                let _ = stream.write_all(&http::encode_response_head(&resp));
                let _ = stream.write_all(&resp.body[..400]);
                if let Reply::Stall = reply {
                    std::thread::sleep(STALL);
                }
                break;
            }
        }
    }
}

impl Drop for ScriptedOrigin {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// (a) 200 sequential misses open at most two origin connections: once
/// one is idle, every exchange after it goes out on it.
#[test]
fn sequential_misses_reuse_a_pooled_connection() {
    let origin = origin_with_docs(200);
    let config = ProxyConfig::new(1 << 30);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    for i in 0..200 {
        let r = get(&proxy, &doc_url(i));
        assert_eq!(r.status, 200, "doc {i}");
        assert!(!r.is_cache_hit());
        assert_eq!(r.body, http::synthetic_body(&doc_url(i), 700 + i as u64));
    }
    let opened = origin.stats().connections.load(Ordering::Relaxed);
    assert!(
        (1..=2).contains(&opened),
        "{opened} origin connections for 200 misses"
    );
    assert_eq!(origin.stats().full_responses.load(Ordering::Relaxed), 200);
    let s = proxy.stats();
    assert_eq!((s.misses, s.retries, s.origin_failures), (200, 0, 0));
    assert_eq!(proxy.stats().inline_fetches, 200);
}

/// Revalidations travel on the kept connection too, and a `304` (no
/// body) leaves it reusable.
#[test]
fn revalidations_share_the_connection() {
    let origin = origin_with_docs(3);
    let config = ProxyConfig::new(1 << 20).with_ttl(1);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    for round in 0..4 {
        for i in 0..3 {
            let r = get(&proxy, &doc_url(i));
            assert_eq!(r.status, 200);
            assert_eq!(r.is_cache_hit(), round > 0, "round {round} doc {i}");
        }
    }
    assert_eq!(proxy.stats().revalidated, 9);
    assert_eq!(origin.stats().not_modified.load(Ordering::Relaxed), 9);
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1);
    // Only the very first miss had no idle connection to go out on.
    assert_eq!(proxy.stats().inline_fetches, 12);
}

/// (b) The origin closes a connection it promised to keep: the next miss
/// finds the idle socket dead, replaces it, and nobody counts a fault.
#[test]
fn stale_idle_connection_is_replaced_invisibly() {
    let origin = ScriptedOrigin::start(vec![vec![Reply::Full]; 3]);
    let config = ProxyConfig::new(1 << 20)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(1, 1000);
    let proxy = ProxyServer::start(origin.addr, config, || Box::new(named::lru())).unwrap();
    for i in 0..3 {
        let r = get(&proxy, &doc_url(i));
        assert_eq!(r.status, 200, "miss {i} after the origin closed");
        assert_eq!(r.body, http::synthetic_body(&doc_url(i), SCRIPTED_BODY));
    }
    assert_eq!(origin.connections(), 3, "each closed socket was replaced");
    let s = proxy.stats();
    assert_eq!(
        (s.retries, s.timeouts, s.origin_failures, s.breaker_trips),
        (0, 0, 0, 0)
    );
    assert_eq!(s.misses, 3);
    // Misses 1 and 2 went out on the kept socket, found it dead, and
    // were redone on a fresh one: three connections, no fault counted.
    assert_eq!(proxy.stats().inline_fetches, 3);
}

/// (c) Dropping the origin ends its persistent connections: a pooled
/// socket does not keep a dead origin alive.
#[test]
fn dropped_origin_is_dead_despite_pooled_connections() {
    let origin = origin_with_docs(4);
    let config = ProxyConfig::new(1 << 20)
        .with_ttl(1)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    let first = get(&proxy, &doc_url(0));
    assert_eq!(get(&proxy, &doc_url(1)).status, 200);
    assert_eq!(
        origin.stats().connections.load(Ordering::Relaxed),
        1,
        "the first connection is pooled"
    );
    drop(origin);
    // Uncached: bad gateway, as before persistent connections.
    assert_eq!(get(&proxy, &doc_url(2)).status, 502);
    assert_eq!(get(&proxy, &doc_url(3)).status, 502);
    // Cached but expired: revalidation fails, the copy is served stale.
    let r = get(&proxy, &doc_url(0));
    assert_eq!(r.status, 200);
    assert!(r.is_cache_hit() && r.is_degraded());
    assert_eq!(r.body, first.body);
    let s = proxy.stats();
    assert_eq!((s.origin_failures, s.stale_serves), (3, 1));
}

/// (d) The fault shim never has a connection reused — its schedule is per
/// connection — and a truncated body is a failed attempt, retried.
#[test]
fn fault_shim_connections_are_never_reused() {
    let origin = origin_with_docs(3);
    let plan = FaultPlan::new(3).truncate(1.0).active_range(1, 2);
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("shim");
    let config = ProxyConfig::new(1 << 20)
        .with_retries(1, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let proxy = ProxyServer::start(faulty.addr(), config, || Box::new(named::lru())).unwrap();
    for i in 0..3 {
        let r = get(&proxy, &doc_url(i));
        assert_eq!(r.status, 200);
        assert_eq!(r.body.len() as u64, 700 + i as u64, "never a short body");
    }
    let s = proxy.stats();
    assert_eq!(
        (s.misses, s.retries, s.timeouts, s.origin_failures),
        (3, 1, 0, 0)
    );
    // One shim connection per request sent: three misses and one retry.
    assert_eq!(faulty.connections(), 4);
    assert_eq!(faulty.stats().truncated.load(Ordering::Relaxed), 1);
    // And the shim's own forwards are one connection each.
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 4);
}

/// (d) A short body is an error on any connection. On a fresh one it is
/// the origin's failure; on a reused one the socket is discarded and the
/// attempt redone — either way the client never sees a short document.
#[test]
fn short_bodies_are_errors_and_discard_the_socket() {
    let origin = ScriptedOrigin::start(vec![
        vec![Reply::Short],
        vec![Reply::Full, Reply::Short],
        vec![Reply::Full],
    ]);
    let config = ProxyConfig::new(1 << 20)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let proxy = ProxyServer::start(origin.addr, config, || Box::new(named::lru())).unwrap();
    // Fresh connection 0, short body: a failed fetch.
    assert_eq!(get(&proxy, &doc_url(0)).status, 502);
    assert_eq!(proxy.stats().origin_failures, 1);
    // Fresh connection 1, complete: served and kept.
    assert_eq!(get(&proxy, &doc_url(1)).body.len() as u64, SCRIPTED_BODY);
    // Reused connection 1, short body: discarded, redone on connection 2.
    let r = get(&proxy, &doc_url(2));
    assert_eq!(r.status, 200);
    assert_eq!(r.body, http::synthetic_body(&doc_url(2), SCRIPTED_BODY));
    assert_eq!(origin.connections(), 3);
    let s = proxy.stats();
    assert_eq!(
        (s.misses, s.retries, s.timeouts, s.origin_failures),
        (2, 0, 0, 1)
    );
}

/// An origin that stops sending mid-body on a kept connection, without
/// closing it: the event loop's deadline wheel gives the exchange up
/// after `read_timeout` and redoes it on a fresh connection.
/// The stall is the socket's fault, so nothing counts it.
#[test]
fn stalled_kept_connection_is_given_up_and_redone() {
    let origin = ScriptedOrigin::start(vec![vec![Reply::Full, Reply::Stall], vec![Reply::Full]]);
    let config = ProxyConfig::new(1 << 20)
        .with_timeouts(Duration::from_secs(1), STALL / 6)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(1, 1000);
    let proxy = ProxyServer::start(origin.addr, config, || Box::new(named::lru())).unwrap();
    assert_eq!(get(&proxy, &doc_url(0)).status, 200);
    let asked = std::time::Instant::now();
    let r = get(&proxy, &doc_url(1));
    assert_eq!(r.status, 200);
    assert_eq!(r.body, http::synthetic_body(&doc_url(1), SCRIPTED_BODY));
    assert!(asked.elapsed() < STALL, "waited the stall out");
    assert_eq!(origin.connections(), 2);
    let s = proxy.stats();
    assert_eq!(
        (s.misses, s.retries, s.timeouts, s.origin_failures),
        (2, 0, 0, 0)
    );
}

// -----------------------------------------------------------------------
// (e) The reader against the naive reference.

/// One generated response head and its body.
#[derive(Debug, Clone)]
struct Case {
    status: u16,
    /// The `content-length` value to send, if any, and the body length
    /// that goes with it.
    length: Option<(String, usize)>,
    last_modified: Option<String>,
    connection: Option<&'static str>,
    /// Distinct filler headers before the blank line.
    fillers: usize,
    /// Pad one filler so its line is this many bytes, newline included.
    long_line: Option<usize>,
    upper: bool,
    pad: usize,
    crlf: bool,
    /// Rotation of the header order.
    rotate: usize,
    /// Bytes cut off the end of the body.
    cut: usize,
}

fn styled(name: &str, upper: bool) -> String {
    if upper {
        name.to_ascii_uppercase()
    } else {
        name.to_string()
    }
}

impl Case {
    fn wire(&self) -> Vec<u8> {
        let eol = if self.crlf { "\r\n" } else { "\n" };
        let pad = " ".repeat(self.pad);
        let mut headers: Vec<String> = Vec::new();
        if let Some((value, _)) = &self.length {
            headers.push(format!(
                "{}:{pad}{value}{pad}",
                styled("content-length", self.upper)
            ));
        }
        if let Some(lm) = &self.last_modified {
            headers.push(format!("{}{pad}:{lm}", styled("Last-Modified", self.upper)));
        }
        if let Some(c) = self.connection {
            headers.push(format!("{}: {pad}{c}", styled("Connection", self.upper)));
        }
        for i in 0..self.fillers {
            let mut line = format!("x-filler-{i}: v");
            if let (0, Some(total)) = (i, self.long_line) {
                let short_by = total.saturating_sub(line.len() + eol.len());
                line.push_str(&"v".repeat(short_by));
            }
            headers.push(line);
        }
        if !headers.is_empty() {
            let by = self.rotate % headers.len();
            headers.rotate_left(by);
        }
        let mut wire = format!("HTTP/1.0 {} Whatever{eol}", self.status).into_bytes();
        for h in &headers {
            wire.extend_from_slice(h.as_bytes());
            wire.extend_from_slice(eol.as_bytes());
        }
        wire.extend_from_slice(eol.as_bytes());
        let body_len = self.length.as_ref().map_or(0, |(_, n)| *n);
        let body = http::synthetic_body("http://o.test/generated", body_len as u64);
        wire.extend_from_slice(&body[..body_len - self.cut.min(body_len)]);
        wire
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let length = prop::sample::select(vec![
        None,
        Some(("0".to_string(), 0)),
        Some(("1".to_string(), 1)),
        Some(("2500".to_string(), 2500)),
        Some(("+17".to_string(), 17)),
        Some(("20000".to_string(), 20000)),
        Some(("banana".to_string(), 0)),
        Some(("-3".to_string(), 0)),
        Some(((MAX_BODY + 1).to_string(), 0)),
        Some((u64::MAX.to_string(), 0)),
    ]);
    let last_modified = prop::sample::select(vec![
        None,
        Some("0".to_string()),
        Some(" 77 ".to_string()),
        Some("yesterday".to_string()),
    ]);
    let connection = prop::sample::select(vec![
        None,
        Some("keep-alive"),
        Some("Keep-Alive"),
        Some("close"),
    ]);
    let fillers = prop::sample::select(vec![
        0,
        1,
        5,
        MAX_HEADERS - 4,
        MAX_HEADERS - 3,
        MAX_HEADERS - 1,
        MAX_HEADERS,
        MAX_HEADERS + 1,
    ]);
    let long_line = prop::sample::select(vec![
        None,
        None,
        None,
        Some(MAX_LINE - 1),
        Some(MAX_LINE),
        Some(MAX_LINE + 1),
        Some(2 * MAX_LINE),
    ]);
    (
        prop::sample::select(vec![200u16, 304, 404, 503]),
        (length, last_modified, connection),
        (fillers, long_line),
        (0u8..2, 0usize..3, 0u8..2),
        0usize..200,
        prop::sample::select(vec![0usize, 0, 0, 1, 300]),
    )
        .prop_map(
            |(
                status,
                (length, last_modified, connection),
                (fillers, long_line),
                style,
                rotate,
                cut,
            )| {
                Case {
                    status,
                    length,
                    last_modified,
                    connection,
                    fillers,
                    long_line,
                    upper: style.0 == 1,
                    pad: style.1,
                    crlf: style.2 == 1,
                    rotate,
                    cut,
                }
            },
        )
}

/// Hands `wire` out in pieces: at each of `cuts` (offsets into `wire`)
/// the stream says `WouldBlock` once, as a socket that is not to be
/// waited on does when it has nothing more yet; at each of `shorts` a read
/// stops short of what it was asked for and the next one goes on, as a
/// socket's does when the rest arrives between the two. After the last
/// byte it is at its end.
struct Splits<'a> {
    wire: &'a [u8],
    cuts: Vec<usize>,
    shorts: Vec<usize>,
    pos: usize,
}

impl Read for Splits<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut upto = self.wire.len();
        if let Some(&cut) = self.cuts.first() {
            if cut <= self.pos {
                self.cuts.remove(0);
                return Err(ErrorKind::WouldBlock.into());
            }
            upto = cut;
        }
        self.shorts.retain(|&short| short > self.pos);
        if let Some(&short) = self.shorts.first() {
            upto = upto.min(short);
        }
        let n = out.len().min(upto - self.pos);
        out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drive the resumable reader over `stream` the way the event loop does:
/// call again after every `WouldBlock`, and after every exhausted budget.
fn resume_to_the_end(
    reader: &mut ResponseReader,
    stream: &mut Splits,
    budget: usize,
) -> Result<(ResponseHead, bytes::Bytes), HttpError> {
    reader.reset();
    loop {
        match reader.resume(stream, budget) {
            Ok(Some(done)) => return Ok(done),
            Ok(None) => {}
            Err(HttpError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
    }
}

/// A peer's length prefix reserves next to nothing: the payload buffer
/// grows with the bytes that arrive, so promising `MAX_FRAME` and hanging
/// up costs the reader a few KiB, not 64 MiB.
#[test]
fn frame_reader_allocates_for_bytes_received_not_bytes_promised() {
    let header = MAX_FRAME.to_le_bytes();
    counting_alloc::reset_peak();
    let got = read_frame(&mut header.as_slice());
    let peak = counting_alloc::peak();
    let e = got.expect_err("a frame cut off after its header");
    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
    assert!(
        peak <= 8 * 1024,
        "allocated {peak} bytes for an empty frame"
    );

    // Ten KiB of the promised 64 MiB arrive: still an error, and the
    // buffer never got ahead of them by more than a doubling.
    let mut wire = header.to_vec();
    wire.resize(4 + 10 * 1024, 3);
    counting_alloc::reset_peak();
    let got = read_frame(&mut wire.as_slice());
    let peak = counting_alloc::peak();
    assert!(got.is_err());
    assert!(peak <= 64 * 1024, "allocated {peak} bytes for 10 KiB");
}

/// A fetched body stays in the allocation it was read into: the reader
/// reserves exactly `content-length` bytes and `Bytes::from(Vec)` adopts
/// them. A `Bytes` that copied would show here as one allocation larger
/// than the body (the copy plus its reference counts).
#[test]
fn a_fetched_body_is_not_copied_on_its_way_to_the_cache() {
    const LEN: usize = 1 << 20;
    let mut wire = format!("HTTP/1.0 200 OK\r\ncontent-length: {LEN}\r\n\r\n").into_bytes();
    wire.resize(wire.len() + LEN, 9);
    let mut reader = ResponseReader::new();
    counting_alloc::reset_peak();
    let (_, body) = reader.read(&mut wire.as_slice()).unwrap();
    let peak = counting_alloc::peak();
    assert_eq!(body.len(), LEN);
    assert_eq!(
        peak, LEN,
        "largest allocation while reading a {LEN}-byte body"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// On generated heads — header case, padding and order, a missing
    /// `content-length`, bodyless statuses, every bound — the reader
    /// returns what the naive reference returns, or refuses as it does:
    /// end of stream as `UnexpectedEof`, everything else as `Malformed`.
    /// `http::read_response`, the reader with a header map, returns the
    /// reference's map. Fed the same bytes in pieces split at arbitrary
    /// points, by `WouldBlock` or by a read shorter than asked, with a
    /// small budget per call, the resumable reader says exactly what the
    /// blocking one said.
    #[test]
    fn reader_agrees_with_the_naive_reference(
        case in case_strategy(),
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
        shorts in prop::collection::vec(0.0f64..1.0, 0..6),
        budget in prop::sample::select(vec![1usize, 700, usize::MAX]),
    ) {
        let wire = case.wire();
        let offsets = |fractions: Vec<f64>| {
            let mut at: Vec<usize> =
                fractions.iter().map(|f| (f * wire.len() as f64) as usize).collect();
            at.sort_unstable();
            at
        };
        let (cuts, shorts) = (offsets(cuts), offsets(shorts));
        let mut pieces = Splits { wire: &wire, cuts, shorts, pos: 0 };
        let mut resumable = ResponseReader::new();
        counting_alloc::reset_peak();
        let in_pieces = resume_to_the_end(&mut resumable, &mut pieces, budget);
        let peak_in_pieces = counting_alloc::peak();
        // The head lives in the reader's fixed buffer (room for one
        // `MAX_LINE` line and one read), so the only allocation that
        // grows with the input is the body, made once its length has
        // passed the `MAX_BODY` check; error messages are small.
        let body_len = case.length.as_ref().map_or(0, |(_, n)| *n);
        prop_assert!(
            peak_in_pieces <= body_len.max(2 * MAX_LINE),
            "allocated {peak_in_pieces} bytes for a {body_len}-byte body"
        );
        let expected = reference::response(&wire);
        let mut reader = ResponseReader::new();
        counting_alloc::reset_peak();
        let got = reader.read(&mut wire.as_slice());
        let peak = counting_alloc::peak();
        let blocking = http::read_response(&mut wire.as_slice());
        match (expected, got, blocking) {
            (Ok(o), Ok((head, body)), Ok(b)) => {
                let (pieced_head, pieced_body) = in_pieces.expect("whole read succeeded");
                prop_assert_eq!(pieced_head, head);
                prop_assert_eq!(&pieced_body, &body);
                prop_assert_eq!(head.status, o.status);
                prop_assert_eq!(head.last_modified, o.last_modified());
                prop_assert_eq!(head.content_length, o.body.len() as u64);
                prop_assert_eq!(&body, &o.body);
                let asked = o
                    .headers
                    .get("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
                prop_assert_eq!(
                    head.keep_alive,
                    asked && o.headers.contains_key("content-length")
                );
                prop_assert_eq!((b.status, &b.headers, &b.body), (o.status, &o.headers, &o.body));
            }
            (Err(refusal), Err(e), Err(b)) => {
                prop_assert!(refusal_of(&e) == Some(refusal), "reference {refusal:?}, reader {e}");
                prop_assert!(refusal_of(&b) == Some(refusal), "reference {refusal:?}, read_response {b}");
                let pieced = in_pieces.expect_err("whole read failed");
                prop_assert!(
                    std::mem::discriminant(&pieced) == std::mem::discriminant(&e),
                    "in pieces {pieced} but whole {e}"
                );
                if matches!(&case.length, Some((v, _)) if v.len() > 9) {
                    // Refused for its size: before reserving anything.
                    prop_assert!(matches!(e, HttpError::Malformed(_)), "{e}");
                    prop_assert!(peak < 64 * 1024, "allocated {peak} bytes first");
                }
            }
            (o, g, b) => prop_assert!(
                false,
                "reference {:?} but reader {:?} and read_response {:?} on {case:?}",
                o.map(|r| (r.status, r.body.len())),
                g.map(|(h, b)| (h, b.len())),
                b.map(|r| (r.status, r.body.len()))
            ),
        }
    }
}

/// What the reference calls a refusal the reader reported as `e`.
fn refusal_of(e: &HttpError) -> Option<Refusal> {
    match e {
        HttpError::Io(io) if io.kind() == ErrorKind::UnexpectedEof => Some(Refusal::Eof),
        HttpError::Malformed(why) if why.starts_with("line exceeds") => Some(Refusal::TooLong),
        HttpError::Malformed(_) => Some(Refusal::Malformed),
        HttpError::Io(_) => None,
    }
}
