//! A connection's last turn: the client listener is corked, so the last
//! bytes of every response leave in the same segment as the FIN of the
//! close that follows it, and the guard that keeps the cork from costing
//! a client its response.
//!
//! The segment is counted from the client's side, in its own `TCP_INFO`
//! after end of stream: `tcpi_segs_in − tcpi_data_segs_in` is how many
//! segments without payload it received. Against a plain accept-write-close
//! responder sending the same bytes, whose data has all left by the time it
//! closes, the proxy's count must be one lower — the bare FIN — on every
//! path that ends a connection: a hit read at accept, a miss on a kept
//! origin connection, a miss on a fresh one, and a body too big for the
//! socket that the event loop drains under `EPOLLOUT`.
//!
//! Closing a socket over unread client bytes resets it, and a reset throws
//! away whatever the cork still held. So the proxy uncorks first wherever
//! the client may have sent more than it read: a `501` to a `POST` with a
//! body, a head that filled its read with junk behind it, and a `504` to a
//! client whose late bytes are still unread. Each of those clients reads
//! its whole response before the reset, and `uncorked` counts it.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::policy::named;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};

extern "C" {
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
}

const IPPROTO_TCP: i32 = 6;
const TCP_INFO: i32 = 11;

/// Byte offsets of three `struct tcp_info` fields (`<linux/tcp.h>`).
const SEGS_IN: usize = 140;
const NOTSENT_BYTES: usize = 144;
const DATA_SEGS_IN: usize = 152;

/// One `u32` field of `stream`'s `TCP_INFO`.
fn tcp_info(stream: &TcpStream, field: usize) -> u32 {
    let mut info = [0u8; 256];
    let mut len = info.len() as u32;
    // SAFETY: `info` is valid for writes of `len` bytes, and the kernel
    // writes at most that many and stores the count back in `len`.
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_INFO,
            info.as_mut_ptr(),
            &mut len,
        )
    };
    assert_eq!(rc, 0, "TCP_INFO: {}", std::io::Error::last_os_error());
    assert!(len as usize >= DATA_SEGS_IN + 4, "TCP_INFO of {len} bytes");
    u32::from_ne_bytes(info[field..field + 4].try_into().unwrap())
}

/// Segments without payload `stream` has received: the SYN-ACK, pure
/// ACKs, and a FIN that came on its own.
fn dataless_segments_in(stream: &TcpStream) -> u32 {
    tcp_info(stream, SEGS_IN) - tcp_info(stream, DATA_SEGS_IN)
}

/// GET `url` from `addr`, read to end of stream, and return what came
/// with the count of segments without payload that brought it.
fn exchange(addr: SocketAddr, url: &str) -> (Vec<u8>, u32) {
    let mut s = TcpStream::connect(addr).unwrap();
    http::write_request(&mut s, &Request::get(url)).unwrap();
    let mut wire = Vec::new();
    s.read_to_end(&mut wire).unwrap();
    (wire, dataless_segments_in(&s))
}

/// Serve one connection on `listener`: read a request head, write `wire`,
/// wait until the kernel has sent every byte of it, and close.
fn respond_once(listener: TcpListener, wire: &[u8]) {
    let (mut s, _) = listener.accept().unwrap();
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "the client closed before its head was in");
        head.extend_from_slice(&buf[..n]);
    }
    s.write_all(wire).unwrap();
    while tcp_info(&s, NOTSENT_BYTES) > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The proxy sent `wire` for `url` in segments of which `proxy_dataless`
/// carried no payload: the same bytes from the reference responder must
/// take one such segment more, the FIN the proxy sent with its data.
/// Returns the proxy's response.
fn assert_fin_rode_with_the_data(url: &str, wire: &[u8], proxy_dataless: u32) -> Response {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reference_dataless = std::thread::scope(|scope| {
        let responder = scope.spawn(|| respond_once(listener, wire));
        let (again, dataless) = exchange(addr, url);
        responder.join().unwrap();
        assert!(again == wire, "the reference sent other bytes");
        dataless
    });
    assert_eq!(
        proxy_dataless + 1,
        reference_dataless,
        "{url}: the proxy's last of {} bytes came without its FIN",
        wire.len()
    );
    http::read_response(&mut &wire[..]).unwrap()
}

/// GET `url` through the proxy and check its FIN rode with the data.
fn get_in_one_last_segment(proxy: &ProxyServer, url: &str) -> Response {
    let (wire, dataless) = exchange(proxy.addr(), url);
    assert_fin_rode_with_the_data(url, &wire, dataless)
}

fn origin_with(docs: &[(&str, u64)]) -> OriginServer {
    let store = Arc::new(DocStore::new());
    for &(url, size) in docs {
        store.put_synthetic(url, size, 10);
    }
    OriginServer::start(store).unwrap()
}

fn proxy_for(origin: &OriginServer) -> ProxyServer {
    let config = ProxyConfig::new(64 << 20);
    ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap()
}

const A: &str = "http://o.test/a.html";
const B: &str = "http://o.test/b.html";

#[test]
fn a_miss_on_a_fresh_origin_connection_leaves_with_its_fin() {
    let origin = origin_with(&[(A, 1000)]);
    let proxy = proxy_for(&origin);
    // No idle origin connection yet: the loop connects one.
    let resp = get_in_one_last_segment(&proxy, A);
    assert_eq!((resp.status, resp.is_cache_hit()), (200, false));
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1);
    assert_eq!(proxy.stats().uncorked, 0);
}

#[test]
fn an_inline_miss_leaves_with_its_fin() {
    let origin = origin_with(&[(A, 1000), (B, 3000)]);
    let proxy = proxy_for(&origin);
    assert_eq!(common::get(proxy.addr(), A), Some(false));
    // The first miss left its origin connection idle: this one reuses it.
    let resp = get_in_one_last_segment(&proxy, B);
    assert_eq!((resp.status, resp.is_cache_hit()), (200, false));
    assert_eq!(proxy.stats().inline_fetches, 2);
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1);
    assert_eq!(proxy.stats().uncorked, 0);
}

#[test]
fn a_hit_read_at_accept_leaves_with_its_fin() {
    let origin = origin_with(&[(A, 1000)]);
    let proxy = proxy_for(&origin);
    assert_eq!(common::get(proxy.addr(), A), Some(false));
    let read = proxy.stats().read_at_accept;
    let resp = get_in_one_last_segment(&proxy, A);
    assert!(resp.is_cache_hit());
    assert_eq!(proxy.stats().read_at_accept, read + 1);
    assert_eq!(
        (proxy.stats().inline_fetches, proxy.stats().uncorked),
        (1, 0)
    );
}

#[test]
fn a_body_drained_under_epollout_leaves_with_its_fin() {
    const BIG: u64 = 16 << 20;
    const BIG_URL: &str = "http://o.test/big.bin";
    let origin = origin_with(&[(BIG_URL, BIG)]);
    let proxy = proxy_for(&origin);
    // Read nothing until the loop has the whole body and has found the
    // socket full.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get(BIG_URL)).unwrap();
    let give_up = Instant::now() + Duration::from_secs(10);
    while proxy.stats().misses == 0 {
        assert!(Instant::now() < give_up, "no answer from the origin");
        std::thread::sleep(Duration::from_millis(2));
    }
    // A tail still queued behind the receive window when the proxy closes
    // takes the FIN along corked or not; the cork makes it certain.
    let mut wire = Vec::new();
    s.read_to_end(&mut wire).unwrap();
    let resp = assert_fin_rode_with_the_data(BIG_URL, &wire, dataless_segments_in(&s));
    assert!(resp.body == http::synthetic_body(BIG_URL, BIG));
    assert_eq!(proxy.stats().uncorked, 0);
}

/// Everything the proxy sends on `s` before it closes or resets the
/// connection.
fn read_until_closed(s: &mut TcpStream) -> Vec<u8> {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wire = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return wire,
            Ok(n) => wire.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return wire,
            Err(e) => panic!("after {} bytes: {e}", wire.len()),
        }
    }
}

/// The whole response in `wire`, with nothing after it.
fn whole_response(wire: &[u8]) -> Response {
    let mut rest = wire;
    let resp = http::read_response(&mut rest).unwrap_or_else(|e| {
        panic!(
            "{e} in {} bytes: {:?}",
            wire.len(),
            String::from_utf8_lossy(wire)
        )
    });
    assert!(rest.is_empty(), "{} bytes after the response", rest.len());
    resp
}

#[test]
fn a_post_with_a_body_reads_its_501_before_the_reset() {
    let origin = origin_with(&[(A, 1000)]);
    let proxy = proxy_for(&origin);
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let mut wire = format!("POST {A} HTTP/1.0\r\ncontent-length: 65536\r\n\r\n").into_bytes();
    wire.resize(wire.len() + (64 << 10), b'p');
    // The proxy may reset the connection before the last of it is sent.
    let _ = s.write_all(&wire);
    assert_eq!(whole_response(&read_until_closed(&mut s)).status, 501);
    assert_eq!(proxy.stats().uncorked, 1);
}

#[test]
fn a_get_with_junk_behind_its_head_reads_its_response_before_the_reset() {
    let origin = origin_with(&[(A, 1000)]);
    let proxy = proxy_for(&origin);
    assert_eq!(common::get(proxy.addr(), A), Some(false));
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let mut wire = format!("GET {A} HTTP/1.0\r\n\r\n").into_bytes();
    wire.resize(wire.len() + (16 << 10), b'j');
    s.write_all(&wire).unwrap();
    let resp = whole_response(&read_until_closed(&mut s));
    assert!(resp.is_cache_hit());
    assert_eq!(resp.body, http::synthetic_body(A, 1000));
    assert_eq!(proxy.stats().uncorked, 1);
}

#[test]
fn a_client_stalled_past_its_deadline_reads_its_504_before_the_reset() {
    let origin = origin_with(&[(A, 1000)]);
    let child = common::ChildProxy::spawn(&["--origin", &origin.addr().to_string()]);
    let read_timeout = ProxyConfig::new(1).read_timeout;
    let mut s = TcpStream::connect(child.addr).unwrap();
    s.write_all(b"GET http://o.test/a.html HT").unwrap();
    // The proxy reads the half head, then is stopped past the deadline it
    // armed; the client's next bytes arrive meanwhile. Resumed, the loop's
    // interrupted wait returns no events, so it expires the connection
    // before it reads them, and closes over them.
    std::thread::sleep(Duration::from_millis(300));
    child.signal("STOP");
    std::thread::sleep(read_timeout + Duration::from_millis(300));
    s.write_all(b"TP/1.0\r\nx-late: 1").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    child.signal("CONT");
    let resumed = Instant::now();
    assert_eq!(whole_response(&read_until_closed(&mut s)).status, 504);
    assert!(
        resumed.elapsed() < read_timeout / 2,
        "the 504 came {:?} after the proxy resumed: it read the late bytes first",
        resumed.elapsed()
    );
    assert_eq!(common::stat(child.addr, "uncorked"), 1);
}
