//! HTTP edge-case behaviour at the proxy boundary: pipelined bytes,
//! oversized request lines, and clients that stall mid-request. The
//! proxy must answer each with a clean status — never a panic, an
//! unbounded buffer, or a wedged event loop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use webcache_core::policy::named;
use webcache_proxy::http::{self, Request, Response, MAX_LINE};
use webcache_proxy::origin::{DocStore, OriginServer};
use webcache_proxy::{ProxyConfig, ProxyServer};

fn setup(read_timeout: Duration) -> (OriginServer, ProxyServer) {
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    let origin = OriginServer::start(store).unwrap();
    let config = ProxyConfig::new(100_000)
        .with_timeouts(Duration::from_secs(1), read_timeout)
        .with_retries(0, Duration::from_millis(1));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    (origin, proxy)
}

fn read_full_response(s: &mut TcpStream) -> Response {
    http::read_response(s).expect("proxy must answer with a parseable response")
}

#[test]
fn pipelined_second_request_is_ignored_cleanly() {
    let (_origin, proxy) = setup(Duration::from_secs(2));
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    // Two back-to-back requests in one write: HTTP/1.0 is one request
    // per connection, so the proxy must serve the first and close,
    // ignoring the pipelined bytes rather than misparsing them.
    s.write_all(
        b"GET http://o.test/a.html HTTP/1.0\r\n\r\n\
          GET http://o.test/a.html HTTP/1.0\r\n\r\n",
    )
    .unwrap();
    let resp = read_full_response(&mut s);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 1000);
    // After the first response the connection is closed: EOF, no second
    // response, no garbage.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "pipelined bytes must not produce extra output, got {} bytes",
        rest.len()
    );
    // The pipelined request was dropped, not served.
    assert_eq!(proxy.stats().requests, 1);
}

#[test]
fn oversized_request_line_gets_400_not_a_panic() {
    let (_origin, proxy) = setup(Duration::from_secs(2));
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let mut line = b"GET http://o.test/".to_vec();
    line.extend(std::iter::repeat_n(b'a', 2 * MAX_LINE));
    line.extend_from_slice(b" HTTP/1.0\r\n\r\n");
    s.write_all(&line).unwrap();
    let resp = read_full_response(&mut s);
    assert_eq!(resp.status, 400, "oversized request line must be refused");
    // The proxy is still alive and serving.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get("http://o.test/a.html")).unwrap();
    assert_eq!(read_full_response(&mut s).status, 200);
}

#[test]
fn read_timeout_mid_header_gets_504() {
    let (_origin, proxy) = setup(Duration::from_millis(200));
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    // Send a request line and half a header, then stall past the read
    // timeout. The proxy must give up with 504 instead of holding the
    // connection for the dead client.
    s.write_all(b"GET http://o.test/a.html HTTP/1.0\r\nX-Half: ")
        .unwrap();
    let resp = read_full_response(&mut s);
    assert_eq!(resp.status, 504, "stalled client must time out with 504");
    // The proxy serves the next client as before.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get("http://o.test/a.html")).unwrap();
    assert_eq!(read_full_response(&mut s).status, 200);
}
