//! Proxy hierarchies over live TCP: a child (edge) proxy forwarding
//! misses to a parent proxy, which forwards to the origin — the HTTP
//! counterpart of Experiment 3's two-level cache, and the paper's
//! "forwards the GET message to another proxy server (as in [12])".

mod common;

use common::stat;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use webcache_core::policy::named;
use webcache_proxy::http::{read_response, write_request, Request};
use webcache_proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};

fn get(addr: std::net::SocketAddr, url: &str) -> webcache_proxy::http::Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    write_request(&mut s, &Request::get(url)).expect("send");
    read_response(&mut s).expect("recv")
}

fn origin_with_docs() -> OriginServer {
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 2_000, 10);
    store.put_synthetic("http://o.test/b.gif", 5_000, 10);
    OriginServer::start(store).expect("origin")
}

#[test]
fn chained_proxies_shield_the_origin() {
    let origin = origin_with_docs();
    let parent = ProxyServer::start(origin.addr(), ProxyConfig::new(1_000_000), || {
        Box::new(named::lru())
    })
    .expect("parent proxy");
    // The child treats the parent exactly as it would an origin: both
    // speak absolute-URI GET.
    let child = ProxyServer::start(parent.addr(), ProxyConfig::new(1_000_000), || {
        Box::new(named::size())
    })
    .expect("child proxy");

    // First fetch: miss at child, miss at parent, one origin response.
    let r1 = get(child.addr(), "http://o.test/a.html");
    assert_eq!(r1.status, 200);
    assert!(!r1.is_cache_hit());
    assert_eq!(origin.stats().full_responses.load(Ordering::Relaxed), 1);

    // Second fetch through the child: child hit, parent untouched.
    let r2 = get(child.addr(), "http://o.test/a.html");
    assert!(r2.is_cache_hit());
    assert_eq!(parent.stats().requests, 1);

    // A *fresh* child (cold edge cache) pointing at the same parent: the
    // parent satisfies the miss; the origin still saw exactly one fetch.
    let cold_child = ProxyServer::start(parent.addr(), ProxyConfig::new(1_000_000), || {
        Box::new(named::size())
    })
    .expect("cold child");
    let r3 = get(cold_child.addr(), "http://o.test/a.html");
    assert_eq!(r3.status, 200);
    assert_eq!(r3.body, r1.body);
    assert_eq!(
        origin.stats().full_responses.load(Ordering::Relaxed),
        1,
        "parent cache must shield the origin from the cold edge"
    );
    assert_eq!(parent.stats().hits, 1);
}

#[test]
fn conditional_get_propagates_down_the_chain() {
    let origin = origin_with_docs();
    let parent = ProxyServer::start(origin.addr(), ProxyConfig::new(1_000_000), || {
        Box::new(named::lru())
    })
    .expect("parent");
    // Warm the parent.
    let r = get(parent.addr(), "http://o.test/b.gif");
    assert_eq!(r.status, 200);
    let lm = r.last_modified().expect("origin provides Last-Modified");

    // A downstream cache revalidating an up-to-date copy gets 304 from
    // the parent's cache without any body bytes.
    let mut s = TcpStream::connect(parent.addr()).expect("connect");
    let cond =
        Request::get("http://o.test/b.gif").with_header("If-Modified-Since", &lm.to_string());
    write_request(&mut s, &cond).expect("send");
    let resp = read_response(&mut s).expect("recv");
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty());
    assert!(resp.is_cache_hit(), "the 304 was answered from cache");

    // A stale downstream copy gets the full body.
    let mut s = TcpStream::connect(parent.addr()).expect("connect");
    let cond = Request::get("http://o.test/b.gif")
        .with_header("If-Modified-Since", &(lm.saturating_sub(5)).to_string());
    write_request(&mut s, &cond).expect("send");
    let resp = read_response(&mut s).expect("recv");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 5_000);
}

#[test]
fn starved_edge_with_big_parent_mirrors_experiment3() {
    // Edge cache too small for the larger document, parent holds both:
    // the edge keeps the small doc (SIZE policy), the parent serves the
    // big one — "SIZE as a primary key will always transmit the largest
    // document from primary to second level cache".
    let origin = origin_with_docs();
    let parent = ProxyServer::start(origin.addr(), ProxyConfig::new(1_000_000), || {
        Box::new(named::lru())
    })
    .expect("parent");
    let edge = ProxyServer::start(
        parent.addr(),
        ProxyConfig::new(6_000), // holds 2k + 5k? no: evicts by SIZE
        || Box::new(named::size()),
    )
    .expect("edge");

    get(edge.addr(), "http://o.test/a.html"); // 2 kB cached at edge
    get(edge.addr(), "http://o.test/b.gif"); // 5 kB: 2+5 > 6, a.html displaced
    assert_eq!(
        stat(edge.addr(), "cached_bytes"),
        5_000,
        "edge holds only the 5 kB doc"
    );
    // Re-requests of BOTH documents must be absorbed by the hierarchy:
    // the resident one at the edge, the displaced one at the parent.
    let before = origin.stats().full_responses.load(Ordering::Relaxed);
    assert!(get(edge.addr(), "http://o.test/b.gif").is_cache_hit());
    let r = get(edge.addr(), "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert!(!r.is_cache_hit(), "a.html was displaced from the edge");
    assert_eq!(
        origin.stats().full_responses.load(Ordering::Relaxed),
        before,
        "the parent must shield the origin from the displaced doc"
    );
    assert!(parent.stats().hits >= 1);
}
