//! Steady-state allocation test: a warmed reactor serves cache hits with
//! ZERO heap allocations — the claim behind the zero-copy hit path,
//! proven with a counting global allocator rather than asserted in
//! documentation.
//!
//! ## How counting works
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) counts
//! every `alloc`/`realloc` process-wide — except on threads that call its
//! `suppress_here`. The test
//! thread (which runs the HTTP client: connects, `Request` building,
//! response reading — all naturally allocating) suppresses itself, so
//! the counter sees only proxy-side threads: the reactor's one event
//! loop. During the measured window it serves hits alone (no origin
//! exchange — `inline_fetches` stays flat), so a nonzero delta is an
//! allocation on the hit path, failing the test.
//!
//! ## Why warmup is deterministic
//!
//! Two proxy-side structures grow amortised and must reach a stable
//! capacity before measuring:
//!
//! * The LRU policy (`SortedPolicy`) queues one entry per access; the
//!   proxy's clock ticks per request, so every one lands in the sorted
//!   run. The run doubles: capacities 4, 8, …, 512. After 1 miss +
//!   `WARMUP = 400` hits it holds ~401 entries with capacity 512, so the
//!   100 measured hits fit without reallocation.
//! * The buffer pool warms on the first connection cycle: accept #2
//!   onward reuses the returned parser and head buffer.
//!
//! The path measured is the one a request sent in a single write takes:
//! the listener defers the accept until the request is in, the event loop
//! reads it at accept and writes the hit in that turn, and the socket is
//! never registered with epoll (`read_at_accept` counts it).
//!
//! ## Documented miss-path allocations (allowed, outside the window)
//!
//! The miss path allocates by design — its cost is the origin round
//! trip. Specifically: the origin fetch's reader, body and `Response`, the
//! cache insert (shard slab, policy state, URL-table entry for a new
//! URL). All happen before the
//! measured window opens and are why the warmup does one miss first.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::net::TcpStream;
use std::sync::Arc;
use webcache_core::policy::named;
use webcache_proxy::http::{self, Request};
use webcache_proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};

fn fetch(addr: std::net::SocketAddr, url: &str) -> http::Response {
    let mut s = TcpStream::connect(addr).unwrap();
    http::write_request(&mut s, &Request::get(url)).unwrap();
    http::read_response(&mut s).unwrap()
}

#[test]
fn warmed_reactor_serves_hits_without_allocating() {
    // The client side of the exchange allocates freely; don't count it.
    counting_alloc::suppress_here();

    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/hot.html", 4096, 10);
    let origin = OriginServer::start(store).unwrap();
    let config = ProxyConfig::new(1 << 20);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // One miss populates the cache (all its allocations are allowed and
    // happen here), then enough hits to warm every amortised structure:
    // the policy's sorted run reaches capacity 512 > 401 + 100, and the
    // buffer pool cycles its first parser/head pair.
    const WARMUP: usize = 400;
    const MEASURED: usize = 100;
    let miss = fetch(proxy.addr(), "http://o.test/hot.html");
    assert_eq!(miss.status, 200);
    assert!(!miss.is_cache_hit());
    for _ in 0..WARMUP {
        let r = fetch(proxy.addr(), "http://o.test/hot.html");
        assert!(r.is_cache_hit());
        assert_eq!(r.body.len(), 4096);
    }
    let fetches_before = proxy.stats().inline_fetches;
    let read_before = proxy.stats().read_at_accept;

    let before = counting_alloc::allocations();
    for _ in 0..MEASURED {
        let r = fetch(proxy.addr(), "http://o.test/hot.html");
        assert!(r.is_cache_hit());
        assert_eq!(r.body.len(), 4096);
    }
    let delta = counting_alloc::allocations() - before;

    assert_eq!(
        proxy.stats().inline_fetches,
        fetches_before,
        "a measured hit went to the origin — the fast path declined"
    );
    // Each request is one write and the listener defers the accept until
    // it is in, so every measured hit took the read-at-accept path.
    assert_eq!(
        proxy.stats().read_at_accept - read_before,
        MEASURED as u64,
        "a measured hit was not read at accept"
    );
    assert_eq!(
        delta, 0,
        "warmed reactor allocated {delta} times over {MEASURED} hits \
         (expected zero: pooled buffers, direct head encoding, refcount \
         body, pre-warmed policy heap)"
    );

    let stats = proxy.stats();
    assert_eq!(stats.hits as usize, WARMUP + MEASURED);
    assert_eq!(stats.misses, 1);
}
