//! Reactor integration tests: slow and idle clients must never occupy a
//! worker thread, fragmented requests must parse across many readiness
//! events, stalled clients must time out with `504`, dispatch overload
//! must shed with `503`, and a fixed exchange must keep its golden
//! statuses and counters.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use webcache_core::policy::named;
use webcache_proxy::fault::{FaultPlan, FaultyOrigin};
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};

fn origin_with_docs() -> OriginServer {
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    store.put_synthetic("http://o.test/b.gif", 3000, 10);
    store.put_synthetic("http://o.test/c.au", 6000, 10);
    OriginServer::start(store).unwrap()
}

fn get(proxy: &ProxyServer, url: &str) -> Response {
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get(url)).unwrap();
    http::read_response(&mut s).unwrap()
}

#[test]
fn idle_connections_never_occupy_a_worker() {
    let origin = origin_with_docs();
    let config = ProxyConfig::new(100_000).with_workers(2, 8);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // Fifty connections that send nothing: a thread per connection
    // would pin 50 worker slots; here they must pin zero.
    let loris: Vec<TcpStream> = (0..50)
        .map(|_| TcpStream::connect(proxy.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(proxy.worker_jobs(), 0, "idle connections reached a worker");

    // Real traffic flows around them immediately.
    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert_eq!(proxy.worker_jobs(), 1, "one miss, one worker job");

    // A fresh cache hit is served inline on the event loop: no new job.
    let r = get(&proxy, "http://o.test/a.html");
    assert!(r.is_cache_hit());
    assert_eq!(proxy.worker_jobs(), 1, "fast-path hit dispatched a job");
    assert_eq!(proxy.stats().hits, 1);
    drop(loris);
}

#[test]
fn fragmented_request_parses_across_readiness_events() {
    let origin = origin_with_docs();
    let proxy = ProxyServer::start(origin.addr(), ProxyConfig::new(100_000), || {
        Box::new(named::lru())
    })
    .unwrap();

    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let wire = b"GET http://o.test/a.html HTTP/1.0\r\nx-test: frag\r\n\r\n";
    for chunk in wire.chunks(3) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = http::read_response(&mut s).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 1000);
}

#[test]
fn stalled_mid_request_client_gets_504_without_blocking_others() {
    let origin = origin_with_docs();
    let config = ProxyConfig::new(100_000)
        .with_workers(1, 4)
        .with_timeouts(Duration::from_secs(1), Duration::from_millis(200));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // Send half a request line and stall.
    let mut stalled = TcpStream::connect(proxy.addr()).unwrap();
    stalled.write_all(b"GET http://o.te").unwrap();

    // Other clients are served while the stalled one waits out its
    // deadline — with only one worker, which the stalled client must
    // therefore not hold.
    let r = get(&proxy, "http://o.test/b.gif");
    assert_eq!(r.status, 200);

    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let resp = http::read_response(&mut stalled).unwrap();
    assert_eq!(
        resp.status, 504,
        "stalled client must get the timeout status"
    );
    assert_eq!(proxy.worker_jobs(), 1, "the stall never reached a worker");
}

#[test]
fn slow_but_live_clients_complete_within_the_deadline() {
    let origin = origin_with_docs();
    let config = ProxyConfig::new(100_000)
        .with_workers(1, 4)
        .with_timeouts(Duration::from_secs(1), Duration::from_millis(400));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // Dribble the request a few bytes at a time: each write lands well
    // inside the read deadline, so the deadline keeps re-arming — the
    // exact behaviour that lets the reactor hold thousands of slow
    // clients without erroring any of them.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let wire = b"GET http://o.test/c.au HTTP/1.0\r\n\r\n";
    for chunk in wire.chunks(5) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = http::read_response(&mut s).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 6000);
}

#[test]
fn dispatch_overload_sheds_with_503() {
    // A delaying origin makes every miss hold its worker; with one
    // worker and a one-deep job queue, concurrent misses beyond two
    // must be refused at dispatch with `503`.
    let origin = origin_with_docs();
    let slow = FaultyOrigin::start(
        origin.addr(),
        FaultPlan::new(7).delay(1.0, Duration::from_millis(400)),
    )
    .unwrap();
    let config = ProxyConfig::new(100_000)
        .with_workers(1, 1)
        .with_retries(0, Duration::from_millis(1))
        .with_timeouts(Duration::from_secs(2), Duration::from_secs(2));
    let proxy = ProxyServer::start(slow.addr(), config, || Box::new(named::lru())).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = proxy.addr();
            std::thread::spawn(move || {
                // Stagger arrivals well inside the 400 ms origin delay:
                // request 0 must reach the worker (and request 1 the
                // queue) before 2 and 3 arrive, otherwise all four can
                // land in one epoll batch before the worker wakes and
                // three get shed instead of two (a long-standing flake).
                std::thread::sleep(Duration::from_millis(60 * i));
                let mut s = TcpStream::connect(addr).unwrap();
                let url = format!("http://o.test/doc{i}.html");
                http::write_request(&mut s, &Request::get(&url)).unwrap();
                http::read_response(&mut s).unwrap().status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert!(shed >= 1, "no request was shed at dispatch: {statuses:?}");
    assert!(shed <= 2, "over-shedding: {statuses:?}");
    assert_eq!(proxy.stats().rejected as usize, shed);
}

#[test]
fn fixed_exchange_keeps_its_golden_statuses_and_counters() {
    // Hit/miss/revalidate accounting, downstream 304 conversion, and
    // breaker fast-fails over one fixed request sequence. The literals
    // are what the blocking thread-per-connection engine this reactor
    // replaced produced for the same exchange (DESIGN.md D19).
    let origin = origin_with_docs();
    let config = ProxyConfig::new(100_000)
        .with_ttl(2)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(2, 1000);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    let mut statuses = Vec::new();
    for url in [
        "http://o.test/a.html",
        "http://o.test/a.html",
        "http://o.test/b.gif",
        "http://o.test/c.au",
        "http://o.test/a.html", // past TTL: revalidates
    ] {
        statuses.push(get(&proxy, url).status);
    }
    // Downstream conditional GET: our copy (last-modified 10) is
    // not newer, so the proxy answers a bodyless 304.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    let req = Request::get("http://o.test/a.html").with_header("If-Modified-Since", "10");
    http::write_request(&mut s, &req).unwrap();
    let cond = http::read_response(&mut s).unwrap();
    statuses.push(cond.status);
    assert!(cond.is_cache_hit());
    // Kill the origin: failures trip the breaker, then fast-fail.
    drop(origin);
    statuses.push(get(&proxy, "http://x.test/1").status);
    statuses.push(get(&proxy, "http://x.test/2").status);
    statuses.push(get(&proxy, "http://x.test/3").status);
    assert_eq!(statuses, vec![200, 200, 200, 200, 200, 304, 502, 502, 503]);
    let st = proxy.stats();
    assert_eq!(
        (st.hits, st.revalidated, st.misses, st.breaker_trips),
        (3, 1, 3, 1)
    );
}
