//! Reactor integration tests: one event loop serves every request, so
//! slow and idle clients must never hold it up, fragmented requests must
//! parse across many readiness events, stalled clients must time out with
//! `504`, concurrent misses to a slow origin must all be served at once,
//! a miss backing off between attempts must not delay a hit, and a fixed
//! exchange must keep its golden statuses and counters. The loop runs
//! every origin exchange without blocking on it — on a kept connection or
//! a fresh one, with the same bytes on the wire either way — and leaks
//! no socket when the client or the origin goes away mid-exchange, mid
//! connect or mid backoff. A body larger than the client's socket is
//! drained under `EPOLLOUT`. And a replay of the paper's workload beside
//! clients that dribble their requests sees no error on either side. A
//! request that is whole when its connection is accepted is read and
//! answered at accept, one that is not waits for the rest, and a client
//! that sends nothing is accepted only when the kernel's deferral lapses;
//! out of descriptors, the event loop waits for one instead of spinning
//! on its listener. Each listener wake-up takes one connection, yet a
//! queue of connections strands none; a kept origin socket the origin
//! closes while it idles in the pool never wakes the loop; and the proxy
//! runs on two threads, `main` and the loop, however many cluster peers
//! it holds connections from.

mod common;

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webcache_core::policy::named;
use webcache_proxy::fault::{FaultPlan, FaultyOrigin};
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer, ProxyStats};

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

/// The body of `GET /__webcache/stats`.
fn stats_json(proxy: &ProxyServer) -> String {
    let stats = get(proxy, "/__webcache/stats");
    String::from_utf8(stats.body.to_vec()).unwrap()
}

/// Poll `cond` until it holds; the tests below wait on the proxy's own
/// counters this way instead of sleeping for a guessed interval.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Far more than a loopback socket pair buffers for a reader that is
/// not reading (send buffer ≤ 4 MiB plus an unopened receive window).
const BIG: u64 = 16 << 20;
const BIG_URL: &str = "http://o.test/big.bin";

fn origin_with_a_big_doc() -> OriginServer {
    let store = Arc::new(DocStore::new());
    store.put_synthetic(BIG_URL, BIG, 10);
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    OriginServer::start(store).unwrap()
}

/// Send a miss for [`BIG_URL`] and read nothing until the event loop has
/// the whole body and has found the socket full.
fn big_miss_unread(proxy: &ProxyServer) -> TcpStream {
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get(BIG_URL)).unwrap();
    wait_for("the origin's answer", || proxy.stats().misses == 1);
    s
}

/// A reader that takes at most 64 KiB at a time and sleeps before each
/// read: a live but slow client.
struct Sleepy(TcpStream);

impl Read for Sleepy {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(1));
        let n = buf.len().min(64 << 10);
        self.0.read(&mut buf[..n])
    }
}

/// A keep-alive origin for the inline-fetch tests, one thread per
/// connection, serving synthetic documents (last-modified 10) whose size
/// and manner follow from the URL:
///
/// * `held`: 64 KiB. The head and half the body go out, `started` is
///   signalled, and the rest follows only once `release` is.
/// * `cut`, on a connection that has answered before (a reused one): the
///   head and half the body, then the connection is closed.
/// * `late`: answered after a few milliseconds.
///
/// Everything else is 500 bytes at once. Once [`MoodyOrigin::hang_up`]
/// is called, a connection that idles is closed.
struct MoodyOrigin {
    addr: SocketAddr,
    connections: Arc<AtomicU64>,
    started: Receiver<()>,
    release: Sender<()>,
    shutdown: Arc<AtomicBool>,
    hang_up: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

fn moody_size(url: &str) -> u64 {
    if url.contains("held") {
        64 << 10
    } else {
        500
    }
}

impl MoodyOrigin {
    fn start() -> MoodyOrigin {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let hang_up = Arc::new(AtomicBool::new(false));
        let (started_tx, started) = channel();
        let (release, release_rx) = channel();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let acceptor = {
            let connections = Arc::clone(&connections);
            let shutdown = Arc::clone(&shutdown);
            let hang_up = Arc::clone(&hang_up);
            std::thread::spawn(move || {
                let mut serving: Vec<std::thread::JoinHandle<()>> = Vec::new();
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    connections.fetch_add(1, Ordering::SeqCst);
                    serving.retain(|thread| !thread.is_finished());
                    let shutdown = Arc::clone(&shutdown);
                    let hang_up = Arc::clone(&hang_up);
                    let started = started_tx.clone();
                    let release = Arc::clone(&release_rx);
                    serving.push(std::thread::spawn(move || {
                        let _ = moody_serve(stream, [&shutdown, &hang_up], &started, &release);
                    }));
                }
                for thread in serving {
                    let _ = thread.join();
                }
            })
        };
        MoodyOrigin {
            addr,
            connections,
            started,
            release,
            shutdown,
            hang_up,
            acceptor: Some(acceptor),
        }
    }

    fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// From now on close every connection that idles, the kept ones the
    /// proxy holds included (noticed within one poll of the idle socket).
    fn hang_up(&self) {
        self.hang_up.store(true, Ordering::SeqCst);
    }
}

impl Drop for MoodyOrigin {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Serve one connection until the peer closes it, a `cut` closes it, or
/// either flag of `close_idle` — the origin shutting down, or hanging up —
/// is raised (noticed within one poll of the idle socket).
fn moody_serve(
    stream: TcpStream,
    close_idle: [&AtomicBool; 2],
    started: &Sender<()>,
    release: &Mutex<Receiver<()>>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut reader = BufReader::new(stream);
    let mut answered = 0;
    loop {
        match reader.get_ref().peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if close_idle.iter().any(|flag| flag.load(Ordering::SeqCst)) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let Ok(req) = http::read_request_from(&mut reader) else {
            return Ok(());
        };
        let url = req.target.as_str();
        let body = http::synthetic_body(url, moody_size(url));
        let resp = Response::ok(body, Some(10)).with_connection(true);
        let half = resp.body.len() / 2;
        let stream = reader.get_mut();
        if url.contains("late") {
            std::thread::sleep(Duration::from_millis(3));
        }
        if url.contains("held") {
            stream.write_all(&http::encode_response_head(&resp))?;
            stream.write_all(&resp.body[..half])?;
            let _ = started.send(());
            let _ = release.lock().unwrap().recv();
            stream.write_all(&resp.body[half..])?;
        } else if url.contains("cut") && answered > 0 {
            stream.write_all(&http::encode_response_head(&resp))?;
            stream.write_all(&resp.body[..half])?;
            return Ok(());
        } else {
            if http::write_response(stream, &resp).is_err() {
                return Ok(());
            }
        }
        answered += 1;
    }
}

#[test]
fn idle_connections_never_hold_up_the_event_loop() {
    let origin = origin_with_docs();
    let config = ProxyConfig::new(100_000);
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // Fifty connections that send nothing: a thread per connection
    // would pin 50 threads; here they are 50 idle slots, no request.
    let loris: Vec<TcpStream> = (0..50)
        .map(|_| TcpStream::connect(proxy.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(proxy.stats().requests, 0, "an idle connection was served");

    // Real traffic flows around them immediately.
    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert_eq!(proxy.stats().inline_fetches, 1, "one miss, one exchange");

    // A fresh cache hit is served inline: no origin exchange.
    let r = get(&proxy, "http://o.test/a.html");
    assert!(r.is_cache_hit());
    assert_eq!(proxy.stats().inline_fetches, 1, "a hit went to the origin");
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
    let config =
        ProxyConfig::new(100_000).with_timeouts(Duration::from_secs(1), Duration::from_millis(200));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    // Send half a request line and stall.
    let mut stalled = TcpStream::connect(proxy.addr()).unwrap();
    stalled.write_all(b"GET http://o.te").unwrap();

    // Other clients are served while the stalled one waits out its
    // deadline on the same one thread.
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
    assert_eq!(
        (proxy.stats().requests, proxy.stats().misses),
        (1, 1),
        "the stall was counted as a request"
    );
}

#[test]
fn slow_but_live_clients_complete_within_the_deadline() {
    let origin = origin_with_docs();
    let config =
        ProxyConfig::new(100_000).with_timeouts(Duration::from_secs(1), Duration::from_millis(400));
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
fn trace_replay_beside_slow_clients_sees_no_error_on_either_side() {
    const SLOW_CLIENTS: usize = 4;
    let trace = common::paper_trace(0.002);
    let origin = OriginServer::start(common::seed_origin(&trace)).unwrap();
    let config = ProxyConfig::new(common::quarter_capacity(&trace))
        .with_shards(2)
        .with_timeouts(Duration::from_secs(1), Duration::from_millis(300));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    let (addr, urls) = (proxy.addr(), common::urls(&trace));
    // Unambiguously alive, unambiguously slow: every four bytes land a
    // third of the way into the read deadline they re-arm. One request takes over
    // a second, many times a replay of the trace.
    let pace = config.read_timeout / 3;

    let slow_ok: Vec<AtomicU64> = (0..SLOW_CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let slow_errors = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut fast = common::Tally::default();
    std::thread::scope(|scope| {
        for ok in &slow_ok {
            // The first trace URL: a hit after its first fetch, so the
            // load is the dribble and not the miss.
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if common::fetch_slowly(addr, urls[0], 4, pace, &stop) {
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else if !stop.load(Ordering::Relaxed) {
                        slow_errors.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(pace);
                    }
                }
            });
        }
        // Replay until every slow client has been through one whole
        // exchange beside it, or has had ten times as long as that takes.
        let give_up = Instant::now() + Duration::from_secs(20);
        while slow_ok.iter().any(|ok| ok.load(Ordering::Relaxed) == 0) && Instant::now() < give_up {
            fast += common::drive(&urls, 4, |_| addr);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let slow_ok: Vec<u64> = slow_ok
        .iter()
        .map(|ok| ok.load(Ordering::Relaxed))
        .collect();
    assert_eq!(
        slow_errors.load(Ordering::Relaxed),
        0,
        "a slow but live client was timed out or refused"
    );
    assert!(
        slow_ok.iter().all(|&ok| ok >= 1),
        "exchanges completed per slow client: {slow_ok:?}"
    );
    assert_eq!(fast.errors, 0, "{fast:?}");
    assert!(fast.ok >= urls.len() && proxy.stats().hits > 0, "{fast:?}");
}

#[test]
fn concurrent_misses_to_a_slow_origin_are_all_served_at_once() {
    // A delaying origin holds every exchange 400 ms. Four misses arrive
    // within that: none is shed, and all four are in flight together, so
    // the last is answered long before four delays have passed.
    const DELAY: Duration = Duration::from_millis(400);
    let origin = origin_with_docs();
    let slow = FaultyOrigin::start(origin.addr(), FaultPlan::new(7).delay(1.0, DELAY)).unwrap();
    let config = ProxyConfig::new(100_000)
        .with_retries(0, Duration::from_millis(1))
        .with_timeouts(Duration::from_secs(2), Duration::from_secs(2));
    let proxy = ProxyServer::start(slow.addr(), config, || Box::new(named::lru())).unwrap();

    let started = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = proxy.addr();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60 * i));
                let mut s = TcpStream::connect(addr).unwrap();
                let url = format!("http://o.test/doc{i}.html");
                http::write_request(&mut s, &Request::get(&url)).unwrap();
                http::read_response(&mut s).unwrap().status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(statuses, [404; 4], "every miss reached the origin");
    assert_eq!(slow.connections(), 4);
    let took = started.elapsed();
    assert!(took < 4 * DELAY, "served one at a time: {took:?}");
}

/// While a miss waits out its backoff between two attempts, the loop is
/// free: a hit asked for once the first attempt failed is answered before
/// the retry reaches the origin, and the miss after it.
#[test]
fn a_hit_is_answered_while_a_miss_backs_off() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr = listener.local_addr().unwrap();
    let (events, order) = channel();
    let origin = {
        let events = events.clone();
        std::thread::spawn(move || {
            for (nth, conn) in listener.incoming().take(3).enumerate() {
                let mut stream = conn.unwrap();
                match nth {
                    // The miss's first attempt: closed unanswered.
                    1 => continue,
                    2 => events.send("retry").unwrap(),
                    _ => {}
                }
                let req = http::read_request(&mut stream).unwrap();
                let body = http::synthetic_body(&req.target, 500);
                http::write_response(&mut stream, &Response::ok(body, Some(10))).unwrap();
            }
        })
    };
    let config = ProxyConfig::new(100_000).with_retries(1, Duration::from_millis(300));
    let proxy = ProxyServer::start(origin_addr, config, || Box::new(named::lru())).unwrap();
    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);

    let miss = {
        let (addr, events) = (proxy.addr(), events.clone());
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            http::write_request(&mut s, &Request::get("http://o.test/b.gif")).unwrap();
            assert_eq!(http::read_response(&mut s).unwrap().status, 200);
            events.send("miss").unwrap();
        })
    };
    wait_for("the first attempt to fail", || proxy.stats().retries == 1);
    assert!(get(&proxy, "http://o.test/a.html").is_cache_hit());
    events.send("hit").unwrap();
    miss.join().unwrap();
    origin.join().unwrap();
    let order: Vec<&str> = order.try_iter().collect();
    assert_eq!(order, ["hit", "retry", "miss"]);
    assert_eq!(
        (proxy.stats().retries, proxy.stats().origin_failures),
        (1, 0)
    );
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
    // The revalidated request is one of the three hits, not a fourth.
    assert_eq!((st.requests, st.hit_rate()), (9, 3.0 / 9.0));
    let json = stats_json(&proxy);
    assert!(json.contains("\"hit_rate\":0.333333,"), "{json}");
}

#[test]
fn small_miss_is_written_and_closed_at_once() {
    let origin = origin_with_docs();
    let proxy = ProxyServer::start(origin.addr(), ProxyConfig::new(100_000), || {
        Box::new(named::lru())
    })
    .unwrap();
    let r = get(&proxy, "http://o.test/c.au");
    assert_eq!(r.status, 200);
    assert!(!r.is_cache_hit());
    assert_eq!(r.body, http::synthetic_body("http://o.test/c.au", 6000));
    // One origin exchange, and an operator can read that off the
    // endpoint.
    assert_eq!(proxy.stats().inline_fetches, 1);
    let json = stats_json(&proxy);
    assert!(json.contains("\"inline_fetches\":1,"), "{json}");
}

#[test]
fn body_larger_than_the_socket_is_finished_by_the_event_loop() {
    let origin = origin_with_a_big_doc();
    let config =
        ProxyConfig::new(100_000).with_timeouts(Duration::from_secs(1), Duration::from_secs(2));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    let slow = big_miss_unread(&proxy);

    // Not one byte of the big response has been read, yet nobody is
    // waiting on that client: a second miss is answered right now, on
    // the origin connection the first left idle.
    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert_eq!(proxy.stats().inline_fetches, 2);
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1);

    // The event loop drains the rest at the client's pace, byte-exact.
    let resp = http::read_response(&mut Sleepy(slow)).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body == http::synthetic_body(BIG_URL, BIG),
        "drained body differs from the origin's ({} bytes)",
        resp.body.len()
    );
}

#[test]
fn client_stalling_mid_response_is_dropped_by_the_deadline_wheel() {
    let origin = origin_with_a_big_doc();
    let config =
        ProxyConfig::new(100_000).with_timeouts(Duration::from_secs(1), Duration::from_millis(200));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();

    let mut stalled = big_miss_unread(&proxy);
    // Read a little, then nothing for five read timeouts: the connection
    // is under the wheel and gets dropped, not kept.
    let mut some = vec![0u8; 64 << 10];
    stalled.read_exact(&mut some).unwrap();
    std::thread::sleep(Duration::from_secs(1));
    // What the kernel had already buffered still arrives (or the read
    // fails on a reset); the rest of the body never does.
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    let got = (some.len() + rest.len()) as u64;
    assert!(got < BIG, "a stalled client was sent all {got} bytes");

    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
}

#[test]
fn hit_is_answered_while_an_inline_fetch_waits_on_a_dribbling_origin() {
    let origin = MoodyOrigin::start();
    let config = ProxyConfig::new(1 << 20);
    let proxy = ProxyServer::start(origin.addr, config, || Box::new(named::lru())).unwrap();
    // One miss leaves an idle origin connection behind, and a document
    // to hit.
    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
    assert_eq!(origin.connections(), 1);

    // The next miss goes out on it, and the origin sits on the second
    // half of the body.
    let held = "http://o.test/held.bin";
    let addr = proxy.addr();
    let parked = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        http::write_request(&mut s, &Request::get(held)).unwrap();
        http::read_response(&mut s).unwrap()
    });
    origin.started.recv().unwrap();

    // Meanwhile the loop is not blocked: it answers a hit, and the stats
    // endpoint, with the fetch still parked on its origin socket.
    let hit = get(&proxy, "http://o.test/a.html");
    assert!(hit.is_cache_hit());
    let json = stats_json(&proxy);
    assert!(json.contains("\"inline_fetches\":1,"), "{json}");
    assert_eq!(proxy.stats().misses, 1, "the held fetch is still out");

    origin.release.send(()).unwrap();
    let resp = parked.join().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, http::synthetic_body(held, moody_size(held)));
    assert_eq!(proxy.stats().inline_fetches, 2);
    assert_eq!(origin.connections(), 1);
    assert!(get(&proxy, held).is_cache_hit(), "the loop stored it");
}

#[test]
fn big_inline_miss_is_read_piecewise_and_drained_under_epollout() {
    let origin = origin_with_a_big_doc();
    let config =
        ProxyConfig::new(100_000).with_timeouts(Duration::from_secs(1), Duration::from_secs(2));
    let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);

    // 16 MiB come in over the kept origin connection a budget at a time,
    // and go out at the pace of a client that sleeps between reads: far
    // more than the client socket takes at once, so the loop finishes the
    // write under `EPOLLOUT`.
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, &Request::get(BIG_URL)).unwrap();
    let resp = http::read_response(&mut Sleepy(s)).unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.is_cache_hit());
    assert!(
        resp.body == http::synthetic_body(BIG_URL, BIG),
        "inline body differs from the origin's ({} bytes)",
        resp.body.len()
    );
    assert_eq!(proxy.stats().inline_fetches, 2);
    // And the origin connection came back in one piece.
    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1);
}

/// Every byte a client reads until the proxy closes the connection.
fn raw_exchange(proxy: &ProxyServer, req: &Request) -> Vec<u8> {
    let mut s = TcpStream::connect(proxy.addr()).unwrap();
    http::write_request(&mut s, req).unwrap();
    let mut wire = Vec::new();
    s.read_to_end(&mut wire).unwrap();
    wire
}

#[test]
fn kept_and_fresh_origin_connections_put_the_same_bytes_on_the_wire() {
    // The same exchange through two proxies. One talks to the origin
    // directly, so after the first miss every origin exchange goes out on
    // the kept connection; the other talks through the fault shim with no
    // faults planned, which answers `Connection: close`, so every one of
    // them connects afresh.
    let origin = origin_with_docs();
    let shim = FaultyOrigin::start(origin.addr(), FaultPlan::new(1)).unwrap();
    let config = ProxyConfig::new(100_000).with_ttl(2);
    let start = |addr| ProxyServer::start(addr, config, || Box::new(named::lru())).unwrap();
    let (kept, fresh) = (start(origin.addr()), start(shim.addr()));

    let a = "http://o.test/a.html";
    let exchange = [
        Request::get(a),
        Request::get("http://o.test/b.gif"),
        // A client's conditional GET for a document not cached: fetched,
        // stored, and answered `304` because its copy (10) is not newer.
        Request::get("http://o.test/c.au").with_header("If-Modified-Since", "10"),
        // Not there: the origin's `404` passes through.
        Request::get("http://o.test/gone.html"),
        // Past its TTL: revalidated with a conditional GET (`304`).
        Request::get(a),
        // The same, for a client whose copy is older: the document.
        Request::get("http://o.test/b.gif").with_header("If-Modified-Since", "3"),
        // Fresh again, and not newer than the client's: `304` off the
        // hit path.
        Request::get(a).with_header("If-Modified-Since", "10"),
        // Revalidated and conditional at once.
        Request::get("http://o.test/c.au").with_header("If-Modified-Since", "10"),
    ];
    for (i, req) in exchange.iter().enumerate() {
        let (got, want) = (raw_exchange(&kept, req), raw_exchange(&fresh, req));
        assert!(
            got == want,
            "request {i}: the kept connection's proxy sent\n{}\nthe other sent\n{}",
            String::from_utf8_lossy(&got[..got.len().min(300)]),
            String::from_utf8_lossy(&want[..want.len().min(300)])
        );
    }
    // Every counter is the same.
    assert_eq!(kept.stats(), fresh.stats());
    let st = kept.stats();
    assert_eq!((st.misses, st.revalidated), (3, 3));
    // Seven origin exchanges each: on one connection, and on seven.
    assert_eq!(st.inline_fetches, 7);
    assert_eq!(origin.stats().connections.load(Ordering::Relaxed), 1 + 7);
    assert_eq!(shim.connections(), 7);
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// TCP sockets of this process in any state but `LISTEN`: its fds'
/// socket inodes looked up in `/proc/net/tcp`.
fn connections_open() -> usize {
    let inodes: Vec<String> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|link| {
            let link = link.to_str()?;
            Some(
                link.strip_prefix("socket:[")?
                    .strip_suffix(']')?
                    .to_string(),
            )
        })
        .collect();
    const LISTEN: &str = "0A";
    std::fs::read_to_string("/proc/net/tcp")
        .unwrap()
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|fields| fields[3] != LISTEN && inodes.iter().any(|i| i == fields[9]))
        .count()
}

#[test]
#[ignore = "counts the fds of the whole test process: run with --ignored --test-threads 1"]
fn clients_and_origins_that_hang_up_mid_exchange_leak_nothing() {
    const GONE: usize = 200;
    let store = Arc::new(DocStore::new());
    for i in 0..GONE {
        store.put_synthetic(&format!("http://o.test/gone{i}.html"), 500, 10);
        store.put_synthetic(&format!("http://o.test/live{i}.html"), 500, 10);
    }
    let origin = OriginServer::start(store).unwrap();
    // Every fetch takes 5 ms, so a client that closes right after its
    // request is gone well before the loop has an answer to write.
    let held = FaultyOrigin::start(
        origin.addr(),
        FaultPlan::new(7).delay(1.0, Duration::from_millis(5)),
    )
    .unwrap();
    let config = ProxyConfig::new(1 << 20).with_retries(0, Duration::from_millis(1));
    let proxy = ProxyServer::start(held.addr(), config, || Box::new(named::lru())).unwrap();

    assert_eq!(get(&proxy, "http://o.test/live0.html").status, 200);
    // The shim's and the origin's threads close their ends of the warm-up
    // exchange after the last byte is on its way: the client's answer can
    // beat them, so the baseline waits for the exchange to be gone.
    wait_for("the warm-up's connections to close", || {
        connections_open() == 0
    });
    let baseline = open_fds();

    let mut normal = 0;
    for i in 0..GONE {
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        let url = format!("http://o.test/gone{i}.html");
        http::write_request(&mut s, &Request::get(&url)).unwrap();
        drop(s);
        if i % 10 == 1 {
            // Beside the abandoned exchanges, served all the same.
            let r = get(&proxy, &format!("http://o.test/live{i}.html"));
            assert_eq!(r.status, 200, "normal request {i}");
            normal += 1;
        }
    }
    let concluded = (1 + GONE + normal) as u64;
    wait_for("every request to be concluded", || {
        proxy.stats().misses == concluded
    });
    // Every socket is closed…
    wait_for("the fd count to return to its baseline", || {
        open_fds() == baseline
    });
    // …and a failed write was the whole cost: no attempt failed.
    assert_eq!(
        (proxy.stats().retries, proxy.stats().origin_failures),
        (0, 0)
    );
    drop((proxy, held, origin));

    // The same through the event loop's own origin exchanges, where a
    // connection holds two sockets: clients that hang up while the loop
    // waits for the origin, an origin that closes the kept socket
    // mid-body, and normal requests in between. One request at a time, so
    // the idle pool holds one connection before, throughout and after.
    let origin = MoodyOrigin::start();
    let config = ProxyConfig::new(1 << 20).with_retries(0, Duration::from_millis(1));
    let proxy = ProxyServer::start(origin.addr, config, || Box::new(named::lru())).unwrap();
    assert_eq!(get(&proxy, "http://o.test/warm.html").status, 200);
    let baseline = open_fds();

    let mut cut = 0;
    for i in 0..GONE {
        let answered = proxy.stats().misses;
        match i % 4 {
            // Gone before the origin has answered.
            0 | 1 => {
                let mut s = TcpStream::connect(proxy.addr()).unwrap();
                let url = format!("http://o.test/late{i}.html");
                http::write_request(&mut s, &Request::get(&url)).unwrap();
                drop(s);
            }
            // The origin hangs up half-way through the body: the loop
            // redoes the fetch on a fresh connection, uncounted.
            2 => {
                let r = get(&proxy, &format!("http://o.test/cut{i}.html"));
                assert_eq!((r.status, r.body.len()), (200, 500), "cut {i}");
                cut += 1;
            }
            _ => {
                let r = get(&proxy, &format!("http://o.test/live{i}.html"));
                assert_eq!(r.status, 200, "normal request {i}");
            }
        }
        wait_for("the request to be concluded", || {
            proxy.stats().misses == answered + 1
        });
    }
    wait_for("the fd count to return to its baseline", || {
        open_fds() == baseline
    });
    assert_eq!(proxy.stats().inline_fetches, 1 + GONE as u64);
    assert_eq!(origin.connections(), 1 + cut);
    let st = proxy.stats();
    assert_eq!((st.retries, st.origin_failures), (0, 0));
    drop((proxy, origin));

    // Clients that hang up while the loop waits for a connect the origin
    // never completes (its accept queue is full, so the handshake's SYN is
    // dropped), and while it backs off between two attempts at an origin
    // that refuses (a closed port). Each request ends in its `5xx`,
    // written to a client that is gone.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    // SAFETY: a plain syscall on a socket this test owns.
    assert_eq!(unsafe { listen(silent.as_raw_fd(), 0) }, 0);
    let _queued = TcpStream::connect(silent.local_addr().unwrap()).unwrap();
    let refusing = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    // No breaker trips: every request makes its attempts.
    let connecting = ProxyConfig::new(1 << 20)
        .with_retries(0, Duration::from_millis(1))
        .with_timeouts(Duration::from_millis(100), Duration::from_secs(2))
        .with_breaker(u32::MAX, 1);
    let backing_off = ProxyConfig::new(1 << 20)
        .with_retries(1, Duration::from_millis(100))
        .with_breaker(u32::MAX, 1);
    let start = |addr, config| ProxyServer::start(addr, config, || Box::new(named::lru())).unwrap();
    let proxies = [
        start(silent.local_addr().unwrap(), connecting),
        start(refusing, backing_off),
    ];
    // Hung up once the connect is under way, or the first attempt failed.
    let reached: [fn(&ProxyStats, u64) -> bool; 2] =
        [|s, i| s.requests == i + 1, |s, i| s.retries == i + 1];
    let baseline = open_fds();
    for i in 0..GONE as u64 / 10 {
        for (proxy, reached) in proxies.iter().zip(reached) {
            let failed = proxy.stats().origin_failures;
            let mut s = TcpStream::connect(proxy.addr()).unwrap();
            let url = format!("http://o.test/pending{i}.html");
            http::write_request(&mut s, &Request::get(&url)).unwrap();
            wait_for("the exchange to be under way", || {
                reached(&proxy.stats(), i)
            });
            drop(s);
            wait_for("the request to fail", || {
                proxy.stats().origin_failures == failed + 1
            });
        }
    }
    wait_for("the fd count to return to its baseline", || {
        open_fds() == baseline
    });
    let [connecting, backing_off] = proxies.map(|p| p.stats());
    let runs = (GONE / 10) as u64;
    assert_eq!((connecting.timeouts, connecting.retries), (runs, 0));
    assert_eq!((backing_off.timeouts, backing_off.retries), (0, runs));
}

extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// One thread besides `main` serves everything: accepting, hits, misses,
/// revalidations, retries.
#[test]
#[ignore = "reads the child's /proc/<pid>/status: run with --ignored --test-threads 1"]
fn the_proxy_runs_on_main_and_one_event_loop() {
    let origin = origin_with_docs();
    let child = common::ChildProxy::spawn(&["--origin", &origin.addr().to_string()]);
    assert_eq!(child.threads(), 2);
    assert_eq!(common::get(child.addr, "http://o.test/a.html"), Some(false));
    assert_eq!(common::get(child.addr, "http://o.test/a.html"), Some(true));
    assert_eq!(child.threads(), 2);
}

/// A cluster node's inbound peer connections are the event loop's, as
/// its clients are: two hundred peers, each holding the port open with
/// half a frame's length prefix, leave the child on the two threads it
/// runs without them.
#[test]
#[ignore = "reads the child's /proc/<pid>/status and fd table: run with --ignored --test-threads 1"]
fn peer_connections_add_no_thread_to_a_clustered_child() {
    const PEERS: usize = 200;
    let origin = origin_with_docs();
    let (child, peer_port) = (0..8)
        .find_map(|_| {
            let (peer_port, held) = common::reserve_addrs(1).pop().expect("one address");
            drop(held);
            let seeds = format!("0={peer_port}");
            let args = [
                "--origin",
                &origin.addr().to_string(),
                "--cluster-seed-list",
                &seeds,
            ];
            Some((common::ChildProxy::try_spawn(&args)?, peer_port))
        })
        .expect("a free peer port");
    // The start-up membership exchange runs on a thread of its own, gone
    // once it has asked every other seed: here, none.
    wait_for("the start-up exchange to end", || child.threads() == 2);
    let fds = child.open_fds();
    let peers: Vec<TcpStream> = (0..PEERS)
        .map(|_| {
            let mut s = TcpStream::connect(peer_port).unwrap();
            s.write_all(&[0, 1]).unwrap();
            s
        })
        .collect();
    wait_for("every peer accepted", || child.open_fds() >= fds + PEERS);
    assert_eq!(child.threads(), 2);
    drop(peers);
}

/// How long the kernel holds a connection that sends nothing when the
/// listener defers accepts for `secs` seconds: SYN-ACK retransmissions
/// 1 s, 2 s, 4 s, … apart, up to the first that covers `secs`.
fn deferral_lapse(secs: u64) -> Duration {
    let (mut lapse, mut rto) = (1, 1);
    while lapse < secs {
        rto *= 2;
        lapse += rto;
    }
    Duration::from_secs(lapse)
}

#[test]
fn a_stopped_proxy_reads_whole_requests_at_accept_and_registers_only_the_rest() {
    const WHOLE: u64 = 16;
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    let origin = OriginServer::start(store).unwrap();
    let child = common::ChildProxy::spawn(&["--origin", &origin.addr().to_string()]);
    let (addr, url) = (child.addr, "http://o.test/a.html");
    assert_eq!(
        common::get(addr, url),
        Some(false),
        "the miss that warms it"
    );
    let fetched = common::stat(addr, "inline_fetches");
    let read = common::stat(addr, "read_at_accept");

    // While the proxy is stopped the kernel completes every handshake
    // and queues every byte, so when it runs again each of these is in
    // exactly one state at accept: whole, half a head, or nothing.
    child.signal("STOP");
    let whole: Vec<TcpStream> = (0..WHOLE)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            http::write_request(&mut s, &Request::get(url)).unwrap();
            s
        })
        .collect();
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"GET http://o.test/a.html HT").unwrap();
    let mut silent = TcpStream::connect(addr).unwrap();
    let connected = Instant::now();
    std::thread::sleep(Duration::from_millis(100));
    child.signal("CONT");

    for mut s in whole {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(http::read_response(&mut s).unwrap().is_cache_hit());
    }
    // The stats request is itself read at accept; the half head is not.
    assert_eq!(common::stat(addr, "read_at_accept"), read + WHOLE + 1);
    half.write_all(b"TP/1.0\r\n\r\n").unwrap();
    half.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(http::read_response(&mut half).unwrap().is_cache_hit());
    assert_eq!(common::stat(addr, "read_at_accept"), read + WHOLE + 2);

    // The silent client waits out the deferral in the kernel and then
    // its read timeout in the loop, and never reaches the origin.
    let read_timeout = ProxyConfig::new(1).read_timeout;
    silent
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    assert_eq!(http::read_response(&mut silent).unwrap().status, 504);
    let waited = connected.elapsed();
    let due = deferral_lapse(read_timeout.as_secs()) + read_timeout;
    assert!(
        waited + Duration::from_millis(500) >= due && waited <= due + Duration::from_secs(1),
        "silent client answered after {waited:?}, due at {due:?}"
    );
    assert_eq!(common::stat(addr, "inline_fetches"), fetched);
}

/// The loop takes one connection per listener readiness and relies on the
/// level-triggered listener to be reported again while more are queued.
/// Whole requests are queued while the proxy is stopped, fewer than the
/// listener's backlog (std's 128) holds; after `SIGCONT` every one is
/// answered, each read at accept. An edge-triggered listener would take
/// one per edge and strand the rest.
#[test]
fn a_stopped_proxy_strands_none_of_its_queued_connections() {
    const QUEUED: u64 = 100;
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    let origin = OriginServer::start(store).unwrap();
    let child = common::ChildProxy::spawn(&["--origin", &origin.addr().to_string()]);
    let (addr, url) = (child.addr, "http://o.test/a.html");
    assert_eq!(common::get(addr, url), Some(false));
    let read = common::stat(addr, "read_at_accept");

    child.signal("STOP");
    let clients: Vec<_> = (0..QUEUED)
        .map(|_| {
            std::thread::Builder::new()
                .stack_size(64 << 10)
                .spawn(move || -> Result<u16, http::HttpError> {
                    let mut s = TcpStream::connect(addr)?;
                    s.set_read_timeout(Some(Duration::from_secs(20)))?;
                    http::write_request(&mut s, &Request::get(url))?;
                    Ok(http::read_response(&mut s)?.status)
                })
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    child.signal("CONT");

    let answers: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let failed: Vec<_> = answers.iter().filter(|a| !matches!(a, Ok(200))).collect();
    assert!(
        failed.is_empty(),
        "{} of {QUEUED} not answered 200, the first: {:?}",
        failed.len(),
        failed[0]
    );
    assert_eq!(common::stat(addr, "read_at_accept"), read + QUEUED + 1);
}

/// A kept origin socket the event loop has run an exchange on is watched
/// by nothing while it idles in the pool: when the origin closes it, the
/// loop hears nothing (a registration left in the epoll set would wake
/// it for the socket's end of stream, over and over). The next miss finds
/// the socket dead and redoes it on a fresh connection.
#[test]
#[ignore = "reads the child's CPU time: run with --ignored --test-threads 1"]
fn a_pooled_socket_the_origin_closes_never_wakes_the_event_loop() {
    let origin = MoodyOrigin::start();
    let child = common::ChildProxy::spawn(&["--origin", &origin.addr.to_string()]);
    let addr = child.addr;
    // The first miss opens the kept connection, then the second runs an
    // exchange on it, which registers it until the exchange ends.
    assert_eq!(common::get(addr, "http://o.test/a.html"), Some(false));
    assert_eq!(common::get(addr, "http://o.test/b.html"), Some(false));
    assert_eq!(common::stat(addr, "inline_fetches"), 2);
    assert_eq!(origin.connections(), 1);

    origin.hang_up();
    std::thread::sleep(Duration::from_millis(100));
    let before = child.cpu_time();
    std::thread::sleep(Duration::from_secs(2));
    let spent = child.cpu_time() - before;
    assert!(
        spent < Duration::from_millis(50),
        "{spent:?} of CPU in 2 s with a closed socket in the pool"
    );

    assert_eq!(common::get(addr, "http://o.test/c.html"), Some(false));
    assert_eq!(common::stat(addr, "inline_fetches"), 3);
    assert_eq!(origin.connections(), 2);
}

#[test]
#[ignore = "reads the child's CPU time: run with --ignored --test-threads 1"]
fn out_of_descriptors_the_event_loop_waits_instead_of_spinning() {
    const NOFILE: u32 = 48;
    const IDLE: usize = 80;
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    let origin = OriginServer::start(store).unwrap();
    let child =
        common::ChildProxy::spawn_with_fd_limit(NOFILE, &["--origin", &origin.addr().to_string()]);
    let (addr, url) = (child.addr, "http://o.test/a.html");
    assert_eq!(common::get(addr, url), Some(false));

    // More clients than descriptors, each alive: one byte of its header
    // every few hundred milliseconds, well inside the read timeout. Those
    // the proxy has no descriptor for wait in the accept queue, on a
    // listener that stays readable.
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET http://o.test/a.html HTTP/1.0\r\nx: ")
                .unwrap();
            s
        })
        .collect();
    let stop = AtomicBool::new(false);
    let (exhausted, spent, fds) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for mut s in &idle {
                    let _ = s.write_all(b"a");
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        // Nothing in here may panic before `stop` is raised: the
        // dribbling thread would keep the scope open forever.
        let give_up = Instant::now() + Duration::from_secs(10);
        let exhausted = loop {
            if child.open_fds() == NOFILE as usize {
                break true;
            }
            if Instant::now() > give_up {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let before = child.cpu_time();
        if exhausted {
            std::thread::sleep(Duration::from_secs(2));
        }
        let measured = (exhausted, child.cpu_time() - before, child.open_fds());
        stop.store(true, Ordering::Relaxed);
        measured
    });
    assert!(exhausted, "the proxy never ran out of descriptors");
    assert_eq!(fds, NOFILE as usize, "descriptors were freed meanwhile");
    assert!(
        spent < Duration::from_millis(200),
        "{spent:?} of CPU in 2 s with no descriptor to accept into"
    );

    // The idle clients go; the first descriptor the loop frees puts the
    // listener back, and the queue behind them is worked off.
    drop(idle);
    let gone = Instant::now();
    assert_eq!(common::get(addr, url), Some(true));
    assert!(
        gone.elapsed() < Duration::from_secs(1),
        "{:?}",
        gone.elapsed()
    );
}
