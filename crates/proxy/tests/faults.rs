//! Fault-injection integration tests: generated workloads driven through
//! a real proxy/origin pair with a deterministic [`FaultPlan`] between
//! them. The proxy must degrade — retry, trip breakers, serve stale —
//! never hang, and never surface an error to a client whose document is
//! already cached.

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use webcache_core::cache::Cache;
use webcache_core::policy::named;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::{DocStore, FaultKind, FaultPlan, FaultyOrigin, OriginServer};
use webcache_proxy::{ProxyConfig, ProxyServer};
use webcache_trace::{ClientId, ServerId, Trace};
use webcache_workload::generator::generate;
use webcache_workload::profiles;

/// An origin holding every URL of the trace at its first-seen size, and
/// the request sequence (no mid-trace modifications).
fn static_sequence(trace: &Trace) -> (Arc<DocStore>, Vec<(String, u64)>) {
    let store = Arc::new(DocStore::new());
    let mut first_size = std::collections::HashMap::new();
    let mut seq = Vec::with_capacity(trace.len());
    for r in &trace.requests {
        let size = *first_size.entry(r.url).or_insert(r.size);
        let url = trace
            .interner
            .url_text(r.url)
            .expect("interned")
            .to_string();
        seq.push((url, size));
    }
    for (&url, &size) in &first_size {
        let text = trace.interner.url_text(url).expect("interned");
        store.put_synthetic(text, size, 1);
    }
    (store, seq)
}

fn get(proxy: &ProxyServer, url: &str) -> Response {
    let mut s = TcpStream::connect(proxy.addr()).expect("connect proxy");
    http::write_request(&mut s, &Request::get(url)).expect("send");
    http::read_response(&mut s).expect("recv")
}

fn single_doc_setup(
    plan: FaultPlan,
    config: ProxyConfig,
) -> (OriginServer, FaultyOrigin, ProxyServer) {
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    let origin = OriginServer::start(store).expect("origin");
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("shim");
    let proxy =
        ProxyServer::start(faulty.addr(), config, || Box::new(named::lru())).expect("proxy");
    (origin, faulty, proxy)
}

/// Delays shorter than the read timeout are fully transparent: the proxy
/// under a delaying origin produces exactly the simulator's hit counts.
#[test]
fn short_delays_are_transparent_and_hits_match_the_simulator() {
    let profile = profiles::c().scaled(0.005);
    let trace = generate(&profile, 11);
    let (store, seq) = static_sequence(&trace);
    assert!(seq.len() > 100, "sequence too small to be meaningful");

    let capacity: u64 = 1_000_000;
    let mut sim_cache = Cache::new(capacity, Box::new(named::size()));
    let mut interner = webcache_trace::Interner::new();
    let mut sim_hits = 0u64;
    for (i, (url, size)) in seq.iter().enumerate() {
        let r = webcache_trace::Request {
            time: (i + 1) as u64,
            client: ClientId(0),
            server: ServerId(0),
            url: interner.url(url),
            size: *size,
            doc_type: webcache_trace::DocType::classify(url),
            last_modified: None,
        };
        if sim_cache.request(&r).is_hit() {
            sim_hits += 1;
        }
    }

    let origin = OriginServer::start(store).expect("origin");
    let plan = FaultPlan::new(11).delay(0.2, Duration::from_millis(3));
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("shim");
    let proxy = ProxyServer::start(
        faulty.addr(),
        ProxyConfig::new(capacity).with_retries(0, Duration::from_millis(1)),
        || Box::new(named::size()),
    )
    .expect("proxy");
    let mut proxy_hits = 0u64;
    for (url, size) in &seq {
        let resp = get(&proxy, url);
        assert_eq!(resp.status, 200, "delayed fetch failed for {url}");
        assert_eq!(resp.body.len() as u64, *size);
        assert!(!resp.is_degraded());
        if resp.is_cache_hit() {
            proxy_hits += 1;
        }
    }
    assert_eq!(proxy_hits, sim_hits, "hit counts diverged under delays");
    assert!(
        faulty.stats().delayed.load(Ordering::Relaxed) > 0,
        "plan injected no delays — test is vacuous"
    );
    let s = proxy.stats();
    assert_eq!(s.retries, 0);
    assert_eq!(s.origin_failures, 0);
    assert_eq!(s.stale_serves, 0);
}

/// A burst of 503s is absorbed by the retry loop: three faulted
/// connections, three retries, then success on the fourth attempt.
#[test]
fn server_errors_are_retried_to_success() {
    let plan = FaultPlan::new(5).server_error(1.0).active_range(0, 3);
    let config = ProxyConfig::new(100_000)
        .with_retries(3, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let (_origin, faulty, proxy) = single_doc_setup(plan, config);

    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert!(!r.is_degraded());
    let s = proxy.stats();
    assert_eq!(s.retries, 3, "exactly the three 503s should be retried");
    assert_eq!(s.misses, 1);
    assert_eq!(s.origin_failures, 0);
    assert_eq!(faulty.stats().server_errors.load(Ordering::Relaxed), 3);
    assert_eq!(faulty.stats().passed.load(Ordering::Relaxed), 1);
}

/// A mid-body stall hits the read timeout, revalidation fails, and the
/// expired copy is served degraded; repeated stalls trip the breaker,
/// after which stale serves cost no connection at all.
#[test]
fn stalls_time_out_and_cached_documents_are_served_stale() {
    let plan = FaultPlan::new(9)
        .stall(1.0, Duration::from_millis(400))
        .active_range(2, u64::MAX);
    let config = ProxyConfig::new(100_000)
        .with_ttl(1)
        .with_timeouts(Duration::from_millis(500), Duration::from_millis(50))
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(2, 1000);
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    store.put_synthetic("http://o.test/b.gif", 3000, 10);
    let origin = OriginServer::start(store).expect("origin");
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("shim");
    let proxy =
        ProxyServer::start(faulty.addr(), config, || Box::new(named::lru())).expect("proxy");

    // Warm-up (connections 0 and 1 pass cleanly).
    assert_eq!(get(&proxy, "http://o.test/a.html").status, 200); // tick 1
    assert_eq!(get(&proxy, "http://o.test/b.gif").status, 200); // tick 2

    // Expired now; each revalidation stalls and times out → stale serve.
    for expected_stale in 1..=2u64 {
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 200);
        assert!(r.is_cache_hit());
        assert!(r.is_degraded(), "stale serve must be marked");
        assert_eq!(r.body.len(), 1000);
        assert_eq!(proxy.stats().stale_serves, expected_stale);
    }
    let s = proxy.stats();
    assert_eq!(s.timeouts, 2);
    assert_eq!(s.origin_failures, 2);
    assert_eq!(s.breaker_trips, 1, "second failure reaches the threshold");

    // Breaker now open: stale is served without a single new connection.
    let before = faulty.connections();
    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert!(r.is_degraded());
    assert_eq!(faulty.connections(), before);
    assert_eq!(proxy.stats().breaker_fast_fails, 1);
    assert_eq!(proxy.stats().stale_serves, 3);
    assert_eq!(faulty.stats().stalled.load(Ordering::Relaxed), 2);
}

/// A truncated body (honest Content-Length, short stream) is detected as
/// a failed attempt and retried to success — never served short.
#[test]
fn truncated_bodies_are_detected_and_retried() {
    let plan = FaultPlan::new(3).truncate(1.0).active_range(0, 1);
    let config = ProxyConfig::new(100_000)
        .with_retries(1, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let (_origin, faulty, proxy) = single_doc_setup(plan, config);

    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 200);
    assert_eq!(r.body.len(), 1000, "body must never be silently short");
    let s = proxy.stats();
    assert_eq!(s.retries, 1);
    assert_eq!(s.timeouts, 0, "truncation is EOF, not a timeout");
    assert_eq!(s.misses, 1);
    assert_eq!(faulty.stats().truncated.load(Ordering::Relaxed), 1);
}

/// With every connection refused, an uncached document fails fast with a
/// 5xx — bounded by the retry budget, no hang.
#[test]
fn refused_origin_fails_fast_for_uncached_documents() {
    let plan = FaultPlan::new(1).refuse_connect(1.0);
    let config = ProxyConfig::new(100_000)
        .with_retries(1, Duration::from_millis(1))
        .with_breaker(50, 1000);
    let (_origin, faulty, proxy) = single_doc_setup(plan, config);

    let r = get(&proxy, "http://o.test/a.html");
    assert_eq!(r.status, 502, "refused origin surfaces as bad gateway");
    let s = proxy.stats();
    assert_eq!(s.origin_failures, 1);
    assert_eq!(s.retries, 1);
    assert_eq!(faulty.stats().refused.load(Ordering::Relaxed), 2);
}

/// The breaker's full life cycle: failures open it, fast-fails while
/// open, a half-open probe after the cooldown closes it again.
#[test]
fn breaker_opens_fast_fails_and_recovers_via_half_open_probe() {
    let plan = FaultPlan::new(2).refuse_connect(1.0).active_range(0, 2);
    let config = ProxyConfig::new(100_000)
        .with_retries(0, Duration::from_millis(1))
        .with_breaker(2, 2);
    let (_origin, faulty, proxy) = single_doc_setup(plan, config);
    let url = "http://o.test/a.html";

    assert_eq!(get(&proxy, url).status, 502); // tick 1: failure 1
    assert_eq!(get(&proxy, url).status, 502); // tick 2: failure 2 → open
    assert_eq!(proxy.stats().breaker_trips, 1);
    assert_eq!(get(&proxy, url).status, 503); // tick 3: open, fast-fail
    assert_eq!(proxy.stats().breaker_fast_fails, 1);
    // Tick 4: cooldown (2 ticks) elapsed → half-open probe; connection 2
    // is past the fault window and succeeds, closing the breaker.
    let r = get(&proxy, url);
    assert_eq!(r.status, 200);
    assert!(!r.is_cache_hit());
    // Tick 5: cached and fresh (no TTL) → plain hit, breaker closed.
    assert!(get(&proxy, url).is_cache_hit());

    assert_eq!(faulty.connections(), 3);
    let s = proxy.stats();
    assert_eq!(s.breaker_trips, 1);
    assert_eq!(s.breaker_fast_fails, 1);
    assert_eq!(s.origin_failures, 2);
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
}

/// Acceptance: a full generated workload under a mixed plan injecting
/// well over 10% origin failures. Every request for an already-cached
/// document must answer 200 (possibly degraded) — zero client-visible
/// errors — and the proxy's counters must match both the injected plan
/// and the observed degraded responses.
#[test]
fn workload_under_mixed_faults_never_fails_cached_documents() {
    let profile = profiles::c().scaled(0.005);
    let trace = generate(&profile, 1996);
    let (store, seq) = static_sequence(&trace);
    assert!(seq.len() > 100, "sequence too small to be meaningful");

    let plan = FaultPlan::new(42)
        .refuse_connect(0.05)
        .server_error(0.05)
        .truncate(0.05);
    let origin = OriginServer::start(store).expect("origin");
    let faulty = FaultyOrigin::start(origin.addr(), plan.clone()).expect("shim");
    let proxy = ProxyServer::start(
        faulty.addr(),
        ProxyConfig::new(u64::MAX / 4)
            .with_ttl(5)
            .with_retries(1, Duration::from_millis(1))
            .with_breaker(4, 8),
        || Box::new(named::lru()),
    )
    .expect("proxy");

    let mut cached: HashSet<&str> = HashSet::new();
    let mut degraded = 0u64;
    for (url, size) in &seq {
        let r = get(&proxy, url);
        if cached.contains(url.as_str()) {
            assert_eq!(
                r.status, 200,
                "client-visible error for already-cached {url}"
            );
            if r.is_degraded() {
                degraded += 1;
            } else {
                assert_eq!(r.body.len() as u64, *size, "short body for {url}");
            }
        }
        // A 200 means the document is now resident (capacity is
        // effectively unbounded, so nothing is ever evicted).
        if r.status == 200 {
            cached.insert(url.as_str());
        }
    }

    let s = proxy.stats();
    assert_eq!(s.requests, seq.len() as u64);
    assert_eq!(s.stale_serves, degraded, "every degraded response counted");

    // The shim's counters must agree exactly with the deterministic plan.
    let n = faulty.connections();
    let schedule = plan.schedule(n);
    let count = |k: FaultKind| schedule.iter().filter(|f| **f == Some(k)).count() as u64;
    let fs = faulty.stats();
    assert_eq!(
        fs.refused.load(Ordering::Relaxed),
        count(FaultKind::RefuseConnect)
    );
    assert_eq!(
        fs.server_errors.load(Ordering::Relaxed),
        count(FaultKind::ServerError)
    );
    assert_eq!(
        fs.truncated.load(Ordering::Relaxed),
        count(FaultKind::TruncateBody)
    );
    assert_eq!(
        fs.passed.load(Ordering::Relaxed),
        schedule.iter().filter(|f| f.is_none()).count() as u64
    );

    // The injected fault share over origin connections is ≥ 10%.
    let share = fs.injected() as f64 / n as f64;
    assert!(
        share >= 0.10,
        "fault share {share:.3} below the 10% acceptance bar ({n} connections)"
    );
    assert!(
        s.origin_failures > 0,
        "plan never exhausted a fetch — weak test"
    );
    assert!(s.stale_serves > 0, "no stale serves exercised — weak test");
}

/// Sustained-slow origins (`SlowBody`) degrade latency, not correctness:
/// every dribbled response still arrives complete and byte-correct
/// through the proxy, misses visibly pay the slow-path cost, and no
/// failure machinery (retries, breakers, stale serves) trips.
#[test]
fn slow_body_degrades_latency_but_never_correctness() {
    let plan = FaultPlan::new(23).slow_body(1.0, Duration::from_millis(60));
    let (_origin, faulty, proxy) = single_doc_setup(
        plan,
        ProxyConfig::new(1 << 20).with_retries(0, Duration::from_millis(1)),
    );

    // Cold miss: the fetch crosses the shim, so the dribble window is a
    // latency floor for the client.
    let t0 = std::time::Instant::now();
    let resp = get(&proxy, "http://o.test/a.html");
    let miss_latency = t0.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 1000, "slowed body must arrive complete");
    assert!(!resp.is_cache_hit());
    assert!(!resp.is_degraded(), "slow is not degraded");
    assert!(
        miss_latency >= Duration::from_millis(50),
        "miss did not pay the dribble window ({miss_latency:?})"
    );

    // Warm hit: served from cache, untouched by the slow origin.
    let t1 = std::time::Instant::now();
    let resp = get(&proxy, "http://o.test/a.html");
    let hit_latency = t1.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 1000);
    assert!(resp.is_cache_hit());
    assert!(
        hit_latency < miss_latency,
        "hit ({hit_latency:?}) should beat the slowed miss ({miss_latency:?})"
    );

    assert!(faulty.stats().slowed.load(Ordering::Relaxed) > 0);
    let s = proxy.stats();
    assert_eq!(s.retries, 0, "slow bodies must not trip retries");
    assert_eq!(s.origin_failures, 0, "slow bodies are not failures");
    assert_eq!(s.stale_serves, 0);
}

/// The same sustained-slow origin, watched from the event loop: the loop
/// reads the dribbled upstream body as it arrives and never waits on it,
/// so it keeps accepting and serving other clients at full speed while
/// a miss dribbles in — and the slowed body still arrives complete and
/// byte-correct.
#[test]
fn slow_body_leaves_the_event_loop_responsive() {
    let plan = FaultPlan::new(29).slow_body(1.0, Duration::from_millis(60));
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://o.test/a.html", 1000, 10);
    store.put_synthetic("http://o.test/b.gif", 2000, 10);
    let origin = OriginServer::start(store).expect("origin");
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("shim");
    let proxy = ProxyServer::start(
        faulty.addr(),
        ProxyConfig::new(1 << 20).with_retries(0, Duration::from_millis(1)),
        || Box::new(named::lru()),
    )
    .expect("proxy");

    // Cold miss dribbles through the shim but arrives complete.
    let t0 = std::time::Instant::now();
    let resp = get(&proxy, "http://o.test/a.html");
    let miss_latency = t0.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), 1000, "slowed body must arrive complete");
    assert!(!resp.is_cache_hit());
    assert!(
        miss_latency >= Duration::from_millis(50),
        "miss did not pay the dribble window ({miss_latency:?})"
    );

    // While a second document's slow miss is in flight, the
    // already-cached document must still be served promptly: the
    // reactor's event loop is not pinned by the dribbling upstream.
    let handle = {
        let addr = proxy.addr();
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            http::write_request(&mut s, &Request::get("http://o.test/b.gif")).expect("send");
            http::read_response(&mut s).expect("recv")
        })
    };
    std::thread::sleep(Duration::from_millis(10)); // let the miss go out
    let t1 = std::time::Instant::now();
    let hit = get(&proxy, "http://o.test/a.html");
    let hit_latency = t1.elapsed();
    assert_eq!(hit.status, 200);
    assert!(hit.is_cache_hit());
    assert!(
        hit_latency < Duration::from_millis(50),
        "cached hit ({hit_latency:?}) must not wait for the in-flight slow miss"
    );
    let slow = handle.join().expect("slow fetch thread");
    assert_eq!(slow.status, 200);
    assert_eq!(slow.body.len(), 2000, "concurrent slowed body complete");

    assert!(faulty.stats().slowed.load(Ordering::Relaxed) >= 2);
    let s = proxy.stats();
    assert_eq!(s.retries, 0, "slow bodies must not trip retries");
    assert_eq!(s.origin_failures, 0, "slow bodies are not failures");
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 2);
}
