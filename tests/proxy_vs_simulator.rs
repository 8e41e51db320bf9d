//! End-to-end equivalence: the real HTTP proxy and the trace-driven
//! simulator must agree hit-for-hit when driven by the same request
//! sequence (static documents, no TTL revalidation).

use std::net::TcpStream;
use std::sync::Arc;
use webcache::core::cache::Cache;
use webcache::core::cluster::key_hash;
use webcache::core::policy::{named, Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache::core::util::splitmix64;
use webcache::proxy::http::{read_response, write_request, Request};
use webcache::proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};
use webcache::workload::{generate, profiles};
use webcache_trace::{ClientId, ServerId, Trace};

/// Build an origin holding every URL of the trace at a fixed size, and a
/// request sequence free of mid-trace modifications.
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

/// Replay one sequence through a simulator and through a real proxy over
/// loopback TCP, same policy and capacity, and require the same hits. With
/// `shards > 1` the simulator is one cache per shard, a URL in the shard
/// its text hashes to — the proxy's own placement (DESIGN.md D26).
fn proxy_and_simulator_agree(policy: fn() -> Box<dyn RemovalPolicy>, shards: u64) {
    let profile = profiles::c().scaled(0.01);
    let trace = generate(&profile, 99);
    let (store, seq) = static_sequence(&trace);
    assert!(seq.len() > 200, "sequence too small to be meaningful");

    // Simulator, with the proxy's logical clock: one tick per request.
    let capacity: u64 = 2_000_000;
    let mut sim_caches: Vec<Cache> = (0..shards)
        .map(|_| Cache::new(capacity / shards, policy()))
        .collect();
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
        let shard = splitmix64(key_hash(url)) & (shards - 1);
        if sim_caches[shard as usize].request(&r).is_hit() {
            sim_hits += 1;
        }
    }

    let origin = OriginServer::start(store).expect("origin");
    let config = ProxyConfig::new(capacity).with_shards(shards as usize);
    let proxy = ProxyServer::start(origin.addr(), config, policy).expect("proxy");
    let mut proxy_hits = 0u64;
    for (url, size) in &seq {
        let mut s = TcpStream::connect(proxy.addr()).expect("connect");
        write_request(&mut s, &Request::get(url)).expect("send");
        let resp = read_response(&mut s).expect("recv");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len() as u64, *size, "wrong body for {url}");
        if resp.is_cache_hit() {
            proxy_hits += 1;
        }
    }

    assert_eq!(
        proxy_hits,
        sim_hits,
        "proxy and simulator disagree on {} requests",
        seq.len()
    );
    assert_eq!(proxy.stats().hits, sim_hits);
    assert!(sim_hits > 0, "degenerate sequence: no hits at all");
    let evictions: u64 = sim_caches.iter().map(|c| c.stats().evictions).sum();
    assert!(evictions > 0, "degenerate sequence: the policy never chose");
}

/// SIZE breaks ties between documents of one size by a hash of their ids,
/// and the proxy's ids (a slot of the shard) are not the simulator's (one
/// per URL ever seen). On this trace the count does not depend on which of
/// two equal-size documents goes first: it is the same with the
/// simulator's ids reversed.
#[test]
fn proxy_hits_match_simulator_hits() {
    proxy_and_simulator_agree(|| Box::new(named::size()), 1);
}

fn size_then_atime() -> Box<dyn RemovalPolicy> {
    Box::new(SortedPolicy::new(KeySpec::pair(Key::Size, Key::AccessTime)))
}

/// SIZE then ATIME: no two documents are touched on one tick of the
/// proxy's clock, so the order never reaches the id and the agreement is
/// exact by construction.
#[test]
fn proxy_hits_match_simulator_hits_whatever_the_ids() {
    proxy_and_simulator_agree(size_then_atime, 1);
}

#[test]
fn sharded_proxy_hits_match_a_simulator_partitioned_by_the_same_hash() {
    proxy_and_simulator_agree(size_then_atime, 4);
}

#[test]
fn proxy_log_validates_through_the_trace_pipeline() {
    let profile = profiles::g().scaled(0.005);
    let trace = generate(&profile, 5);
    let (store, seq) = static_sequence(&trace);
    let origin = OriginServer::start(store).expect("origin");
    let config = ProxyConfig::new(10_000_000).with_access_log(true);
    let proxy =
        ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).expect("proxy");
    for (url, _) in &seq {
        let mut s = TcpStream::connect(proxy.addr()).expect("connect");
        write_request(&mut s, &Request::get(url)).expect("send");
        read_response(&mut s).expect("recv");
    }
    let log = proxy.access_log();
    assert_eq!(log.lines().count(), seq.len());
    // Every line records a 200 with the document's actual size.
    for line in log.lines() {
        assert!(line.contains("\"GET http://"), "line {line:?}");
        assert!(line.contains(" 200 "), "line {line:?}");
    }
}
