//! Cluster-mode integration tests (ISSUE 10 / DESIGN.md D17): real
//! proxies with peer ports, one shared origin, real TCP between nodes.
//!
//! What is pinned here:
//!
//! * a non-owner's local miss is served by the owner over the peer
//!   protocol (one origin fetch total, counted as a hit);
//! * a dead peer degrades to single-node behaviour — the request falls
//!   through to the origin with a `200`, never a client-visible error —
//!   and the tripped peer breaker bumps the membership epoch without
//!   the dead node;
//! * non-owners do not store keys they do not own;
//! * the `GET /__webcache/stats` admin endpoint reports the cluster
//!   block (and `null` without one).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use webcache_core::policy::named;
use webcache_proxy::cache_proxy::ADMIN_STATS_TARGET;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::origin::{DocStore, OriginServer};
use webcache_proxy::{ClusterConfig, ProxyConfig, ProxyServer};

/// Reserve `n` distinct ephemeral addresses (bind, record, drop).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// An origin holding `docs` synthetic documents of 1000 bytes each.
fn origin_with_docs(docs: u32) -> OriginServer {
    let store = Arc::new(DocStore::new());
    for i in 0..docs {
        store.put_synthetic(&format!("http://o.test/d{i}.html"), 1000, 10);
    }
    OriginServer::start(store).expect("origin start")
}

/// Start an `n`-node cluster against `origin` with the given breaker
/// threshold (low thresholds make dead-peer detection immediate).
fn start_cluster(origin: SocketAddr, n: u32, breaker_threshold: u32) -> Vec<ProxyServer> {
    let peers = free_addrs(n as usize);
    let seed_list: Vec<(u32, SocketAddr)> = (0..n).map(|i| (i, peers[i as usize])).collect();
    (0..n)
        .map(|i| {
            let config = ProxyConfig::new(200_000)
                .with_breaker(breaker_threshold, 10_000)
                .with_workers(2, 16);
            ProxyServer::start_clustered(
                origin,
                config,
                ClusterConfig::new(i, seed_list.clone()),
                || Box::new(named::lru()),
            )
            .expect("cluster node start")
        })
        .collect()
}

fn get(addr: SocketAddr, url: &str) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect proxy");
    http::write_request(&mut s, &Request::get(url)).expect("send request");
    http::read_response(&mut s).expect("read response")
}

/// A URL from the origin's document set owned by `want_owner` under the
/// cluster's current ring.
fn url_owned_by(node: &ProxyServer, want_owner: u32, docs: u32) -> String {
    let cluster = node.cluster_state().expect("clustered node");
    (0..docs)
        .map(|i| format!("http://o.test/d{i}.html"))
        .find(|u| cluster.owner(u) == want_owner)
        .expect("some doc hashes to each owner")
}

#[test]
fn peer_hit_serves_without_second_origin_fetch() {
    let origin = origin_with_docs(64);
    let nodes = start_cluster(origin.addr(), 2, 3);
    let url = url_owned_by(&nodes[0], 0, 64);

    // Warm the owner: one origin fetch, stored on node 0.
    let first = get(nodes[0].addr(), &url);
    assert_eq!(first.status, 200);
    assert!(!first.is_cache_hit());

    // The non-owner misses locally, asks the owner, serves the copy.
    let second = get(nodes[1].addr(), &url);
    assert_eq!(second.status, 200);
    assert!(second.is_cache_hit(), "peer-served copy must count as hit");
    assert_eq!(second.body, first.body);

    let s1 = nodes[1].stats();
    assert_eq!(s1.peer_lookups, 1);
    assert_eq!(s1.peer_hits, 1);
    assert_eq!(s1.hits, 1);
    assert_eq!(s1.misses, 0);
    assert_eq!(nodes[0].stats().peer_served, 1);
    // The whole exchange cost the origin exactly one full response.
    assert_eq!(
        origin
            .stats()
            .full_responses
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn non_owner_serves_but_does_not_store() {
    let origin = origin_with_docs(64);
    let nodes = start_cluster(origin.addr(), 2, 3);
    let url = url_owned_by(&nodes[0], 0, 64);

    // Two requests through the non-owner while the owner is cold: each
    // peer lookup answers MISS, each falls through to the origin, and
    // the non-owner never caches the foreign key.
    for _ in 0..2 {
        let r = get(nodes[1].addr(), &url);
        assert_eq!(r.status, 200);
        assert!(!r.is_cache_hit());
    }
    let s1 = nodes[1].stats();
    assert_eq!(s1.peer_misses, 2);
    assert_eq!(s1.misses, 2);
    assert_eq!(s1.hits, 0);
    assert_eq!(nodes[1].cached_bytes(), 0, "non-owner must not store");

    // Once the owner warms, the same request becomes a peer hit.
    assert_eq!(get(nodes[0].addr(), &url).status, 200);
    assert!(get(nodes[1].addr(), &url).is_cache_hit());
}

#[test]
fn dead_peer_falls_through_to_origin_and_bumps_epoch() {
    let origin = origin_with_docs(64);
    let mut nodes = start_cluster(origin.addr(), 2, 1);
    let url = url_owned_by(&nodes[0], 0, 64);

    // Kill the owner (drop closes both its ports).
    drop(nodes.remove(0));

    // The survivor's peer lookup fails; the request still succeeds via
    // the origin — degraded to single-node behaviour, never an error.
    let r = get(nodes[0].addr(), &url);
    assert_eq!(r.status, 200);
    let s = nodes[0].stats();
    assert_eq!(s.peer_failures, 1);

    // Breaker threshold 1: that one failure tripped the breaker, which
    // declared the peer dead and bumped the membership epoch.
    let cluster = nodes[0].cluster_state().expect("clustered");
    assert_eq!(cluster.epoch(), 1);
    assert_eq!(cluster.members(), vec![1]);
    assert_eq!(s.breaker_trips, 1);

    // Post-bump the survivor owns every key: the same URL is now
    // stored locally and the next request is an ordinary hit.
    assert_eq!(cluster.owner(&url), 1);
    let again = get(nodes[0].addr(), &url);
    assert_eq!(again.status, 200);
    assert!(again.is_cache_hit());
}

#[test]
fn single_node_cluster_never_peers() {
    let origin = origin_with_docs(8);
    let nodes = start_cluster(origin.addr(), 1, 3);
    for i in 0..8 {
        assert_eq!(
            get(nodes[0].addr(), &format!("http://o.test/d{i}.html")).status,
            200
        );
    }
    for i in 0..8 {
        assert!(get(nodes[0].addr(), &format!("http://o.test/d{i}.html")).is_cache_hit());
    }
    let s = nodes[0].stats();
    assert_eq!(s.peer_lookups, 0, "a 1-node ring owns everything itself");
    assert_eq!(s.hits, 8);
}

#[test]
fn admin_stats_reports_cluster_block() {
    let origin = origin_with_docs(8);
    let nodes = start_cluster(origin.addr(), 2, 3);
    let _ = get(nodes[0].addr(), "http://o.test/d0.html");

    let resp = get(nodes[0].addr(), ADMIN_STATS_TARGET);
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body.to_vec()).expect("stats is UTF-8 JSON");
    assert!(body.contains("\"requests\":1"), "{body}");
    assert!(
        body.contains("\"cluster\":{\"node_id\":0,\"epoch\":0,\"members\":[0,1]"),
        "{body}"
    );
    assert!(body.contains("\"persist\":null"), "{body}");

    // The admin plane is not client demand: no clock tick, no count.
    assert_eq!(nodes[0].stats().requests, 1);
}

#[test]
fn admin_stats_works_without_cluster() {
    let origin = origin_with_docs(4);
    let config = ProxyConfig::new(100_000);
    let proxy =
        ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).expect("proxy start");
    let _ = get(proxy.addr(), "http://o.test/d1.html");
    let resp = get(proxy.addr(), ADMIN_STATS_TARGET);
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body.to_vec()).expect("stats is UTF-8 JSON");
    assert!(body.contains("\"cluster\":null"), "{body}");
    assert!(body.contains("\"misses\":1"), "{body}");
    assert!(body.contains("\"cached_bytes\":1000"), "{body}");
}
