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
//! * a peer `QUERY` for a URL the owner does not hold adds nothing to the
//!   owner's URL tables, and nothing to the asker's (DESIGN.md D26);
//! * the `GET /__webcache/stats` admin endpoint reports the cluster
//!   block (and `null` without one);
//! * a peer that connects and sends nothing is closed at the read
//!   timeout;
//! * as child processes, with clients that route by the same ring: the
//!   paper's Undergrad workload through 1, 2 and 4 nodes, and through two
//!   nodes one of which is SIGKILLed half-way, never surfaces an error to
//!   a client, and a second node does not cost hit rate.

mod common;

use common::{drive, stat, ChildProxy};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::cluster::{HashRing, Membership, DEFAULT_VNODES};
use webcache_core::policy::named;
use webcache_proxy::cache_proxy::ADMIN_STATS_TARGET;
use webcache_proxy::cluster::DEFAULT_RING_SEED;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::origin::{DocStore, OriginServer};
use webcache_proxy::{ClusterConfig, ProxyConfig, ProxyServer};

/// How often a cluster is started on fresh ports. A port is free from
/// its reservation's release to the node's bind, a moment in which
/// another socket may take it; the whole cluster then starts over.
const START_ATTEMPTS: usize = 8;

/// The seed list of nodes 0, 1, … on the `reserved` addresses.
fn seed_list(reserved: &[(SocketAddr, TcpListener)]) -> Vec<(u32, SocketAddr)> {
    (0..).zip(reserved.iter().map(|(addr, _)| *addr)).collect()
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
    let config = ProxyConfig::new(200_000).with_breaker(breaker_threshold, 10_000);
    start_cluster_with(origin, n, config)
}

/// Start an `n`-node cluster against `origin`, every node on `config`.
fn start_cluster_with(origin: SocketAddr, n: u32, config: ProxyConfig) -> Vec<ProxyServer> {
    for _ in 0..START_ATTEMPTS {
        let reserved = common::reserve_addrs(n as usize);
        let seeds = seed_list(&reserved);
        let mut nodes = Vec::new();
        for ((id, _), (_, held)) in seeds.iter().zip(reserved) {
            drop(held);
            let cluster = ClusterConfig::new(*id, seeds.clone());
            match ProxyServer::start_clustered(origin, config, cluster, || Box::new(named::lru())) {
                Ok(node) => nodes.push(node),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => break,
                Err(e) => panic!("cluster node start: {e}"),
            }
        }
        if nodes.len() == n as usize {
            return nodes;
        }
    }
    panic!("no {n} free peer ports in {START_ATTEMPTS} attempts")
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
    assert_eq!(
        stat(nodes[1].addr(), "cached_bytes"),
        0,
        "non-owner must not store"
    );

    // Once the owner warms, the same request becomes a peer hit.
    assert_eq!(get(nodes[0].addr(), &url).status, 200);
    assert!(get(nodes[1].addr(), &url).is_cache_hit());
}

/// A peer can ask about any URL it likes: what this node does not hold
/// it does not name either. (The parent interned every queried URL, for
/// good.)
#[test]
fn peer_queries_for_absent_urls_grow_no_table() {
    let origin = origin_with_docs(64);
    let nodes = start_cluster(origin.addr(), 2, 3);
    let held = url_owned_by(&nodes[0], 0, 64);
    assert_eq!(get(nodes[0].addr(), &held).status, 200);
    assert_eq!(stat(nodes[0].addr(), "url_table_entries"), 1);

    let cluster = nodes[0].cluster_state().expect("clustered node");
    let foreign: Vec<String> = (0..64)
        .map(|i| format!("http://o.test/d{i}.html"))
        .filter(|u| *u != held && cluster.owner(u) == 0)
        .collect();
    assert!(foreign.len() > 8, "the ring gave node 0 almost nothing");
    for url in &foreign {
        let r = get(nodes[1].addr(), url);
        assert_eq!(r.status, 200);
        assert!(!r.is_cache_hit());
    }
    assert_eq!(nodes[1].stats().peer_misses, foreign.len() as u64);
    assert_eq!(stat(nodes[0].addr(), "url_table_entries"), 1);
    assert_eq!(stat(nodes[1].addr(), "url_table_entries"), 0);
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

/// A peer that connects to a node's peer port and sends nothing is
/// closed at the node's read timeout, as a silent client is: the event
/// loop holds its socket until then, and nothing else holds it after.
#[test]
fn a_silent_peer_is_closed_at_the_read_timeout() {
    let origin = origin_with_docs(1);
    let read_timeout = Duration::from_millis(300);
    let config = ProxyConfig::new(200_000).with_timeouts(Duration::from_secs(1), read_timeout);
    let nodes = start_cluster_with(origin.addr(), 1, config);
    let cluster = nodes[0].cluster_state().expect("clustered node");
    let peer_port = cluster.config().self_addr().expect("in its seed list");
    let mut silent = TcpStream::connect(peer_port).expect("connect peer port");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let since = Instant::now();
    let mut byte = [0u8; 1];
    let read = silent.read(&mut byte).map_err(|e| e.kind());
    let waited = since.elapsed();
    assert!(
        matches!(read, Ok(0) | Err(ErrorKind::ConnectionReset)),
        "{read:?}"
    );
    assert!(waited >= read_timeout, "closed after {waited:?}");
    assert!(waited < 4 * read_timeout, "closed after {waited:?}");
}

/// `n` child nodes on one ring. No persistence: the binary takes either
/// `--persist-dir` or `--cluster-seed-list`.
fn spawn_ring(origin: SocketAddr, n: u32, capacity_per_node: u64) -> Vec<ChildProxy> {
    for _ in 0..START_ATTEMPTS {
        let reserved = common::reserve_addrs(n as usize);
        let seeds = seed_list(&reserved)
            .iter()
            .map(|(i, a)| format!("{i}={a}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut nodes = Vec::new();
        for (i, (_, held)) in reserved.into_iter().enumerate() {
            drop(held);
            let node = ChildProxy::try_spawn(&[
                "--origin",
                &origin.to_string(),
                "--capacity",
                &capacity_per_node.to_string(),
                "--shards",
                "2",
                "--policy",
                "lru",
                "--cluster-seed-list",
                &seeds,
                "--node-id",
                &i.to_string(),
            ]);
            let Some(node) = node else { break };
            nodes.push(node);
        }
        if nodes.len() == n as usize {
            return nodes;
        }
    }
    panic!("no {n} free peer ports in {START_ATTEMPTS} attempts")
}

/// The ring as the nodes build it from their seed list (same seed, same
/// vnode count), so a client's routing agrees with their ownership.
fn client_ring(members: Vec<u32>) -> HashRing {
    HashRing::build(
        DEFAULT_RING_SEED,
        &Membership::new(0, members),
        DEFAULT_VNODES,
    )
}

#[test]
fn child_rings_serve_without_errors_and_two_nodes_hit_no_less_than_one() {
    let trace = common::paper_trace(0.01);
    let capacity_per_node = common::quarter_capacity(&trace);
    let origin = OriginServer::start(common::seed_origin(&trace)).expect("origin");
    let urls = common::urls(&trace);

    // The same capacity per node, so what the ring holds grows with it.
    let hit_rates: Vec<f64> = [1u32, 2, 4]
        .into_iter()
        .map(|n| {
            let nodes = spawn_ring(origin.addr(), n, capacity_per_node);
            let ring = client_ring((0..n).collect());
            let tally = drive(&urls, 4, |url| nodes[ring.owner(url) as usize].addr);
            assert_eq!(
                (tally.errors, tally.ok),
                (0, urls.len()),
                "client-visible errors on the {n}-node ring"
            );
            tally.hits as f64 / tally.ok as f64
        })
        .collect();
    // A whisker for replay order among four clients.
    assert!(
        hit_rates[1] + 0.01 >= hit_rates[0],
        "2-node hit rate below the single node's: {hit_rates:?}"
    );
}

#[test]
fn sigkilled_child_node_costs_one_reroute_and_no_client_error() {
    let trace = common::paper_trace(0.01);
    let origin = OriginServer::start(common::seed_origin(&trace)).expect("origin");
    let urls = common::urls(&trace);
    let mut nodes = spawn_ring(origin.addr(), 2, common::quarter_capacity(&trace));
    let mut ring = client_ring(vec![0, 1]);

    let (before, after) = urls.split_at(urls.len() / 2);
    let warm = drive(before, 4, |url| nodes[ring.owner(url) as usize].addr);
    assert_eq!(warm.errors, 0);
    nodes[0].sigkill();

    // The client does what the nodes do: drop the dead node from the
    // membership, rebuild the ring, try the new owner once.
    let mut failovers = 0;
    for url in after {
        let owner = ring.owner(url);
        if common::get(nodes[owner as usize].addr, url).is_none() {
            failovers += 1;
            let survivors = ring.members().iter().copied().filter(|&m| m != owner);
            ring = client_ring(survivors.collect());
            let rerouted = common::get(nodes[ring.owner(url) as usize].addr, url);
            assert!(rerouted.is_some(), "{url} failed on the survivor too");
        }
    }
    assert!(failovers >= 1, "node 0 owned nothing of the second half");
}
