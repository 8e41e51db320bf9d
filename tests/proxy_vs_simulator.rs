//! Equivalence: the proxy and the trace-driven simulator must agree
//! hit-for-hit when driven by the same request sequence (static
//! documents, no TTL revalidation). Over loopback TCP, the real proxy on
//! one generated trace; without sockets, the proxy core (`driver`) on
//! generated streams under every policy and shard count, request by
//! request: hit or miss, each shard's resident set and its statistics.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::Arc;
use webcache::core::cache::Cache;
use webcache::core::cluster::key_hash;
use webcache::core::policy::{named, Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache::core::util::splitmix64;
use webcache::proxy::driver::{Driver, Fetched};
use webcache::proxy::http::{read_response, write_request, Request};
use webcache::proxy::{DocStore, OriginServer, ProxyConfig, ProxyServer};
use webcache::workload::{generate, profiles};
use webcache_trace::{ClientId, DocType, Interner, ServerId, Trace, UrlId};

/// The simulator partitioned the proxy's way: one cache per shard, the
/// capacity split as `ShardedCache` splits it.
fn partition(
    capacity: u64,
    shards: u64,
    policy: impl Fn() -> Box<dyn RemovalPolicy>,
) -> Vec<Cache> {
    let share = |s| capacity / shards + u64::from(s < capacity % shards);
    (0..shards)
        .map(|s| Cache::new(share(s), policy()))
        .collect()
}

/// The shard a URL lives in: a hash of its text (DESIGN.md D26).
fn shard_of(url: &str, shards: u64) -> usize {
    (splitmix64(key_hash(url)) & (shards - 1)) as usize
}

/// Request `i` of a sequence as the simulator sees it: the proxy's
/// logical clock ticks once per request, from 1.
fn reference(i: usize, url: UrlId, target: &str, size: u64) -> webcache_trace::Request {
    webcache_trace::Request {
        time: (i + 1) as u64,
        client: ClientId(0),
        server: ServerId(0),
        url,
        size,
        doc_type: DocType::classify(target),
        last_modified: None,
    }
}

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
    let mut sim_caches = partition(capacity, shards, policy);
    let mut interner = Interner::new();
    let mut sim_hits = 0u64;
    for (i, (url, size)) in seq.iter().enumerate() {
        let r = reference(i, interner.url(url), url, *size);
        if sim_caches[shard_of(url, shards)].request(&r).is_hit() {
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

/// Bytes per shard of the proxy core under test.
const SHARD_BYTES: u64 = 8192;

/// Sizes a document may have, in 64ths of a shard: the last is larger
/// than a shard, so the document passes through uncached.
const SIXTY_FOURTHS: [u64; 8] = [1, 2, 4, 8, 11, 16, 24, 65];

/// Documents per shard in a stream's URL alphabet: enough that the
/// shards' documents overflow them and the policy chooses.
const DOCS_PER_SHARD: usize = 10;

const SHARD_COUNTS: [u64; 4] = [1, 2, 4, 8];

/// Every named policy, then two whose ties go to RANDOM (a hash of the
/// id): `SIZE/RANDOM` and `NREF/RANDOM`.
fn core_policy(p: usize) -> Box<dyn RemovalPolicy> {
    match p {
        9 => named::by_name("SIZE/RANDOM"),
        10 => named::by_name("NREF/RANDOM"),
        _ => named::all_named().into_iter().nth(p),
    }
    .expect("one of the eleven")
}

/// Policies whose order never reaches an id: one of its keys is ATIME or
/// ETIME, which no two documents share under a clock that ticks once per
/// request.
const ID_FREE: [&str; 4] = ["FIFO", "LRU", "HYPER-G", "LOG2SIZE-LRU"];

/// One generated stream: each document's size (an index into
/// `SIXTY_FOURTHS`) and the requests, each a document and whether the
/// event loop's path (`begin` and `conclude`) takes it rather than a
/// worker's (`request`).
type Stream = (Vec<usize>, Vec<(usize, bool)>);

fn streams(max_len: usize) -> impl Strategy<Value = Stream> {
    let docs = DOCS_PER_SHARD * 8;
    (
        prop::collection::vec(0..SIXTY_FOURTHS.len(), docs..docs + 1),
        prop::collection::vec((0..docs, 0u8..2), 1..max_len).prop_map(|raw| {
            raw.into_iter()
                .map(|(d, on_loop)| (d, on_loop == 1))
                .collect()
        }),
    )
}

/// One simulator partition and how it names documents.
struct Oracle {
    caches: Vec<Cache>,
    /// URL text by shard and id, as last requested.
    names: HashMap<(usize, u32), String>,
}

impl Oracle {
    fn new(p: usize, shards: u64) -> Oracle {
        Oracle {
            caches: partition(SHARD_BYTES * shards, shards, || core_policy(p)),
            names: HashMap::new(),
        }
    }

    /// Request `i` under `id` in `shard`: whether it hit.
    fn request(&mut self, shard: usize, i: usize, id: UrlId, target: &str, size: u64) -> bool {
        self.names.insert((shard, id.0), target.to_string());
        self.caches[shard]
            .request(&reference(i, id, target, size))
            .is_hit()
    }

    /// Shard `s`'s resident documents by URL text, sorted.
    fn residents(&self, s: usize) -> Vec<(String, u64)> {
        let mut docs: Vec<(String, u64)> = self.caches[s]
            .iter()
            .map(|m| (self.names[&(s, m.url.0)].clone(), m.size))
            .collect();
        docs.sort();
        docs
    }
}

/// Replay `stream` through a proxy core and beside it through the
/// simulator, under the slot id the core reports for each URL (and, for
/// an order that never reaches an id, also under the simulator's own
/// first-seen ids), comparing after every request. Returns how many
/// documents the policy evicted.
fn core_equals_simulator(p: usize, shards: u64, stream: &Stream) -> Result<u64, TestCaseError> {
    let (sizes, requests) = stream;
    let alphabet = DOCS_PER_SHARD * shards as usize;
    let config = ProxyConfig::new(SHARD_BYTES * shards).with_shards(shards as usize);
    let core = Driver::new(config, || core_policy(p), None, None);
    let mut by_slot = Oracle::new(p, shards);
    let name = core_policy(p).name();
    let mut first_seen = ID_FREE
        .contains(&name.as_str())
        .then(|| (Oracle::new(p, shards), Interner::new()));
    for (i, &(d, on_loop)) in requests.iter().enumerate() {
        let d = d % alphabet;
        let target = format!("http://core.test/d{d}.html");
        let size = SHARD_BYTES * SIXTY_FOURTHS[sizes[d]] / 64;
        let answer = Fetched {
            status: 200,
            last_modified: None,
            body: vec![b'x'; size as usize].into(),
        };
        let served = if on_loop {
            match core.begin(&target) {
                Ok(hit) => hit,
                Err(miss) => core.conclude(miss, answer),
            }
        } else {
            core.request(&target, |_| Ok(answer))
        };
        let hit = served.is_cache_hit();
        let (shard, id) = core.placement(&target);
        let id = id.expect("a requested URL is bound until the next sweep");
        let mut why = Vec::new();
        if (served.status, served.body.len() as u64) != (200, size) {
            why.push(format!(
                "served {} with {} bytes",
                served.status,
                served.body.len()
            ));
        }
        if shard != shard_of(&target, shards) {
            why.push(format!("placed in shard {shard}"));
        }
        let mut oracles = vec![(
            "slot ids",
            by_slot.request(shard, i, id, &target, size),
            &by_slot,
        )];
        if let Some((oracle, interner)) = &mut first_seen {
            let hit = oracle.request(shard, i, interner.url(&target), &target, size);
            oracles.push(("first-seen ids", hit, oracle));
        }
        let live = core.shards();
        for (ids, sim_hit, oracle) in oracles {
            if sim_hit != hit {
                why.push(format!(
                    "a {} in the proxy, not under {ids}",
                    ["miss", "hit"][hit as usize]
                ));
            }
            for (s, (docs, stats)) in live.iter().enumerate() {
                let docs: Vec<(String, u64)> =
                    docs.iter().map(|d| (d.url.clone(), d.meta.size)).collect();
                if docs != oracle.residents(s) {
                    why.push(format!(
                        "shard {s} holds {docs:?}, under {ids} {:?}",
                        oracle.residents(s)
                    ));
                }
                if *stats != *oracle.caches[s].stats() {
                    why.push(format!(
                        "shard {s} counts {stats:?}, under {ids} {:?}",
                        oracle.caches[s].stats()
                    ));
                }
            }
        }
        if !why.is_empty() {
            let prefix: Vec<String> = requests[..=i]
                .iter()
                .map(|&(d, on_loop)| {
                    let d = d % alphabet;
                    let size = SHARD_BYTES * SIXTY_FOURTHS[sizes[d]] / 64;
                    format!("d{d}:{size}{}", if on_loop { "@loop" } else { "" })
                })
                .collect();
            return Err(TestCaseError::fail(format!(
                "{name} at {shards} shard(s), request {i} (d{d}, {size} bytes) diverges: {}\nprefix: {}",
                why.join("; "),
                prefix.join(" ")
            )));
        }
    }
    Ok(by_slot.caches.iter().map(|c| c.stats().evictions).sum())
}

/// ROADMAP item 3's acceptance: the proxy core — the request functions
/// the event loop and the workers run, on a whole `ProxyState` with no
/// sockets — equals the simulator on every policy at 1, 2, 4 and 8
/// shards. Case `k` runs policy `k % 11` at the shard count `k / 11 % 4`;
/// every pair gets its share of cases, and each must have evicted.
#[test]
fn proxy_core_equals_the_simulator() {
    const POLICIES: usize = 11;
    let pairs = POLICIES * SHARD_COUNTS.len();
    let (cases, max_len) = if cfg!(debug_assertions) {
        (6 * pairs, 120)
    } else {
        (48 * pairs, 400)
    };
    let mut case = 0;
    let mut evicting = HashSet::new();
    let outcome = TestRunner::new(ProptestConfig::with_cases(cases as u32)).run(
        &streams(max_len),
        |stream| {
            let (p, shards) = (case % POLICIES, SHARD_COUNTS[case / POLICIES % 4]);
            case += 1;
            if core_equals_simulator(p, shards, &stream)? > 0 {
                evicting.insert((p, shards));
            }
            Ok(())
        },
    );
    if let Err(e) = outcome {
        panic!("{e}");
    }
    assert_eq!(
        evicting.len(),
        pairs,
        "pairs whose policy chose: {evicting:?}"
    );
}
