//! Memory under a stream of URLs nobody asks for twice (ROADMAP aim 3,
//! DESIGN.md D26): what the proxy keeps per URL it has *seen* is nothing;
//! what it keeps is per document it *holds*.
//!
//! * (a) one shard, no sockets: the live heap of a 1 MiB SIZE shard after
//!   a million distinct URLs (release; a fifth of that in a debug build,
//!   which takes fifteen times as long over each) is where it was after
//!   the first hundred thousand.
//! * (b) the real binary (`--ignored`, release): its resident set stops
//!   growing once the cache is full.
//! * (c) by `url_table_entries` of `/__webcache/stats`: requests that store
//!   nothing — the origin says `404`, the document is larger than its
//!   shard — leave the shards' URL tables as they were (peer `QUERY`s:
//!   `cluster.rs`).
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) counts live
//! bytes per thread: (a) drives its shard from the test's own thread, so
//! what the other tests of this file allocate beside it is not in its
//! figure.

mod common;
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use common::{drive, stat, ChildProxy};
use std::sync::Arc;
use webcache_core::policy::named;
use webcache_proxy::driver::{Driver, Fetched};
use webcache_proxy::url_table::SLACK;
use webcache_proxy::{http, DocStore, OriginServer, ProxyConfig, ProxyServer};

const MIB: i64 = 1 << 20;

/// The `i`-th URL nobody asks for twice: 64 bytes of text.
fn distinct_url(i: usize) -> String {
    format!("http://mem.test/{i:0>48}")
}

/// (a): at the parent commit, +320 MB over the million.
#[test]
fn a_shard_keeps_nothing_for_the_urls_it_has_seen() {
    let urls = if cfg!(debug_assertions) {
        200_000
    } else {
        1_000_000
    };
    let start = counting_alloc::live_bytes();
    let live = || counting_alloc::live_bytes() - start;
    let config = ProxyConfig::new(1 << 20);
    let mut shard = Driver::new(config, || Box::new(named::size()), None, None);
    let mut after_warmup = 0;
    for i in 0..urls {
        shard.request(&distinct_url(i), |_| {
            let body = Bytes::from(vec![i as u8; 64]);
            Ok(Fetched {
                status: 200,
                last_modified: None,
                body,
            })
        });
        if i + 1 == 100_000 {
            after_warmup = live();
        }
    }
    let grown = live() - after_warmup;
    assert_eq!(
        shard.shards()[0].0.len(),
        (1 << 20) / 64,
        "the cache is full"
    );
    assert!(
        after_warmup > MIB && grown.abs() < 4 * MIB,
        "live heap {after_warmup} bytes after 100 000 distinct URLs, {grown:+} after {} more",
        urls - 100_000
    );
}

/// `VmRSS` of process `pid`, in bytes.
fn rss(pid: u32) -> i64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<i64>().ok());
    kib.expect("VmRSS line") * 1024
}

/// (b): at the parent commit, +226 MB. Alone in its process, like `chaos`.
#[test]
#[ignore = "200 000 requests through a child process; CI runs it in release"]
fn the_binary_stops_growing_once_its_cache_is_full() {
    let urls: Vec<String> = (0..200_000).map(distinct_url).collect();
    let store = Arc::new(DocStore::new());
    for url in &urls {
        store.put_synthetic(url, 64, 1);
    }
    let origin = OriginServer::start(store).expect("origin");
    let proxy = ChildProxy::spawn(&[
        "--origin",
        &origin.addr().to_string(),
        "--capacity",
        "1048576",
        "--shards",
        "8",
        "--policy",
        "size",
    ]);
    let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
    let replay = |part: &[&str]| {
        let tally = drive(part, 4, |_| proxy.addr);
        assert_eq!((tally.ok, tally.errors), (part.len(), 0));
    };
    replay(&urls[..20_000]);
    let full = rss(proxy.child.id());
    replay(&urls[20_000..]);
    let grown = rss(proxy.child.id()) - full;
    assert_eq!(stat(proxy.addr, "misses"), 200_000);
    assert!(
        stat(proxy.addr, "url_table_entries") <= 2 * (1 << 20) / 64 + 8 * SLACK as u64,
        "the tables hold more than twice what the cache can"
    );
    assert!(
        grown <= 16 * MIB,
        "VmRSS {full} bytes after 20 000 distinct URLs, {grown:+} after 180 000 more"
    );
}

/// (c): what is not stored is not named.
#[test]
fn requests_that_store_nothing_leave_the_url_tables_alone() {
    let store = Arc::new(DocStore::new());
    store.put_synthetic("http://mem.test/kept.html", 1_000, 1);
    for i in 0..50 {
        store.put_synthetic(&format!("http://mem.test/huge-{i}.bin"), 50_000, 1);
    }
    let origin = OriginServer::start(store).expect("origin");
    // One shard of 10 000 bytes: every `huge` is larger than it.
    let proxy = ProxyServer::start(origin.addr(), ProxyConfig::new(10_000), || {
        Box::new(named::size())
    })
    .expect("proxy");
    let status = |url: &str| {
        let mut s = std::net::TcpStream::connect(proxy.addr()).expect("connect");
        http::write_request(&mut s, &http::Request::get(url)).expect("send");
        http::read_response(&mut s).expect("recv").status
    };
    assert_eq!(status("http://mem.test/kept.html"), 200);
    assert_eq!(stat(proxy.addr(), "url_table_entries"), 1);

    for i in 0..200 {
        assert_eq!(status(&format!("http://mem.test/gone-{i}.html")), 404);
    }
    assert_eq!(stat(proxy.addr(), "url_table_entries"), 1);

    // A document too big to store is bound for the length of one guard
    // and is the next sweep's: never more than SLACK of them at once.
    for i in 0..50 {
        assert_eq!(status(&format!("http://mem.test/huge-{i}.bin")), 200);
        let entries = stat(proxy.addr(), "url_table_entries");
        assert!(entries <= 2 + SLACK as u64, "{entries} entries after {i}");
    }
    assert_eq!(stat(proxy.addr(), "cached_bytes"), 1_000);
    assert_eq!(proxy.stats().misses, 51);
}
