//! The interleavings a running proxy leaves to the clock, chosen one by
//! one through the socketless driver (DESIGN.md D36): two misses for one
//! URL in flight at once, two misses for two URLs concluded in the
//! reverse of their order, and a revalidation the origin fails. Each case
//! journals, and ends by draining every shard into a journal file and
//! recovering it into a cold driver, which must hold what the live one
//! holds.

use std::path::PathBuf;
use webcache_core::policy::named;
use webcache_proxy::driver::{Driver, FetchError, Fetched, Pending};
use webcache_proxy::persist::{JournalWriter, SnapshotDoc};
use webcache_proxy::ProxyConfig;
use webcache_trace::UrlId;

const URL: &str = "http://mix.test/a.html";

fn driver(config: ProxyConfig) -> Driver {
    Driver::new(config, || Box::new(named::lru()), Some(1 << 10), None)
}

fn ok(body: &str, last_modified: Option<u64>) -> Result<Fetched, FetchError> {
    Ok(Fetched {
        status: 200,
        last_modified,
        body: body.to_string().into(),
    })
}

/// A miss the event loop began and is fetching itself.
fn begin_miss(live: &mut Driver, target: &str) -> Pending {
    match live.begin(target) {
        Ok(_) => panic!("{target} is not resident"),
        Err(pending) => pending,
    }
}

/// Every shard's resident documents, ids blanked: ids are a process's own.
fn by_text(driver: &Driver) -> Vec<Vec<SnapshotDoc>> {
    let shards = driver.shards().into_iter().map(|(mut docs, _)| {
        for d in &mut docs {
            d.meta.url = UrlId(0);
        }
        docs
    });
    shards.collect()
}

/// Drain every shard of `live` into a journal file and recover the files
/// into a cold driver: it must hold what `live` holds.
fn recovers_to_itself(live: &mut Driver, config: ProxyConfig) {
    let dir = std::env::temp_dir().join(format!(
        "wc-interleavings-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    struct Gone(PathBuf);
    impl Drop for Gone {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = Gone(dir);
    for s in 0..config.shards {
        let mut w = JournalWriter::create(&dir.0, s as u32).expect("create journal");
        w.append(&live.drain(s)).expect("append");
    }
    let cold = Driver::new(config, || Box::new(named::lru()), None, Some(&dir.0));
    assert_eq!(by_text(&cold), by_text(live), "recovered, and live");
}

/// Two misses for one URL are in flight, the origin answers each with
/// its own body, and they are concluded in either order: both are
/// counted, one copy stays — the later conclusion's. (Item 4's
/// single-flight will make the second request wait for the first.)
#[test]
fn two_misses_for_one_url_both_count_and_the_later_copy_stays() {
    for later_first_begun in [false, true] {
        let config = ProxyConfig::new(100_000).with_shards(2);
        let mut live = driver(config);
        let first = begin_miss(&mut live, URL);
        let second = begin_miss(&mut live, URL);
        let (earlier, later) = if later_first_begun {
            ((second, "second"), (first, "first!"))
        } else {
            ((first, "first!"), (second, "second"))
        };
        for (miss, body) in [earlier, later] {
            let served = live.conclude(miss, ok(body, Some(1)).expect("ok"));
            assert_eq!((served.status, served.is_cache_hit()), (200, false));
            assert_eq!(&served.body[..], body.as_bytes());
        }
        let stats = live.stats();
        assert_eq!((stats.requests, stats.misses, stats.hits), (2, 2, 0));
        let resident: Vec<SnapshotDoc> = live.shards().into_iter().flat_map(|s| s.0).collect();
        assert_eq!(resident.len(), 1, "one copy");
        let later_body = if later_first_begun {
            "first!"
        } else {
            "second"
        };
        assert_eq!(&resident[0].body[..], later_body.as_bytes());
        recovers_to_itself(&mut live, config);
    }
}

/// Two misses for two URLs are in flight at once: nothing is stored,
/// counted or journaled until each is concluded, and the later begun,
/// concluded first, is stored with its own answer all the same.
#[test]
fn two_misses_in_flight_are_each_concluded_with_their_own_answer() {
    let config = ProxyConfig::new(100_000);
    let mut live = driver(config);
    let first = begin_miss(&mut live, URL);
    let second = begin_miss(&mut live, "http://mix.test/b.html");
    let stats = live.stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.bytes_from_origin),
        (0, 0, 0)
    );
    assert_eq!(stats.requests, 2, "each request ticked once");
    assert!(live.shards()[0].0.is_empty(), "nothing stored");
    assert!(live.drain(0).is_empty(), "nothing journaled");
    assert_eq!(second.if_modified_since(), None);
    let served = live.conclude(second, ok("world", None).expect("ok"));
    assert_eq!((served.status, served.is_cache_hit()), (200, false));
    assert_eq!(&served.body[..], b"world");
    let served = live.conclude(first, ok("hello", None).expect("ok"));
    assert_eq!((served.status, &served.body[..]), (200, &b"hello"[..]));
    let stats = live.stats();
    assert_eq!((stats.requests, stats.misses, stats.hits), (2, 2, 0));
    assert_eq!(live.shards()[0].0.len(), 2);
    recovers_to_itself(&mut live, config);
}

/// An expired copy whose revalidation fails, through a whole request and
/// through the loop's steps — a fetch begun, then failed. With
/// serve-stale the copy is served degraded and counted in
/// `stale_serves`, not as a hit; without, the failure is the client's.
#[test]
fn a_failed_revalidation_serves_stale_or_fails() {
    for serve_stale in [true, false] {
        for on_loop in [false, true] {
            for timed_out in [false, true] {
                let config = ProxyConfig::new(100_000)
                    .with_ttl(1)
                    .with_serve_stale(serve_stale);
                let mut live = driver(config);
                live.request(URL, |_| ok("cached", Some(7)));
                live.request("http://mix.test/b.html", |_| ok("b", None));
                live.request("http://mix.test/c.html", |_| ok("c", None));
                let fail = |since| {
                    assert_eq!(since, Some(7), "a revalidation");
                    Err(FetchError::Exhausted { timed_out })
                };
                let served = if on_loop {
                    let miss = begin_miss(&mut live, URL);
                    let e = fail(miss.if_modified_since()).expect_err("a failure");
                    live.fail(miss, e)
                } else {
                    live.request(URL, fail)
                };
                let stats = live.stats();
                assert_eq!((stats.hits, stats.misses, stats.revalidated), (0, 3, 0));
                if serve_stale {
                    assert_eq!(served.status, 200);
                    assert!(served.is_cache_hit() && served.is_degraded());
                    assert_eq!(&served.body[..], b"cached");
                    assert_eq!(stats.stale_serves, 1);
                } else {
                    assert_eq!(served.status, if timed_out { 504 } else { 502 });
                    assert_eq!(stats.stale_serves, 0);
                }
                recovers_to_itself(&mut live, config);
            }
        }
    }
}
