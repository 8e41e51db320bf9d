//! What the proxy counts and how operators read it: the counter table,
//! [`ProxyStats`] (its snapshot), and the `/__webcache/stats` admin
//! endpoint that renders it.
//!
//! Every counter is one line of the `counters!` table below: the block of
//! the stats body it belongs to, its name — the [`ProxyStats`] field and
//! the JSON key at once — and its doc. The table expands to
//! [`ProxyStats`], to [`Counters`] (one relaxed atomic per line, behind the
//! one `Arc` the serving path, the persister and the cluster layer all add
//! to) and to [`TABLE`], the rows the endpoint walks. A new counter is one
//! line here plus its increment.

use crate::cache_proxy::ProxyState;
use crate::http::Response;
use bytes::Bytes;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// One counter of the table: a relaxed atomic any thread adds to.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// The object of the stats body a counter is rendered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// The body's top level.
    Top,
    /// `"persist"`: `null` unless the proxy runs with persistence.
    Persist,
    /// `"cluster"`: `null` unless the proxy runs as a cluster node.
    Cluster,
}

/// A value of the body that is read when the body is rendered rather
/// than counted, written right after the counter whose line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gauge {
    /// `hit_rate`: [`ProxyStats::hit_rate`].
    HitRate,
    /// `cached_bytes`: bytes resident, summed over shards.
    CachedBytes,
    /// `breaker_entries`: circuit breakers held, per origin host and per
    /// cluster peer.
    BreakerEntries,
    /// `url_table_entries`: URLs the shards hold a slot id for — the
    /// resident documents plus what the next sweeps will drop.
    UrlTableEntries,
}

/// One line of the counter table.
#[derive(Debug)]
struct Row {
    /// The [`ProxyStats`] field and the JSON key.
    key: &'static str,
    block: Block,
    /// Gauges written after this counter.
    then: &'static [Gauge],
}

macro_rules! counters {
    ($($(#[$doc:meta])* $block:ident $name:ident $(then $($gauge:ident),+)?;)*) => {
        /// Counters the proxy exposes: a snapshot of the counter table, one
        /// field per line, in the order `/__webcache/stats` renders them.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct ProxyStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// The live counter table, shared by every thread that counts.
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $(pub(crate) $name: Counter,)*
        }

        /// Every line of the counter table, in order.
        const TABLE: &[Row] = &[$(Row {
            key: stringify!($name),
            block: Block::$block,
            then: &[$($(Gauge::$gauge),+)?],
        }),*];

        impl Counters {
            /// Every counter's current value, each read on its own.
            pub(crate) fn snapshot(&self) -> ProxyStats {
                ProxyStats { $($name: self.$name.0.load(Ordering::Relaxed),)* }
            }

            /// Every counter, in table order.
            #[cfg(test)]
            fn cells(&self) -> Vec<&Counter> {
                vec![$(&self.$name),*]
            }
        }

        impl ProxyStats {
            /// Every value, in table order.
            fn values(&self) -> impl Iterator<Item = u64> {
                [$(self.$name),*].into_iter()
            }
        }
    };
}

counters! {
    /// Client requests handled.
    Top requests;
    /// Requests answered from the cache: fresh copies, copies the origin
    /// revalidated with a `304` (also in [`ProxyStats::revalidated`]), and
    /// copies a cluster peer sent (also in [`ProxyStats::peer_hits`]).
    Top hits;
    /// Of the hits, those answered after the origin's `304` to a
    /// revalidation: each cost one round trip but moved no body.
    Top revalidated;
    /// Full fetches from the origin.
    Top misses then HitRate;
    /// Bytes served from cache.
    Top bytes_from_cache;
    /// Bytes fetched from the origin.
    Top bytes_from_origin then CachedBytes;
    /// Retry attempts after a failed origin fetch.
    Top retries;
    /// Origin fetch attempts that timed out (connect or read).
    Top timeouts;
    /// Origin fetches that failed even after all retries.
    Top origin_failures;
    /// Circuit-breaker transitions into the open state.
    Top breaker_trips;
    /// Fetches refused locally because a breaker was open.
    Top breaker_fast_fails;
    /// Expired copies served (degraded) because revalidation failed.
    Top stale_serves then BreakerEntries, UrlTableEntries;
    /// Requests concluded with an answer from the origin — misses,
    /// revalidations and statuses passed through — by the event loop,
    /// which runs every origin exchange under `epoll`.
    Top inline_fetches;
    /// Connections whose whole request head was read at accept (the
    /// listener defers each accept until the first bytes are in), answered
    /// or sent on to the origin without ever registering with `epoll`.
    Top read_at_accept;
    /// Responses sent with the client socket's cork taken out first. The
    /// listener corks every socket it accepts, so a response's last bytes
    /// leave with the FIN; but closing a socket with unread client bytes
    /// resets it and discards what the cork held. A `400`, a `501`, a
    /// `504` and an answer to a head that filled its read count here.
    Top uncorked;
    /// Journal records never written to disk (journaling suspended while
    /// degraded, or an append batch failed). Durability loss, not data
    /// loss: the next successful snapshot re-covers the live state.
    Persist journal_lost_records;
    /// Journal records evicted drop-oldest from a full per-shard buffer
    /// (stalled persister). Each occurrence forces a full snapshot before
    /// the journal is trusted again.
    Persist journal_dropped;
    /// `Healthy -> Degraded` persistence transitions (one per fault
    /// episode).
    Persist degraded_transitions;
    /// `Degraded -> Healthy` recoveries (re-arm probe + snapshot
    /// succeeded).
    Persist heals;
    /// Buffered `Insert`s rewritten as `Evict` because their document was
    /// evicted before the persister drained them: bodies that never reached
    /// the disk.
    Persist journal_elided;
    /// Bytes appended to the journal files.
    Persist journal_bytes;
    /// Bytes written into snapshot files.
    Persist snapshot_bytes;
    /// Snapshot generations committed.
    Persist snapshots;
    /// Cadence snapshots not taken because nothing was logged since the
    /// last committed one.
    Persist snapshots_skipped;
    /// Peer lookups attempted on local misses for a key another node owns.
    Cluster peer_lookups;
    /// Peer lookups answered with a fresh copy — served without an origin
    /// fetch, counted in [`ProxyStats::hits`] as well.
    Cluster peer_hits;
    /// Peer lookups answered `MISS` by a healthy owner.
    Cluster peer_misses;
    /// Peer lookups that failed (error, timeout, or breaker fast-fail);
    /// each one fell through to the origin, never to the client.
    Cluster peer_failures;
    /// Inbound peer queries this node answered with a fresh copy.
    Cluster peer_served;
    /// Membership epoch bumps this node originated or adopted.
    Cluster epoch_bumps;
}

impl ProxyStats {
    /// Hit rate: requests answered from the cache over all requests. A
    /// revalidation answered `304` is one of the hits, not another.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Target of the admin stats endpoint: `GET /__webcache/stats` returns a
/// JSON object with a key per line of the counter table — [`ProxyStats`]
/// documents each one — in the table's order, the top-level counters
/// first, then a `persist` and a `cluster` object (`null` when the proxy
/// runs without persistence or alone). Beside the counters it reports a
/// few values read when it is rendered: `hit_rate`, `cached_bytes`,
/// `breaker_entries` and `url_table_entries` at the top level,
/// persistence `health`, and the cluster node's `node_id`, ring `epoch`
/// and `members`.
/// Origin-form (no `http://` host), so it can never collide with a
/// cacheable URL.
pub const ADMIN_STATS_TARGET: &str = "/__webcache/stats";

/// Build the admin stats response (see [`ADMIN_STATS_TARGET`]).
pub(crate) fn admin_stats_response(state: &ProxyState) -> Response {
    let s = state.counters.snapshot();
    let mut body = String::from("{");
    render(&mut body, Block::Top, state, &s);
    match state.persist_health.get() {
        Some(h) => {
            body.push_str(",\"persist\":{");
            field(
                &mut body,
                "health",
                format_args!("\"{}\"", h.health().name()),
            );
            render(&mut body, Block::Persist, state, &s);
            body.push('}');
        }
        None => body.push_str(",\"persist\":null"),
    }
    match &state.cluster {
        Some(c) => {
            let members: Vec<String> = c.members().iter().map(u32::to_string).collect();
            body.push_str(",\"cluster\":{");
            field(&mut body, "node_id", c.node_id());
            field(&mut body, "epoch", c.epoch());
            field(
                &mut body,
                "members",
                format_args!("[{}]", members.join(",")),
            );
            render(&mut body, Block::Cluster, state, &s);
            body.push('}');
        }
        None => body.push_str(",\"cluster\":null"),
    }
    body.push('}');
    Response::ok(Bytes::from(body), None)
}

/// Write `block`'s counters in table order, each followed by the gauges
/// its line names.
fn render(body: &mut String, block: Block, state: &ProxyState, s: &ProxyStats) {
    for (row, value) in TABLE.iter().zip(s.values()) {
        if row.block != block {
            continue;
        }
        field(body, row.key, value);
        for gauge in row.then {
            match gauge {
                Gauge::HitRate => field(body, "hit_rate", format_args!("{:.6}", s.hit_rate())),
                Gauge::CachedBytes => field(body, "cached_bytes", state.cache.used()),
                Gauge::BreakerEntries => field(body, "breaker_entries", state.breakers.len()),
                Gauge::UrlTableEntries => {
                    let entries: usize = (0..state.cache.shard_count())
                        .map(|shard| state.cache.with_shard(shard, |_, ext| ext.urls.entries()))
                        .sum();
                    field(body, "url_table_entries", entries);
                }
            }
        }
    }
}

/// Append `"key":value` to the object `body` is writing, after a comma
/// unless it is the object's first.
fn field(body: &mut String, key: &str, value: impl Display) {
    if !body.ends_with('{') {
        body.push(',');
    }
    let _ = write!(body, "\"{key}\":{value}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_proxy::new_state;
    use crate::cache_proxy::test_support::{get, state_of};
    use crate::cluster::{ClusterConfig, ClusterState};
    use crate::config::ProxyConfig;
    use crate::origin::{DocStore, OriginServer};
    use crate::persister::PersistHealthState;
    use crate::ProxyServer;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use webcache_core::policy::named;

    /// A cold proxy state, persistence and cluster `on` or off (node 1 of
    /// three), whose counters hold 1000, 999, 998, … in table order.
    fn counted(on: bool) -> Arc<ProxyState> {
        let seeds = (0..3)
            .map(|id| (id, format!("127.0.0.1:{}", 17000 + id).parse().unwrap()))
            .collect();
        let cluster = on.then(|| Arc::new(ClusterState::new(ClusterConfig::new(1, seeds))));
        let state = new_state(&ProxyConfig::new(1 << 20), cluster, || {
            Box::new(named::size())
        });
        if on {
            let health = PersistHealthState::new(Arc::clone(&state.counters));
            let _ = state.persist_health.set(Arc::new(health));
        }
        for (i, counter) in state.counters.cells().into_iter().enumerate() {
            counter.add(1000 - i as u64);
        }
        state
    }

    fn body(state: &ProxyState) -> String {
        String::from_utf8(admin_stats_response(state).body.to_vec()).unwrap()
    }

    #[test]
    fn body_is_the_one_the_counters_were_rendered_into_before_the_table() {
        // What the proxy rendered for these values before its counters
        // were one table, with two differences: `hit_rate` was
        // (hits + revalidated) / requests = 1.997000, counting the
        // revalidated hits twice; it is hits / requests = 0.999000. And
        // the worker pool's four lines left with the pool (DESIGN.md
        // D40), its gauges now following `stale_serves`.
        const TOP: &str = "{\"requests\":1000,\"hits\":999,\"revalidated\":998,\
            \"misses\":997,\"hit_rate\":0.999000,\"bytes_from_cache\":996,\
            \"bytes_from_origin\":995,\"cached_bytes\":0,\"retries\":994,\
            \"timeouts\":993,\"origin_failures\":992,\"breaker_trips\":991,\
            \"breaker_fast_fails\":990,\"stale_serves\":989,\
            \"breaker_entries\":0,\"url_table_entries\":0,\"inline_fetches\":988,\
            \"read_at_accept\":987,\"uncorked\":986";
        assert_eq!(
            body(&counted(false)),
            format!("{TOP},\"persist\":null,\"cluster\":null}}")
        );
        assert_eq!(
            body(&counted(true)),
            format!(
                "{TOP},\"persist\":{{\"health\":\"healthy\",\"journal_lost_records\":985,\
                 \"journal_dropped\":984,\"degraded_transitions\":983,\"heals\":982,\
                 \"journal_elided\":981,\"journal_bytes\":980,\"snapshot_bytes\":979,\
                 \"snapshots\":978,\"snapshots_skipped\":977}},\"cluster\":{{\"node_id\":1,\
                 \"epoch\":0,\"members\":[0,1,2],\"peer_lookups\":976,\"peer_hits\":975,\
                 \"peer_misses\":974,\"peer_failures\":973,\"peer_served\":972,\
                 \"epoch_bumps\":971}}}}"
            )
        );
    }

    /// The body's top level, `persist` object and `cluster` object, each
    /// as its own text. The top level runs up to `"persist":`.
    fn blocks(body: &str) -> [&str; 3] {
        let persist = body.find(",\"persist\":").unwrap();
        let cluster = body.find(",\"cluster\":").unwrap();
        [&body[..persist], &body[persist..cluster], &body[cluster..]]
    }

    /// The value of `"key":` in `text`, which holds it exactly once.
    fn value_of(text: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\":");
        assert_eq!(text.matches(&pat).count(), 1, "{pat} in {text}");
        let at = text.find(&pat).unwrap() + pat.len();
        let digits = text[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    }

    #[test]
    fn every_counter_is_in_its_block_once_and_the_body_agrees_with_stats() {
        // Each line of the table is its own key: rendered exactly once, in
        // the block its line names, and nowhere else.
        let body = body(&counted(true));
        for row in TABLE {
            let at = match row.block {
                Block::Top => 0,
                Block::Persist => 1,
                Block::Cluster => 2,
            };
            for (i, block) in blocks(&body).into_iter().enumerate() {
                let n = block.matches(&format!("\"{}\":", row.key)).count();
                assert_eq!(n, usize::from(i == at), "{} in block {i}", row.key);
            }
        }

        // A mixed exchange through a live proxy: a miss, a hit, a `404`
        // passed through, a revalidation answered `304`, a miss whose
        // lookup waits while this test holds the one shard's lock, and a
        // hit on it.
        let store = Arc::new(DocStore::new());
        for url in ["http://o.test/a.html", "http://o.test/b.html"] {
            store.put_synthetic(url, 1000, 10);
        }
        let origin = OriginServer::start(store).unwrap();
        let config = ProxyConfig::new(1 << 20).with_shards(1).with_ttl(2);
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
        let a = "http://o.test/a.html";
        let statuses: Vec<u16> = [a, a, "http://o.test/gone.html", a]
            .into_iter()
            .map(|url| get(&proxy, url).status)
            .collect();
        assert_eq!(statuses, [200, 200, 404, 200]);
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let give_up = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < give_up, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let b = "http://o.test/b.html";
        let requests = proxy.stats().requests;
        let mut waiting = state_of(&proxy).cache.with_shard(0, |_, _| {
            let mut s = TcpStream::connect(proxy.addr()).unwrap();
            crate::http::write_request(&mut s, &crate::http::Request::get(b)).unwrap();
            wait_for("the lookup", &|| proxy.stats().requests == requests + 1);
            s
        });
        let resp = crate::http::read_response(&mut waiting).unwrap();
        assert_eq!((resp.status, resp.is_cache_hit()), (200, false));
        assert!(get(&proxy, b).is_cache_hit());

        let json = String::from_utf8(get(&proxy, ADMIN_STATS_TARGET).body.to_vec()).unwrap();
        let s = proxy.stats();
        assert_eq!((s.hits, s.revalidated, s.misses), (3, 1, 2), "{json}");
        // A block the proxy does not run is `null`, and its counters zero.
        assert!(
            json.ends_with(",\"persist\":null,\"cluster\":null}"),
            "{json}"
        );
        for (row, value) in TABLE.iter().zip(s.values()) {
            if row.block == Block::Top {
                assert_eq!(value_of(&json, row.key), value, "{} in {json}", row.key);
            } else {
                assert_eq!(value, 0, "{}", row.key);
            }
        }
    }

    #[test]
    fn hit_rate_accounts_revalidations() {
        // A revalidated request is one of the hits: two of four requests
        // answered from the cache is 0.5 however many needed a `304`.
        let mut s = ProxyStats {
            requests: 4,
            hits: 2,
            revalidated: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.5);
        s.requests = 0;
        assert_eq!(s.hit_rate(), 0.0);
    }
}
