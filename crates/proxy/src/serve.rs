//! The per-request cache logic: the three cases of the paper's section 1
//! as lookup → fetch → conclude. [`lookup`] and [`Miss::conclude`] are the
//! cache's side of a request; the event loop calls them between the
//! steps of the origin exchange it runs under `epoll` (`reactor.rs`). The
//! cluster peer glue is here too, both the asking side and the answer to
//! an inbound peer frame ([`answer_peer`]). Everything runs on the event
//! loop, which owns the proxy's state and visits one shard at a time,
//! never across network I/O.

use crate::breaker::Admission;
use crate::cache_proxy::{ProxyState, Resident, ShardCache, ShardExt};
use crate::cluster::{self, ClusterState, Frame};
use crate::config::ProxyConfig;
use crate::fetch::{error_response, FetchError};
use crate::http::Response;
use crate::persist::JournalOp;
use crate::upstream::Fetched;
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;
use webcache_core::cache::{DocMeta, Outcome};
use webcache_core::cluster::Membership;
use webcache_trace::{ClientId, DocType, ServerId, UrlId};

/// Apply the downstream conditional GET (a client cache or a child proxy
/// in a hierarchy, as in the paper's case 2): if our copy is not newer
/// than the caller's `If-Modified-Since`, a bodyless 304 suffices.
pub(crate) fn finalize_response(if_modified_since: Option<u64>, resp: Response) -> Response {
    if let (Some(since), Some(lm)) = (if_modified_since, resp.last_modified()) {
        if resp.status == 200 && lm <= since {
            let mut not_modified = Response::status_only(304);
            if resp.is_cache_hit() {
                not_modified = not_modified.with_cache_status(true);
            }
            return not_modified;
        }
    }
    resp
}

/// Admit one request: tick the logical clock and count it. Exactly one
/// call per client request, on the event loop, before the cache sees it.
pub(crate) fn begin_request(state: &mut ProxyState) -> u64 {
    state.counters.requests.add(1);
    state.now += 1;
    state.now
}

/// The resident copy of `target` — the id its shard has for it, its cache
/// entry (body and URL refcount clones) — and whether it is still inside
/// its freshness lifetime at `now`. Adds nothing to the shard's table.
pub(crate) fn peek(
    cache: &ShardCache,
    ext: &ShardExt,
    target: &str,
    ttl: Option<u64>,
    now: u64,
) -> Option<(UrlId, DocMeta, Resident, bool)> {
    let id = ext.urls.get(target)?;
    let (meta, copy) = cache.entry(id)?;
    let fresh = ttl.is_none_or(|ttl| now.saturating_sub(copy.fetched_at) <= ttl);
    Some((id, *meta, copy.clone(), fresh))
}

/// A request admitted by [`begin_request`] that the cache could not
/// answer from memory: what it takes to fetch the document and conclude.
#[derive(Debug)]
pub(crate) struct Miss {
    pub now: u64,
    /// The resident copy past its freshness lifetime, if there is one:
    /// the fetch is then a revalidation (case 2), else a plain GET
    /// (case 3). Size, type and dates are the copy's; the id in the
    /// metadata was its slot's at the lookup and is not used again.
    pub expired: Option<(DocMeta, Resident)>,
}

/// What the origin exchange came to: the answer, or why there is none.
pub(crate) type Answer = Result<Fetched, FetchError>;

/// What the cache says to a request.
pub(crate) enum Lookup {
    /// Case 1: a consistent copy, already touched and counted. The raw
    /// `(body, last_modified)` pair rather than a built [`Response`]: the
    /// event loop encodes the fixed-form hit head directly into a pooled
    /// buffer, so constructing a header map here would be the hit path's
    /// only allocation. The body is a refcount clone of the shard's copy
    /// — the document is never memcpy'd.
    Hit {
        body: Bytes,
        last_modified: Option<u64>,
    },
    /// No copy, or an expired one: the origin must be asked.
    Miss(Miss),
}

/// Count a document of `size` bytes served from memory.
fn count_hit(state: &ProxyState, size: u64) {
    state.counters.hits.add(1);
    state.counters.bytes_from_cache.add(size);
}

/// Consult the cache for a request admitted by [`begin_request`]. Peek
/// and (for a fresh copy) policy touch happen in one shard visit, so a
/// hit enters the shard exactly once.
pub(crate) fn lookup(
    config: &ProxyConfig,
    state: &mut ProxyState,
    target: &str,
    now: u64,
) -> Lookup {
    let (cache, ext) = state.shard_for(target);
    let resident = peek(cache, ext, target, config.ttl, now).map(|(id, meta, copy, fresh)| {
        if fresh {
            touch_resident(cache, ext, id, &meta, &copy, now);
        }
        (meta, copy, fresh)
    });
    match resident {
        Some((meta, copy, true)) => {
            count_hit(state, meta.size);
            Lookup::Hit {
                body: copy.body,
                last_modified: meta.last_modified,
            }
        }
        expired => Lookup::Miss(Miss {
            now,
            expired: expired.map(|(meta, copy, _)| (meta, copy)),
        }),
    }
}

impl Miss {
    /// The `If-Modified-Since` of the origin request: the expired copy's
    /// modification time for a revalidation, nothing for a plain GET.
    pub fn if_modified_since(&self) -> Option<u64> {
        self.expired
            .as_ref()
            .map(|(meta, _)| meta.last_modified.unwrap_or(0))
    }

    /// Whether this node is the home of `target`'s key. A non-owner in a
    /// cluster serves but does not store: each key has one home, so
    /// exactly one removal-policy instance governs its lifetime, and the
    /// cluster's aggregate capacity is not spent on duplicates.
    fn is_home(state: &ProxyState, target: &str) -> bool {
        state
            .cluster
            .as_ref()
            .is_none_or(|c| c.owner(target) == c.node_id())
    }

    /// Conclude with the origin exchange's `answer`. A `304` to a
    /// revalidation refreshes the copy and serves it as a hit, a `200` is
    /// a miss — the bytes moved from the origin — stored (evicting via the
    /// policy) unless this node is not the key's home, and any other
    /// status passes through while our copy, if any, stays. No answer
    /// serves the expired copy degraded when serve-stale is on, and the
    /// failure's status otherwise.
    pub fn conclude(
        self,
        config: &ProxyConfig,
        state: &mut ProxyState,
        target: &str,
        answer: Answer,
    ) -> Response {
        let now = self.now;
        let fetched = match answer {
            Ok(fetched) => fetched,
            Err(e) => return self.fail(config, state, target, e),
        };
        match (&self.expired, fetched.status) {
            (Some((meta, copy)), 304) => {
                // The origin round trip came between, so this is a second
                // visit (fresh hits touch in the visit they peeked in).
                let (cache, ext) = state.shard_for(target);
                let id = bind(cache, ext, copy);
                refresh_resident(cache, ext, id, meta, copy, now);
                state.counters.revalidated.add(1);
                count_hit(state, meta.size);
                Response::ok(copy.body.clone(), meta.last_modified).with_cache_status(true)
            }
            (expired, 200) => {
                let size = fetched.body.len() as u64;
                // A modified document replaces the copy it was
                // revalidating wherever that copy lives.
                if expired.is_some() || Miss::is_home(state, target) {
                    let copy = Resident {
                        url: match expired {
                            Some((_, old)) => Arc::clone(&old.url),
                            None => Arc::from(target),
                        },
                        body: fetched.body.clone(),
                        fetched_at: now,
                    };
                    let (doc_type, last_modified) =
                        (DocType::classify(target), fetched.last_modified);
                    let (cache, ext) = state.shard_for(target);
                    install(cache, ext, now, doc_type, last_modified, &copy);
                }
                state.counters.misses.add(1);
                state.counters.bytes_from_origin.add(size);
                Response::ok(fetched.body, fetched.last_modified).with_cache_status(false)
            }
            // The origin answered, but with neither a document nor a
            // `304` to a revalidation (e.g. the document is gone).
            _ => fetched.into_response(),
        }
    }

    /// [`Miss::conclude`] without an answer.
    fn fail(
        self,
        config: &ProxyConfig,
        state: &mut ProxyState,
        target: &str,
        e: FetchError,
    ) -> Response {
        let Some((meta, copy)) = self.expired.as_ref().filter(|_| config.serve_stale) else {
            return error_response(&e);
        };
        // Revalidation failed: serve the expired copy, marked degraded,
        // rather than surfacing the origin failure (`stale-if-error`).
        // Freshness is NOT renewed — the next request past the TTL
        // revalidates again. The policy sees the reference, but no hit
        // is counted: degraded serves are reported in `stale_serves`.
        let (cache, ext) = state.shard_for(target);
        let id = bind(cache, ext, copy);
        touch_resident(cache, ext, id, meta, copy, self.now);
        state.counters.stale_serves.add(1);
        state.counters.bytes_from_cache.add(meta.size);
        Response::ok(copy.body.clone(), meta.last_modified)
            .with_cache_status(true)
            .with_degraded()
    }
}

/// A cluster peer to ask for `target` before paying the origin round trip
/// (case 3): its owner, when that is another node whose breaker lets the
/// query through. The peer breaker gives one bounded attempt, no retries
/// — the origin is always there as the fallback, so a sick peer must
/// never add more than one timeout of latency.
pub(crate) fn peer_to_ask(
    config: &ProxyConfig,
    state: &mut ProxyState,
    target: &str,
) -> Option<(u32, SocketAddr)> {
    let cluster = state.cluster.as_ref()?;
    let owner = cluster.owner(target);
    if owner == cluster.node_id() {
        return None;
    }
    let addr = cluster.config().addr_of(owner)?;
    state.counters.peer_lookups.add(1);
    let admission = state
        .breakers
        .admit(&peer_key(owner), state.now, config.breaker_cooldown);
    if matches!(admission, Admission::Refused) {
        state.counters.peer_failures.add(1);
        return None;
    }
    Some((owner, addr))
}

/// The breaker key of cluster peer `node`.
fn peer_key(node: u32) -> String {
    format!("peer#{node}")
}

/// The `QUERY` frame asking a peer for `target`.
pub(crate) fn peer_query(cluster: &ClusterState, target: &str) -> Vec<u8> {
    cluster::encode_frame(&cluster::Frame::Query {
        sender: cluster.node_id(),
        epoch: cluster.epoch(),
        url: target.to_string(),
    })
}

/// Account the peer `owner`'s `reply` to a query for `target`. `Some`
/// only for a `FOUND`, which is served; every other outcome — a healthy
/// `MISS`, an error, a timeout — returns `None` and the request goes on
/// to the origin. A tripped peer breaker declares the peer dead:
/// membership is bumped without it (re-homing its keys) and the new epoch
/// broadcast to the survivors.
pub(crate) fn peer_answered(
    config: &ProxyConfig,
    state: &mut ProxyState,
    now: u64,
    owner: u32,
    reply: Option<cluster::Frame>,
) -> Option<Response> {
    let key = peer_key(owner);
    match reply {
        Some(cluster::Frame::Found {
            last_modified,
            body,
            ..
        }) => {
            state.breakers.on_success(&key);
            state.counters.peer_hits.add(1);
            let size = body.len() as u64;
            state.counters.hits.add(1);
            state.counters.bytes_from_cache.add(size);
            Some(Response::ok(Bytes::from(body), last_modified).with_cache_status(true))
        }
        Some(cluster::Frame::Miss { .. }) => {
            state.breakers.on_success(&key);
            state.counters.peer_misses.add(1);
            None
        }
        _ => {
            state.counters.peer_failures.add(1);
            if state
                .breakers
                .on_failure(&key, config.breaker_threshold, now)
            {
                state.counters.breaker_trips.add(1);
                let cluster = state.cluster.as_ref()?;
                if let Some(m) = cluster.remove_peer(owner) {
                    // Broadcast off the event loop: the client's response
                    // must not wait on peer round trips.
                    let cluster = Arc::clone(cluster);
                    std::thread::spawn(move || cluster.broadcast_membership(&m));
                }
            }
            None
        }
    }
}

/// Answer one inbound peer frame, on the event loop: the reply's head
/// goes into `head` and its body is returned, empty but for a `FOUND`,
/// whose body is the shard's copy itself. A `QUERY` is answered from the
/// local cache only — never by fetching from the origin on a peer's
/// behalf, so lookups cannot recurse — and a `MEMBERSHIP` is adopted if
/// strictly newer, then answered with whatever this node now believes.
/// `None` for a frame that is itself a reply, a protocol error: the
/// connection is dropped.
pub(crate) fn answer_peer(
    config: &ProxyConfig,
    state: &mut ProxyState,
    frame: Frame,
    head: &mut Vec<u8>,
) -> Option<Bytes> {
    let cluster = Arc::clone(state.cluster.as_ref()?);
    let reply = match frame {
        Frame::Query { url, .. } => match peer_lookup_local(config, state, &url) {
            Some((body, last_modified)) => {
                state.counters.peer_served.add(1);
                cluster::encode_found_head(head, cluster.epoch(), last_modified, body.len());
                return Some(body);
            }
            None => Frame::Miss {
                epoch: cluster.epoch(),
            },
        },
        Frame::Membership { epoch, members, .. } => {
            let _ = cluster.install(Membership::new(epoch, members));
            let m = cluster.current_membership();
            Frame::Membership {
                sender: cluster.node_id(),
                epoch: m.epoch,
                members: m.members,
            }
        }
        Frame::Found { .. } | Frame::Miss { .. } => return None,
    };
    head.clear();
    head.extend_from_slice(&cluster::encode_frame(&reply));
    Some(Bytes::new())
}

/// Look up `target` in the local cache on behalf of a peer: a fresh
/// copy or nothing. Does not tick the logical clock or count a client
/// request — a peer query is not client demand — but does touch the
/// policy, since the document was genuinely referenced.
fn peer_lookup_local(
    config: &ProxyConfig,
    state: &mut ProxyState,
    target: &str,
) -> Option<(Bytes, Option<u64>)> {
    let now = state.now;
    let (cache, ext) = state.shard_for(target);
    let (id, meta, copy, fresh) = peek(cache, ext, target, config.ttl, now)?;
    if !fresh || meta.size > cluster::MAX_PEER_BODY {
        return None;
    }
    touch_resident(cache, ext, id, &meta, &copy, now);
    Some((copy.body, meta.last_modified))
}

/// The id this shard has for `copy`'s URL, bound now if it has none: for
/// a second visit to the shard, after which the id [`peek`] found says
/// nothing, and for a document about to be stored.
fn bind(cache: &ShardCache, ext: &mut ShardExt, copy: &Resident) -> UrlId {
    ext.urls
        .bind(&copy.url, cache.len(), |id| cache.contains(id))
}

/// Re-reference a document we are serving from memory, so the policy
/// sees it, in the visit that gave `id`: the fast path touches in the
/// same visit it peeked in, so peek and touch are one step. A second
/// visit tolerates an eviction since the peek: the cache request then
/// re-inserts `copy`, the one being served.
pub(crate) fn touch_resident(
    cache: &mut ShardCache,
    ext: &mut ShardExt,
    id: UrlId,
    meta: &DocMeta,
    copy: &Resident,
    now: u64,
) {
    let r = reference(id, now, meta.size, meta.doc_type, meta.last_modified);
    match cache.request_with(&r, || copy.clone()) {
        Outcome::Hit => {
            ext.log_op(JournalOp::Touch {
                old_id: id.0,
                now,
                size: meta.size,
            });
        }
        Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
            log_insert(ext, evicted, &r, copy);
        }
        Outcome::MissTooBig => {}
    }
}

/// [`touch_resident`] for a copy a `304` just confirmed, re-stamped `now`
/// in the same step: one `Refresh` record, replayed by this call (or one
/// `Insert` of the stamped copy, when it lost its slot since the peek).
pub(crate) fn refresh_resident(
    cache: &mut ShardCache,
    ext: &mut ShardExt,
    id: UrlId,
    meta: &DocMeta,
    copy: &Resident,
    now: u64,
) {
    let copy = &Resident {
        fetched_at: now,
        ..copy.clone()
    };
    let r = reference(id, now, meta.size, meta.doc_type, meta.last_modified);
    match cache.request_with(&r, || copy.clone()) {
        Outcome::Hit => {
            if let Some(resident) = cache.payload_mut(id) {
                resident.fetched_at = now;
            }
            ext.log_op(JournalOp::Refresh {
                old_id: id.0,
                fetched_at: now,
            });
        }
        Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
            log_insert(ext, evicted, &r, copy);
        }
        Outcome::MissTooBig => {}
    }
}

/// One reference to a document as the cache sees it. The proxy tells
/// neither clients nor servers apart, so both ids are zero.
pub(crate) fn reference(
    url: UrlId,
    now: u64,
    size: u64,
    doc_type: DocType,
    last_modified: Option<u64>,
) -> webcache_trace::Request {
    webcache_trace::Request {
        time: now,
        client: ClientId(0),
        server: ServerId(0),
        url,
        size,
        doc_type,
        last_modified,
    }
}

/// Reference `copy`'s document at `now` and make `copy` its resident
/// copy: a body just fetched from the origin, or one a journal record
/// carries. The cache entry takes URL, body and fetch time together, drops
/// with them whatever the policy evicts to make room, and every step is
/// journaled.
pub(crate) fn install(
    cache: &mut ShardCache,
    ext: &mut ShardExt,
    now: u64,
    doc_type: DocType,
    last_modified: Option<u64>,
    copy: &Resident,
) {
    let id = bind(cache, ext, copy);
    let r = &reference(id, now, copy.body.len() as u64, doc_type, last_modified);
    let evicted = match cache.request_with(r, || copy.clone()) {
        // Same URL and size already cached (another request fetched it
        // meanwhile, or the origin changed it in place): the new copy
        // replaces the old one.
        Outcome::Hit => {
            if let Some(resident) = cache.payload_mut(id) {
                *resident = copy.clone();
            }
            Vec::new()
        }
        Outcome::Miss { evicted } | Outcome::MissModified { evicted } => evicted,
        // Larger than a shard's capacity: pass through uncached. A
        // smaller copy that was resident is gone (invalidated before the
        // new size was found not to fit), and replay must drop it too.
        Outcome::MissTooBig => {
            ext.log_op(JournalOp::Evict { old_id: id.0 });
            return;
        }
    };
    log_insert(ext, evicted, r, copy);
}

/// Journal an insertion of `copy` under `r` and the evictions that made
/// room for it. A shard without a journal builds no record: the insert's
/// URL `String` and body reference would only be dropped.
fn log_insert(
    ext: &mut ShardExt,
    evicted: Vec<DocMeta>,
    r: &webcache_trace::Request,
    copy: &Resident,
) {
    let Some(journal) = ext.journal.as_deref_mut() else {
        return;
    };
    for m in evicted {
        journal.log(JournalOp::Evict { old_id: m.url.0 });
    }
    journal.log(JournalOp::Insert {
        old_id: r.url.0,
        url: copy.url.to_string(),
        now: r.time,
        size: r.size,
        doc_type: r.doc_type,
        last_modified: r.last_modified,
        fetched_at: copy.fetched_at,
        body: copy.body.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_proxy::test_support::{get, stat};
    use crate::origin::{DocStore, OriginServer};
    use crate::ProxyServer;
    use std::sync::atomic::Ordering;
    use std::time::Duration;
    use webcache_core::policy::named;

    fn setup(config: ProxyConfig) -> (OriginServer, ProxyServer) {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        store.put_synthetic("http://o.test/b.gif", 3000, 10);
        store.put_synthetic("http://o.test/c.au", 6000, 10);
        let origin = OriginServer::start(store).unwrap();
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
        (origin, proxy)
    }

    #[test]
    fn second_request_is_a_cache_hit() {
        let (origin, proxy) = setup(ProxyConfig::new(100_000));
        let first = get(&proxy, "http://o.test/a.html");
        assert_eq!(first.status, 200);
        assert!(!first.is_cache_hit());
        let second = get(&proxy, "http://o.test/a.html");
        assert!(second.is_cache_hit());
        assert_eq!(second.body, first.body);
        // Origin saw exactly one full fetch.
        assert_eq!(origin.stats().full_responses.load(Ordering::Relaxed), 1);
        let s = proxy.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn eviction_follows_the_size_policy() {
        let (_origin, proxy) = setup(ProxyConfig::new(9_500));
        get(&proxy, "http://o.test/a.html"); // 1000
        get(&proxy, "http://o.test/b.gif"); // 3000
        get(&proxy, "http://o.test/c.au"); // 6000 -> evicts c? no: inserting c (6000) needs room: 1000+3000+6000 = 10000 > 9500, SIZE evicts largest resident (b.gif 3000).
        assert_eq!(stat(&proxy, "cached_bytes"), 7000);
        // a and c are hits; b was evicted and misses.
        assert!(get(&proxy, "http://o.test/a.html").is_cache_hit());
        assert!(get(&proxy, "http://o.test/c.au").is_cache_hit());
        assert!(!get(&proxy, "http://o.test/b.gif").is_cache_hit());
    }

    #[test]
    fn sharded_proxy_still_serves_hits() {
        let store = Arc::new(DocStore::new());
        for i in 0..16 {
            store.put_synthetic(&format!("http://o.test/d{i}.html"), 500 + i * 10, 10);
        }
        let origin = OriginServer::start(store).unwrap();
        let config = ProxyConfig::new(1 << 20).with_shards(4);
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
        assert_eq!(proxy.shard_count(), 4);
        for i in 0..16 {
            assert!(!get(&proxy, &format!("http://o.test/d{i}.html")).is_cache_hit());
        }
        for i in 0..16 {
            let r = get(&proxy, &format!("http://o.test/d{i}.html"));
            assert!(r.is_cache_hit(), "d{i} should be resident");
            assert_eq!(r.body.len() as u64, 500 + i * 10);
        }
        let s = proxy.stats();
        assert_eq!(s.requests, 32);
        assert_eq!(s.hits, 16);
        assert_eq!(s.misses, 16);
    }

    #[test]
    fn ttl_expiry_triggers_revalidation_not_refetch() {
        let (origin, proxy) = setup(ProxyConfig::new(100_000).with_ttl(1));
        get(&proxy, "http://o.test/a.html");
        // Advance the logical clock past the TTL with unrelated traffic.
        get(&proxy, "http://o.test/b.gif");
        get(&proxy, "http://o.test/c.au");
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.is_cache_hit(), "revalidated copy still served from cache");
        assert_eq!(origin.stats().not_modified.load(Ordering::Relaxed), 1);
        assert_eq!(proxy.stats().revalidated, 1);
    }

    #[test]
    fn modified_document_is_refetched_after_expiry() {
        let (origin, proxy) = setup(ProxyConfig::new(100_000).with_ttl(1));
        let before = get(&proxy, "http://o.test/a.html");
        origin.store().modify("http://o.test/a.html", 1500, 99);
        get(&proxy, "http://o.test/b.gif"); // advance clock
        get(&proxy, "http://o.test/c.au");
        let after = get(&proxy, "http://o.test/a.html");
        assert!(!after.is_cache_hit());
        assert_eq!(after.body.len(), 1500);
        assert_ne!(after.body, before.body);
        // And the fresh copy serves as a hit again.
        assert!(get(&proxy, "http://o.test/a.html").is_cache_hit());
    }

    #[test]
    fn stale_copy_is_served_degraded_when_origin_dies() {
        // Tuned for fast failure detection.
        let (origin, proxy) = setup(
            ProxyConfig::new(100_000)
                .with_ttl(1)
                .with_retries(1, Duration::from_millis(1))
                .with_breaker(50, 1000),
        );
        let first = get(&proxy, "http://o.test/a.html");
        assert!(!first.is_degraded());
        drop(origin); // origin goes away
        get(&proxy, "http://o.test/b.gif"); // advance clock past TTL (5xx, uncached)
        get(&proxy, "http://o.test/c.au");
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 200, "cached doc must survive origin death");
        assert!(r.is_cache_hit());
        assert!(r.is_degraded(), "stale serve must carry the 110 warning");
        assert_eq!(r.body, first.body);
        let s = proxy.stats();
        assert_eq!(s.stale_serves, 1);
        assert!(s.origin_failures >= 1);
    }

    #[test]
    fn serve_stale_can_be_disabled() {
        let (origin, proxy) = setup(
            ProxyConfig::new(100_000)
                .with_ttl(1)
                .with_retries(0, Duration::from_millis(1))
                .with_serve_stale(false),
        );
        get(&proxy, "http://o.test/a.html");
        drop(origin);
        get(&proxy, "http://o.test/x"); // advance clock
        get(&proxy, "http://o.test/y");
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.status >= 500, "without serve-stale the error surfaces");
        assert_eq!(proxy.stats().stale_serves, 0);
    }
}
