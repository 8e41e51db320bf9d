//! What the proxy counts and how operators read it: [`ProxyStats`], its
//! lock-free mirror, and the `/__webcache/stats` admin endpoint.

use crate::cache_proxy::ProxyState;
use crate::http::Response;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters the proxy exposes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStats {
    /// Client requests handled.
    pub requests: u64,
    /// Served from cache without touching the origin.
    pub hits: u64,
    /// Revalidations answered `304` (hits that cost one round trip).
    pub revalidated: u64,
    /// Full fetches from the origin.
    pub misses: u64,
    /// Bytes served from cache.
    pub bytes_from_cache: u64,
    /// Bytes fetched from the origin.
    pub bytes_from_origin: u64,
    /// Retry attempts after a failed origin fetch.
    pub retries: u64,
    /// Origin fetch attempts that timed out (connect or read).
    pub timeouts: u64,
    /// Origin fetches that failed even after all retries.
    pub origin_failures: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Fetches refused locally because a breaker was open.
    pub breaker_fast_fails: u64,
    /// Expired copies served (degraded) because revalidation failed.
    pub stale_serves: u64,
    /// Requests shed with `503` because the worker job queue was full.
    pub rejected: u64,
    /// Journal records never written to disk (journaling suspended while
    /// degraded, or an append batch failed). Durability loss, not data
    /// loss: the next successful snapshot re-covers the live state.
    pub journal_lost_records: u64,
    /// Journal records evicted drop-oldest from a full per-shard buffer
    /// (stalled persister). Each occurrence forces a full snapshot
    /// before the journal is trusted again.
    pub journal_dropped: u64,
    /// `Healthy -> Degraded` persistence transitions (one per fault
    /// episode).
    pub persist_degraded: u64,
    /// `Degraded -> Healthy` recoveries (re-arm probe + snapshot
    /// succeeded).
    pub persist_heals: u64,
    /// Peer lookups attempted on local misses (cluster mode only).
    pub peer_lookups: u64,
    /// Peer lookups answered with a fresh copy — served without an
    /// origin fetch, counted in [`ProxyStats::hits`] as well.
    pub peer_hits: u64,
    /// Peer lookups answered `MISS` by a healthy owner.
    pub peer_misses: u64,
    /// Peer lookups that failed (error, timeout, or breaker fast-fail);
    /// each one fell through to the origin, never to the client.
    pub peer_failures: u64,
    /// Inbound peer queries this node answered with a fresh copy.
    pub peer_served: u64,
}

impl ProxyStats {
    /// Hit rate (cache-served plus revalidated, over all requests) —
    /// both avoid refetching the body.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.hits + self.revalidated) as f64 / self.requests as f64
        }
    }
}

/// Lock-free mirror of [`ProxyStats`], bumped by worker threads.
#[derive(Debug, Default)]
pub(crate) struct AtomicProxyStats {
    pub(crate) requests: AtomicU64,
    pub(crate) hits: AtomicU64,
    pub(crate) revalidated: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) bytes_from_cache: AtomicU64,
    pub(crate) bytes_from_origin: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) origin_failures: AtomicU64,
    pub(crate) breaker_trips: AtomicU64,
    pub(crate) breaker_fast_fails: AtomicU64,
    pub(crate) stale_serves: AtomicU64,
    pub(crate) rejected: AtomicU64,
}

impl AtomicProxyStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ProxyStats {
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            revalidated: self.revalidated.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_from_cache: self.bytes_from_cache.load(Ordering::Relaxed),
            bytes_from_origin: self.bytes_from_origin.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            origin_failures: self.origin_failures.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            // Persistence-health counters live on `PersistHealthState`
            // and peer counters on `ClusterState`; `ProxyServer::stats`
            // and the admin endpoint merge them in.
            ..ProxyStats::default()
        }
    }
}

/// Target of the admin stats endpoint: `GET /__webcache/stats` returns
/// a JSON snapshot of every [`ProxyStats`] counter plus derived hit
/// rate, resident bytes, breaker-table size, `url_table_entries` (URLs the
/// shards' tables hold an id for: the resident documents plus what the
/// next sweeps will drop), the serving engine's
/// `worker_jobs` and `write_handbacks` (requests dispatched to a worker,
/// and how many of those came back to the event loop to finish
/// writing), `inline_fetches` and `inline_fallbacks` (origin exchanges
/// the event loop ran itself, and inline attempts it handed to a worker
/// after all), `read_at_accept` (connections whose whole request head
/// was read at accept, never registered with epoll), `uncorked`
/// (responses sent with the listener's cork taken out first, because the
/// client may have sent bytes the proxy will not read), persistence health
/// and what the persister wrote (`journal_elided`: buffered inserts
/// whose document was evicted before the drain and so never reached the
/// disk; `journal_bytes`, `snapshot_bytes`, `snapshots`,
/// `snapshots_skipped`), and — in cluster mode — the ring epoch, member
/// set, and peer counters.
/// Origin-form (no `http://` host), so it can never collide with a
/// cacheable URL.
pub const ADMIN_STATS_TARGET: &str = "/__webcache/stats";

/// Build the admin stats response (see [`ADMIN_STATS_TARGET`]).
pub(crate) fn admin_stats_response(state: &Arc<ProxyState>) -> Response {
    let s = state.stats.snapshot();
    let hit_rate = s.hit_rate();
    let url_table_entries: usize = (0..state.cache.shard_count())
        .map(|shard| state.cache.with_shard(shard, |_, ext| ext.urls.entries()))
        .sum();
    let mut json = format!(
        "{{\"requests\":{},\"hits\":{},\"revalidated\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"bytes_from_cache\":{},\"bytes_from_origin\":{},\"cached_bytes\":{},\"retries\":{},\
         \"timeouts\":{},\"origin_failures\":{},\"breaker_trips\":{},\"breaker_fast_fails\":{},\
         \"stale_serves\":{},\"rejected\":{},\"breaker_entries\":{},\
         \"url_table_entries\":{},\"worker_jobs\":{},\"write_handbacks\":{},\
         \"inline_fetches\":{},\"inline_fallbacks\":{},\"read_at_accept\":{},\"uncorked\":{}",
        s.requests,
        s.hits,
        s.revalidated,
        s.misses,
        hit_rate,
        s.bytes_from_cache,
        s.bytes_from_origin,
        state.cache.used(),
        s.retries,
        s.timeouts,
        s.origin_failures,
        s.breaker_trips,
        s.breaker_fast_fails,
        s.stale_serves,
        s.rejected,
        state.breakers.len(),
        url_table_entries,
        state.worker_jobs(),
        state.write_handbacks(),
        state.inline_fetches(),
        state.inline_fallbacks(),
        state.read_at_accept(),
        state.uncorked(),
    );
    match state.persist_health.get() {
        Some(h) => {
            json.push_str(&format!(
                ",\"persist\":{{\"health\":\"{}\",\"journal_lost_records\":{},\
                 \"journal_dropped\":{},\"degraded_transitions\":{},\"heals\":{},\
                 \"journal_elided\":{},\"journal_bytes\":{},\"snapshot_bytes\":{},\
                 \"snapshots\":{},\"snapshots_skipped\":{}}}",
                h.health().name(),
                h.lost_records(),
                h.dropped_records(),
                h.degraded_transitions(),
                h.heals(),
                h.journal_elided(),
                h.journal_bytes(),
                h.snapshot_bytes(),
                h.snapshots(),
                h.snapshots_skipped(),
            ));
        }
        None => json.push_str(",\"persist\":null"),
    }
    match &state.cluster {
        Some(c) => {
            let members = c
                .members()
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",");
            json.push_str(&format!(
                ",\"cluster\":{{\"node_id\":{},\"epoch\":{},\"members\":[{members}],\
                 \"peer_lookups\":{},\"peer_hits\":{},\"peer_misses\":{},\"peer_failures\":{},\
                 \"peer_served\":{},\"epoch_bumps\":{}}}",
                c.node_id(),
                c.epoch(),
                c.peer_lookups(),
                c.peer_hits(),
                c.peer_misses(),
                c.peer_failures(),
                c.peer_served(),
                c.epoch_bumps(),
            ));
        }
        None => json.push_str(",\"cluster\":null"),
    }
    json.push('}');
    Response::ok(Bytes::from(json), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_proxy::new_state;
    use crate::config::ProxyConfig;
    use crate::persister::PersistHealthState;
    use webcache_core::policy::named;

    #[test]
    fn persist_block_keeps_its_keys_and_appends_the_persister_counters() {
        let state = new_state(&ProxyConfig::new(1 << 20), None, || Box::new(named::size()));
        let body = |state: &Arc<ProxyState>| {
            String::from_utf8(admin_stats_response(state).body.to_vec()).unwrap()
        };
        assert!(body(&state).contains(",\"persist\":null,\"cluster\":null}"));
        // Additive keys since: the shards' URL tables, summed, the
        // connections read at accept, and the responses sent uncorked.
        assert!(body(&state).contains(",\"breaker_entries\":0,\"url_table_entries\":0,\"worker_"));
        assert!(body(&state)
            .contains(",\"inline_fallbacks\":0,\"read_at_accept\":0,\"uncorked\":0,\"persist\":"));
        let _ = state
            .persist_health
            .set(Arc::new(PersistHealthState::default()));
        // The benchmark reads `journal_dropped` and `journal_lost_records`
        // by name; everything new comes after what was there.
        assert!(
            body(&state).contains(
                ",\"persist\":{\"health\":\"healthy\",\"journal_lost_records\":0,\
                 \"journal_dropped\":0,\"degraded_transitions\":0,\"heals\":0,\
                 \"journal_elided\":0,\"journal_bytes\":0,\"snapshot_bytes\":0,\
                 \"snapshots\":0,\"snapshots_skipped\":0},\"cluster\":null}"
            ),
            "{}",
            body(&state)
        );
    }

    #[test]
    fn hit_rate_accounts_revalidations() {
        let mut s = ProxyStats {
            requests: 4,
            hits: 1,
            revalidated: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.5);
        s.requests = 0;
        assert_eq!(s.hit_rate(), 0.0);
    }
}
