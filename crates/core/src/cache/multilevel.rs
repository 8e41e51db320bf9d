//! Two-level cache hierarchies (Experiment 3, section 4.6), including the
//! shared-L2 extension of section 5, open problem 3: one type, with one
//! first level or several.
//!
//! Semantics follow the paper exactly: "When a document request is a miss
//! in the primary cache, the request is sent to the second level cache. If
//! the second level cache has the document, it returns a copy of the
//! document to the primary cache; otherwise the second level cache misses
//! and the document is placed in both the second level and primary cache.
//! … when a primary cache removes a document, the document will always be
//! in the second level cache."

use crate::cache::{Cache, Counts, DocMeta};
use webcache_trace::Request;

/// First-level caches backed by one (typically much larger or infinite)
/// second-level cache. Most hierarchies have one first level; several
/// share the second level the way section 5's open problem 3 asks, each
/// request routed to first level `client % n`.
#[derive(Debug)]
pub struct TwoLevelCache {
    l1s: Vec<Cache>,
    l2: Cache,
    /// L2 counters measured over *all client requests*, the way Figs 16-18
    /// report them (an L2 hit is an L1 miss satisfied by L2).
    l2_over_all: Counts,
    /// The first level's evictions for the request in hand, pushed down
    /// once L2 has been consulted: one buffer for every request.
    evicted: Vec<DocMeta>,
}

/// What happened to one request in a two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOutcome {
    /// Served by the first-level cache.
    L1Hit,
    /// Missed L1, served by the second-level cache.
    L2Hit,
    /// Missed both levels; fetched from the origin.
    BothMiss,
}

impl TwoLevelCache {
    /// Build a hierarchy from two caches. For Experiment 3, `l2` is
    /// [`Cache::infinite`] "to derive the maximum possible second level
    /// hit rate".
    pub fn new(l1: Cache, l2: Cache) -> TwoLevelCache {
        TwoLevelCache::shared(vec![l1], l2)
    }

    /// Several first-level caches sharing `l2` — the multi-proxy
    /// configuration of section 5, open problem 3. A request goes to the
    /// first level its client id selects, modulo their number.
    pub fn shared(l1s: Vec<Cache>, l2: Cache) -> TwoLevelCache {
        assert!(!l1s.is_empty(), "need at least one first-level cache");
        TwoLevelCache {
            l1s,
            l2,
            l2_over_all: Counts::default(),
            evicted: Vec::new(),
        }
    }

    /// Size every level for URL ids below `urls`
    /// ([`Cache::reserve_urls`]).
    pub fn reserve_urls(&mut self, urls: usize) {
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            cache.reserve_urls(urls);
        }
    }

    /// Handle one request.
    pub fn request(&mut self, r: &Request) -> LevelOutcome {
        self.l2_over_all.requests += 1;
        self.l2_over_all.bytes_requested += r.size;

        // L1 sees every request of its clients; push its evictions down to
        // L2 so the paper's inclusion property holds even when L2 is
        // finite.
        let group = r.client.0 as usize % self.l1s.len();
        if self.l1s[group].request_evicting(r, &mut self.evicted) {
            return LevelOutcome::L1Hit;
        }
        let out = self.consult_l2(r);
        self.push_down(r);
        out
    }

    /// An L1 miss consults L2; L2's own counters are updated by its
    /// `request_hit` call, and the over-all-requests counters here.
    fn consult_l2(&mut self, r: &Request) -> LevelOutcome {
        if self.l2.request_hit(r) {
            self.l2_over_all.hits += 1;
            self.l2_over_all.bytes_hit += r.size;
            LevelOutcome::L2Hit
        } else {
            LevelOutcome::BothMiss
        }
    }

    /// Documents evicted from L1 migrate to L2 ("a primary cache sending
    /// replaced documents to a larger second level cache"). With an
    /// infinite L2 (the paper's Experiment 3) this is a no-op — everything
    /// fetched was already "placed in both" — but with a finite L2 it
    /// re-enters documents L2 may have dropped.
    fn push_down(&mut self, r: &Request) {
        for meta in self.evicted.drain(..) {
            if meta.url == r.url || self.l2.contains(meta.url) {
                continue;
            }
            self.l2.insert_meta(meta, ());
        }
    }

    /// The first (or only) first-level cache.
    pub fn l1(&self) -> &Cache {
        &self.l1s[0]
    }

    /// Every first-level cache, in routing order.
    pub fn l1s(&self) -> &[Cache] {
        &self.l1s
    }

    /// Second-level cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// L2 counters measured against all client requests (Figs 16-18).
    pub fn l2_counts_over_all_requests(&self) -> Counts {
        self.l2_over_all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use webcache_trace::{ClientId, DocType, Request, ServerId, UrlId};

    fn req(time: u64, client: u32, url: u32, size: u64) -> Request {
        Request {
            time,
            client: ClientId(client),
            server: ServerId(0),
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            last_modified: None,
        }
    }

    fn two_level(l1_cap: u64) -> TwoLevelCache {
        TwoLevelCache::new(
            Cache::new(l1_cap, Box::new(named::size())),
            Cache::infinite(Box::new(named::lru())),
        )
    }

    #[test]
    fn l2_catches_documents_evicted_from_l1() {
        let mut h = two_level(100);
        assert_eq!(h.request(&req(0, 0, 1, 80)), LevelOutcome::BothMiss);
        // 90-byte doc evicts the 80-byte one from L1; both are in L2.
        assert_eq!(h.request(&req(1, 0, 2, 90)), LevelOutcome::BothMiss);
        assert!(!h.l1().contains(UrlId(1)));
        assert!(h.l2().contains(UrlId(1)));
        // Re-request of the evicted doc: L2 hit, copied back into L1.
        assert_eq!(h.request(&req(2, 0, 1, 80)), LevelOutcome::L2Hit);
        assert!(h.l1().contains(UrlId(1)));
    }

    #[test]
    fn l1_hit_does_not_touch_l2_counters() {
        let mut h = two_level(1000);
        h.request(&req(0, 0, 1, 10));
        h.request(&req(1, 0, 1, 10));
        let l2 = h.l2_counts_over_all_requests();
        assert_eq!(l2.requests, 2);
        assert_eq!(l2.hits, 0);
        assert_eq!(h.l1().counts().hits, 1);
    }

    #[test]
    fn inclusion_property_holds_with_infinite_l2() {
        let mut h = two_level(50);
        for i in 0..40 {
            h.request(&req(i, 0, i as u32, 10 + (i % 7)));
        }
        for m in h.l1().iter() {
            assert!(
                h.l2().contains(m.url),
                "L1 doc {:?} missing from infinite L2",
                m.url
            );
        }
    }

    #[test]
    fn l2_whr_exceeds_l2_hr_with_size_policy_in_l1() {
        // The paper's key observation: with SIZE in L1, large documents
        // get displaced to L2, so L2 hits are byte-heavy.
        let mut h = two_level(1_000);
        // Small hot docs + large docs cycling through.
        let mut t = 0;
        for round in 0..30u64 {
            for s in 0..5u32 {
                h.request(&req(t, 0, s, 50));
                t += 1;
            }
            for big in 0..3u32 {
                h.request(&req(t, 0, 100 + big, 900));
                t += 1;
            }
            let _ = round;
        }
        let l2 = h.l2_counts_over_all_requests();
        assert!(
            l2.weighted_hit_rate() > l2.hit_rate(),
            "expected L2 WHR {} > L2 HR {}",
            l2.weighted_hit_rate(),
            l2.hit_rate()
        );
    }

    #[test]
    fn shared_l2_serves_cross_group_reuse() {
        let l1s = vec![
            Cache::new(100, Box::new(named::size())),
            Cache::new(100, Box::new(named::size())),
        ];
        let mut s = TwoLevelCache::shared(l1s, Cache::infinite(Box::new(named::lru())));
        assert_eq!(s.l1s().len(), 2);
        // Client 0 (group 0) fetches a doc; client 1 (group 1) then finds
        // it in the shared L2 even though its own L1 missed.
        assert_eq!(s.request(&req(0, 0, 7, 40)), LevelOutcome::BothMiss);
        assert_eq!(s.request(&req(1, 1, 7, 40)), LevelOutcome::L2Hit);
        assert_eq!(s.l2_counts_over_all_requests().hits, 1);
    }

    #[test]
    fn modified_document_invalidates_through_hierarchy() {
        let mut h = two_level(1000);
        h.request(&req(0, 0, 1, 10));
        // Size change: both levels must miss and refresh.
        assert_eq!(h.request(&req(1, 0, 1, 20)), LevelOutcome::BothMiss);
        assert_eq!(h.l1().meta(UrlId(1)).unwrap().size, 20);
        assert_eq!(h.l2().meta(UrlId(1)).unwrap().size, 20);
    }
}
