//! Appendix A instrumentation: the paper's PERL simulator's full output
//! set — "cache hit rate and weighted hit rate at specified intervals,
//! location in sorted list of each URL hit, current cache size, number of
//! accesses and times of access for each URL".
//!
//! Wraps a [`Cache`] as a [`CacheSystem`], recording the last four while
//! delegating all semantics to the wrapped cache. The first, HR and WHR
//! at intervals, is every lane's daily [`StreamResult`](crate::sim::StreamResult)s.

use crate::cache::{Cache, Counts};
use crate::sim::CacheSystem;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use webcache_trace::{Request, Timestamp, UrlId};

/// Per-URL access record ("number of accesses and times of access for
/// each URL").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UrlAccess {
    /// Total references.
    pub nrefs: u64,
    /// Time of the first reference.
    pub first_access: Timestamp,
    /// Time of the last reference.
    pub last_access: Timestamp,
    /// References served from the cache.
    pub hits: u64,
}

/// Everything the instrumented run collected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrumentReport {
    /// Hit-position histogram: bucket `i` counts hits whose document sat
    /// at a removal-order position in `[2^i - 1, 2^(i+1) - 1)` — i.e.
    /// bucket 0 is "the very next victim". Only populated for policies
    /// that expose an order.
    pub hit_position_log2: Vec<u64>,
    /// Hits whose position the policy could not report.
    pub hit_position_unknown: u64,
    /// `(time, resident_bytes)` samples ("current cache size").
    pub size_samples: Vec<(Timestamp, u64)>,
    /// Per-URL access records.
    pub url_access: HashMap<UrlId, UrlAccess>,
}

impl InstrumentReport {
    /// Fraction of all hits, those at an unknown position included, that
    /// fall in a histogram bucket whose last position is at most `k` —
    /// how close to eviction the useful documents were. Only whole
    /// buckets count: bucket `i` ends at position `2^(i+1) - 2`, so
    /// `k = 0` gives the hits at position 0 alone, and `k = 15` those at
    /// positions 0 to 14 (the bucket of 15 ends at 30).
    pub fn hits_within_position(&self, k: usize) -> f64 {
        let total: u64 = self.hit_position_log2.iter().sum::<u64>() + self.hit_position_unknown;
        if total == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for (i, &c) in self.hit_position_log2.iter().enumerate() {
            // Bucket i covers positions up to 2^(i+1) - 2.
            if (1u64 << (i + 1)) - 2 <= k as u64 {
                acc += c;
            }
        }
        acc as f64 / total as f64
    }

    /// URLs referenced at least `n` times.
    pub fn urls_with_at_least(&self, n: u64) -> usize {
        self.url_access.values().filter(|a| a.nrefs >= n).count()
    }
}

/// A cache wrapped with Appendix A instrumentation.
pub struct InstrumentedCache {
    cache: Cache,
    report: InstrumentReport,
    /// Take a size sample every this many requests.
    sample_every: u64,
    seen: u64,
}

impl InstrumentedCache {
    /// Wrap `cache`, sampling its size every `sample_every` requests.
    /// Position tracking is switched on so the per-request removal-order
    /// lookup below is sublinear rather than a full scan.
    pub fn new(mut cache: Cache, sample_every: u64) -> InstrumentedCache {
        cache.enable_position_tracking();
        InstrumentedCache {
            cache,
            report: InstrumentReport {
                hit_position_log2: vec![0; 40],
                hit_position_unknown: 0,
                size_samples: Vec::new(),
                url_access: HashMap::new(),
            },
            sample_every: sample_every.max(1),
            seen: 0,
        }
    }

    /// The collected report.
    pub fn report(&self) -> &InstrumentReport {
        &self.report
    }

    /// Consume the wrapper, returning the report.
    pub fn into_report(self) -> InstrumentReport {
        self.report
    }
}

impl CacheSystem for InstrumentedCache {
    /// Handle a request, recording instrumentation. What is evicted is
    /// dropped as it goes, as on the simulator's other lanes
    /// ([`Cache::request_hit`]).
    fn handle(&mut self, r: &Request) {
        // Position must be read *before* the access reorders the policy.
        let position = self.cache.removal_position(r.url);
        let hit = self.cache.request_hit(r);
        let acc = self.report.url_access.entry(r.url).or_insert(UrlAccess {
            nrefs: 0,
            first_access: r.time,
            last_access: r.time,
            hits: 0,
        });
        acc.nrefs += 1;
        acc.last_access = r.time;
        if hit {
            acc.hits += 1;
            match position {
                Some(p) => {
                    let bucket = (p as u64 + 1).ilog2() as usize;
                    self.report.hit_position_log2[bucket.min(39)] += 1;
                }
                None => self.report.hit_position_unknown += 1,
            }
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.sample_every) {
            self.report.size_samples.push((r.time, self.cache.used()));
        }
    }

    /// The cache's tables, and the per-URL access records: a total, as
    /// for [`Cache::reserve_urls`].
    fn reserve_urls(&mut self, urls: usize) {
        self.cache.reserve_urls(urls);
        let access = &mut self.report.url_access;
        access.reserve(urls.saturating_sub(access.len()));
    }

    fn stream_names(&self) -> Vec<String> {
        self.cache.stream_names()
    }

    fn snapshot(&self, out: &mut [Counts]) {
        self.cache.snapshot(out);
    }

    fn gauges(&self) -> Vec<(String, u64)> {
        self.cache.gauges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use webcache_trace::{ClientId, DocType, ServerId};

    fn req(time: u64, url: u32, size: u64) -> Request {
        Request {
            time,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            last_modified: None,
        }
    }

    #[test]
    fn per_url_access_records_are_complete() {
        let mut ic = InstrumentedCache::new(Cache::new(1_000, Box::new(named::lru())), 2);
        ic.handle(&req(1, 1, 100));
        ic.handle(&req(5, 1, 100));
        ic.handle(&req(9, 2, 100));
        let rep = ic.report();
        let a = rep.url_access[&UrlId(1)];
        assert_eq!(a.nrefs, 2);
        assert_eq!(a.first_access, 1);
        assert_eq!(a.last_access, 5);
        assert_eq!(a.hits, 1);
        assert_eq!(rep.url_access[&UrlId(2)].hits, 0);
        assert_eq!(rep.urls_with_at_least(2), 1);
    }

    #[test]
    fn hit_positions_track_removal_order() {
        // LRU cache with 3 docs: re-touching the least recently used one
        // is a hit at position 0 (it was the next victim).
        let mut ic = InstrumentedCache::new(Cache::new(10_000, Box::new(named::lru())), 100);
        ic.handle(&req(1, 1, 100));
        ic.handle(&req(2, 2, 100));
        ic.handle(&req(3, 3, 100));
        ic.handle(&req(4, 1, 100)); // url 1 was position 0
        let rep = ic.report();
        assert_eq!(rep.hit_position_log2[0], 1);
        assert_eq!(rep.hit_position_unknown, 0);
        // Touch the most recently used (position 2 → bucket log2(3)=1).
        ic.handle(&req(5, 1, 100));
        assert_eq!(ic.report().hit_position_log2[1], 1);
        assert!(ic.report().hits_within_position(0) > 0.0);
    }

    #[test]
    fn unknown_positions_for_non_sorted_policies() {
        use crate::policy::LruMin;
        let mut ic = InstrumentedCache::new(Cache::new(10_000, Box::new(LruMin::new())), 100);
        ic.handle(&req(1, 1, 100));
        ic.handle(&req(2, 1, 100));
        assert_eq!(ic.report().hit_position_unknown, 1);
    }

    #[test]
    fn samples_accumulate_at_interval() {
        let mut ic = InstrumentedCache::new(Cache::new(10_000, Box::new(named::size())), 3);
        for i in 0..10 {
            ic.handle(&req(i, i as u32, 50));
        }
        let rep = ic.into_report();
        assert_eq!(rep.size_samples.len(), 3);
        // Sizes are monotone here (no evictions).
        assert!(rep.size_samples.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn works_as_a_cache_system() {
        use crate::sim::simulate;
        use webcache_trace::{RawRequest, Trace};
        let raws: Vec<RawRequest> = (0..50)
            .map(|i| RawRequest {
                time: i,
                client: "c".into(),
                url: format!("http://s/{}.html", i % 7),
                status: 200,
                size: 500,
                last_modified: None,
            })
            .collect();
        let trace = Trace::from_raw("t", &raws);
        let mut ic = InstrumentedCache::new(Cache::new(10_000, Box::new(named::lru())), 10);
        let res = simulate(&trace, &mut ic, "instrumented LRU");
        assert_eq!(res.stream("cache").unwrap().total.requests, 50);
        assert!(ic.report().url_access.len() == 7);
    }
}
