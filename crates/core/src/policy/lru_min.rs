//! The exact LRU-MIN policy (Abrams, Standridge, Abdulla, Williams & Fox,
//! *Caching proxies: limitations and potentials*, WWW4 1995).
//!
//! For an incoming document of size `S`:
//!
//! 1. If any cached documents have size ≥ `S`, remove the least recently
//!    used among them.
//! 2. Otherwise consider documents of size ≥ `S/2`; if any, remove the LRU
//!    among them. If not, repeat with `S/4`, `S/8`, … until a candidate
//!    exists.
//!
//! The paper (section 1.2) is careful to note that `⌊log₂ SIZE⌋ + ATIME`
//! is *not* identical to LRU-MIN, because LRU-MIN's thresholds are derived
//! from the **incoming** document's size. This module implements the real
//! algorithm, so the repository can compare both.
//!
//! Implementation: documents are bucketed by `⌊log₂ size⌋`, each bucket an
//! ATIME-ordered set. A victim query scans, for each threshold `S/2^k`, the
//! partially-qualifying bucket plus the minima of all fully-qualifying
//! larger buckets — `O(log(max_size))` bucket probes per step.
//!
//! This is the one ordered structure in the policy module that is not the
//! shared [`SortedList`](crate::policy::sorted): the partially qualifying
//! bucket is walked in ATIME order until a member of size ≥ `S` turns up,
//! and the sorted list's lazy queues can only say which entry is smallest,
//! not list the rest in order.

use crate::cache::DocMeta;
use crate::policy::{RemovalPolicy, ResidentMeta};
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;
use webcache_trace::{Timestamp, UrlId};

const BUCKETS: usize = 64;

/// The exact LRU-MIN removal policy.
#[derive(Debug, Default, Clone)]
pub struct LruMin {
    /// `buckets[b]` holds `(atime, url)` for docs with `⌊log₂ size⌋ == b`.
    buckets: Vec<BTreeSet<(Timestamp, UrlId)>>,
    /// Per-document `(atime, size)` so updates can locate bucket entries.
    docs: FxHashMap<UrlId, (Timestamp, u64)>,
}

impl LruMin {
    /// Create an empty LRU-MIN policy.
    pub fn new() -> LruMin {
        LruMin {
            buckets: vec![BTreeSet::new(); BUCKETS],
            docs: FxHashMap::default(),
        }
    }

    fn bucket_of(size: u64) -> usize {
        size.max(1).ilog2() as usize
    }

    /// LRU document with size ≥ `threshold`, if any.
    fn lru_at_least(&self, threshold: u64) -> Option<UrlId> {
        let start = Self::bucket_of(threshold.max(1));
        let mut best: Option<(Timestamp, UrlId)> = None;
        // Bucket `start` only partially qualifies: scan in ATIME order for
        // the first member actually ≥ threshold.
        for &(atime, url) in &self.buckets[start] {
            if let Some(&(_, size)) = self.docs.get(&url) {
                if size >= threshold {
                    best = Some((atime, url));
                    break;
                }
            }
        }
        // Larger buckets qualify entirely: their first element is their LRU.
        for bucket in &self.buckets[start + 1..] {
            if let Some(&(atime, url)) = bucket.first() {
                if best.is_none_or(|(t, _)| atime < t) {
                    best = Some((atime, url));
                }
            }
        }
        best.map(|(_, url)| url)
    }
}

impl RemovalPolicy for LruMin {
    fn name(&self) -> String {
        "LRU-MIN".to_string()
    }

    fn on_insert(&mut self, meta: &DocMeta) {
        if let Some((old_atime, old_size)) =
            self.docs.insert(meta.url, (meta.last_access, meta.size))
        {
            self.buckets[Self::bucket_of(old_size)].remove(&(old_atime, meta.url));
        }
        self.buckets[Self::bucket_of(meta.size)].insert((meta.last_access, meta.url));
    }

    fn on_access(&mut self, meta: &DocMeta) {
        self.on_insert(meta);
    }

    fn on_remove(&mut self, url: UrlId) {
        if let Some((atime, size)) = self.docs.remove(&url) {
            self.buckets[Self::bucket_of(size)].remove(&(atime, url));
        }
    }

    fn victim(
        &mut self,
        _now: Timestamp,
        incoming_size: u64,
        _docs: &dyn ResidentMeta,
    ) -> Option<UrlId> {
        if self.docs.is_empty() {
            return None;
        }
        let mut threshold = incoming_size.max(1);
        loop {
            if let Some(url) = self.lru_at_least(threshold) {
                return Some(url);
            }
            if threshold == 1 {
                // Nothing qualifies even at 1 byte — impossible while a
                // document is resident, but stay total.
                return self
                    .buckets
                    .iter()
                    .filter_map(|b| b.first())
                    .min()
                    .map(|&(_, url)| url);
            }
            threshold /= 2;
        }
    }

    fn len(&self) -> usize {
        self.docs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::WithDocs;
    use webcache_trace::DocType;

    fn meta(url: u32, size: u64, atime: u64) -> DocMeta {
        DocMeta {
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            entry_time: atime,
            last_access: atime,
            nrefs: 1,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: 0,
            last_modified: None,
        }
    }

    #[test]
    fn prefers_lru_among_docs_at_least_incoming_size() {
        let mut p = WithDocs::new(LruMin::new());
        p.on_insert(&meta(1, 100, 5)); // big, fresher
        p.on_insert(&meta(2, 100, 1)); // big, stalest
        p.on_insert(&meta(3, 10, 0)); // small but stalest overall
                                      // Incoming 80 bytes: only the 100-byte docs qualify at the first
                                      // threshold; LRU among them is url 2 — NOT the globally stale url 3.
        assert_eq!(p.victim(10, 80), Some(UrlId(2)));
    }

    #[test]
    fn halves_threshold_when_no_doc_is_large_enough() {
        let mut p = WithDocs::new(LruMin::new());
        p.on_insert(&meta(1, 30, 5));
        p.on_insert(&meta(2, 40, 1));
        // Incoming 100: nothing ≥100 or ≥50; at ≥25 both qualify, LRU is 2.
        assert_eq!(p.victim(10, 100), Some(UrlId(2)));
    }

    #[test]
    fn partially_qualifying_bucket_is_filtered_by_size() {
        let mut p = WithDocs::new(LruMin::new());
        // Both in bucket ⌊log₂⌋ = 6 (64..127), but only one is ≥ 100.
        p.on_insert(&meta(1, 70, 0)); // stalest, too small
        p.on_insert(&meta(2, 120, 5)); // qualifies
        assert_eq!(p.victim(10, 100), Some(UrlId(2)));
    }

    #[test]
    fn differs_from_log2size_lru_on_incoming_size() {
        // The paper's point: ⌊log₂ SIZE⌋+ATIME always removes from the
        // largest bucket; LRU-MIN may remove an equal-sized doc instead.
        use crate::policy::named::log2size_lru;
        let mut lm = WithDocs::new(LruMin::new());
        let mut lg = WithDocs::new(log2size_lru());
        for m in [meta(1, 4000, 0), meta(2, 1000, 1)] {
            lm.on_insert(&m);
            lg.on_insert(&m);
        }
        // Incoming 1000-byte doc: LRU-MIN finds url 1 and url 2 both ≥1000
        // and evicts the LRU (url 1 at atime 0) — same as log2 here; but
        // with url 1 freshly touched, LRU-MIN picks url 2 while the log2
        // policy still insists on the largest bucket (url 1).
        lm.on_access(&meta(1, 4000, 50));
        lg.on_access(&meta(1, 4000, 50));
        assert_eq!(lm.victim(60, 1000), Some(UrlId(2)));
        assert_eq!(lg.victim(60, 1000), Some(UrlId(1)));
    }

    #[test]
    fn empty_returns_none_and_removal_updates_state() {
        let mut p = WithDocs::new(LruMin::new());
        assert_eq!(p.victim(0, 10), None);
        p.on_insert(&meta(1, 10, 0));
        p.on_remove(UrlId(1));
        assert_eq!(p.victim(0, 10), None);
        assert!(p.is_empty());
    }

    #[test]
    fn access_reorders_within_bucket() {
        let mut p = WithDocs::new(LruMin::new());
        p.on_insert(&meta(1, 100, 0));
        p.on_insert(&meta(2, 100, 1));
        p.on_access(&meta(1, 100, 9));
        assert_eq!(p.victim(10, 100), Some(UrlId(2)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn huge_sizes_do_not_overflow_buckets() {
        let mut p = WithDocs::new(LruMin::new());
        p.on_insert(&meta(1, u64::MAX / 2, 0));
        assert_eq!(p.victim(1, u64::MAX / 2), Some(UrlId(1)));
    }
}
