//! A sharded concurrent cache runtime: N independent [`Cache`] shards,
//! each behind its own lock, keyed by a hash of the interned URL id.
//!
//! The paper's proxy model (§1) is a single cache serving a whole campus;
//! [`Cache`] reproduces it faithfully but serialises every request through
//! one lock when shared across threads. `ShardedCache` is the concurrent
//! form: URL-hash partitioning is the standard way to scale a removal
//! policy without changing its semantics (cf. Gallo et al., *Random
//! Replacement for Networks of Caches*; Hasslinger et al.'s evaluation
//! survey), because each document's lifetime is still governed by exactly
//! one policy instance. The live proxy splits its cache the same way, with
//! [`split_capacity`], but its one event-loop thread owns its shards
//! outright and takes no lock (DESIGN.md D47).
//!
//! ## Semantics and invariants (design decision D12)
//!
//! * **Shard key.** A document lives in shard
//!   `splitmix64(url.0) & (shards - 1)`. The shard count is a power of
//!   two so the mask is exact; splitmix64 decorrelates the dense
//!   interner-assigned ids so consecutive ids spread across shards.
//! * **Per-shard capacity.** The byte budget is split exactly
//!   ([`split_capacity`]): shard `i` gets `total / shards` bytes plus one
//!   extra byte when `i < total % shards`, so
//!   `sum(per-shard capacities) == total` and no budget is lost to integer
//!   division. Global byte accounting therefore satisfies
//!   `resident <= total`. A document larger than its owning shard's
//!   capacity is still `MissTooBig` even though it would fit a monolithic
//!   cache of the same total size.
//! * **Hit-rate deviation.** Because eviction pressure is per shard, hit
//!   rates deviate from a single cache of the same total capacity: a hot
//!   shard evicts while a cold shard has slack. The deviation shrinks as
//!   `capacity / shards` grows relative to the working set; the
//!   `sharded.rs` integration test pins it under a documented tolerance
//!   on a Zipf-like workload, and with one shard the behaviour is
//!   bit-identical to [`Cache`] (same code path, same capacity).
//! * **Statistics.** [`ShardedCache::stats`], [`ShardedCache::used`] and
//!   [`ShardedCache::len`] sum the shards, locking one at a time: each
//!   term is exact for the moment it was read, so the aggregate is exact
//!   whenever the cache is quiescent. The aggregated `max_used` is the
//!   *sum of per-shard high-water marks* — an upper bound on the true
//!   simultaneous peak, exact at one shard.

use crate::cache::{Cache, CacheStats, Counts, Outcome};
use crate::policy::RemovalPolicy;
use crate::util::splitmix64;
use parking_lot::Mutex;
use webcache_trace::{Request, UrlId};

/// The byte budget of each of `shards` shards sharing `total` bytes, in
/// shard order: `total / shards` each, the first `total % shards` shards
/// one byte more, so the budgets sum to `total` exactly.
///
/// # Panics
///
/// Panics when `shards` is zero or not a power of two, or when the
/// per-shard capacity `total / shards` rounds to zero.
pub fn split_capacity(total: u64, shards: usize) -> Vec<u64> {
    assert!(
        shards > 0 && shards.is_power_of_two(),
        "shard count must be a nonzero power of two, got {shards}"
    );
    let base = total / shards as u64;
    assert!(
        base > 0,
        "per-shard capacity rounds to zero ({total} bytes / {shards} shards)"
    );
    let remainder = total % shards as u64;
    (0..shards as u64)
        .map(|i| base + u64::from(i < remainder))
        .collect()
}

/// A concurrent cache of N independent [`Cache`] shards, each behind its
/// own lock (see the module docs for semantics).
pub struct ShardedCache {
    shards: Vec<Mutex<Cache>>,
    mask: u64,
    capacity: u64,
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ShardedCache {
    /// Create a sharded cache of `total_capacity` bytes split over
    /// `shards` shards ([`split_capacity`]), each with a fresh policy from
    /// `policy`.
    ///
    /// # Panics
    ///
    /// As [`split_capacity`].
    pub fn new(
        total_capacity: u64,
        shards: usize,
        mut policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> ShardedCache {
        ShardedCache {
            shards: split_capacity(total_capacity, shards)
                .into_iter()
                .map(|cap| Mutex::new(Cache::new(cap, policy())))
                .collect(),
            mask: shards as u64 - 1,
            capacity: total_capacity,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The minimum per-shard capacity, `capacity / shard_count`. Shards
    /// with index below `capacity % shard_count` hold one byte more; use
    /// [`ShardedCache::shard_capacity`] for a specific shard's exact
    /// budget. `sum(shard_capacity(i)) == capacity` always holds (see the
    /// module docs).
    pub fn per_shard_capacity(&self) -> u64 {
        self.capacity / self.shards.len() as u64
    }

    /// The exact byte capacity of shard `idx` (see [`split_capacity`]).
    pub fn shard_capacity(&self, idx: usize) -> u64 {
        self.shards[idx].lock().capacity()
    }

    /// The shard owning `url`: `splitmix64(id) & (shards - 1)`.
    #[inline]
    pub fn shard_index(&self, url: UrlId) -> usize {
        (splitmix64(url.0 as u64) & self.mask) as usize
    }

    /// Run `f` under the lock of the shard owning `url`, with mutable
    /// access to that shard's cache and the shard's index.
    #[inline]
    pub fn with_shard_for<R>(&self, url: UrlId, f: impl FnOnce(&mut Cache, usize) -> R) -> R {
        let idx = self.shard_index(url);
        f(&mut self.shards[idx].lock(), idx)
    }

    /// Non-blocking variant of [`ShardedCache::with_shard_for`]: run `f`
    /// under the owning shard's lock only if it can be acquired without
    /// waiting. Returns `None` when the shard is currently held by
    /// another thread, so a caller that must never block can fall back to
    /// its slow path.
    #[inline]
    pub fn try_with_shard_for<R>(
        &self,
        url: UrlId,
        f: impl FnOnce(&mut Cache, usize) -> R,
    ) -> Option<R> {
        let idx = self.shard_index(url);
        let mut cache = self.shards[idx].try_lock()?;
        Some(f(&mut cache, idx))
    }

    /// Is this document resident? Locks only the owning shard.
    pub fn contains(&self, url: UrlId) -> bool {
        self.with_shard_for(url, |cache, _| cache.contains(url))
    }

    /// Aggregate statistics in the existing [`CacheStats`] shape, summed
    /// over the shards one lock at a time. `max_used` is the sum of
    /// per-shard high-water marks (an upper bound on the simultaneous
    /// peak; exact at one shard).
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.shards {
            let st = *shard.lock().stats();
            out.counts.requests += st.counts.requests;
            out.counts.hits += st.counts.hits;
            out.counts.bytes_requested += st.counts.bytes_requested;
            out.counts.bytes_hit += st.counts.bytes_hit;
            out.evictions += st.evictions;
            out.evicted_bytes += st.evicted_bytes;
            out.periodic_evictions += st.periodic_evictions;
            out.modified_invalidations += st.modified_invalidations;
            out.too_big += st.too_big;
            out.max_used += st.max_used;
        }
        out
    }

    /// Aggregate request counters (HR/WHR inputs).
    pub fn counts(&self) -> Counts {
        self.stats().counts
    }

    /// Bytes currently resident across all shards.
    pub fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used()).sum()
    }

    /// Documents currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no shard holds any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard invariant check plus the global capacity bound (tests).
    pub fn check_invariants(&self) {
        let mut total_used = 0;
        for shard in &self.shards {
            let cache = shard.lock();
            cache.check_invariants();
            total_used += cache.used();
        }
        assert!(
            total_used <= self.capacity,
            "sharded cache exceeds total capacity: {total_used} > {}",
            self.capacity
        );
    }

    /// Handle one request in the shard owning its URL, with the exact
    /// [`Cache::request`] semantics at per-shard capacity.
    #[inline]
    pub fn request(&self, r: &Request) -> Outcome {
        self.with_shard_for(r.url, |cache, _| cache.request(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use std::sync::Arc;
    use webcache_trace::{ClientId, DocType, ServerId, Timestamp};

    fn req(time: Timestamp, url: u32, size: u64) -> Request {
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

    /// Deterministic churn mix exercising hits, invalidations, evictions.
    fn churn_req(i: u64) -> Request {
        let url = (i * 2654435761 % 97) as u32;
        let size = 10 + (i * 40503 % 7) * ((url as u64 % 5) + 1) * 10;
        req(i * 700, url, size)
    }

    #[test]
    fn shard_index_is_masked_and_stable() {
        let c: ShardedCache = ShardedCache::new(1 << 20, 8, || Box::new(named::lru()));
        for id in 0..1000 {
            let idx = c.shard_index(UrlId(id));
            assert!(idx < 8);
            assert_eq!(idx, c.shard_index(UrlId(id)), "shard key must be stable");
        }
        // The mix must actually spread dense ids over shards.
        let hit: std::collections::HashSet<usize> =
            (0..1000).map(|id| c.shard_index(UrlId(id))).collect();
        assert_eq!(hit.len(), 8, "dense ids failed to reach every shard");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_are_rejected() {
        let _: ShardedCache = ShardedCache::new(1 << 20, 3, || Box::new(named::lru()));
    }

    #[test]
    fn one_shard_is_bit_identical_to_cache() {
        let mut single = Cache::new(2000, Box::new(named::lru()));
        let sharded: ShardedCache = ShardedCache::new(2000, 1, || Box::new(named::lru()));
        for i in 0..3000 {
            let r = churn_req(i);
            let a = single.request(&r);
            let b = sharded.request(&r);
            assert_eq!(a, b, "outcome diverged at request {i}");
        }
        assert_eq!(*single.stats(), sharded.stats(), "stats diverged");
        assert_eq!(single.used(), sharded.used());
        assert_eq!(single.len(), sharded.len());
        sharded.check_invariants();
    }

    #[test]
    fn sharded_accounting_sums_the_shards() {
        let sharded: ShardedCache = ShardedCache::new(4000, 4, || Box::new(named::lru()));
        assert_eq!(sharded.per_shard_capacity(), 1000);
        let summed_cap: u64 = (0..4).map(|i| sharded.shard_capacity(i)).sum();
        assert_eq!(summed_cap, sharded.capacity());
        for i in 0..5000 {
            sharded.request(&churn_req(i));
        }
        sharded.check_invariants();
        let agg = sharded.stats();
        assert_eq!(agg.counts.requests, 5000);
        assert!(!sharded.is_empty() && sharded.used() <= sharded.capacity());
    }

    #[test]
    fn non_divisible_capacity_is_split_exactly() {
        // 4003 / 4 = 1000 remainder 3: the first three shards take the
        // extra bytes; nothing is dropped.
        assert_eq!(split_capacity(4003, 4), vec![1001, 1001, 1001, 1000]);
        let sharded: ShardedCache = ShardedCache::new(4003, 4, || Box::new(named::lru()));
        assert_eq!(sharded.per_shard_capacity(), 1000);
        // The constructed shards really carry those capacities.
        let caps: Vec<u64> = (0..4).map(|i| sharded.shard_capacity(i)).collect();
        assert_eq!(caps, vec![1001, 1001, 1001, 1000]);
        assert_eq!(caps.iter().sum::<u64>(), sharded.capacity());
        sharded.check_invariants();
    }

    #[test]
    #[should_panic(expected = "rounds to zero")]
    fn a_budget_smaller_than_the_shard_count_is_rejected() {
        split_capacity(3, 4);
    }

    #[test]
    fn try_with_shard_for_runs_when_free_and_declines_when_held() {
        let sharded: Arc<ShardedCache> =
            Arc::new(ShardedCache::new(1 << 20, 2, || Box::new(named::lru())));
        // Free shard: runs, same effects as the blocking form.
        let out = sharded.try_with_shard_for(UrlId(7), |cache, _| {
            cache.request(&req(1, 7, 100));
            cache.used()
        });
        assert_eq!(out, Some(100));
        assert_eq!(sharded.used(), 100);

        // Held shard: declines without blocking; the other shard still
        // serves.
        let idx = sharded.shard_index(UrlId(7));
        let other = (0..100)
            .map(UrlId)
            .find(|&id| sharded.shard_index(id) != idx)
            .expect("two shards both in use");
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let c = Arc::clone(&sharded);
            std::thread::spawn(move || {
                c.with_shard_for(UrlId(7), |_, _| {
                    tx.send(()).unwrap();
                    done_rx.recv().unwrap();
                });
            })
        };
        rx.recv().unwrap();
        assert!(
            sharded.try_with_shard_for(UrlId(7), |_, _| ()).is_none(),
            "held shard must decline"
        );
        assert_eq!(
            sharded.try_with_shard_for(other, |_, shard| shard),
            Some(idx ^ 1),
            "the other shard is independent"
        );
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        // Released: the try path runs again.
        assert!(sharded.try_with_shard_for(UrlId(7), |_, _| ()).is_some());
    }

    #[test]
    fn concurrent_requests_keep_invariants_and_count_everything() {
        let sharded: Arc<ShardedCache> =
            Arc::new(ShardedCache::new(8000, 8, || Box::new(named::lru())));
        let threads = 4;
        let per_thread = 2000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = Arc::clone(&sharded);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        c.request(&churn_req(t * per_thread + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        sharded.check_invariants();
        let agg = sharded.stats();
        assert_eq!(agg.counts.requests, threads * per_thread);
        assert!(agg.counts.hits <= agg.counts.requests);
        assert!(sharded.used() <= sharded.capacity());
    }
}
