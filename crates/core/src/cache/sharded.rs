//! A sharded concurrent cache runtime: N independent [`Cache`] shards,
//! each behind its own lock, keyed by a hash of the interned URL id.
//!
//! The paper's proxy model (§1) is a single cache serving a whole campus;
//! [`Cache`] reproduces it faithfully but serialises every request through
//! one lock when shared across threads. `ShardedCache` is the deployable
//! form: URL-hash partitioning is the standard way to scale a removal
//! policy without changing its semantics (cf. Gallo et al., *Random
//! Replacement for Networks of Caches*; Hasslinger et al.'s evaluation
//! survey), because each document's lifetime is still governed by exactly
//! one policy instance.
//!
//! ## Semantics and invariants (design decision D12)
//!
//! * **Shard key.** A document lives in shard
//!   `splitmix64(url.0) & (shards - 1)`. The shard count is a power of
//!   two so the mask is exact; splitmix64 decorrelates the dense
//!   interner-assigned ids so consecutive ids spread across shards.
//! * **Per-shard capacity.** The byte budget is split exactly: shard `i`
//!   gets `total / shards` bytes plus one extra byte when
//!   `i < total % shards`, so `sum(per-shard capacities) == total` and no
//!   budget is lost to integer division. Global byte accounting therefore
//!   satisfies `resident <= total`. A document larger than its owning
//!   shard's capacity is still `MissTooBig` even though it would fit a
//!   monolithic cache of the same total size.
//! * **Hit-rate deviation.** Because eviction pressure is per shard, hit
//!   rates deviate from a single cache of the same total capacity: a hot
//!   shard evicts while a cold shard has slack. The deviation shrinks as
//!   `capacity / shards` grows relative to the working set; the
//!   `sharded.rs` integration test pins it under a documented tolerance
//!   on a Zipf-like workload, and with one shard the behaviour is
//!   bit-identical to [`Cache`] (same code path, same capacity).
//! * **Statistics.** Every mutation happens under the owning shard's
//!   lock, and before the lock is released the shard's counters are
//!   mirrored into a lock-free [`ShardStats`] block of atomics.
//!   [`ShardedCache::stats`] sums the mirrors without taking any lock:
//!   each field is exact for the moment its shard last changed, so the
//!   aggregate is eventually consistent across shards (and exact whenever
//!   the cache is quiescent). The aggregated `max_used` is the *sum of
//!   per-shard high-water marks* — an upper bound on the true
//!   simultaneous peak, exact at one shard.
//! * **Snapshots.** [`ShardedCache::snapshot`] exports per-shard
//!   [`CacheState`]s locking one shard at a time — there is no
//!   stop-the-world moment, so concurrent writers see at most one shard
//!   blocked.

use crate::cache::{Cache, CacheState, CacheStats, Counts, Outcome};
use crate::policy::RemovalPolicy;
use crate::util::splitmix64;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use webcache_trace::{Request, UrlId};

/// Lock-free mirror of one shard's counters, updated under the shard lock
/// after every mutation and read without any lock. Cache-line aligned so
/// two shards' hot counters never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ShardStats {
    requests: AtomicU64,
    hits: AtomicU64,
    bytes_requested: AtomicU64,
    bytes_hit: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    periodic_evictions: AtomicU64,
    modified_invalidations: AtomicU64,
    too_big: AtomicU64,
    max_used: AtomicU64,
    used: AtomicU64,
    docs: AtomicU64,
}

impl ShardStats {
    /// Mirror the shard cache's counters (called with the shard lock
    /// held, so stores never race with each other).
    fn mirror<P>(&self, cache: &Cache<P>) {
        let s = cache.stats();
        self.requests.store(s.counts.requests, Ordering::Relaxed);
        self.hits.store(s.counts.hits, Ordering::Relaxed);
        self.bytes_requested
            .store(s.counts.bytes_requested, Ordering::Relaxed);
        self.bytes_hit.store(s.counts.bytes_hit, Ordering::Relaxed);
        self.evictions.store(s.evictions, Ordering::Relaxed);
        self.evicted_bytes.store(s.evicted_bytes, Ordering::Relaxed);
        self.periodic_evictions
            .store(s.periodic_evictions, Ordering::Relaxed);
        self.modified_invalidations
            .store(s.modified_invalidations, Ordering::Relaxed);
        self.too_big.store(s.too_big, Ordering::Relaxed);
        self.max_used.store(s.max_used, Ordering::Relaxed);
        self.used.store(cache.used(), Ordering::Relaxed);
        self.docs.store(cache.len() as u64, Ordering::Relaxed);
    }

    /// This shard's counters in the existing stats shape.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            counts: Counts {
                requests: self.requests.load(Ordering::Relaxed),
                hits: self.hits.load(Ordering::Relaxed),
                bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
                bytes_hit: self.bytes_hit.load(Ordering::Relaxed),
            },
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            periodic_evictions: self.periodic_evictions.load(Ordering::Relaxed),
            modified_invalidations: self.modified_invalidations.load(Ordering::Relaxed),
            too_big: self.too_big.load(Ordering::Relaxed),
            max_used: self.max_used.load(Ordering::Relaxed),
        }
    }

    /// Bytes resident in this shard.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Documents resident in this shard.
    pub fn docs(&self) -> u64 {
        self.docs.load(Ordering::Relaxed)
    }
}

/// One shard: its cache plus a caller-supplied extension slot (`X`) that
/// lives under the same lock. Per-document state rides in the cache's own
/// entries (`P`); the slot is for per-shard state — the proxy keeps its
/// journal buffer there so one lock acquisition covers a cache mutation
/// and its journal record. Simulation callers use `P = ()`, `X = ()`.
struct Shard<P, X> {
    cache: Cache<P>,
    ext: X,
}

/// A concurrent cache of N independent [`Cache`] shards (see the module
/// docs for semantics). `P` is the per-document payload of every shard's
/// cache; `X` is per-shard extension state guarded by the shard's own
/// lock.
pub struct ShardedCache<P = (), X = ()> {
    shards: Vec<Mutex<Shard<P, X>>>,
    stats: Vec<ShardStats>,
    mask: u64,
    capacity: u64,
}

impl<P, X> std::fmt::Debug for ShardedCache<P, X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<P, X: Default> ShardedCache<P, X> {
    /// Create a sharded cache of `total_capacity` bytes split over
    /// `shards` shards (must be a nonzero power of two), each with a
    /// fresh policy from `policy`.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or not a power of two, or when the
    /// per-shard capacity `total_capacity / shards` rounds to zero.
    pub fn new(
        total_capacity: u64,
        shards: usize,
        mut policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> ShardedCache<P, X> {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a nonzero power of two, got {shards}"
        );
        let base = total_capacity / shards as u64;
        assert!(
            base > 0,
            "per-shard capacity rounds to zero ({total_capacity} bytes / {shards} shards)"
        );
        let remainder = total_capacity % shards as u64;
        ShardedCache {
            shards: (0..shards)
                .map(|i| {
                    // The first `total % shards` shards absorb one extra
                    // byte each so the budget is split exactly.
                    let cap = base + u64::from((i as u64) < remainder);
                    Mutex::new(Shard {
                        cache: Cache::with_payload(cap, policy()),
                        ext: X::default(),
                    })
                })
                .collect(),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            mask: shards as u64 - 1,
            capacity: total_capacity,
        }
    }
}

impl<P, X> ShardedCache<P, X> {
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

    /// The exact byte capacity of shard `idx`: `capacity / shard_count`,
    /// plus one when `idx < capacity % shard_count` (the remainder is
    /// spread over the leading shards so no budget is lost).
    pub fn shard_capacity(&self, idx: usize) -> u64 {
        let shards = self.shards.len() as u64;
        self.capacity / shards + u64::from((idx as u64) < self.capacity % shards)
    }

    /// The shard owning `url`: `splitmix64(id) & (shards - 1)`.
    #[inline]
    pub fn shard_index(&self, url: UrlId) -> usize {
        (splitmix64(url.0 as u64) & self.mask) as usize
    }

    /// Run `f` under the lock of the shard owning `url`, with mutable
    /// access to that shard's cache and extension state. The shard's
    /// [`ShardStats`] mirror is refreshed before the lock is released, so
    /// any mutation `f` performs is visible to lock-free readers.
    ///
    /// Hit-path protocol (DESIGN.md D14): callers serving a cached
    /// document do the meta peek, the body handout (a refcount `Bytes`
    /// clone — never a copy), *and* the policy touch inside one closure
    /// invocation, so a hit enters the shard lock exactly once and the
    /// body leaves the shard without re-entering it.
    #[inline]
    pub fn with_shard_for<R>(&self, url: UrlId, f: impl FnOnce(&mut Cache<P>, &mut X) -> R) -> R {
        self.with_shard(self.shard_index(url), f)
    }

    /// Run `f` under the lock of shard `idx` (see
    /// [`ShardedCache::with_shard_for`]).
    pub fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&mut Cache<P>, &mut X) -> R) -> R {
        let mut guard = self.shards[idx].lock();
        let shard = &mut *guard;
        let out = f(&mut shard.cache, &mut shard.ext);
        self.stats[idx].mirror(&shard.cache);
        out
    }

    /// Non-blocking variant of [`ShardedCache::with_shard_for`]: run `f`
    /// under the owning shard's lock only if it can be acquired without
    /// waiting. Returns `None` when the shard is currently held by
    /// another thread — the caller (e.g. the reactor's event loop, which
    /// must never block) falls back to its slow path. Identical
    /// semantics to the blocking form when it does run: the stats mirror
    /// is refreshed before the lock is released. The single-visit
    /// hit-path protocol of [`ShardedCache::with_shard_for`] applies
    /// here too.
    #[inline]
    pub fn try_with_shard_for<R>(
        &self,
        url: UrlId,
        f: impl FnOnce(&mut Cache<P>, &mut X) -> R,
    ) -> Option<R> {
        self.try_with_shard(self.shard_index(url), f)
    }

    /// Non-blocking variant of [`ShardedCache::with_shard`] (see
    /// [`ShardedCache::try_with_shard_for`]).
    pub fn try_with_shard<R>(
        &self,
        idx: usize,
        f: impl FnOnce(&mut Cache<P>, &mut X) -> R,
    ) -> Option<R> {
        let mut guard = self.shards[idx].try_lock()?;
        let shard = &mut *guard;
        let out = f(&mut shard.cache, &mut shard.ext);
        self.stats[idx].mirror(&shard.cache);
        Some(out)
    }

    /// Is this document resident? Locks only the owning shard.
    pub fn contains(&self, url: UrlId) -> bool {
        self.with_shard_for(url, |cache, _| cache.contains(url))
    }

    /// The lock-free per-shard counter mirror for shard `idx`.
    pub fn shard_stats(&self, idx: usize) -> &ShardStats {
        &self.stats[idx]
    }

    /// Aggregate statistics in the existing [`CacheStats`] shape, summed
    /// over the per-shard atomic mirrors without taking any lock.
    /// `max_used` is the sum of per-shard high-water marks (an upper
    /// bound on the simultaneous peak; exact at one shard).
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.stats {
            let st = s.stats();
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

    /// Aggregate request counters (HR/WHR inputs), lock-free.
    pub fn counts(&self) -> Counts {
        self.stats().counts
    }

    /// Bytes currently resident across all shards, lock-free.
    pub fn used(&self) -> u64 {
        self.stats.iter().map(|s| s.used()).sum()
    }

    /// Documents currently resident across all shards, lock-free.
    pub fn len(&self) -> usize {
        self.stats.iter().map(|s| s.docs()).sum::<u64>() as usize
    }

    /// True when no shard holds any document (lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export every shard's complete simulation state, locking shards one
    /// at a time — concurrent requests to other shards proceed while each
    /// snapshot is taken, so the states are per-shard consistent but not
    /// a single global instant.
    pub fn snapshot(&self) -> Vec<CacheState> {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |cache, _| cache.export_state()))
            .collect()
    }

    /// Per-shard invariant check plus the global capacity bound (tests).
    pub fn check_invariants(&self) {
        let mut total_used = 0;
        for i in 0..self.shards.len() {
            self.with_shard(i, |cache, _| {
                cache.check_invariants();
                total_used += cache.used();
            });
        }
        assert!(
            total_used <= self.capacity,
            "sharded cache exceeds total capacity: {total_used} > {}",
            self.capacity
        );
        assert_eq!(total_used, self.used(), "atomic used-bytes mirror drifted");
    }
}

impl<X> ShardedCache<(), X> {
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
    fn sharded_accounting_and_snapshot() {
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
        // Per-shard mirrors sum to the aggregate.
        let summed: u64 = (0..4)
            .map(|i| sharded.shard_stats(i).stats().counts.requests)
            .sum();
        assert_eq!(summed, 5000);
        // Snapshot states describe exactly the resident set.
        let snap = sharded.snapshot();
        assert_eq!(snap.len(), 4);
        let docs: usize = snap.iter().map(|s| s.docs.len()).sum();
        assert_eq!(docs, sharded.len());
        let used: u64 = snap
            .iter()
            .flat_map(|s| s.docs.iter())
            .map(|m| m.size)
            .sum();
        assert_eq!(used, sharded.used());
        for s in &snap {
            assert_eq!(s.capacity, 1000);
        }
    }

    #[test]
    fn non_divisible_capacity_is_split_exactly() {
        // 4003 / 4 = 1000 remainder 3: the first three shards take the
        // extra bytes; nothing is dropped.
        let sharded: ShardedCache = ShardedCache::new(4003, 4, || Box::new(named::lru()));
        assert_eq!(sharded.per_shard_capacity(), 1000);
        let caps: Vec<u64> = (0..4).map(|i| sharded.shard_capacity(i)).collect();
        assert_eq!(caps, vec![1001, 1001, 1001, 1000]);
        assert_eq!(caps.iter().sum::<u64>(), sharded.capacity());
        // The constructed shards really carry those capacities.
        let snap = sharded.snapshot();
        let snap_caps: Vec<u64> = snap.iter().map(|s| s.capacity).collect();
        assert_eq!(snap_caps, caps);
        sharded.check_invariants();
    }

    #[test]
    fn extension_state_lives_under_the_shard_lock() {
        let sharded: ShardedCache<(), Vec<u32>> =
            ShardedCache::new(1 << 20, 2, || Box::new(named::lru()));
        for id in 0..100 {
            sharded.with_shard_for(UrlId(id), |cache, seen| {
                cache.request(&req(0, id, 10));
                seen.push(id);
            });
        }
        let per_shard: usize = (0..2).map(|i| sharded.with_shard(i, |_, s| s.len())).sum();
        assert_eq!(per_shard, 100);
        // Every recorded id actually maps to the shard that recorded it.
        for i in 0..2 {
            sharded.with_shard(i, |_, seen| {
                for &id in seen.iter() {
                    assert_eq!(sharded.shard_index(UrlId(id)), i);
                }
            });
        }
    }

    #[test]
    fn try_with_shard_runs_when_free_and_declines_when_held() {
        let sharded: Arc<ShardedCache> =
            Arc::new(ShardedCache::new(1 << 20, 2, || Box::new(named::lru())));
        // Free shard: runs, same effects as the blocking form.
        let out = sharded.try_with_shard_for(UrlId(7), |cache, _| {
            cache.request(&req(1, 7, 100));
            cache.used()
        });
        assert_eq!(out, Some(100));
        assert_eq!(sharded.used(), 100, "stats mirror refreshed on try path");

        // Held shard: declines without blocking; the other shard still
        // serves.
        let idx = sharded.shard_index(UrlId(7));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let c = Arc::clone(&sharded);
            std::thread::spawn(move || {
                c.with_shard(idx, |_, _| {
                    tx.send(()).unwrap();
                    done_rx.recv().unwrap();
                });
            })
        };
        rx.recv().unwrap();
        assert!(
            sharded.try_with_shard(idx, |_, _| ()).is_none(),
            "held shard must decline"
        );
        assert!(
            sharded.try_with_shard(idx ^ 1, |_, _| ()).is_some(),
            "the other shard is independent"
        );
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        // Released: the try path runs again.
        assert!(sharded.try_with_shard(idx, |_, _| ()).is_some());
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
