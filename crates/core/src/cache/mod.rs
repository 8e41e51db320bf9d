//! The proxy cache itself: document store, space accounting, and the
//! request-handling semantics of section 1.1 of the paper.
//!
//! A [`Cache`] keeps one entry per resident document — its [`DocMeta`]
//! plus a caller payload `P` (`()` in simulation, the body in the live
//! proxy) — and removes both together on every removal path (DESIGN.md
//! D20).
//!
//! A [`Cache`] owns a [`RemovalPolicy`] and
//! applies the paper's hit definition: a request hits iff the cache holds a
//! copy with the *same URL and the same size*. A re-reference with a
//! different size means the origin document was modified, so the stale copy
//! is invalidated and the request is a miss.

pub mod multilevel;
pub mod partitioned;
pub mod sharded;
pub mod store;

pub use sharded::{split_capacity, ShardedCache};
pub use store::SlabStore;

use crate::policy::{RemovalPolicy, ResidentMeta};
use serde::{Deserialize, Serialize};
use webcache_trace::{day_of, DocType, Request, Timestamp, UrlId, SECONDS_PER_DAY};

/// Metadata the cache keeps per resident document — exactly the quantities
/// the Table 1 sorting keys consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocMeta {
    /// The document's URL.
    pub url: UrlId,
    /// Size in bytes (`SIZE`).
    pub size: u64,
    /// Media type.
    pub doc_type: DocType,
    /// Time the document entered the cache (`ETIME`).
    pub entry_time: Timestamp,
    /// Time of last access (`ATIME`).
    pub last_access: Timestamp,
    /// Number of references since entry (`NREF`); counts the insertion.
    pub nrefs: u64,
    /// Optional expiry time (extension key `EXPIRY`, Harvest style).
    pub expires: Option<Timestamp>,
    /// Estimated refetch latency in milliseconds (extension key `LATENCY`).
    pub refetch_latency_ms: u64,
    /// Removal priority of the document's type (extension key `DOCTYPE`);
    /// lower values are removed first.
    pub type_priority: u8,
    /// `Last-Modified` as reported by the origin, when known.
    pub last_modified: Option<Timestamp>,
}

/// Default type-removal priority for the `DOCTYPE` extension key: large
/// continuous media are removed first and text last, so that text documents
/// (the majority of references) stay cached and see low latency.
pub fn default_type_priority(t: DocType) -> u8 {
    match t {
        DocType::Audio => 0,
        DocType::Video => 1,
        DocType::Unknown => 2,
        DocType::Cgi => 3,
        DocType::Graphics => 4,
        DocType::Text => 5,
    }
}

/// The first second of `day`, or `Timestamp::MAX` when that is past the
/// last second a timestamp can name.
fn day_start(day: u64) -> Timestamp {
    day.saturating_mul(SECONDS_PER_DAY)
}

/// Hook that lets callers enrich [`DocMeta`] at insertion time (set
/// expiries, refetch-latency estimates, or a custom type priority).
pub type MetaDecorator = fn(&Request, &mut DocMeta);

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// URL present with matching size: served from cache.
    Hit,
    /// URL absent: fetched from origin and inserted, possibly after
    /// removing the listed victims.
    Miss {
        /// Documents removed to make room, in removal order, with their
        /// full metadata (so hierarchies can push them to a lower level).
        evicted: Vec<DocMeta>,
    },
    /// URL present but with a different size: the document was modified at
    /// the origin. The stale copy was invalidated; counts as a miss.
    MissModified {
        /// Documents removed to make room for the new version.
        evicted: Vec<DocMeta>,
    },
    /// The document is larger than the whole cache; fetched but not stored
    /// (design decision D4 in DESIGN.md).
    MissTooBig,
}

impl Outcome {
    /// True for any hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// An [`Outcome`] without its eviction list: what [`Cache::resolve`]
/// decides before the caller has said what to do with the victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Hit,
    Miss,
    MissModified,
    MissTooBig,
}

/// Cumulative request counters; the minimal set from which HR and WHR are
/// computed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counts {
    /// Requests seen.
    pub requests: u64,
    /// Requests served from cache.
    pub hits: u64,
    /// Bytes requested (sum of document sizes over all requests).
    pub bytes_requested: u64,
    /// Bytes served from cache.
    pub bytes_hit: u64,
}

impl Counts {
    /// Hit rate: fraction of requests served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Weighted hit rate: fraction of requested bytes served from cache.
    pub fn weighted_hit_rate(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }

    /// Counter difference (`self - earlier`), for per-day deltas.
    pub fn delta(&self, earlier: &Counts) -> Counts {
        Counts {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            bytes_requested: self.bytes_requested - earlier.bytes_requested,
            bytes_hit: self.bytes_hit - earlier.bytes_hit,
        }
    }
}

/// Full cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Request counters.
    pub counts: Counts,
    /// Documents evicted on demand.
    pub evictions: u64,
    /// Bytes evicted on demand.
    pub evicted_bytes: u64,
    /// Documents evicted by a periodic (end-of-day) policy run.
    pub periodic_evictions: u64,
    /// Stale copies invalidated because the document size changed.
    pub modified_invalidations: u64,
    /// Misses where the document exceeded the cache capacity entirely.
    pub too_big: u64,
    /// High-water mark of resident bytes ("maximum cache size needed
    /// during the simulation", a response variable of every experiment).
    pub max_used: u64,
}

/// A complete snapshot of a cache's simulation-relevant state, as captured
/// by [`Cache::export_state`] and reinstated by [`Cache::restore_state`].
///
/// The resident set is stored as plain [`DocMeta`] (sorted by URL for a
/// deterministic encoding; payloads travel beside it, see
/// [`Cache::export_entries`]); policy order is *not* stored — restore replays
/// the metadata through `on_insert`, which reconstructs every taxonomy
/// policy's order exactly, then applies the opaque
/// [`policy_state`](CacheState::policy_state) bytes for policies whose
/// state depends on eviction history (GreedyDual-Size's inflation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Configured capacity in bytes; a restore target must match.
    pub capacity: u64,
    /// Day counter driving periodic (end-of-day) policy runs.
    pub current_day: u64,
    /// Accumulated statistics at snapshot time.
    pub stats: CacheStats,
    /// Resident documents, sorted by URL.
    pub docs: Vec<DocMeta>,
    /// Opaque [`RemovalPolicy::export_state`] bytes.
    pub policy_state: Vec<u8>,
}

/// How [`Cache::restore_entries`] reinstated a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Resident set restored and the opaque policy bytes imported exactly.
    Imported,
    /// Resident set restored; the policy rejected the opaque bytes (e.g.
    /// the set was reduced by quarantine) and keeps its replayed
    /// insertion-order state instead.
    Replayed,
    /// Structural mismatch — the cache is unspecified and must be
    /// discarded.
    Failed,
}

/// A single-level proxy cache with a pluggable removal policy.
///
/// Each resident document is one slab entry: its [`DocMeta`] and a caller
/// payload `P`, inserted together and dropped together on every removal
/// path — [`Cache::remove`], on-demand eviction, the periodic purge and
/// size-change invalidation (DESIGN.md D20). The simulator runs `P = ()`;
/// the live proxy carries each document's body and fetch time.
pub struct Cache<P = ()> {
    capacity: u64,
    used: u64,
    docs: SlabStore<P>,
    policy: Box<dyn RemovalPolicy>,
    stats: CacheStats,
    decorator: Option<MetaDecorator>,
    /// The policy's [`RemovalPolicy::observes_hits`], read when the cache
    /// is built and after position tracking is switched on: a hit calls
    /// `on_access` only when it is set.
    observes_hits: bool,
    current_day: u64,
    /// The first second of `current_day + 1`: a request before it crosses
    /// no day boundary.
    next_day_start: Timestamp,
}

impl<P> ResidentMeta for Cache<P> {
    fn meta(&self, url: UrlId) -> Option<&DocMeta> {
        self.docs.get(url)
    }
}

impl<P> std::fmt::Debug for Cache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("docs", &self.docs.len())
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// The simulator's cache: metadata only.
impl Cache {
    /// Create a cache of `capacity` bytes using `policy` for removal.
    pub fn new(capacity: u64, policy: Box<dyn RemovalPolicy>) -> Cache {
        Cache::with_payload(capacity, policy)
    }

    /// Create an unbounded cache (Experiment 1: "simulating an infinite
    /// size cache"). Its `max_used` at the end of a simulation is the
    /// paper's *MaxNeeded*.
    pub fn infinite(policy: Box<dyn RemovalPolicy>) -> Cache {
        Cache::new(u64::MAX, policy)
    }

    /// Handle one client request per the section 1.1 semantics.
    pub fn request(&mut self, r: &Request) -> Outcome {
        self.request_with(r, || ())
    }

    /// Handle one client request and say only whether it hit. What is
    /// evicted is dropped as it goes, so nothing is allocated: the path of
    /// the simulator's drivers, which read counters and never the list.
    #[inline]
    pub fn request_hit(&mut self, r: &Request) -> bool {
        self.resolve(r, || (), &mut |_| ()) == Resolution::Hit
    }

    /// Handle one client request and say whether it hit, appending what
    /// was evicted to make room to `evicted`, in removal order: the path
    /// of a hierarchy that pushes its first level's evictions down, with
    /// one buffer kept across requests.
    pub(crate) fn request_evicting(&mut self, r: &Request, evicted: &mut Vec<DocMeta>) -> bool {
        self.resolve(r, || (), &mut |meta| evicted.push(meta)) == Resolution::Hit
    }

    /// Reinstate a snapshot into a freshly constructed cache (same
    /// capacity, same policy, nothing resident); see
    /// [`Cache::restore_entries`]. Returns `false` if the snapshot is
    /// inconsistent with this cache (wrong capacity, cache not empty,
    /// resident bytes over capacity, or policy-state rejection); the cache
    /// is then in an unspecified state and must be discarded.
    pub fn restore_state(&mut self, state: &CacheState) -> bool {
        self.restore_entries(state, std::iter::repeat(())) == RestoreOutcome::Imported
    }
}

impl<P> Cache<P> {
    /// Create a cache of `capacity` bytes whose entries carry a `P` each
    /// (e.g. `Cache::<Bytes>::with_payload(...)`).
    pub fn with_payload(capacity: u64, policy: Box<dyn RemovalPolicy>) -> Cache<P> {
        Cache {
            capacity,
            used: 0,
            docs: SlabStore::default(),
            observes_hits: policy.observes_hits(),
            policy,
            stats: CacheStats::default(),
            decorator: None,
            current_day: 0,
            next_day_start: day_start(1),
        }
    }

    /// Attach a [`MetaDecorator`] that enriches metadata at insert time.
    pub fn with_decorator(mut self, d: MetaDecorator) -> Cache<P> {
        self.decorator = Some(d);
        self
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are resident.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Cumulative request counters (HR/WHR inputs).
    pub fn counts(&self) -> Counts {
        self.stats.counts
    }

    /// The removal policy's display name.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Is this document resident (regardless of size/version)?
    pub fn contains(&self, url: UrlId) -> bool {
        self.docs.contains(url)
    }

    /// Metadata of a resident document.
    pub fn meta(&self, url: UrlId) -> Option<&DocMeta> {
        self.docs.get(url)
    }

    /// Metadata and payload of a resident document, from one lookup.
    pub fn entry(&self, url: UrlId) -> Option<(&DocMeta, &P)> {
        self.docs.entry(url)
    }

    /// Mutable payload of a resident document. The metadata stays the
    /// cache's to change: the policy ranks by it.
    pub fn payload_mut(&mut self, url: UrlId) -> Option<&mut P> {
        self.docs.entry_mut(url).map(|(_, p)| p)
    }

    /// Position of a resident document in the policy's removal order
    /// (0 = next victim), when the policy exposes one. Appendix A's
    /// "location in sorted list of each URL hit".
    pub fn removal_position(&self, url: UrlId) -> Option<usize> {
        self.policy.removal_position(url, &self.docs)
    }

    /// Ask the policy to maintain whatever auxiliary index it needs to
    /// answer [`Cache::removal_position`] in sublinear time. Called by the
    /// Appendix A instrumentation, which queries the position on every
    /// request; plain sweeps skip it and keep the leaner hot path.
    pub fn enable_position_tracking(&mut self) {
        self.policy.enable_position_tracking(&self.docs);
        self.observes_hits = self.policy.observes_hits();
    }

    /// Size the slab of resident documents, and the policy's own tables
    /// indexed by URL id ([`RemovalPolicy::reserve_urls`]), for every URL
    /// id below `urls`, so that no insert grows them. A total: asking again
    /// with the same or a smaller count allocates nothing. A replay calls
    /// it with its trace's URL count before the first request (DESIGN.md
    /// D44).
    pub fn reserve_urls(&mut self, urls: usize) {
        self.docs.reserve_urls(urls);
        self.policy.reserve_urls(urls);
    }

    /// Iterate over resident documents (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &DocMeta> {
        self.docs.iter().map(|(m, _)| m)
    }

    /// Iterate over resident entries, payloads included (arbitrary order).
    pub fn entries(&self) -> impl Iterator<Item = (&DocMeta, &P)> {
        self.docs.iter()
    }

    /// Handle one client request per the section 1.1 semantics, calling
    /// `payload` for the entry's payload only if the document is inserted.
    /// A hit keeps the resident payload; a document too big to store never
    /// asks for one.
    pub fn request_with(&mut self, r: &Request, payload: impl FnOnce() -> P) -> Outcome {
        let mut evicted = Vec::new();
        match self.resolve(r, payload, &mut |meta| evicted.push(meta)) {
            Resolution::Hit => Outcome::Hit,
            Resolution::Miss => Outcome::Miss { evicted },
            Resolution::MissModified => Outcome::MissModified { evicted },
            Resolution::MissTooBig => Outcome::MissTooBig,
        }
    }

    /// The one copy of the section 1.1 semantics. Every document evicted
    /// to make room goes to `evicted` in removal order; the caller decides
    /// whether that is a list or nothing.
    #[inline]
    fn resolve(
        &mut self,
        r: &Request,
        payload: impl FnOnce() -> P,
        evicted: &mut impl FnMut(DocMeta),
    ) -> Resolution {
        self.advance_time(r.time);
        self.stats.counts.requests += 1;
        self.stats.counts.bytes_requested += r.size;

        let mut miss = Resolution::Miss;
        if let Some(meta) = self.docs.get_mut(r.url) {
            if meta.size == r.size {
                // Hit: same URL, same size. `last_access` never falls, so
                // a hit can only raise a rank (DESIGN.md D39). A policy
                // that reads hits at its head is not called (D41).
                meta.last_access = meta.last_access.max(r.time);
                meta.nrefs += 1;
                if self.observes_hits {
                    self.policy.on_access(meta);
                }
                self.stats.counts.hits += 1;
                self.stats.counts.bytes_hit += r.size;
                return Resolution::Hit;
            }
            // Modified at origin: invalidate the stale copy.
            self.remove(r.url);
            self.stats.modified_invalidations += 1;
            miss = Resolution::MissModified;
        }
        if self.insert(r, payload, evicted) {
            miss
        } else {
            Resolution::MissTooBig
        }
    }

    /// Remove a document by URL (used for invalidation and by multi-level
    /// coordination). Returns its metadata if it was resident; the payload
    /// is dropped.
    pub fn remove(&mut self, url: UrlId) -> Option<DocMeta> {
        let (meta, _) = self.docs.remove(url)?;
        self.used -= meta.size;
        self.policy.on_remove(url);
        Some(meta)
    }

    /// Remove the policy's next victim to make room for `incoming_size`
    /// bytes at `now`, payload and all. `None` when the policy offers none.
    fn evict_one(&mut self, now: Timestamp, incoming_size: u64) -> Option<DocMeta> {
        let victim = self.policy.victim(now, incoming_size, &self.docs)?;
        let meta = self
            .remove(victim)
            .expect("policy returned a victim that is not resident");
        self.stats.evicted_bytes += meta.size;
        Some(meta)
    }

    /// Insert the document named by `r`, evicting until it fits and
    /// handing each victim to `evicted`. Returns `false` when the document
    /// exceeds capacity and was not stored.
    fn insert(
        &mut self,
        r: &Request,
        payload: impl FnOnce() -> P,
        evicted: &mut impl FnMut(DocMeta),
    ) -> bool {
        if r.size > self.capacity {
            self.stats.too_big += 1;
            return false;
        }
        while self.used + r.size > self.capacity {
            let meta = self
                .evict_one(r.time, r.size)
                .expect("cache is over capacity but the policy offered no victim");
            self.stats.evictions += 1;
            evicted(meta);
        }
        let mut meta = DocMeta {
            url: r.url,
            size: r.size,
            doc_type: r.doc_type,
            entry_time: r.time,
            last_access: r.time,
            nrefs: 1,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: default_type_priority(r.doc_type),
            last_modified: r.last_modified,
        };
        if let Some(d) = self.decorator {
            d(r, &mut meta);
        }
        self.used += meta.size;
        self.stats.max_used = self.stats.max_used.max(self.used);
        self.docs.insert(meta, payload());
        self.policy.on_insert(&meta);
        true
    }

    /// Insert a document directly from its metadata and payload, evicting
    /// to fit. Used by the two-level cache to push L1 evictions down into
    /// L2. Returns `false` when the document exceeds capacity.
    pub fn insert_meta(&mut self, mut meta: DocMeta, payload: P) -> bool {
        if meta.size > self.capacity {
            return false;
        }
        self.remove(meta.url);
        while self.used + meta.size > self.capacity {
            self.evict_one(meta.last_access, meta.size)
                .expect("cache is over capacity but the policy offered no victim");
            self.stats.evictions += 1;
        }
        // A pushed-down document keeps its history but is re-entered now.
        meta.entry_time = meta.last_access;
        self.used += meta.size;
        self.stats.max_used = self.stats.max_used.max(self.used);
        self.docs.insert(meta, payload);
        self.policy.on_insert(&meta);
        true
    }

    /// Observe the passage of time. On a day boundary, run the policy's
    /// periodic removal (Pitkow/Recker's end-of-day purge) if it requests
    /// one. Within a day this is one comparison; the day index is only
    /// computed when a boundary is crossed.
    #[inline]
    pub fn advance_time(&mut self, now: Timestamp) {
        if now >= self.next_day_start {
            self.cross_days(now);
        }
    }

    /// Run the policy's periodic removal at every day boundary from
    /// `current_day + 1` to `now`'s day, at the boundary's first second.
    #[cold]
    fn cross_days(&mut self, now: Timestamp) {
        let day = day_of(now);
        while self.current_day < day {
            self.current_day += 1;
            // No overflow: the boundary is at most `now`.
            let boundary = self.current_day * SECONDS_PER_DAY;
            if let Some(target) = self
                .policy
                .periodic_target(boundary, self.used, self.capacity)
            {
                while self.used > target && self.evict_one(boundary, 0).is_some() {
                    self.stats.periodic_evictions += 1;
                }
            }
        }
        self.next_day_start = day_start(self.current_day.saturating_add(1));
    }

    /// Export the cache's complete simulation state for a snapshot.
    pub fn export_state(&self) -> CacheState {
        CacheState {
            capacity: self.capacity,
            current_day: self.current_day,
            stats: self.stats,
            // The slab iterates in URL-id order: already sorted.
            docs: self.docs.iter().map(|(m, _)| *m).collect(),
            policy_state: self.policy.export_state(),
        }
    }

    /// [`Cache::export_state`] plus every resident payload, in the order
    /// of the state's `docs`.
    pub fn export_entries(&self) -> (CacheState, Vec<P>)
    where
        P: Clone,
    {
        let payloads = self.docs.iter().map(|(_, p)| p.clone()).collect();
        (self.export_state(), payloads)
    }

    /// Reinstate a snapshot into a freshly constructed cache (same
    /// capacity, same policy, nothing resident), taking one payload from
    /// `payloads` per document of `state.docs`, in order. Each document is
    /// re-inserted directly — bypassing [`Cache::insert_meta`], which
    /// resets entry times and may evict — and replayed through the
    /// policy's `on_insert`, which fully rebuilds every taxonomy policy's
    /// rank order; the opaque policy bytes are applied on top.
    ///
    /// A policy that rejects those bytes yields
    /// [`RestoreOutcome::Replayed`], not a failure. Crash recovery needs
    /// the split because a quarantined (corrupt-on-disk) document shrinks
    /// the resident set, which makes an exact-match importer such as
    /// GreedyDual-Size's reject the exported bytes — a warm cache with
    /// insertion-order rank state beats discarding the whole shard.
    /// Importers must validate before mutating (all in-tree ones do), so
    /// `Replayed` leaves the policy in its clean replayed-on-insert state.
    ///
    /// [`RestoreOutcome::Failed`] means structural inconsistency (cache
    /// not empty, capacity mismatch, resident bytes over capacity, fewer
    /// payloads than documents); the cache is then in an unspecified state
    /// and must be discarded.
    pub fn restore_entries(
        &mut self,
        state: &CacheState,
        payloads: impl IntoIterator<Item = P>,
    ) -> RestoreOutcome {
        if !self.docs.is_empty() || self.used != 0 || self.capacity != state.capacity {
            return RestoreOutcome::Failed;
        }
        let mut payloads = payloads.into_iter();
        for m in &state.docs {
            let Some(payload) = payloads.next() else {
                return RestoreOutcome::Failed;
            };
            self.docs.insert(*m, payload);
            self.used += m.size;
            self.policy.on_insert(m);
        }
        if self.used > self.capacity {
            return RestoreOutcome::Failed;
        }
        self.stats = state.stats;
        self.current_day = state.current_day;
        self.next_day_start = day_start(state.current_day.saturating_add(1));
        if self.policy.import_state(&state.policy_state) {
            RestoreOutcome::Imported
        } else {
            RestoreOutcome::Replayed
        }
    }

    /// Internal consistency check used by tests: accounted bytes equal the
    /// sum of resident sizes, within capacity, and the policy tracks
    /// exactly the resident set.
    pub fn check_invariants(&self) {
        let sum: u64 = self.iter().map(|m| m.size).sum();
        assert_eq!(sum, self.used, "used-bytes accounting drifted");
        assert!(self.used <= self.capacity, "cache exceeds capacity");
        assert_eq!(
            self.policy.len(),
            self.docs.len(),
            "policy tracks a different document set than the cache"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use crate::policy::{Key, KeySpec, SortedPolicy};
    use webcache_trace::{ClientId, DocType, ServerId};

    pub(crate) fn req(time: u64, url: u32, size: u64) -> Request {
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

    fn lru_cache(capacity: u64) -> Cache {
        Cache::new(capacity, Box::new(named::lru()))
    }

    /// URLs evicted by a miss outcome, in removal order.
    fn evicted_urls(out: &Outcome) -> Vec<UrlId> {
        match out {
            Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
                evicted.iter().map(|m| m.url).collect()
            }
            _ => panic!("expected a miss with evictions, got {out:?}"),
        }
    }

    #[test]
    fn hit_requires_matching_size() {
        let mut c = lru_cache(100);
        assert!(matches!(c.request(&req(0, 1, 10)), Outcome::Miss { .. }));
        assert!(c.request(&req(1, 1, 10)).is_hit());
        // Same URL, new size: modified document, miss + invalidation.
        let out = c.request(&req(2, 1, 20));
        assert!(matches!(out, Outcome::MissModified { .. }));
        assert_eq!(c.stats().modified_invalidations, 1);
        assert_eq!(c.used(), 20);
        // And the new version now hits.
        assert!(c.request(&req(3, 1, 20)).is_hit());
        c.check_invariants();
    }

    #[test]
    fn eviction_frees_exactly_enough() {
        let mut c = lru_cache(30);
        c.request(&req(0, 1, 10));
        c.request(&req(1, 2, 10));
        c.request(&req(2, 3, 10));
        // Full. A 10-byte doc evicts exactly the LRU doc (url 1).
        let out = c.request(&req(3, 4, 10));
        assert_eq!(evicted_urls(&out), vec![UrlId(1)]);
        assert!(!c.contains(UrlId(1)));
        assert_eq!(c.used(), 30);
        c.check_invariants();
    }

    #[test]
    fn lru_touch_protects_recently_used() {
        let mut c = lru_cache(30);
        c.request(&req(0, 1, 10));
        c.request(&req(1, 2, 10));
        c.request(&req(2, 3, 10));
        c.request(&req(3, 1, 10)); // touch 1, so 2 becomes LRU
        let out = c.request(&req(4, 4, 10));
        assert_eq!(evicted_urls(&out), vec![UrlId(2)]);
    }

    #[test]
    fn too_big_documents_are_not_stored() {
        let mut c = lru_cache(100);
        c.request(&req(0, 1, 10));
        let out = c.request(&req(1, 2, 500));
        assert_eq!(out, Outcome::MissTooBig);
        assert!(!c.contains(UrlId(2)));
        assert!(c.contains(UrlId(1)), "existing contents are not purged");
        assert_eq!(c.stats().too_big, 1);
        c.check_invariants();
    }

    #[test]
    fn counters_track_hr_and_whr() {
        let mut c = lru_cache(1000);
        c.request(&req(0, 1, 100));
        c.request(&req(1, 1, 100));
        c.request(&req(2, 2, 300));
        let n = c.counts();
        assert_eq!(n.requests, 3);
        assert_eq!(n.hits, 1);
        assert!((n.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((n.weighted_hit_rate() - 100.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_cache_never_evicts_and_tracks_max_needed() {
        let mut c = Cache::infinite(Box::new(named::lru()));
        for i in 0..100 {
            c.request(&req(i, i as u32, 1000));
        }
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().max_used, 100_000);
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn size_policy_evicts_largest_first() {
        let mut c = Cache::new(
            100,
            Box::new(SortedPolicy::new(KeySpec::primary(Key::Size))),
        );
        c.request(&req(0, 1, 50));
        c.request(&req(1, 2, 30));
        c.request(&req(2, 3, 20));
        // Needs 10 bytes: SIZE removes the largest document (url 1, 50B).
        let out = c.request(&req(3, 4, 10));
        assert_eq!(evicted_urls(&out), vec![UrlId(1)]);
        assert_eq!(c.used(), 60);
    }

    #[test]
    fn max_used_high_water_mark() {
        let mut c = lru_cache(100);
        c.request(&req(0, 1, 80));
        c.request(&req(1, 2, 90)); // evicts 1
        assert_eq!(c.stats().max_used, 90);
        assert_eq!(c.used(), 90);
    }

    #[test]
    fn remove_returns_meta_and_updates_accounting() {
        let mut c = lru_cache(100);
        c.request(&req(5, 1, 40));
        let meta = c.remove(UrlId(1)).unwrap();
        assert_eq!(meta.size, 40);
        assert_eq!(meta.entry_time, 5);
        assert_eq!(c.used(), 0);
        assert!(c.remove(UrlId(1)).is_none());
        c.check_invariants();
    }

    /// A deterministic pseudo-random request mix that exercises hits,
    /// modified-size invalidations and evictions.
    fn churn_req(i: u64) -> Request {
        let url = (i * 2654435761 % 97) as u32;
        let size = 10 + (i * 40503 % 7) * ((url as u64 % 5) + 1) * 10;
        req(i * 700, url, size)
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        let policies: Vec<Box<dyn RemovalPolicy>> = vec![
            Box::new(named::lru()),
            Box::new(SortedPolicy::new(KeySpec::primary(Key::Size))),
            Box::new(crate::policy::GreedyDualSize::new()),
            Box::new(crate::policy::LruMin::new()),
            Box::new(crate::policy::PitkowRecker::default()),
        ];
        for make in policies {
            let name = make.name();
            // Uninterrupted control run.
            let mut control = Cache::new(2000, make);
            // A parallel run snapshotted and cold-restored at request 500.
            let mut first = Cache::new(2000, policy_by_name(&name));
            for i in 0..500 {
                control.request(&churn_req(i));
                first.request(&churn_req(i));
            }
            let snap = first.export_state();
            drop(first);
            let mut resumed = Cache::new(2000, policy_by_name(&name));
            assert!(resumed.restore_state(&snap), "restore failed for {name}");
            resumed.check_invariants();
            for i in 500..1500 {
                control.request(&churn_req(i));
                resumed.request(&churn_req(i));
            }
            assert_eq!(
                control.stats(),
                resumed.stats(),
                "stats diverged for {name}"
            );
            assert_eq!(control.used(), resumed.used(), "usage diverged for {name}");
        }
    }

    fn policy_by_name(name: &str) -> Box<dyn RemovalPolicy> {
        match name {
            "LRU" => Box::new(named::lru()),
            "SIZE/RANDOM" => Box::new(SortedPolicy::new(KeySpec::primary(Key::Size))),
            "GD-SIZE(1)" => Box::new(crate::policy::GreedyDualSize::new()),
            "LRU-MIN" => Box::new(crate::policy::LruMin::new()),
            "PITKOW-RECKER" => Box::new(crate::policy::PitkowRecker::default()),
            other => panic!("no factory for {other}"),
        }
    }

    #[test]
    fn restore_rejects_mismatched_capacity_and_nonempty_target() {
        let mut c = lru_cache(100);
        c.request(&req(0, 1, 10));
        let snap = c.export_state();
        // Wrong capacity.
        let mut wrong = lru_cache(200);
        assert!(!wrong.restore_state(&snap));
        // Non-empty target.
        let mut busy = lru_cache(100);
        busy.request(&req(0, 2, 10));
        assert!(!busy.restore_state(&snap));
        // Correct target restores.
        let mut ok = lru_cache(100);
        assert!(ok.restore_state(&snap));
        assert!(ok.contains(UrlId(1)));
    }

    #[test]
    fn lenient_restore_replays_when_policy_state_rejected() {
        // GreedyDual-Size rejects an export describing a larger resident
        // set (the quarantine case); lenient restore keeps the replayed
        // resident set instead of failing outright.
        let mut full = Cache::new(2000, Box::new(crate::policy::GreedyDualSize::new()));
        full.request(&req(0, 1, 10));
        full.request(&req(1, 2, 20));
        let mut snap = full.export_state();
        // Quarantine doc 2: the doc list shrinks but the opaque policy
        // bytes still describe both documents.
        snap.docs.retain(|m| m.url != UrlId(2));
        let mut back = Cache::new(2000, Box::new(crate::policy::GreedyDualSize::new()));
        let units = std::iter::repeat(());
        assert_eq!(
            back.restore_entries(&snap, units.clone()),
            RestoreOutcome::Replayed
        );
        back.check_invariants();
        assert!(back.contains(UrlId(1)));
        assert!(!back.contains(UrlId(2)));
        // An untouched snapshot imports exactly.
        let snap = full.export_state();
        let mut exact = Cache::new(2000, Box::new(crate::policy::GreedyDualSize::new()));
        assert_eq!(
            exact.restore_entries(&snap, units.clone()),
            RestoreOutcome::Imported
        );
        exact.check_invariants();
        // Structural mismatch still fails.
        let mut wrong = Cache::new(100, Box::new(crate::policy::GreedyDualSize::new()));
        assert_eq!(wrong.restore_entries(&snap, units), RestoreOutcome::Failed);
        // So does running out of payloads.
        let mut short = Cache::new(2000, Box::new(crate::policy::GreedyDualSize::new()));
        assert_eq!(short.restore_entries(&snap, [()]), RestoreOutcome::Failed);
    }

    /// A payload that counts its own drops.
    struct Tracked(std::rc::Rc<std::cell::Cell<usize>>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn payload_leaves_with_its_document_on_every_removal_path() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let tracked = || Tracked(drops.clone());
        // Every payload ever made is either resident or dropped.
        let check = |c: &Cache<Tracked>, made: usize| {
            c.check_invariants();
            assert_eq!(c.entries().count(), c.len());
            assert_eq!(drops.get() + c.len(), made);
        };

        let mut c = Cache::with_payload(100, Box::new(named::lru()));
        for (t, url) in [(0, 1), (1, 2), (2, 3)] {
            c.request_with(&req(t, url, 30), tracked);
        }
        check(&c, 3);
        // A hit keeps the resident payload and asks for no new one.
        let out = c.request_with(&req(3, 1, 30), || panic!("hit built a payload"));
        assert!(out.is_hit());
        // Explicit removal.
        assert!(c.remove(UrlId(1)).is_some());
        assert_eq!(drops.get(), 1);
        // On-demand eviction: 60 resident + 80 incoming evicts both.
        let out = c.request_with(&req(4, 4, 80), tracked);
        assert_eq!(evicted_urls(&out), vec![UrlId(2), UrlId(3)]);
        assert_eq!(drops.get(), 3);
        check(&c, 4);
        // Size change to more than the whole cache: the stale copy goes
        // and nothing replaces it.
        let out = c.request_with(&req(5, 4, 500), || panic!("too big built a payload"));
        assert_eq!(out, Outcome::MissTooBig);
        assert_eq!((drops.get(), c.len()), (4, 0));
        // Size change that fits: old payload out, new one in.
        c.request_with(&req(6, 5, 10), tracked);
        let out = c.request_with(&req(7, 5, 20), tracked);
        assert!(matches!(out, Outcome::MissModified { .. }));
        check(&c, 6);
        // Push-down replaces a resident entry's payload too.
        let meta = *c.meta(UrlId(5)).unwrap();
        assert!(c.insert_meta(meta, tracked()));
        check(&c, 7);

        // Periodic purge: at the end of the day Pitkow/Recker removes
        // documents until the full cache is back at its comfort level.
        drops.set(0);
        let mut c = Cache::with_payload(1000, Box::new(crate::policy::PitkowRecker::default()));
        for url in 0..10 {
            c.request_with(&req(100 + url as u64, url, 100), tracked);
        }
        check(&c, 10);
        c.advance_time(webcache_trace::SECONDS_PER_DAY);
        assert_eq!(c.stats().periodic_evictions, 3);
        assert_eq!(drops.get(), 3);
        check(&c, 10);
        drop(c);
        assert_eq!(drops.get(), 10);
    }

    #[test]
    fn export_entries_round_trips_payloads() {
        let mut c = Cache::with_payload(1000, Box::new(named::lru()));
        for url in [7u32, 2, 9] {
            c.request_with(&req(url as u64, url, 10), || url * 10);
        }
        *c.payload_mut(UrlId(2)).unwrap() += 1;
        let (state, payloads) = c.export_entries();
        assert_eq!(state, c.export_state());
        assert_eq!(payloads, vec![21, 70, 90], "payloads follow state.docs");
        let mut back = Cache::with_payload(1000, Box::new(named::lru()));
        assert_eq!(
            back.restore_entries(&state, payloads),
            RestoreOutcome::Imported
        );
        let (m, p) = back.entry(UrlId(9)).unwrap();
        assert_eq!((m.size, *p), (10, 90));
    }

    #[test]
    fn decorator_enriches_meta() {
        fn ttl(_r: &Request, m: &mut DocMeta) {
            m.expires = Some(m.entry_time + 60);
            m.refetch_latency_ms = 250;
        }
        let mut c = Cache::new(100, Box::new(named::lru())).with_decorator(ttl);
        c.request(&req(10, 1, 5));
        let m = c.meta(UrlId(1)).unwrap();
        assert_eq!(m.expires, Some(70));
        assert_eq!(m.refetch_latency_ms, 250);
    }

    /// A hit that arrives out of time order keeps the later `last_access`,
    /// so a hit only ever raises a rank; and under every key pair, with
    /// such hits mixed in, each miss evicts a prefix of the resident set
    /// sorted by `spec.rank` of the cache's own metadata, although no
    /// untracked sorted list files a hit.
    #[test]
    fn an_out_of_order_hit_keeps_the_later_access_and_victims_stay_sorted() {
        let mut c = lru_cache(1000);
        c.request(&req(100, 1, 10));
        assert!(c.request(&req(40, 1, 10)).is_hit());
        let m = c.meta(UrlId(1)).unwrap();
        assert_eq!((m.last_access, m.nrefs), (100, 2));

        for spec in KeySpec::all36(9) {
            let mut c = Cache::new(600, Box::new(SortedPolicy::new(spec)));
            let (mut x, mut late, mut evictions) = (7u64, 0, 0);
            for i in 0..3000u64 {
                x = crate::util::splitmix64(x);
                let url = (x % 40) as u32;
                // Time advances 97 s a request (days are crossed); one
                // request in sixteen is up to 18 hours late.
                let behind = if x >> 60 == 0 { x >> 8 & 0xFFFF } else { 0 };
                let t = (i * 97).saturating_sub(behind);
                let mut order: Vec<_> = c.iter().map(|m| (spec.rank(m), m.url)).collect();
                order.sort_unstable();
                let before = c.meta(UrlId(url)).map(|m| m.last_access);
                match c.request(&req(t, url, 20 + (url as u64 % 5) * 25)) {
                    Outcome::Hit => {
                        let after = c.meta(UrlId(url)).unwrap().last_access;
                        assert_eq!(Some(after), before.max(Some(t)));
                        late += u64::from(after > t);
                    }
                    out => {
                        let evicted = evicted_urls(&out);
                        let order: Vec<UrlId> = order.into_iter().map(|(_, u)| u).collect();
                        assert_eq!(evicted, order[..evicted.len()], "{} at {i}", spec.name());
                        evictions += evicted.len();
                    }
                }
            }
            assert!(late > 0 && evictions > 0, "{}", spec.name());
        }
    }

    /// LRU that says it does not observe hits, and panics if handed one.
    struct Deaf(SortedPolicy);

    impl RemovalPolicy for Deaf {
        fn name(&self) -> String {
            "DEAF".into()
        }
        fn on_insert(&mut self, meta: &DocMeta) {
            self.0.on_insert(meta);
        }
        fn on_access(&mut self, _meta: &DocMeta) {
            panic!("a hit was delivered to a policy that does not observe hits");
        }
        fn observes_hits(&self) -> bool {
            false
        }
        fn on_remove(&mut self, url: UrlId) {
            self.0.on_remove(url);
        }
        fn victim(
            &mut self,
            now: Timestamp,
            incoming_size: u64,
            docs: &dyn ResidentMeta,
        ) -> Option<UrlId> {
            self.0.victim(now, incoming_size, docs)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn a_policy_that_does_not_observe_hits_is_not_called_on_one() {
        let mut c = Cache::new(30, Box::new(Deaf(named::lru())));
        c.request(&req(0, 1, 10));
        c.request(&req(1, 2, 10));
        assert!(c.request(&req(2, 1, 10)).is_hit());
        assert!(c.request_hit(&req(3, 1, 10)));
        // The hits still count and still update the metadata the head
        // reads: 1 is now more recent than 2.
        let m = c.meta(UrlId(1)).unwrap();
        assert_eq!((m.last_access, m.nrefs, c.counts().hits), (3, 3, 2));
        c.request(&req(4, 3, 10));
        assert_eq!(evicted_urls(&c.request(&req(5, 4, 10))), vec![UrlId(2)]);
        c.check_invariants();
    }

    /// LRU that records the time of every `periodic_target` call.
    struct Recording {
        inner: SortedPolicy,
        calls: std::sync::Arc<std::sync::Mutex<Vec<Timestamp>>>,
    }

    impl RemovalPolicy for Recording {
        fn name(&self) -> String {
            "RECORDING".into()
        }
        fn on_insert(&mut self, meta: &DocMeta) {
            self.inner.on_insert(meta);
        }
        fn on_access(&mut self, meta: &DocMeta) {
            self.inner.on_access(meta);
        }
        fn on_remove(&mut self, url: UrlId) {
            self.inner.on_remove(url);
        }
        fn victim(
            &mut self,
            now: Timestamp,
            incoming_size: u64,
            docs: &dyn ResidentMeta,
        ) -> Option<UrlId> {
            self.inner.victim(now, incoming_size, docs)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn periodic_target(&self, now: Timestamp, _used: u64, _capacity: u64) -> Option<u64> {
            self.calls.lock().expect("not poisoned").push(now);
            None
        }
    }

    /// A cache under [`Recording`], and the calls it has recorded.
    fn recording() -> (Cache, impl Fn() -> Vec<Timestamp>) {
        let calls = std::sync::Arc::default();
        let policy = Recording {
            inner: named::lru(),
            calls: std::sync::Arc::clone(&calls),
        };
        let taken = move || std::mem::take(&mut *calls.lock().expect("not poisoned"));
        (Cache::new(1000, Box::new(policy)), taken)
    }

    #[test]
    fn each_crossed_day_boundary_is_one_periodic_call_at_its_first_second() {
        let d = SECONDS_PER_DAY;
        let (mut c, calls) = recording();
        c.request(&req(10, 1, 10));
        c.request(&req(d - 1, 2, 10));
        assert!(calls().is_empty(), "day 0 crosses nothing");
        c.request(&req(d, 1, 10));
        assert_eq!(
            calls(),
            [d],
            "a request at exactly k × day crosses into day k"
        );
        c.request(&req(d + 5, 3, 10));
        assert!(calls().is_empty());
        // Skipping days: one call per boundary, oldest first.
        c.request(&req(4 * d + 3, 2, 10));
        assert_eq!(calls(), [2 * d, 3 * d, 4 * d]);
        // Time going back into an earlier day crosses nothing.
        c.request(&req(2 * d, 4, 10));
        c.advance_time(0);
        c.request(&req(4 * d + 100, 1, 10));
        assert!(calls().is_empty());
        c.advance_time(5 * d);
        c.advance_time(5 * d);
        assert_eq!(calls(), [5 * d]);

        // A restore in mid-day resumes at the snapshot's day.
        let snap = c.export_state();
        let (mut back, calls) = recording();
        assert!(back.restore_state(&snap));
        back.advance_time(5 * d + 7);
        back.advance_time(3 * d);
        assert!(calls().is_empty());
        back.request(&req(7 * d - 1, 5, 10));
        assert_eq!(calls(), [6 * d]);
        assert_eq!(back.stats().counts.requests, c.stats().counts.requests + 1);

        // Near the last second a timestamp can name, the next day's start
        // saturates instead of overflowing.
        let last = day_of(Timestamp::MAX);
        let (mut end, calls) = recording();
        let empty = CacheState {
            current_day: last - 2,
            ..end.export_state()
        };
        assert!(end.restore_state(&empty));
        end.advance_time((last - 1) * d - 1);
        assert!(calls().is_empty());
        end.advance_time(Timestamp::MAX);
        assert_eq!(calls(), [(last - 1) * d, last * d]);
        end.advance_time(Timestamp::MAX);
        end.request(&req(Timestamp::MAX, 1, 10));
        assert!(calls().is_empty());
    }

    #[test]
    fn pitkow_recker_purges_as_before_over_skipped_days() {
        // 97 documents of stable sizes, one in fifty requested at a
        // modified size; a day crossed every ~123 requests, and three more
        // skipped after every 400th.
        let mut c = Cache::new(2000, Box::new(crate::policy::PitkowRecker::default()));
        for i in 0..3000u64 {
            let url = (i * 2654435761 % 97) as u32;
            let size = 10 + (url as u64 % 7) * 30 + if i % 50 == 0 { 5 } else { 0 };
            c.request(&req(i * 700 + (i / 400) * 3 * SECONDS_PER_DAY, url, size));
        }
        let s = c.stats();
        // Taken before the day boundary became a comparison.
        assert_eq!(
            (s.periodic_evictions, s.evictions, s.counts.hits),
            (328, 2352, 278)
        );
    }
}
