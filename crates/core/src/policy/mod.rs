//! Removal policies: the paper's sorting-key taxonomy and the literature
//! policies it subsumes.
//!
//! "A removal policy is viewed as having two phases. First, it sorts
//! documents in the cache according to one or more keys. Then it removes
//! zero or more documents from the head of the sorted list until a criteria
//! is satisfied." (section 1.2)
//!
//! * [`key`] — the Table 1 sorting keys and [`KeySpec`] combinations.
//! * [`sorted`] — the one incrementally-maintained sorted list, and
//!   [`SortedPolicy`], the generic taxonomy policy built on it.
//! * [`named`] — constructors for FIFO, LRU, LFU and Hyper-G (Table 3).
//! * [`lru_min`] — the exact LRU-MIN algorithm of Abrams et al. 1995. It
//!   keeps its own size buckets, each walked in ATIME order, which the
//!   sorted list's lazy queues cannot do.
//! * [`pitkow_recker`] — the exact Pitkow/Recker policy, including its
//!   end-of-day periodic purge to a comfort level; two sorted lists.
//! * [`greedy_dual`] — GreedyDual-Size (Cao & Irani 1997), included as an
//!   extension showing the taxonomy generalises to value-based policies;
//!   one sorted list ranked by its value `H`.

pub mod greedy_dual;
pub mod key;
pub mod lru_min;
pub mod named;
pub mod pitkow_recker;
pub mod sorted;

pub use greedy_dual::GreedyDualSize;
pub use key::{Key, KeySpec};
pub use lru_min::LruMin;
pub use pitkow_recker::PitkowRecker;
pub use sorted::SortedPolicy;

use crate::cache::DocMeta;
use webcache_trace::{Timestamp, UrlId};

/// A read-only view of a cache's resident metadata, handed to the
/// policy's queries. [`SlabStore`](crate::cache::SlabStore), the store
/// behind every cache, implements it, and so does the
/// [`Cache`](crate::cache::Cache) that owns one.
pub trait ResidentMeta {
    /// Metadata of a resident document.
    fn meta(&self, url: UrlId) -> Option<&DocMeta>;
}

/// A cache removal policy.
///
/// The [`Cache`](crate::cache::Cache) notifies the policy of every
/// insertion and removal, and of every access (with already-updated
/// metadata) while [`RemovalPolicy::observes_hits`] is `true`, and asks
/// it for a victim whenever space must be freed. Implementations must
/// track exactly the set of resident documents.
///
/// `Send` is a supertrait so that boxed policies (and the caches holding
/// them) can move across threads: a sweep's lanes run on worker threads,
/// and the proxy's shards are driven from its event loop and its workers.
pub trait RemovalPolicy: Send {
    /// Display name (e.g. `"SIZE/RANDOM"`, `"LRU-MIN"`).
    fn name(&self) -> String;

    /// A document was inserted.
    fn on_insert(&mut self, meta: &DocMeta);

    /// A resident document was accessed; `meta` carries the updated
    /// `last_access` and `nrefs`. Those two fields are the only ones that
    /// differ from the metadata last handed to the policy for this
    /// document (by `on_insert` or `on_access`): a changed size is a
    /// removal and an insert, never an access. Neither field ever falls:
    /// the cache keeps `last_access` non-decreasing. A policy may
    /// therefore keep whatever it derived from the other fields, and one
    /// whose order only ever needs its head may do nothing here and read
    /// the new values in [`RemovalPolicy::victim`]'s view instead, as
    /// [`SortedPolicy`] does (DESIGN.md D39). Such a policy answers
    /// `false` to [`RemovalPolicy::observes_hits`], and the cache then
    /// does not call this at all (D41).
    fn on_access(&mut self, meta: &DocMeta);

    /// Whether [`RemovalPolicy::on_access`] can change this policy.
    /// `false` promises that it would leave the policy exactly as it is,
    /// so the cache skips the call. The cache reads the answer when it is
    /// built and again after [`RemovalPolicy::enable_position_tracking`],
    /// and only there: the answer may change only inside that call,
    /// reached through the [`Cache`](crate::cache::Cache). A policy whose
    /// tracking is switched on behind the cache's back, through a shared
    /// handle, loses its hits. A wrapper forwards the answer of the
    /// policy it wraps. The default, `true`, delivers every hit.
    fn observes_hits(&self) -> bool {
        true
    }

    /// A document left the cache (eviction or invalidation).
    fn on_remove(&mut self, url: UrlId);

    /// Every URL id the cache will hand this policy is below `urls`: a
    /// policy that keeps a table indexed by URL id may size it once, here,
    /// instead of growing it as ids arrive. `urls` is a total, so asking
    /// again with the same or a smaller count must allocate nothing. The
    /// cache calls it before a trace is replayed (DESIGN.md D44); a policy
    /// that ignores it, as the default does, is only slower; so is a
    /// wrapper that does not forward it to the policy it wraps.
    fn reserve_urls(&mut self, _urls: usize) {}

    /// Choose the next document to remove. `incoming_size` is the size of
    /// the document being fetched (LRU-MIN keys its thresholds off it;
    /// taxonomy policies ignore it). `docs` is the cache's metadata of
    /// every resident document, as of this request: a policy that left
    /// its hits unfiled reads their ranks from it. Returns `None` only
    /// when no document is resident.
    fn victim(
        &mut self,
        now: Timestamp,
        incoming_size: u64,
        docs: &dyn ResidentMeta,
    ) -> Option<UrlId>;

    /// Number of documents the policy currently tracks.
    fn len(&self) -> usize;

    /// True when the policy tracks no documents.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Position of a document in the current removal order (0 = next
    /// victim), when the policy maintains an inspectable order; `docs` is
    /// as for [`RemovalPolicy::victim`]. Used by the Appendix A
    /// instrumentation ("location in sorted list of each URL hit");
    /// `None` when unknown or untracked. May be O(n) unless
    /// [`RemovalPolicy::enable_position_tracking`] was called.
    fn removal_position(&self, _url: UrlId, _docs: &dyn ResidentMeta) -> Option<usize> {
        None
    }

    /// Opt in to whatever auxiliary bookkeeping makes
    /// [`RemovalPolicy::removal_position`] sublinear, building it from
    /// the ranks `docs` gives the resident documents now. Callers that
    /// query positions on every request (the Appendix A instrumentation)
    /// invoke this once up front; everyone else skips it so the hot path
    /// carries no extra index maintenance. A tracking policy ranks every
    /// hit as it happens, so it observes hits from then on. The default
    /// is a no-op.
    fn enable_position_tracking(&mut self, _docs: &dyn ResidentMeta) {}

    /// Periodic-removal hook, called by the cache at each simulated day
    /// boundary. Returning `Some(target)` makes the cache evict victims
    /// until at most `target` bytes remain (Pitkow/Recker's end-of-day run
    /// down to a comfort level). The default — pure on-demand removal —
    /// returns `None`.
    fn periodic_target(&self, _now: Timestamp, _used: u64, _capacity: u64) -> Option<u64> {
        None
    }

    /// Serialize any policy state that a snapshot restore cannot
    /// reconstruct by replaying [`RemovalPolicy::on_insert`] over the
    /// resident documents' metadata. Most policies derive their entire
    /// order from `DocMeta` fields and return an empty vector (the
    /// default); GreedyDual-Size exports its inflation value and per-doc
    /// H values, which depend on eviction history.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state exported by [`RemovalPolicy::export_state`], called
    /// *after* the resident set has been replayed through `on_insert`.
    /// Returns `false` when the bytes are malformed or inconsistent with
    /// the resident set (the caller must then discard the snapshot).
    /// The default accepts exactly the default export: empty bytes.
    fn import_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// A policy that never evicts; pair it with [`Cache::infinite`]
/// (Experiment 1). Asking it for a victim panics, which is correct: an
/// infinite cache must never need one.
///
/// [`Cache::infinite`]: crate::cache::Cache::infinite
#[derive(Debug, Default)]
pub struct NeverEvict {
    resident: usize,
}

impl NeverEvict {
    /// Create the no-op policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RemovalPolicy for NeverEvict {
    fn name(&self) -> String {
        "NEVER-EVICT".to_string()
    }

    fn on_insert(&mut self, _meta: &DocMeta) {
        self.resident += 1;
    }

    fn on_access(&mut self, _meta: &DocMeta) {}

    fn observes_hits(&self) -> bool {
        false
    }

    fn on_remove(&mut self, _url: UrlId) {
        self.resident -= 1;
    }

    fn victim(
        &mut self,
        _now: Timestamp,
        _incoming_size: u64,
        _docs: &dyn ResidentMeta,
    ) -> Option<UrlId> {
        panic!("NeverEvict asked for a victim: use it only with an infinite cache");
    }

    fn len(&self) -> usize {
        self.resident
    }
}

/// Unit-test support shared by the policy modules.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::cache::SlabStore;

    /// A policy beside the metadata a cache would hold for it: every
    /// `DocMeta` handed to the policy is kept, and the policy's queries
    /// read it. Everything else reaches the policy through `Deref`.
    pub(crate) struct WithDocs<T> {
        policy: T,
        docs: SlabStore,
    }

    impl<T: RemovalPolicy> WithDocs<T> {
        pub(crate) fn new(policy: T) -> WithDocs<T> {
            WithDocs {
                policy,
                docs: SlabStore::default(),
            }
        }

        pub(crate) fn on_insert(&mut self, meta: &DocMeta) {
            self.docs.insert(*meta, ());
            self.policy.on_insert(meta);
        }

        pub(crate) fn on_access(&mut self, meta: &DocMeta) {
            self.docs.insert(*meta, ());
            self.policy.on_access(meta);
        }

        pub(crate) fn on_remove(&mut self, url: UrlId) {
            self.docs.remove(url);
            self.policy.on_remove(url);
        }

        pub(crate) fn victim(&mut self, now: Timestamp, incoming_size: u64) -> Option<UrlId> {
            self.policy.victim(now, incoming_size, &self.docs)
        }

        pub(crate) fn removal_position(&self, url: UrlId) -> Option<usize> {
            self.policy.removal_position(url, &self.docs)
        }

        pub(crate) fn enable_position_tracking(&mut self) {
            self.policy.enable_position_tracking(&self.docs);
        }
    }

    impl WithDocs<SortedPolicy> {
        pub(crate) fn sorted_urls(&self) -> Vec<UrlId> {
            self.policy.sorted_urls(&self.docs)
        }
    }

    impl<T> std::ops::Deref for WithDocs<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.policy
        }
    }

    impl<T> std::ops::DerefMut for WithDocs<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.policy
        }
    }
}
