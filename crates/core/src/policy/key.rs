//! The sorting keys of Table 1, plus the extension keys of section 5.
//!
//! The paper's taxonomy views a removal policy as sorting the cached
//! documents by one or more keys and removing documents from the *head* of
//! the sorted list. Each [`Key`] therefore maps a document's metadata to a
//! *rank*; documents are ordered by ascending rank and the lowest-ranked
//! document is removed first. The sign conventions below encode the "Sort
//! Order" column of Table 1:
//!
//! | Key            | Removal order (head of list)            | Rank        |
//! |----------------|------------------------------------------|-------------|
//! | `SIZE`         | largest file removed first               | `-size`     |
//! | `⌊log₂ SIZE⌋`  | one of the largest files removed first   | `-⌊log₂ s⌋` |
//! | `ETIME`        | oldest entry removed first (FIFO)        | `etime`     |
//! | `ATIME`        | least recently used removed first (LRU)  | `atime`     |
//! | `DAY(ATIME)`   | last accessed the most days ago first    | `day(atime)`|
//! | `NREF`         | least referenced removed first (LFU)     | `nref`      |
//! | `RANDOM`       | uniformly random (deterministic w/ seed)  | hash        |

use crate::cache::DocMeta;
use serde::{Deserialize, Serialize};
use webcache_trace::day_of;

/// A sorting key from Table 1 of the paper, or one of the extension keys
/// the paper's section 5 proposes as future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Key {
    /// `SIZE`: size of a cached document in bytes; largest removed first.
    Size,
    /// `⌊log₂(SIZE)⌋`: one of the largest files removed first. Produces
    /// ties, which is why the paper uses it when studying secondary keys.
    Log2Size,
    /// `ETIME`: time the document entered the cache; oldest removed first.
    /// Alone, this is FIFO.
    EntryTime,
    /// `ATIME`: time of last access ("recency"); least recently used
    /// removed first. Alone, this is LRU.
    AccessTime,
    /// `DAY(ATIME)`: day of last access; documents last accessed the most
    /// days ago are removed first. Used by Pitkow/Recker.
    DayOfAccess,
    /// `NREF`: number of references; least referenced removed first.
    /// Alone, this is LFU.
    NRef,
    /// Uniformly random order, deterministic for a given policy seed so a
    /// sort using it is still a total order.
    Random,
    /// Extension (section 5, open problem 1): document type. Types earlier
    /// in the configured priority list are removed first. The default
    /// priority removes large continuous media first and text last, keeping
    /// text latency low.
    DocTypePriority,
    /// Extension (section 5, open problem 1): estimated refetch latency.
    /// Cheapest-to-refetch documents are removed first, preferentially
    /// caching documents behind slow links (the paper's transatlantic
    /// example).
    Latency,
    /// Extension (section 5, open problem 4): expiration time, Harvest
    /// style. Documents that expire soonest (or are already expired) are
    /// removed first; documents without an expiry are removed last.
    Expiry,
}

impl Key {
    /// The six keys of Table 1, in the order the table lists them.
    pub const TABLE1: [Key; 6] = [
        Key::Size,
        Key::Log2Size,
        Key::EntryTime,
        Key::AccessTime,
        Key::DayOfAccess,
        Key::NRef,
    ];

    /// The paper's name for this key.
    pub fn label(self) -> &'static str {
        match self {
            Key::Size => "SIZE",
            Key::Log2Size => "LOG2(SIZE)",
            Key::EntryTime => "ETIME",
            Key::AccessTime => "ATIME",
            Key::DayOfAccess => "DAY(ATIME)",
            Key::NRef => "NREF",
            Key::Random => "RANDOM",
            Key::DocTypePriority => "DOCTYPE",
            Key::Latency => "LATENCY",
            Key::Expiry => "EXPIRY",
        }
    }

    /// The removal rank of a document under this key: documents sort by
    /// ascending rank and the minimum-rank document is removed first.
    ///
    /// `salt` seeds the deterministic [`Key::Random`] order so that two
    /// policies (or two runs) can use independent random orders while each
    /// remains a stable total order.
    pub fn rank(self, meta: &DocMeta, salt: u64) -> i64 {
        match self {
            Key::Size => -(meta.size as i64),
            Key::Log2Size => -(meta.size.max(1).ilog2() as i64),
            Key::EntryTime => meta.entry_time as i64,
            Key::AccessTime => meta.last_access as i64,
            Key::DayOfAccess => day_of(meta.last_access) as i64,
            Key::NRef => meta.nrefs as i64,
            Key::Random => (splitmix64(meta.url.0 as u64 ^ salt) >> 1) as i64,
            Key::DocTypePriority => meta.type_priority as i64,
            Key::Latency => meta.refetch_latency_ms as i64,
            Key::Expiry => match meta.expires {
                Some(t) => t as i64,
                None => i64::MAX,
            },
        }
    }

    /// Whether the rank of this key can change when the document is
    /// accessed (and the policy's sorted structure must be updated).
    pub fn access_sensitive(self) -> bool {
        matches!(self, Key::AccessTime | Key::DayOfAccess | Key::NRef)
    }

    /// This key's 32-bit word of a document's digest
    /// ([`KeySpec::digest`]), and whether the word is exact: `false` when
    /// it is saturated or truncated, and so may tie two documents the key
    /// orders. SIZE is `u32::MAX − min(size, u32::MAX)`, LOG2(SIZE) is
    /// `63 − ⌊log₂ size⌋`, RANDOM is the top 32 bits of its 63, and every
    /// other key is its own value saturating at `u32::MAX` (an absent
    /// expiry is `u64::MAX`). Each word is monotone in [`Key::rank`] for
    /// every value below 2⁶³, where the rank's `i64` keeps the value's
    /// order.
    pub(crate) fn word(self, meta: &DocMeta, salt: u64) -> (u32, bool) {
        let own = |v: u64| (v.min(u64::from(u32::MAX)) as u32, v < u64::from(u32::MAX));
        match self {
            Key::Size => {
                let (w, exact) = own(meta.size);
                (u32::MAX - w, exact)
            }
            Key::Log2Size => (63 - meta.size.max(1).ilog2(), true),
            Key::EntryTime => own(meta.entry_time),
            Key::AccessTime => own(meta.last_access),
            Key::DayOfAccess => own(day_of(meta.last_access)),
            Key::NRef => own(meta.nrefs),
            Key::Random => ((self.rank(meta, salt) >> 31) as u32, false),
            Key::DocTypePriority => own(meta.type_priority.into()),
            Key::Latency => own(meta.refetch_latency_ms),
            Key::Expiry => own(meta.expires.unwrap_or(u64::MAX)),
        }
    }

    /// Whether `word`, this key's word of some digest, is one that
    /// [`Key::word`] reports as not exact.
    fn lossy(self, word: u32) -> bool {
        match self {
            Key::Size => word == 0,
            Key::Log2Size => false,
            Key::Random => true,
            _ => word == u32::MAX,
        }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// SplitMix64 (re-exported from [`crate::util`]) — kept under this path
/// for the policy-internal callers.
pub(crate) use crate::util::splitmix64;

/// A (primary, secondary, tertiary) key combination — one removal policy in
/// the paper's taxonomy. The tertiary key is always [`Key::Random`] in the
/// paper ("we expect that a tie on both the primary and the secondary key
/// is very rare").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeySpec {
    /// Primary sorting key.
    pub primary: Key,
    /// Secondary sorting key (tie-break on primary).
    pub secondary: Key,
    /// Tertiary sorting key (tie-break on secondary).
    pub tertiary: Key,
    /// Seed for deterministic random ordering.
    pub salt: u64,
}

impl KeySpec {
    /// A policy with the given primary key, random secondary and tertiary.
    pub fn primary(primary: Key) -> KeySpec {
        KeySpec {
            primary,
            secondary: Key::Random,
            tertiary: Key::Random,
            salt: 0,
        }
    }

    /// A policy with the given primary and secondary keys, random tertiary.
    pub fn pair(primary: Key, secondary: Key) -> KeySpec {
        KeySpec {
            primary,
            secondary,
            tertiary: Key::Random,
            salt: 0,
        }
    }

    /// Replace the random-order seed.
    pub fn with_salt(mut self, salt: u64) -> KeySpec {
        self.salt = salt;
        self
    }

    /// The removal rank triple of a document; documents sort ascending and
    /// the minimum is removed first. A fourth component (the URL id) is
    /// appended by the sorted structure to guarantee a total order.
    pub fn rank(&self, meta: &DocMeta) -> (i64, i64, i64) {
        let [p, s, t] = self.salted().map(|(key, salt)| key.rank(meta, salt));
        (p, s, t)
    }

    /// The three keys, each with its salt: distinct salts so that the
    /// secondary and tertiary Random orders are independent of each other.
    fn salted(&self) -> [(Key, u64); 3] {
        [
            (self.primary, self.salt),
            (self.secondary, self.salt ^ 0xA5A5_5A5A_DEAD_BEEF),
            (self.tertiary, self.salt ^ 0x0F0F_F0F0_1234_5678),
        ]
    }

    /// A document's 96-bit digest, in the top 96 bits of a `u128` whose
    /// low 32 are zero: each key's [`Key::word`] in key order, and every
    /// word after the first that is not exact zero. So the digest is
    /// monotone in [`KeySpec::rank`] — a lower rank never has a higher
    /// digest — and equal digests mean equal ranks unless
    /// [`KeySpec::digest_exact`] says otherwise. Only the first RANDOM
    /// key is read, and only its top 32 bits (DESIGN.md D45).
    pub(crate) fn digest(&self, meta: &DocMeta) -> u128 {
        self.digest_with(meta, None)
    }

    /// [`KeySpec::digest`] of a document whose digest was `filed` and
    /// whose metadata is now `meta`, nothing but its ATIME and NREF
    /// having risen since (as on a hit): the RANDOM word is `filed`'s, not
    /// recomputed. A risen word that saturates zeroes the RANDOM word;
    /// otherwise the words before it were exact in `filed` too, so
    /// `filed` holds it.
    pub(crate) fn raised(&self, meta: &DocMeta, filed: u128) -> u128 {
        self.digest_with(meta, Some(filed))
    }

    fn digest_with(&self, meta: &DocMeta, filed: Option<u128>) -> u128 {
        let [a, b, c] = self.salted();
        let word = |(key, salt): (Key, u64), shift: u32| {
            let (word, exact) = match (key, filed) {
                (Key::Random, Some(filed)) => ((filed >> shift) as u32, false),
                _ => key.word(meta, salt),
            };
            (u128::from(word) << shift, exact)
        };
        let (first, exact) = word(a, 96);
        if !exact {
            return first;
        }
        let (second, exact) = word(b, 64);
        if !exact {
            return first | second;
        }
        first | second | word(c, 32).0
    }

    /// Whether every document whose digest is `digest` has the same rank:
    /// no word of it is saturated or truncated.
    pub(crate) fn digest_exact(&self, digest: u128) -> bool {
        let keys = [self.primary, self.secondary, self.tertiary];
        (0..3).all(|i| !keys[i].lossy((digest >> (96 - 32 * i)) as u32))
    }

    /// Whether any component key is access-sensitive.
    pub fn access_sensitive(&self) -> bool {
        self.primary.access_sensitive()
            || self.secondary.access_sensitive()
            || self.tertiary.access_sensitive()
    }

    /// Human-readable name, e.g. `"SIZE/RANDOM"`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.primary.label(), self.secondary.label())
    }

    /// The 36 (primary, secondary) combinations of the paper's experiment
    /// design: each of the six Table 1 keys as primary, combined with
    /// random plus the five other Table 1 keys as secondary ("An equal
    /// primary and secondary key is useless. We additionally use random
    /// replacement as a secondary key.").
    pub fn all36(salt: u64) -> Vec<KeySpec> {
        let mut out = Vec::with_capacity(36);
        for &p in &Key::TABLE1 {
            out.push(KeySpec::pair(p, Key::Random).with_salt(salt));
            for &s in &Key::TABLE1 {
                if s != p {
                    out.push(KeySpec::pair(p, s).with_salt(salt));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::{DocType, UrlId, SECONDS_PER_DAY};

    fn meta(url: u32, size: u64, etime: u64, atime: u64, nrefs: u64) -> DocMeta {
        DocMeta {
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            entry_time: etime,
            last_access: atime,
            nrefs,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: 0,
            last_modified: None,
        }
    }

    #[test]
    fn size_removes_largest_first() {
        let big = meta(0, 10_000, 0, 0, 1);
        let small = meta(1, 10, 0, 0, 1);
        assert!(Key::Size.rank(&big, 0) < Key::Size.rank(&small, 0));
    }

    #[test]
    fn log2size_ties_similar_sizes() {
        let a = meta(0, 1024, 0, 0, 1);
        let b = meta(1, 2047, 0, 0, 1);
        let c = meta(2, 2048, 0, 0, 1);
        assert_eq!(Key::Log2Size.rank(&a, 0), Key::Log2Size.rank(&b, 0));
        assert!(Key::Log2Size.rank(&c, 0) < Key::Log2Size.rank(&a, 0));
        // Size 0 must not panic (max(1) guard).
        let z = meta(3, 0, 0, 0, 1);
        assert_eq!(Key::Log2Size.rank(&z, 0), 0);
    }

    #[test]
    fn etime_is_fifo_and_atime_is_lru() {
        let old = meta(0, 5, 1, 100, 1);
        let new = meta(1, 5, 2, 50, 1);
        // FIFO removes the earliest entry regardless of access.
        assert!(Key::EntryTime.rank(&old, 0) < Key::EntryTime.rank(&new, 0));
        // LRU removes the stalest access regardless of entry.
        assert!(Key::AccessTime.rank(&new, 0) < Key::AccessTime.rank(&old, 0));
    }

    #[test]
    fn day_of_access_buckets_by_day() {
        let morning = meta(0, 5, 0, 3 * SECONDS_PER_DAY + 10, 1);
        let evening = meta(1, 5, 0, 3 * SECONDS_PER_DAY + 80_000, 1);
        let yesterday = meta(2, 5, 0, 2 * SECONDS_PER_DAY + 80_000, 1);
        assert_eq!(
            Key::DayOfAccess.rank(&morning, 0),
            Key::DayOfAccess.rank(&evening, 0)
        );
        assert!(Key::DayOfAccess.rank(&yesterday, 0) < Key::DayOfAccess.rank(&morning, 0));
    }

    #[test]
    fn nref_is_lfu() {
        let hot = meta(0, 5, 0, 0, 100);
        let cold = meta(1, 5, 0, 0, 2);
        assert!(Key::NRef.rank(&cold, 0) < Key::NRef.rank(&hot, 0));
    }

    #[test]
    fn random_is_deterministic_per_salt_and_nonnegative() {
        let m = meta(7, 5, 0, 0, 1);
        let r1 = Key::Random.rank(&m, 42);
        let r2 = Key::Random.rank(&m, 42);
        let r3 = Key::Random.rank(&m, 43);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert!(r1 >= 0);
    }

    #[test]
    fn expiry_orders_expired_first_and_no_expiry_last() {
        let mut soon = meta(0, 5, 0, 0, 1);
        soon.expires = Some(10);
        let mut late = meta(1, 5, 0, 0, 1);
        late.expires = Some(1_000_000);
        let never = meta(2, 5, 0, 0, 1);
        assert!(Key::Expiry.rank(&soon, 0) < Key::Expiry.rank(&late, 0));
        assert!(Key::Expiry.rank(&late, 0) < Key::Expiry.rank(&never, 0));
    }

    #[test]
    fn all36_has_36_distinct_combinations() {
        let combos = KeySpec::all36(1);
        assert_eq!(combos.len(), 36);
        let set: std::collections::HashSet<(Key, Key)> =
            combos.iter().map(|c| (c.primary, c.secondary)).collect();
        assert_eq!(set.len(), 36);
        // No combination has equal primary and secondary Table 1 keys.
        assert!(combos.iter().all(|c| c.primary != c.secondary));
    }

    #[test]
    fn rank_triples_order_by_primary_first() {
        let spec = KeySpec::pair(Key::Size, Key::AccessTime);
        let big_stale = meta(0, 100, 0, 1, 1);
        let small_fresh = meta(1, 10, 0, 99, 1);
        assert!(spec.rank(&big_stale) < spec.rank(&small_fresh));
        // Equal primary falls through to secondary (ATIME: stale first).
        let a = meta(2, 50, 0, 5, 1);
        let b = meta(3, 50, 0, 6, 1);
        assert!(spec.rank(&a) < spec.rank(&b));
    }

    #[test]
    fn access_sensitivity() {
        assert!(KeySpec::pair(Key::Size, Key::AccessTime).access_sensitive());
        assert!(KeySpec::pair(Key::NRef, Key::Random).access_sensitive());
        // Random tertiary is not access-sensitive.
        assert!(!KeySpec::pair(Key::Size, Key::EntryTime).access_sensitive());
    }
}
