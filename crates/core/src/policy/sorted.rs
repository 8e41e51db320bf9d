//! `SortedList`, the policy module's one sorted list, and
//! [`SortedPolicy`], the taxonomy policy built on it.
//!
//! "If the list is kept sorted as the proxy operates, then the removal
//! policy merely removes the head of the list" (section 1.3). Every ordered
//! policy here is a rank function over a `SortedList`: [`SortedPolicy`]
//! ranks by its [`KeySpec`], GreedyDual-Size by its value `H`,
//! Pitkow/Recker by `DAY(ATIME)` in one list and by descending `SIZE` in
//! another. Only LRU-MIN keeps its own buckets (its module says why).
//!
//! An entry is one `u128`: an order-preserving 96-bit *digest* of the
//! document's rank in the top bits and its url in the low 32, so entries
//! order as plain integers, by digest and then by url. A digest is
//! monotone in the rank — `KeySpec::digest` gives each key a 32-bit
//! word, saturating, and keeps only the top 32 bits of the first RANDOM
//! key; GreedyDual-Size's `H` takes 64 bits unchanged — so the order
//! equals `(rank, url)` except among documents whose digests are equal.
//! Those are settled at the head, off the comparator: the owner's
//! `Order` says whether a digest can tie unequal ranks and orders such
//! documents by their full rank. The rank slab stores the digest too, so
//! every slot and queued entry is 16 bytes (DESIGN.md D45).
//!
//! The list is two queues with *lazy deletion*: a rank update leaves the
//! old entry in place, and the head query drops entries whose digest no
//! longer matches the [`RankSlab`] ground truth.
//!
//! * The **run** is a `VecDeque` of entries that arrived in non-decreasing
//!   order — each was no smaller than the run's back when it was filed, so
//!   the run is a sorted list and its head leaves in O(1). Keys that grow
//!   with the clock (ETIME, ATIME: FIFO and LRU) file nearly everything
//!   here.
//! * The **heap** is std's binary heap, a min-heap of every other entry,
//!   at amortised `O(log n)` with array (not pointer-chasing) constants.
//!   Keys unrelated to arrival order (SIZE, NREF) file mostly here.
//!
//! Which queue an entry joins is decided by the data's own arrival order,
//! never by the key's name. Inserts, falls in rank and raises that belong
//! at the back of the run are filed. A raise that does not files nothing:
//! the slab records the new digest as *unfiled*, and the entry already
//! queued, at or below the old one, stays as a **lower bound**. A hit
//! files nothing at all, not even in the slab: the head query asks its
//! owner for each document's *current* digest, which [`SortedPolicy`]
//! recomputes from the cache's metadata — only the components a hit can
//! move, which only rise. The head query looks only at the smaller of the
//! two queue fronts: when that entry is below its document's current
//! digest, the query re-files the document there, always in the heap, and
//! marks it filed (its other queued entries are then stale), and a stale
//! entry it drops. So every resident document keeps a queued entry at or
//! below its digest, and the first front that is its document's current
//! digest is the smallest live entry; when the next entry up shares its
//! digest, and the owner says that digest can tie, every entry at it is
//! settled and the first in the owner's full order is the head. So the
//! head is exactly the entry a fully-sorted list would remove, the
//! smallest live `(rank, url)`: a hit costs the list nothing, and only a
//! document that nears eviction pays for its new place. Stale entries
//! that never reach a head are discarded wholesale once they outnumber
//! the live ones by [`STALE_FACTOR`] and [`STALE_FLOOR`], so memory stays
//! proportional to the resident set. A list that tracks positions for
//! Appendix A is the exception: its position index needs every digest
//! current, so its owner files each hit. An untracked [`SortedPolicy`]
//! answers `false` to [`RemovalPolicy::observes_hits`], so the cache does
//! not call it on a hit at all; it answers `true` once tracking is on.
//! DESIGN.md decisions D1, D8, D23, D34, D37, D38, D39, D41 and D45;
//! `core/tests/sorted_model.rs` holds the list to a sort of its rank slab,
//! and GreedyDual-Size and Pitkow/Recker to naive scans;
//! `core/tests/rerank.rs` holds a tracked hit's re-rank to a full one;
//! `core/tests/digest_ties.rs` forces every tie a digest makes.

use crate::cache::DocMeta;
use crate::policy::key::KeySpec;
use crate::policy::{RemovalPolicy, ResidentMeta};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use webcache_trace::{Timestamp, UrlId};

thread_local! {
    /// Lower-bound entries [`SortedList::head`] has re-filed at their
    /// document's current rank, on this thread. For tests that must show
    /// they reached that path.
    #[doc(hidden)]
    pub static REFILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };

    /// Heads [`SortedList::head`] has settled among entries whose digests
    /// tie, on this thread. For tests that must show they reached that
    /// path.
    #[doc(hidden)]
    pub static TIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A list entry: a document's digest in the top 96 bits and its url in
/// the low 32. Entries order as plain integers: by digest, then by url.
pub(crate) type Entry = u128;

/// The low word of an entry (its url) or of a slab slot (its flags). A
/// *digest* is an entry with this word zero.
const LOW: u128 = 0xFFFF_FFFF;

/// `url`'s entry at `digest`.
fn entry(digest: u128, url: UrlId) -> Entry {
    digest | u128::from(url.0)
}

/// The url an entry names.
pub(crate) fn url_of(entry: Entry) -> UrlId {
    UrlId(entry as u32)
}

/// An entry's digest: the entry with its url cleared.
pub(crate) fn digest_of(entry: Entry) -> u128 {
    entry & !LOW
}

/// What a [`SortedList`]'s owner knows that the list does not: each
/// document's digest now, and its order among documents whose digests are
/// equal. The list's order is `(rank, url)`; a digest is monotone in the
/// rank, so the list orders by digest and asks only about a tie.
pub(crate) trait Order {
    /// The current digest of the document `filed` names, `filed` being its
    /// slab slot's digest with the url in the low word. A digest only
    /// ever rises.
    fn current(&self, filed: Entry) -> u128;

    /// Whether documents whose current digests are all `digest` may rank
    /// other than by url: `false` when such a digest keeps every component
    /// of the rank exactly.
    fn ties(&self, digest: u128) -> bool;

    /// The full order of two documents whose current digests are equal:
    /// by rank, then by url.
    fn cmp(&self, a: UrlId, b: UrlId) -> Ordering;
}

/// The order of a list whose owner files every change and whose digest is
/// its whole rank, as GreedyDual-Size's `H` is: the slab is current, and
/// equal digests are settled by url.
pub(crate) struct Filed;

impl Order for Filed {
    fn current(&self, filed: Entry) -> u128 {
        digest_of(filed)
    }

    fn ties(&self, _digest: u128) -> bool {
        false
    }

    fn cmp(&self, a: UrlId, b: UrlId) -> Ordering {
        a.cmp(&b)
    }
}

/// Two current entries in the full order: by digest, then, on a tie, as
/// `order` ranks them.
fn full_cmp(order: &impl Order, a: Entry, b: Entry) -> Ordering {
    let by_digest = digest_of(a).cmp(&digest_of(b));
    by_digest.then_with(|| order.cmp(url_of(a), url_of(b)))
}

/// A slab slot's flag: the document is resident.
const PRESENT: u128 = 1;
/// A slab slot's flag: an entry at exactly the slot's digest has been
/// filed in a queue. An unfiled digest is one a raise left behind the
/// queues: they hold an entry below it, a lower bound, which
/// [`SortedList::head`] re-files when it reaches a head. Hits the owner
/// does not file leave the slot as it is: the document's current digest
/// is then at or above it.
const FILED: u128 = 2;

/// Filed digest of each resident URL, stored as a dense slab indexed by
/// the interned `UrlId` — the policy-side counterpart of the cache's
/// `SlabStore`. Every head query and every filing looks a digest up, so it
/// sits squarely on the sweep hot path; a slab makes it one bounds check
/// instead of a hash-and-probe. A slot is the digest with [`PRESENT`] and
/// [`FILED`] in its low word, 16 bytes; an empty slot is zero.
#[derive(Debug, Clone, Default)]
struct RankSlab {
    slots: Vec<u128>,
}

impl RankSlab {
    fn slot(&self, url: UrlId) -> u128 {
        self.slots.get(url.0 as usize).copied().unwrap_or(0)
    }

    fn get(&self, url: UrlId) -> Option<u128> {
        let slot = self.slot(url);
        (slot & PRESENT != 0).then_some(digest_of(slot))
    }

    /// Make room for every URL id below `urls`; a total, as for
    /// [`SlabStore::reserve_urls`](crate::cache::SlabStore::reserve_urls).
    fn reserve(&mut self, urls: usize) {
        self.slots
            .reserve_exact(urls.saturating_sub(self.slots.len()));
    }

    /// `url`'s slot, the slab grown to hold it.
    fn slot_mut(&mut self, url: UrlId) -> &mut u128 {
        let i = url.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        &mut self.slots[i]
    }

    fn remove(&mut self, url: UrlId) -> Option<u128> {
        let slot = std::mem::take(self.slots.get_mut(url.0 as usize)?);
        (slot & PRESENT != 0).then_some(digest_of(slot))
    }

    /// Every live entry at its filed digest, in slab (that is, url)
    /// order.
    fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        let live = self.slots.iter().enumerate();
        live.filter(|(_, &slot)| slot & PRESENT != 0)
            .map(|(i, &slot)| entry(digest_of(slot), UrlId(i as u32)))
    }

    /// Set every digest to `current` of it, unfiled where that differs.
    fn raise(&mut self, current: impl Fn(Entry) -> u128) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if *slot & PRESENT != 0 {
                let now = current(entry(digest_of(*slot), UrlId(i as u32)));
                if now != digest_of(*slot) {
                    *slot = now | PRESENT;
                }
            }
        }
    }

    /// Mark every digest filed: the queues have just been rebuilt from
    /// the slab.
    fn mark_all_filed(&mut self) {
        for slot in &mut self.slots {
            if *slot & PRESENT != 0 {
                *slot |= FILED;
            }
        }
    }
}

/// Bucket split threshold for [`PositionIndex`]: a bucket reaching this
/// size is halved. Buckets therefore hold ~64–256 entries, giving O(√n)
/// scan cost for position queries at the resident-set sizes the paper's
/// workloads produce.
const BUCKET_SPLIT: usize = 256;

/// Order-statistic side index: the live entries of a [`SortedList`], held
/// as a sorted list of sorted buckets (sqrt-decomposition). A position
/// query walks whole buckets until the target's bucket, then
/// binary-searches inside it — O(√n) instead of a count over every live
/// entry. Maintained only when position tracking is enabled, since
/// insert/remove in a bucket are O(bucket) memmoves the plain eviction
/// path shouldn't pay.
#[derive(Debug, Clone, Default)]
struct PositionIndex {
    buckets: Vec<Vec<Entry>>,
}

impl PositionIndex {
    /// Build from entries already in ascending order.
    fn from_sorted(entries: impl Iterator<Item = Entry>) -> PositionIndex {
        let mut buckets = Vec::new();
        let mut cur: Vec<Entry> = Vec::with_capacity(BUCKET_SPLIT / 2);
        for e in entries {
            cur.push(e);
            if cur.len() >= BUCKET_SPLIT / 2 {
                buckets.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            buckets.push(cur);
        }
        PositionIndex { buckets }
    }

    /// Index of the bucket that does (or should) contain `e`.
    fn bucket_for(&self, e: &Entry) -> usize {
        let i = self
            .buckets
            .partition_point(|b| b.last().is_some_and(|last| last < e));
        i.min(self.buckets.len().saturating_sub(1))
    }

    fn insert(&mut self, e: Entry) {
        if self.buckets.is_empty() {
            self.buckets.push(vec![e]);
            return;
        }
        let bi = self.bucket_for(&e);
        let b = &mut self.buckets[bi];
        let pos = b.partition_point(|x| x < &e);
        b.insert(pos, e);
        if b.len() >= BUCKET_SPLIT {
            let tail = b.split_off(b.len() / 2);
            self.buckets.insert(bi + 1, tail);
        }
    }

    fn remove(&mut self, e: &Entry) {
        if self.buckets.is_empty() {
            return;
        }
        let bi = self.bucket_for(e);
        if let Ok(pos) = self.buckets[bi].binary_search(e) {
            self.buckets[bi].remove(pos);
            if self.buckets[bi].is_empty() {
                self.buckets.remove(bi);
            }
        }
    }

    /// The number of entries below `digest`, and the entries at it, in
    /// ascending order.
    fn group(&self, digest: u128) -> (usize, impl Iterator<Item = Entry> + '_) {
        let mut acc = 0;
        let mut at = (self.buckets.len(), 0);
        for (i, b) in self.buckets.iter().enumerate() {
            if b.last().is_some_and(|&last| last < digest) {
                acc += b.len();
            } else {
                let p = b.partition_point(|&x| x < digest);
                (acc, at) = (acc + p, (i, p));
                break;
            }
        }
        let rest = self.buckets[at.0..].iter().flatten().skip(at.1);
        (acc, rest.copied().take_while(move |&x| x <= digest | LOW))
    }
}

/// The queues are rebuilt from the slab once they hold more than
/// `STALE_FACTOR × live + STALE_FLOOR` entries, so their memory stays
/// proportional to the resident set however many documents are re-ranked.
/// A rebuild scans every slab slot and never looks at the stale entries;
/// the floor spaces rebuilds at least that many filings apart, which keeps
/// the scan to a handful of slots per filing even when the slab (indexed
/// by every URL id the shard has seen) is far longer than the resident
/// set. A hit files nothing unless positions are tracked, and a re-file
/// at a head replaces the entry it pops, so stale entries come from
/// removals, re-inserts and tracked hits; under a tracked LRU the floor
/// keeps a small hot set (4 k documents, all hits, nothing evicted) from
/// paying for a rebuild every few thousand requests (DESIGN.md D23, D37,
/// D39).
const STALE_FACTOR: usize = 8;
const STALE_FLOOR: usize = 1 << 16;

/// The resident documents sorted by `(rank, url)`, smallest first: a sorted
/// run in front of a lazy heap of entries, with the rank slab as ground
/// truth (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedList {
    /// Entries that were no smaller than the back when filed: ascending.
    run: VecDeque<Entry>,
    /// Min-heap of every other entry. In both queues an entry below its
    /// document's current digest is a lower bound, re-filed when it
    /// reaches a head during [`head`](SortedList::head), if it is at its
    /// slab slot's digest or the slot is unfiled and above it; any other
    /// entry that disagrees with `ranks` is stale: dropped there, or by a
    /// rebuild. `ranks` is the ground truth for residency and, with the
    /// owner's [`Order::current`], for rank; the queues only order it.
    heap: BinaryHeap<Reverse<Entry>>,
    ranks: RankSlab,
    /// Live entry count (the queue lengths include stale entries).
    live: usize,
    positions: Option<PositionIndex>,
    /// The group of entries a tie at the head gathers, kept between
    /// calls so that settling one allocates nothing once it has grown.
    tied: Vec<Entry>,
}

impl SortedList {
    /// Size the rank slab for every URL id below `urls` (DESIGN.md D44).
    pub(crate) fn reserve_urls(&mut self, urls: usize) {
        self.ranks.reserve(urls);
    }

    /// File `url` at `digest`, replacing its previous digest if it has
    /// one. The slab slot is looked up once, for the read and the write.
    pub(crate) fn upsert(&mut self, url: UrlId, digest: u128) {
        let slot = self.ranks.slot_mut(url);
        let old = (*slot & PRESENT != 0).then_some(digest_of(*slot));
        let new = entry(digest, url);
        let filed = match old {
            // Digest unchanged: the queued entry (or lower bound) still
            // stands, nothing to do.
            Some(old) if old == digest => return,
            Some(old) => {
                if let Some(idx) = &mut self.positions {
                    idx.remove(&entry(old, url));
                }
                // A raise files nothing unless it belongs at the back of
                // the run: the entry queued at or below the old digest
                // stays as a lower bound, and head() re-files it if it
                // ever gets there. A fall is filed, and the old entry goes
                // stale.
                old > digest || self.run.back().is_none_or(|&back| new >= back)
            }
            None => {
                self.live += 1;
                true
            }
        };
        *slot = digest | PRESENT | if filed { FILED } else { 0 };
        if let Some(idx) = &mut self.positions {
            idx.insert(new);
        }
        if filed {
            self.file(new);
            if self.queued() > STALE_FACTOR * self.live + STALE_FLOOR {
                self.rebuild_queues();
            }
        }
    }

    /// Queue `entry`: at the back of the run if it is no smaller than the
    /// back, else in the heap.
    fn file(&mut self, entry: Entry) {
        if self.run.back().is_some_and(|&back| entry < back) {
            self.heap.push(Reverse(entry));
        } else {
            self.run.push_back(entry);
        }
    }

    /// Take `url` out of the list, if it is there; its queued entry goes
    /// stale and the head query drops it lazily.
    pub(crate) fn remove(&mut self, url: UrlId) {
        if let Some(digest) = self.ranks.remove(url) {
            self.live -= 1;
            if let Some(idx) = &mut self.positions {
                idx.remove(&entry(digest, url));
            }
        }
    }

    /// The smaller of the two queue fronts, and whether it is the run's.
    fn front(&self) -> Option<(Entry, bool)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(&a), Some(&Reverse(b))) => Some(if a <= b { (a, true) } else { (b, false) }),
            (Some(&a), None) => Some((a, true)),
            (None, Some(&Reverse(b))) => Some((b, false)),
            (None, None) => None,
        }
    }

    /// The smallest live entry at its document's current digest, or
    /// `None` when the list is empty: of the documents with the smallest
    /// digest, the first in `order`, which is the smallest live `(rank,
    /// url)`.
    pub(crate) fn head(&mut self, order: &impl Order) -> Option<Entry> {
        // Settle the smaller of the two queue fronts until it is its
        // document's current digest: a lower bound is re-filed there,
        // anything else that disagrees with the slab (a removed document,
        // a superseded digest) is dropped. Every queued entry is at or
        // above that front, and every resident document keeps one at or
        // below its digest, so a settled front is the smallest live
        // entry. It is the head a fully-sorted list would remove unless
        // another document shares its digest: the next entry up, one of
        // the fronts that are left, says.
        loop {
            let (head, in_run) = self.front()?;
            let Some(digest) = self.bounded(head) else {
                self.pop(in_run);
                continue;
            };
            let (bound, now) = (digest_of(head), order.current(entry(digest, url_of(head))));
            if now != bound {
                self.refile(head, in_run, digest, now);
            } else if self.next_shares_digest(head, in_run) && order.ties(bound) {
                return Some(self.settle_tie(bound, order));
            } else {
                return Some(head);
            }
        }
    }

    /// The digest the slab files for `queued`'s document, if `queued`
    /// still bounds it: it is at that digest, or below one that was raised
    /// unfiled. Any other queued entry is stale.
    fn bounded(&self, queued: Entry) -> Option<u128> {
        let slot = self.ranks.slot(url_of(queued));
        let (digest, bound) = (digest_of(slot), digest_of(queued));
        let bounds = digest == bound || (slot & FILED == 0 && digest > bound);
        (slot & PRESENT != 0 && bounds).then_some(digest)
    }

    /// Whether the smallest entry after `head`, the smaller front, has
    /// `head`'s digest: the run's next, or a child of the heap's root,
    /// against the other queue's front.
    fn next_shares_digest(&self, head: Entry, in_run: bool) -> bool {
        let tied = |&x: &Entry| x <= head | LOW;
        let heap = self.heap.as_slice();
        if in_run {
            self.run.get(1).is_some_and(tied) || heap.first().is_some_and(|e| tied(&e.0))
        } else {
            self.run.front().is_some_and(tied) || heap.iter().skip(1).take(2).any(|e| tied(&e.0))
        }
    }

    /// Take the smaller of the two queue fronts off its queue.
    fn pop(&mut self, in_run: bool) {
        if in_run {
            self.run.pop_front();
        } else {
            self.heap.pop();
        }
    }

    /// Move `head`, a lower bound that has just reached the front of the
    /// run (`in_run`) or the heap, to `now`, its document's current
    /// digest, at or above `digest`, the one its slot holds. The new
    /// entry always goes to the heap: a re-filed document is one whose
    /// rank rose, and at the back of the run it would send every later
    /// insert below it to the heap.
    #[cold]
    fn refile(&mut self, head: Entry, in_run: bool, digest: u128, now: u128) {
        let url = url_of(head);
        assert!(
            now >= digest,
            "{url:?}: digest {digest:#x} fell to {now:#x} with no re-insert"
        );
        if digest != now {
            if let Some(idx) = &mut self.positions {
                idx.remove(&entry(digest, url));
                idx.insert(entry(now, url));
            }
        }
        *self.ranks.slot_mut(url) = now | PRESENT | FILED;
        let new = Reverse(entry(now, url));
        if in_run {
            self.run.pop_front();
            self.heap.push(new);
        } else if let Some(mut root) = self.heap.peek_mut() {
            // One sift down instead of a pop and a push.
            *root = new;
        }
        REFILES.with(|n| n.set(n.get() + 1));
    }

    /// The head when more than one queued entry has the smallest digest,
    /// `digest`, which a settled front has: settle every entry at it, as
    /// [`head`](SortedList::head) does one, put the live ones back at the
    /// front of the run, where they are the smallest, and name the first
    /// of them in `order`.
    #[cold]
    fn settle_tie(&mut self, digest: u128, order: &impl Order) -> Entry {
        let mut tied = std::mem::take(&mut self.tied);
        while let Some((head, in_run)) = self.front().filter(|&(e, _)| e <= digest | LOW) {
            if let Some(filed) = self.bounded(head) {
                let now = order.current(entry(filed, url_of(head)));
                if now != digest {
                    self.refile(head, in_run, filed, now);
                    continue;
                }
                tied.push(head);
            }
            self.pop(in_run);
        }
        // A document queued twice at the digest is one document.
        tied.sort_unstable();
        tied.dedup();
        for &e in tied.iter().rev() {
            self.run.push_front(e);
        }
        let by_rank = |&a: &Entry, &b: &Entry| order.cmp(url_of(a), url_of(b));
        let first = tied.iter().copied().min_by(by_rank);
        tied.clear();
        self.tied = tied;
        TIES.with(|n| n.set(n.get() + 1));
        first.expect("a settled front is live")
    }

    /// Whether `url` is in the list.
    pub(crate) fn contains(&self, url: UrlId) -> bool {
        self.ranks.get(url).is_some()
    }

    /// Number of live entries before `url`'s (0 = head) in `order`, or
    /// `None` when it is not in the list. O(√n) once [`track_positions`]
    /// has run, a scan of every live entry before.
    ///
    /// [`track_positions`]: SortedList::track_positions
    pub(crate) fn position(&self, url: UrlId, order: &impl Order) -> Option<usize> {
        let digest = self.ranks.get(url)?;
        Some(match &self.positions {
            // A tracked list's owner files every change: its slab is
            // current. Of the other entries at its digest, those before it
            // in `order` come first; by url unless the digest can tie.
            Some(idx) => {
                let (below, group) = idx.group(digest);
                let (mine, ties) = (entry(digest, url), order.ties(digest));
                let earlier = |&e: &Entry| match ties {
                    true => e != mine && order.cmp(url_of(e), url).is_lt(),
                    false => e < mine,
                };
                below + group.filter(earlier).count()
            }
            // Untracked fallback: fine for one-off test queries; per-request
            // callers must enable tracking first.
            None => {
                let at = entry(order.current(entry(digest, url)), url);
                let live = self.current_entries(order);
                live.filter(|&e| full_cmp(order, e, at).is_lt()).count()
            }
        })
    }

    /// Every live entry at its current digest, in url order.
    fn current_entries<'a>(&'a self, order: &'a impl Order) -> impl Iterator<Item = Entry> + 'a {
        let live = self.ranks.entries();
        live.map(|e| entry(order.current(e), url_of(e)))
    }

    /// Every live entry at its current digest, in `order`.
    pub(crate) fn sorted(&self, order: &impl Order) -> Vec<Entry> {
        let mut live: Vec<Entry> = self.current_entries(order).collect();
        live.sort_unstable_by(|&a, &b| full_cmp(order, a, b));
        live
    }

    /// Start maintaining the index that makes [`position`] sublinear.
    /// From here on the owner must file every change, so the slab is
    /// first brought to each document's current digest: a digest that
    /// rose is unfiled, its queued entry now a lower bound.
    ///
    /// [`position`]: SortedList::position
    pub(crate) fn track_positions(&mut self, order: &impl Order) {
        if self.positions.is_none() {
            self.ranks.raise(|e| order.current(e));
            let mut live: Vec<Entry> = self.ranks.entries().collect();
            live.sort_unstable();
            self.positions = Some(PositionIndex::from_sorted(live.into_iter()));
        }
    }

    /// Whether [`track_positions`] has run.
    ///
    /// [`track_positions`]: SortedList::track_positions
    pub(crate) fn tracks_positions(&self) -> bool {
        self.positions.is_some()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Every live entry at its filed digest, in url (not rank) order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.ranks.entries()
    }

    /// Entries held across both queues, stale ones included.
    fn queued(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Forget every queued entry and queue the live ones afresh from the
    /// slab, one per resident document at its digest, which is then
    /// filed. That costs `O(slots)` whatever the queues held: the stale
    /// entries and lower bounds are never looked at. The live ones go to
    /// the heap because building a heap is linear; entries filed from now
    /// on start a new run.
    #[cold]
    fn rebuild_queues(&mut self) {
        self.run.clear();
        self.heap.clear();
        self.ranks.mark_all_filed();
        self.heap.extend(self.ranks.entries().map(Reverse));
    }
}

/// A removal policy defined by a [`KeySpec`] (primary, secondary, tertiary
/// key), per the paper's taxonomy. 36 combinations of Table 1 keys —
/// including FIFO, LRU, LFU and Hyper-G — are instances of this one type.
///
/// The list holds each document's `KeySpec::digest`; documents whose
/// digests tie are ordered at the head by [`KeySpec::rank`], read from the
/// cache's metadata (DESIGN.md D45). A hit files nothing. Only ATIME,
/// DAY(ATIME) and NREF move on a hit, and only upwards, so the digest the
/// slab holds stays a lower bound of the document's; [`RemovalPolicy::victim`]
/// recomputes it from the cache's metadata when the document reaches the
/// head, and re-files it if it rose (DESIGN.md D39). So, untracked, it
/// does not observe hits and the cache skips `on_access` (D41). Once
/// position tracking is on, a hit is re-ranked as it happens: the
/// position index needs every digest current.
#[derive(Debug, Clone)]
pub struct SortedPolicy {
    spec: KeySpec,
    /// Whether a hit can move a key: ATIME, DAY(ATIME) or NREF.
    moving: bool,
    list: SortedList,
    name_override: Option<&'static str>,
}

/// A [`SortedPolicy`]'s order, from the cache's metadata of every resident
/// document.
struct Ranks<'a> {
    spec: KeySpec,
    moving: bool,
    docs: &'a dyn ResidentMeta,
}

impl Ranks<'_> {
    fn meta(&self, url: UrlId) -> &DocMeta {
        self.docs
            .meta(url)
            .expect("the cache holds every resident document")
    }
}

impl Order for Ranks<'_> {
    /// The filed digest when no key moves, else the digest of the
    /// document's metadata now.
    fn current(&self, filed: Entry) -> u128 {
        if self.moving {
            self.spec.raised(self.meta(url_of(filed)), digest_of(filed))
        } else {
            digest_of(filed)
        }
    }

    fn ties(&self, digest: u128) -> bool {
        !self.spec.digest_exact(digest)
    }

    fn cmp(&self, a: UrlId, b: UrlId) -> Ordering {
        let (ra, rb) = (self.spec.rank(self.meta(a)), self.spec.rank(self.meta(b)));
        ra.cmp(&rb).then(a.cmp(&b))
    }
}

impl SortedPolicy {
    /// Create a policy sorting by `spec`.
    pub fn new(spec: KeySpec) -> SortedPolicy {
        SortedPolicy {
            spec,
            moving: spec.access_sensitive(),
            list: SortedList::default(),
            name_override: None,
        }
    }

    /// Create with a literature name (used by [`crate::policy::named`]).
    pub fn named(spec: KeySpec, name: &'static str) -> SortedPolicy {
        SortedPolicy {
            name_override: Some(name),
            ..SortedPolicy::new(spec)
        }
    }

    /// The key specification this policy sorts by.
    pub fn spec(&self) -> KeySpec {
        self.spec
    }

    /// This policy's order over the documents `docs` holds.
    fn ranks<'a>(&self, docs: &'a dyn ResidentMeta) -> Ranks<'a> {
        Ranks {
            spec: self.spec,
            moving: self.moving,
            docs,
        }
    }

    /// The documents in removal order (head first), ranked from `docs`
    /// as [`RemovalPolicy::victim`] ranks them. Exposed for tests and for
    /// reproducing Table 2's sorted lists.
    pub fn sorted_urls(&self, docs: &dyn ResidentMeta) -> Vec<UrlId> {
        let live = self.list.sorted(&self.ranks(docs));
        live.into_iter().map(url_of).collect()
    }
}

impl RemovalPolicy for SortedPolicy {
    fn name(&self) -> String {
        match self.name_override {
            Some(n) => n.to_string(),
            None => self.spec.name(),
        }
    }

    fn on_insert(&mut self, meta: &DocMeta) {
        self.list.upsert(meta.url, self.spec.digest(meta));
    }

    fn on_access(&mut self, meta: &DocMeta) {
        // Untracked, a hit files nothing: the head reads it from the
        // cache's metadata (see the type's docs), and `observes_hits`
        // tells the cache not to call.
        if self.observes_hits() {
            self.list.upsert(meta.url, self.spec.digest(meta));
        }
    }

    fn observes_hits(&self) -> bool {
        self.moving && self.list.tracks_positions()
    }

    fn reserve_urls(&mut self, urls: usize) {
        self.list.reserve_urls(urls);
    }

    fn on_remove(&mut self, url: UrlId) {
        self.list.remove(url);
    }

    fn victim(
        &mut self,
        _now: Timestamp,
        _incoming_size: u64,
        docs: &dyn ResidentMeta,
    ) -> Option<UrlId> {
        let ranks = self.ranks(docs);
        self.list.head(&ranks).map(url_of)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn removal_position(&self, url: UrlId, docs: &dyn ResidentMeta) -> Option<usize> {
        self.list.position(url, &self.ranks(docs))
    }

    fn enable_position_tracking(&mut self, docs: &dyn ResidentMeta) {
        let ranks = self.ranks(docs);
        self.list.track_positions(&ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::key::Key;
    use crate::policy::testing::WithDocs;
    use webcache_trace::DocType;

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
    fn lru_order_updates_on_access() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::AccessTime)));
        p.on_insert(&meta(1, 5, 0, 0, 1));
        p.on_insert(&meta(2, 5, 1, 1, 1));
        assert_eq!(p.victim(10, 0), Some(UrlId(1)));
        // Touch 1 at t=5: now 2 is least recently used.
        p.on_access(&meta(1, 5, 0, 5, 2));
        assert_eq!(p.victim(10, 0), Some(UrlId(2)));
        assert_eq!(p.sorted_urls(), vec![UrlId(2), UrlId(1)]);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::EntryTime)));
        p.on_insert(&meta(1, 5, 0, 0, 1));
        p.on_insert(&meta(2, 5, 1, 1, 1));
        p.on_access(&meta(1, 5, 0, 99, 2));
        assert_eq!(p.victim(100, 0), Some(UrlId(1)));
    }

    #[test]
    fn size_primary_with_lru_secondary_breaks_ties() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::pair(Key::Size, Key::AccessTime)));
        p.on_insert(&meta(1, 100, 0, 50, 1)); // same size, fresher
        p.on_insert(&meta(2, 100, 0, 10, 1)); // same size, staler
        p.on_insert(&meta(3, 10, 0, 0, 1)); // small
        assert_eq!(p.sorted_urls(), vec![UrlId(2), UrlId(1), UrlId(3)]);
    }

    #[test]
    fn remove_keeps_structures_consistent() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::Size)));
        p.on_insert(&meta(1, 100, 0, 0, 1));
        p.on_insert(&meta(2, 50, 0, 0, 1));
        p.on_remove(UrlId(1));
        assert_eq!(p.len(), 1);
        assert_eq!(p.victim(0, 0), Some(UrlId(2)));
        p.on_remove(UrlId(2));
        assert_eq!(p.victim(0, 0), None);
        assert!(p.is_empty());
        // Removing an unknown URL is a no-op.
        p.on_remove(UrlId(99));
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn reinsert_replaces_rank() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::Size)));
        p.on_insert(&meta(1, 100, 0, 0, 1));
        // Same URL re-inserted with a different size must not duplicate.
        p.on_insert(&meta(1, 10, 1, 1, 1));
        assert_eq!(p.len(), 1);
        p.on_insert(&meta(2, 50, 0, 0, 1));
        assert_eq!(p.victim(0, 0), Some(UrlId(2)));
    }

    #[test]
    fn random_order_is_stable_and_salt_dependent() {
        let mk = |salt| {
            let mut p = WithDocs::new(SortedPolicy::new(
                KeySpec::primary(Key::Random).with_salt(salt),
            ));
            for i in 0..20 {
                p.on_insert(&meta(i, 5, 0, 0, 1));
            }
            p.sorted_urls()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn tracked_positions_match_linear_scan_under_churn() {
        // Enough entries to force several PositionIndex bucket splits,
        // with accesses (re-ranks) and removals mixed in; the O(√n) index
        // must agree with the untracked O(n) walk at every URL.
        let mut tracked =
            WithDocs::new(SortedPolicy::new(KeySpec::pair(Key::Size, Key::AccessTime)));
        let mut plain = WithDocs::new(SortedPolicy::new(KeySpec::pair(Key::Size, Key::AccessTime)));
        tracked.enable_position_tracking();
        for i in 0..600u32 {
            let m = meta(i, (i as u64 * 37) % 500 + 1, i as u64, i as u64, 1);
            tracked.on_insert(&m);
            plain.on_insert(&m);
        }
        for i in (0..600u32).step_by(3) {
            let m = meta(i, (i as u64 * 37) % 500 + 1, i as u64, 1_000 + i as u64, 2);
            tracked.on_access(&m);
            plain.on_access(&m);
        }
        for i in (0..600).step_by(7) {
            tracked.on_remove(UrlId(i));
            plain.on_remove(UrlId(i));
        }
        assert_eq!(tracked.len(), plain.len());
        for i in 0..600 {
            assert_eq!(
                tracked.removal_position(UrlId(i)),
                plain.removal_position(UrlId(i)),
                "position diverges at url {i}"
            );
        }
    }

    #[test]
    fn enabling_tracking_midstream_snapshots_existing_entries() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::Size)));
        for i in 0..50u32 {
            p.on_insert(&meta(i, 1 + i as u64, 0, 0, 1));
        }
        p.enable_position_tracking();
        // SIZE removes largest-first, so the biggest document (url 49)
        // heads the order.
        for i in 0..50 {
            assert_eq!(p.removal_position(UrlId(i)), Some(49 - i as usize));
        }
    }

    #[test]
    fn a_run_in_front_of_the_heap_still_yields_the_sorted_head() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::AccessTime)));
        // Arrivals in rank order are filed in the run...
        for i in 0..10u32 {
            p.on_insert(&meta(i, 5, i as u64, 10 + i as u64, 1));
        }
        assert_eq!((p.list.run.len(), p.list.heap.len()), (10, 0));
        // ...and one that is older than the run's back goes to the heap.
        p.on_insert(&meta(99, 5, 0, 3, 1));
        assert_eq!((p.list.run.len(), p.list.heap.len()), (10, 1));
        assert_eq!(p.victim(100, 0), Some(UrlId(99)));
        p.on_remove(UrlId(99));
        // Touching the head leaves its entry at the front of the run, a
        // lower bound of its new rank.
        p.on_access(&meta(0, 5, 0, 50, 2));
        assert_eq!(p.victim(100, 0), Some(UrlId(1)));
        assert_eq!(p.sorted_urls().first(), Some(&UrlId(1)));
        // Draining by victim order empties both queues.
        let mut order = Vec::new();
        while let Some(v) = p.victim(100, 0) {
            order.push(v.0);
            p.on_remove(v);
        }
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 0]);
        assert_eq!(p.list.queued(), 0);
    }

    #[test]
    fn queues_stay_proportional_to_the_resident_set_when_nothing_is_evicted() {
        // 4 k documents that all fit, hit a million times, and nothing
        // ever asks for a victim. An untracked list files no hit at all;
        // a list that filed them (LRU in the run, the NREF-first policies
        // mostly in the heap) must still rebuild before it outgrows the
        // bound.
        const DOCS: u32 = 4096;
        for spec in [
            KeySpec::primary(Key::AccessTime),
            KeySpec::pair(Key::NRef, Key::AccessTime),
            KeySpec::pair(Key::NRef, Key::Size),
        ] {
            let mut p = WithDocs::new(SortedPolicy::new(spec));
            let mut nrefs = vec![1u64; DOCS as usize];
            for url in 0..DOCS {
                p.on_insert(&meta(url, 1024, 0, 0, 1));
            }
            let mut x = 1u64;
            for t in 1..=1_000_000u64 {
                x = crate::util::splitmix64(x);
                let url = (x % DOCS as u64) as u32;
                nrefs[url as usize] += 1;
                p.on_access(&meta(url, 1024, 0, t / 64, nrefs[url as usize]));
                assert!(
                    p.list.queued() <= STALE_FACTOR * p.len() + STALE_FLOOR,
                    "{}: {} entries queued for {} documents",
                    spec.name(),
                    p.list.queued(),
                    p.len()
                );
            }
            assert_eq!(p.len(), DOCS as usize);
            assert_eq!(p.victim(0, 0), p.sorted_urls().first().copied());
        }
    }

    #[test]
    fn queues_stay_proportional_to_the_resident_set_under_invalidations() {
        // One URL's size alternates on every request, in a cache that
        // never fills: each request invalidates the resident copy and
        // inserts the new one, as `Cache::resolve` does (a removal, then
        // an insert), so each leaves a stale entry in a queue — in the
        // run under LRU and FIFO, in the heap under SIZE. Nothing is
        // evicted; the queues must still rebuild before they outgrow the
        // bound.
        const DOCS: u32 = 64;
        for spec in [
            KeySpec::primary(Key::AccessTime),
            KeySpec::primary(Key::Size),
            KeySpec::pair(Key::NRef, Key::Size),
            KeySpec::pair(Key::EntryTime, Key::NRef),
        ] {
            let mut p = WithDocs::new(SortedPolicy::new(spec));
            for url in 0..DOCS {
                p.on_insert(&meta(url, 1024 + u64::from(url), 0, 0, 1));
            }
            for t in 1..=200_000u64 {
                let size = if t % 2 == 0 { 1000 } else { 3000 };
                p.on_remove(UrlId(0));
                p.on_insert(&meta(0, size, t, t, 1));
                assert!(
                    p.list.queued() <= STALE_FACTOR * p.len() + STALE_FLOOR,
                    "{}: {} entries queued for {} documents",
                    spec.name(),
                    p.list.queued(),
                    p.len()
                );
            }
            assert_eq!(p.len(), DOCS as usize);
            assert_eq!(p.victim(0, 0), p.sorted_urls().first().copied());
        }
    }

    #[test]
    fn hits_on_a_resident_set_that_fits_queue_nothing_in_the_heap() {
        // 4 k documents filed in rank order (all in the run), then a
        // million hits and no victim. An untracked list files no hit, so
        // the heap never grows and the run never shrinks; were hits
        // filed, only the raises that belong at the run's back would be —
        // never enough for a rebuild, which would empty it.
        const DOCS: u32 = 4096;
        for spec in [
            KeySpec::pair(Key::NRef, Key::Size),
            KeySpec::pair(Key::Size, Key::AccessTime),
            KeySpec::pair(Key::EntryTime, Key::NRef),
        ] {
            let mut p = WithDocs::new(SortedPolicy::new(spec));
            let mut nrefs = vec![1u64; DOCS as usize];
            // Larger documents first: SIZE ranks them lowest.
            let size = |url: u32| 2 * DOCS as u64 - url as u64;
            for url in 0..DOCS {
                p.on_insert(&meta(url, size(url), url as u64, url as u64, 1));
            }
            let heap = p.list.heap.len();
            let mut run = p.list.run.len();
            assert_eq!((run, heap), (DOCS as usize, 0), "{}", spec.name());
            let mut x = 1u64;
            for t in 1..=1_000_000u64 {
                x = crate::util::splitmix64(x);
                let url = (x % DOCS as u64) as u32;
                nrefs[url as usize] += 1;
                let atime = DOCS as u64 + t;
                p.on_access(&meta(
                    url,
                    size(url),
                    url as u64,
                    atime,
                    nrefs[url as usize],
                ));
                assert!(
                    p.list.heap.len() <= heap && p.list.run.len() >= run,
                    "{}: hit {t} left {} in the heap, {} in the run (was {run})",
                    spec.name(),
                    p.list.heap.len(),
                    p.list.run.len()
                );
                run = p.list.run.len();
            }
            assert_eq!(p.victim(0, 0), p.sorted_urls().first().copied());
        }
    }

    #[test]
    fn an_untracked_hit_leaves_the_slab_and_both_queues_as_they_were() {
        // Every key pair a hit moves, with documents in both queues; some
        // hits would belong at the back of the run, some would not, and
        // each is repeated, moving the rank not at all.
        for spec in KeySpec::all36(5)
            .into_iter()
            .filter(KeySpec::access_sensitive)
        {
            let mut p = SortedPolicy::new(spec);
            for url in 0..64u32 {
                let t = u64::from(url * 37 % 64);
                p.on_insert(&meta(url, 100 + u64::from(url % 7), t, t, 1));
            }
            let state = |p: &SortedPolicy| {
                let heap: Vec<Entry> = p.list.heap.iter().map(|e| e.0).collect();
                (p.list.ranks.slots.clone(), p.list.run.clone(), heap)
            };
            let before = state(&p);
            assert!(!before.1.is_empty() && !before.2.is_empty());
            for url in 0..64u32 {
                let size = 100 + u64::from(url % 7);
                let t = u64::from(url * 37 % 64);
                let hit = meta(url, size, t, 1_000 + u64::from(url * 13 % 64), 2);
                p.on_access(&hit);
                p.on_access(&hit);
            }
            assert!(state(&p) == before, "{}", spec.name());
        }
    }

    #[test]
    fn reserving_urls_sizes_the_rank_slab_once() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::primary(Key::Size)));
        p.on_insert(&meta(2, 10, 0, 0, 1));
        p.reserve_urls(100);
        let slab = |p: &SortedPolicy| (p.list.ranks.slots.capacity(), p.list.ranks.slots.as_ptr());
        let before = slab(&p);
        assert!(before.0 >= 100);
        // A total, not an increment: the same count or a smaller one
        // again changes nothing.
        for urls in [100, 50, 0] {
            p.reserve_urls(urls);
            assert_eq!(slab(&p), before);
        }
        // Every id below the count is filed in place, the last one first.
        for url in (0..100).rev() {
            p.on_insert(&meta(url, 1 + u64::from(url), 0, 0, 1));
            assert_eq!(slab(&p), before);
        }
        assert_eq!(p.len(), 100);
        assert_eq!(p.victim(0, 0), Some(UrlId(99)));
    }

    #[test]
    fn nref_promotes_on_access() {
        let mut p = WithDocs::new(SortedPolicy::new(KeySpec::pair(Key::NRef, Key::EntryTime)));
        p.on_insert(&meta(1, 5, 0, 0, 1));
        p.on_insert(&meta(2, 5, 1, 1, 1));
        // 1 gets referenced twice more; 2 stays at 1 ref.
        p.on_access(&meta(1, 5, 0, 2, 2));
        p.on_access(&meta(1, 5, 0, 3, 3));
        assert_eq!(p.victim(5, 0), Some(UrlId(2)));
        // Tie on NREF broken by ETIME (oldest first).
        p.on_access(&meta(2, 5, 1, 4, 2));
        p.on_access(&meta(2, 5, 1, 5, 3));
        assert_eq!(p.victim(6, 0), Some(UrlId(1)));
    }
}
