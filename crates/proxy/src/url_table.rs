//! One shard's URL table: which slot id each URL text has (DESIGN.md D26).

use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;
use webcache_trace::UrlId;

/// How many entries beyond twice the resident documents a table holds
/// before a sweep.
pub const SLACK: usize = 4;

/// URL text → the id of one slot in this shard's cache; part of the
/// shard's extension state, read and written only under the shard's lock.
///
/// **A [`UrlId`] is a slot number of one shard, valid only while that
/// shard's lock is held.** Once the guard is dropped the document may be
/// removed, its entry swept and the id bound to another URL: nothing that
/// outlives a guard keeps an id, and every later visit resolves the text
/// again.
///
/// The table forgets by one rule. A lookup never adds an entry; binding
/// does, and when the table holds `2 × resident + SLACK` entries, every
/// entry whose slot is empty — whatever emptied it — is dropped first and
/// its id freed. A sweep leaves at most one entry per resident document,
/// so the next is at least that many binds away: amortised constant per
/// bind, and the cache's slabs stay as long as what the cache holds, not
/// as what it has ever seen.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct UrlTable {
    ids: FxHashMap<Arc<str>, UrlId>,
    /// With the ids in `ids`, exactly `0..ids.len() + free.len()`.
    free: Vec<u32>,
}

impl UrlTable {
    /// The table of a restored shard: exactly `bound`, every other id
    /// below the largest free.
    pub fn restore(bound: impl IntoIterator<Item = (Arc<str>, UrlId)>) -> UrlTable {
        let ids: FxHashMap<Arc<str>, UrlId> = bound.into_iter().collect();
        let taken: FxHashSet<u32> = ids.values().map(|id| id.0).collect();
        let end = taken.iter().max().map_or(0, |max| max + 1);
        let free = (0..end).rev().filter(|id| !taken.contains(id)).collect();
        UrlTable { ids, free }
    }

    /// The id bound to `url`, if any. Allocates nothing.
    pub fn get(&self, url: &str) -> Option<UrlId> {
        self.ids.get(url).copied()
    }

    /// The id bound to `url`, binding a free one if there is none. The
    /// caller fills the slot under the same guard or leaves the entry to
    /// the next sweep. `resident` is how many slots are occupied now and
    /// `occupied` whether one is.
    pub fn bind(
        &mut self,
        url: &Arc<str>,
        resident: usize,
        occupied: impl Fn(UrlId) -> bool,
    ) -> UrlId {
        if let Some(&id) = self.ids.get(&**url) {
            return id;
        }
        if self.ids.len() >= 2 * resident + SLACK {
            let free = &mut self.free;
            self.ids.retain(|_, id| {
                occupied(*id) || {
                    free.push(id.0);
                    false
                }
            });
        }
        let id = UrlId(self.free.pop().unwrap_or(self.ids.len() as u32));
        self.ids.insert(Arc::clone(url), id);
        id
    }

    /// URLs with an id, resident or not.
    pub fn entries(&self) -> usize {
        self.ids.len()
    }
}
