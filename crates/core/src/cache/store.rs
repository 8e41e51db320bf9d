//! The cache's resident-set container: one slab entry per document.
//!
//! [`UrlId`]s are dense small integers assigned by trace interning, so the
//! natural container is a slab indexed by the id — one bounds check and a
//! pointer offset per lookup instead of a hash and probe sequence. Each
//! occupied slot holds the document's [`DocMeta`] and a caller payload `P`
//! (DESIGN.md D20): the simulator carries `()`, the proxy carries the body.
//! The two are inserted together and leave together, so there is no second
//! per-document map to keep in step.

use crate::cache::DocMeta;
use crate::policy::ResidentMeta;
use webcache_trace::UrlId;

/// Dense slab keyed directly by the `UrlId` integer, behaving like a map:
/// at most one document per URL, `insert` replacing (and returning) any
/// previous entry. Lookups are a bounds check and an index; memory is
/// proportional to the highest URL id seen, which for interned trace ids
/// equals the number of distinct URLs. A replay knows that number before
/// its first request and reserves it ([`SlabStore::reserve_urls`]), so
/// the slab is never re-copied as it grows (DESIGN.md D44).
#[derive(Debug, Clone)]
pub struct SlabStore<P = ()> {
    slots: Vec<Option<(DocMeta, P)>>,
    len: usize,
}

impl<P> Default for SlabStore<P> {
    fn default() -> Self {
        SlabStore {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<P> SlabStore<P> {
    /// Make room for every URL id below `urls`: inserting one then never
    /// grows the slab. `urls` is a total, not an increment, so asking
    /// again with the same or a smaller count allocates nothing.
    pub fn reserve_urls(&mut self, urls: usize) {
        self.slots
            .reserve_exact(urls.saturating_sub(self.slots.len()));
    }

    /// Metadata of a resident document.
    pub fn get(&self, url: UrlId) -> Option<&DocMeta> {
        self.entry(url).map(|(m, _)| m)
    }

    /// Mutable metadata of a resident document.
    pub fn get_mut(&mut self, url: UrlId) -> Option<&mut DocMeta> {
        self.entry_mut(url).map(|(m, _)| m)
    }

    /// Metadata and payload of a resident document, from one lookup.
    pub fn entry(&self, url: UrlId) -> Option<(&DocMeta, &P)> {
        let (m, p) = self.slots.get(url.0 as usize)?.as_ref()?;
        Some((m, p))
    }

    /// Mutable metadata and payload of a resident document.
    pub fn entry_mut(&mut self, url: UrlId) -> Option<(&mut DocMeta, &mut P)> {
        let (m, p) = self.slots.get_mut(url.0 as usize)?.as_mut()?;
        Some((m, p))
    }

    /// Insert `meta` and its payload under the document's own URL,
    /// returning the displaced entry if the URL was already resident.
    pub fn insert(&mut self, meta: DocMeta, payload: P) -> Option<(DocMeta, P)> {
        let i = meta.url.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace((meta, payload));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove and return the entry stored under `url`.
    pub fn remove(&mut self, url: UrlId) -> Option<(DocMeta, P)> {
        let old = self.slots.get_mut(url.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no documents are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is this URL resident?
    pub fn contains(&self, url: UrlId) -> bool {
        self.entry(url).is_some()
    }

    /// Iterate over resident entries in URL-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&DocMeta, &P)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(m, p)| (m, p)))
    }
}

/// The view a removal policy reads its resident documents' ranks from.
impl<P> ResidentMeta for SlabStore<P> {
    fn meta(&self, url: UrlId) -> Option<&DocMeta> {
        self.get(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::DocType;

    fn meta(url: u32, size: u64) -> DocMeta {
        DocMeta {
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            entry_time: 0,
            last_access: 0,
            nrefs: 1,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: 0,
            last_modified: None,
        }
    }

    #[test]
    fn slab_store_map_semantics() {
        let mut s = SlabStore::default();
        assert!(s.is_empty());
        assert!(s.insert(meta(3, 10), "a").is_none());
        assert!(s.insert(meta(0, 20), "b").is_none());
        assert_eq!(s.len(), 2);
        // Replacement returns the displaced entry, payload included.
        let (old, payload) = s.insert(meta(3, 30), "c").unwrap();
        assert_eq!((old.size, payload), (10, "a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(UrlId(3)).unwrap().size, 30);
        s.get_mut(UrlId(0)).unwrap().nrefs = 7;
        *s.entry_mut(UrlId(0)).unwrap().1 = "d";
        let (m, p) = s.entry(UrlId(0)).unwrap();
        assert_eq!((m.nrefs, *p), (7, "d"));
        assert!(s.contains(UrlId(0)));
        assert!(!s.contains(UrlId(99)));
        assert!(s.get(UrlId(99)).is_none());
        let seen: Vec<(u64, &str)> = s.iter().map(|(m, p)| (m.size, *p)).collect();
        assert_eq!(seen, vec![(20, "d"), (30, "c")]);
        assert_eq!(s.remove(UrlId(3)).unwrap().1, "c");
        assert!(s.remove(UrlId(3)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reserving_urls_sizes_the_slab_once() {
        let mut s = SlabStore::default();
        s.insert(meta(2, 10), ());
        s.reserve_urls(100);
        let (capacity, slots) = (s.slots.capacity(), s.slots.as_ptr());
        assert!(capacity >= 100);
        // A total, not an increment: the same count or a smaller one
        // again changes nothing.
        for urls in [100, 50, 0] {
            s.reserve_urls(urls);
            assert_eq!((s.slots.capacity(), s.slots.as_ptr()), (capacity, slots));
        }
        // Every id below the count inserts in place, the last one first.
        for url in (0..100).rev() {
            s.insert(meta(url, 1), ());
            assert_eq!((s.slots.capacity(), s.slots.as_ptr()), (capacity, slots));
        }
        assert_eq!(s.len(), 100);
    }
}
