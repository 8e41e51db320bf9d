//! The exact Pitkow/Recker policy (*A simple yet robust caching algorithm
//! based on dynamic access patterns*, WWW2 1994), as characterised in
//! Tables 3 and the text of section 1.2/1.3 of the paper:
//!
//! * **Victim selection** — if any cached document was last accessed on an
//!   earlier day than today (`DAY(ATIME) ≠ today`), use `DAY(ATIME)` as the
//!   primary key and remove the document accessed the most days ago.
//!   Otherwise (everything was used today) use `SIZE` and remove the
//!   largest document.
//! * **When to run** — both on demand *and* at the end of each day, where
//!   it removes documents until free space reaches a *comfort level*
//!   (a configurable fraction of capacity).
//!
//! Ties within a day (and between equal sizes) are broken by the
//! deterministic random order, matching the paper's use of random
//! tie-breaks throughout: the full 64-bit `splitmix64(url ^ salt)`, then
//! the url. The two orders are two of the module's sorted lists, each
//! digest the 64-bit primary key and the tie-break's top 32 bits; a tie
//! on both is settled at the head from the url.

use crate::cache::DocMeta;
use crate::policy::key::splitmix64;
use crate::policy::sorted::{digest_of, url_of, Entry, Order, SortedList};
use crate::policy::{RemovalPolicy, ResidentMeta};
use std::cmp::Ordering;
use webcache_trace::{day_of, Timestamp, UrlId};

/// Both lists' order past their digests: the full tie-break, then the
/// url. The lists' owner files every change.
struct Tiebreak(u64);

impl Tiebreak {
    fn of(&self, url: UrlId) -> u64 {
        splitmix64(u64::from(url.0) ^ self.0)
    }
}

impl Order for Tiebreak {
    fn current(&self, filed: Entry) -> u128 {
        digest_of(filed)
    }

    fn ties(&self, _digest: u128) -> bool {
        true
    }

    fn cmp(&self, a: UrlId, b: UrlId) -> Ordering {
        (self.of(a), a).cmp(&(self.of(b), b))
    }
}

/// A list digest: `key` in the top 64 bits, then the top half of `url`'s
/// tie-break.
fn digest(key: u64, url: UrlId, ties: &Tiebreak) -> u128 {
    u128::from(key) << 64 | u128::from(ties.of(url) >> 32) << 32
}

/// The exact Pitkow/Recker removal policy.
#[derive(Debug, Clone)]
pub struct PitkowRecker {
    /// Docs ordered by `(day(atime), random)` — stalest day first.
    by_day: SortedList,
    /// Docs ordered by `(descending size, random)` — largest first.
    by_size: SortedList,
    /// Fraction of capacity that may remain *used* after the end-of-day
    /// purge (the "comfort level"). `None` disables periodic removal, which
    /// reduces the policy to its on-demand half.
    comfort_used_fraction: Option<f64>,
    salt: u64,
}

impl Default for PitkowRecker {
    /// The configuration used in the paper's comparison: periodic end-of-day
    /// removal down to 75% of capacity plus on-demand removal.
    fn default() -> Self {
        PitkowRecker::new(Some(0.75), 0)
    }
}

impl PitkowRecker {
    /// Create the policy. `comfort_used_fraction` is the used-bytes target
    /// of the end-of-day purge as a fraction of capacity (`None` = on-demand
    /// only); `salt` seeds random tie-breaking.
    pub fn new(comfort_used_fraction: Option<f64>, salt: u64) -> PitkowRecker {
        if let Some(f) = comfort_used_fraction {
            assert!(
                (0.0..=1.0).contains(&f),
                "comfort fraction must be in [0,1]"
            );
        }
        PitkowRecker {
            by_day: SortedList::default(),
            by_size: SortedList::default(),
            comfort_used_fraction,
            salt,
        }
    }
}

impl RemovalPolicy for PitkowRecker {
    fn name(&self) -> String {
        "PITKOW-RECKER".to_string()
    }

    fn on_insert(&mut self, meta: &DocMeta) {
        let ties = Tiebreak(self.salt);
        let day = day_of(meta.last_access);
        self.by_day.upsert(meta.url, digest(day, meta.url, &ties));
        // `!size` is `u64::MAX - size`: the largest document ranks lowest.
        self.by_size
            .upsert(meta.url, digest(!meta.size, meta.url, &ties));
    }

    fn on_access(&mut self, meta: &DocMeta) {
        self.on_insert(meta);
    }

    fn on_remove(&mut self, url: UrlId) {
        self.by_day.remove(url);
        self.by_size.remove(url);
    }

    fn reserve_urls(&mut self, urls: usize) {
        self.by_day.reserve_urls(urls);
        self.by_size.reserve_urls(urls);
    }

    fn victim(
        &mut self,
        now: Timestamp,
        _incoming_size: u64,
        _docs: &dyn ResidentMeta,
    ) -> Option<UrlId> {
        let ties = Tiebreak(self.salt);
        let stalest = self.by_day.head(&ties)?;
        if ((stalest >> 64) as u64) < day_of(now) {
            // Some document was not accessed today: evict by DAY(ATIME).
            Some(url_of(stalest))
        } else {
            // Everything was accessed today: evict the largest document.
            self.by_size.head(&ties).map(url_of)
        }
    }

    fn len(&self) -> usize {
        self.by_day.len()
    }

    fn periodic_target(&self, _now: Timestamp, used: u64, capacity: u64) -> Option<u64> {
        let f = self.comfort_used_fraction?;
        if capacity == u64::MAX {
            return None; // Infinite caches have no comfort level.
        }
        let target = (capacity as f64 * f) as u64;
        (used > target).then_some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::WithDocs;
    use webcache_trace::{DocType, SECONDS_PER_DAY};

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
    fn stale_days_evicted_before_today() {
        let mut p = WithDocs::new(PitkowRecker::default());
        let today = 5 * SECONDS_PER_DAY + 100;
        p.on_insert(&meta(1, 10, 3 * SECONDS_PER_DAY)); // 2 days stale
        p.on_insert(&meta(2, 10, 4 * SECONDS_PER_DAY)); // 1 day stale
        p.on_insert(&meta(3, 10_000, today)); // today, huge
                                              // DAY(ATIME) branch: most-days-ago first, despite the huge doc.
        assert_eq!(p.victim(today, 0), Some(UrlId(1)));
    }

    #[test]
    fn all_accessed_today_falls_back_to_size() {
        let mut p = WithDocs::new(PitkowRecker::default());
        let today = 5 * SECONDS_PER_DAY;
        p.on_insert(&meta(1, 10, today + 1));
        p.on_insert(&meta(2, 9_999, today + 2));
        p.on_insert(&meta(3, 500, today + 3));
        assert_eq!(p.victim(today + 10, 0), Some(UrlId(2)));
    }

    #[test]
    fn access_moves_doc_to_today() {
        let mut p = WithDocs::new(PitkowRecker::default());
        let today = 5 * SECONDS_PER_DAY;
        p.on_insert(&meta(1, 10, 2 * SECONDS_PER_DAY));
        p.on_insert(&meta(2, 99, 3 * SECONDS_PER_DAY));
        // Touch url 1 today; url 2 is now the only stale doc.
        p.on_access(&meta(1, 10, today + 5));
        assert_eq!(p.victim(today + 6, 0), Some(UrlId(2)));
        // Touch url 2 too: SIZE branch picks the larger (url 2).
        p.on_access(&meta(2, 99, today + 7));
        assert_eq!(p.victim(today + 8, 0), Some(UrlId(2)));
    }

    #[test]
    fn periodic_target_is_comfort_level() {
        let p = PitkowRecker::new(Some(0.5), 0);
        assert_eq!(p.periodic_target(0, 80, 100), Some(50));
        assert_eq!(p.periodic_target(0, 40, 100), None);
        let p2 = PitkowRecker::new(None, 0);
        assert_eq!(p2.periodic_target(0, 80, 100), None);
        // Never purge an infinite cache.
        let p3 = PitkowRecker::default();
        assert_eq!(p3.periodic_target(0, 80, u64::MAX), None);
    }

    #[test]
    fn end_of_day_purge_runs_in_cache() {
        use crate::cache::{Cache, Outcome};
        use webcache_trace::{ClientId, Request, ServerId};
        let mut c = Cache::new(100, Box::new(PitkowRecker::new(Some(0.5), 0)));
        let req = |time, url, size| Request {
            time,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            last_modified: None,
        };
        for i in 0..9 {
            assert!(matches!(
                c.request(&req(i, i as u32, 10)),
                Outcome::Miss { .. }
            ));
        }
        assert_eq!(c.used(), 90);
        // First request of the next day triggers the purge down to 50.
        c.request(&req(SECONDS_PER_DAY + 1, 100, 10));
        assert!(c.used() <= 60); // 50 after purge + 10 inserted
        assert!(c.stats().periodic_evictions >= 4);
        c.check_invariants();
    }

    #[test]
    fn removal_keeps_both_indexes_consistent() {
        let mut p = WithDocs::new(PitkowRecker::default());
        p.on_insert(&meta(1, 10, 0));
        p.on_insert(&meta(2, 20, 0));
        p.on_remove(UrlId(1));
        assert_eq!(p.len(), 1);
        assert_eq!(p.victim(SECONDS_PER_DAY, 0), Some(UrlId(2)));
        p.on_remove(UrlId(2));
        assert_eq!(p.victim(SECONDS_PER_DAY, 0), None);
    }
}
