//! Property-based tests (proptest) over the core invariants: cache
//! accounting, eviction necessity, policy/store consistency, hierarchy
//! inclusion, partition accounting, CLF round-trips and series bounds.

use proptest::prelude::*;
use webcache::core::cache::multilevel::TwoLevelCache;
use webcache::core::cache::partitioned::PartitionedCache;
use webcache::core::cache::{Cache, Outcome};
use webcache::core::policy::{named, Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache::stats::series::DailySeries;
use webcache_trace::{clf, ClientId, DocType, RawRequest, Request, ServerId, UrlId};

/// An arbitrary request stream: times strictly increase; URLs come from a
/// small pool so hits, re-sizes and evictions all happen.
fn request_stream(max_len: usize) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec((0u32..24, 1u64..4_000, 0u8..6), 1..max_len).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (url, size, t))| Request {
                time: (i as u64) * 600,
                client: ClientId(url % 3),
                server: ServerId(url % 5),
                url: UrlId(url),
                size,
                doc_type: DocType::ALL[(t as usize) % 6],
                last_modified: None,
            })
            .collect()
    })
}

/// One of every policy family, chosen by index.
fn policy_by_index(i: u8) -> Box<dyn RemovalPolicy> {
    match i % 8 {
        0 => Box::new(named::fifo()),
        1 => Box::new(named::lru()),
        2 => Box::new(named::lfu()),
        3 => Box::new(named::hyper_g()),
        4 => Box::new(named::size()),
        5 => Box::new(webcache::core::policy::LruMin::new()),
        6 => Box::new(webcache::core::policy::PitkowRecker::default()),
        _ => Box::new(webcache::core::policy::GreedyDualSize::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core accounting: used bytes equal resident sizes, capacity is
    /// never exceeded, the policy tracks exactly the resident set, and
    /// outcome counts tally.
    #[test]
    fn cache_invariants_hold_for_any_stream(
        reqs in request_stream(300),
        policy_idx in 0u8..8,
        capacity in 2_000u64..40_000,
    ) {
        let mut cache = Cache::new(capacity, policy_by_index(policy_idx));
        let mut hits = 0u64;
        let mut misses = 0u64;
        for r in &reqs {
            match cache.request(r) {
                Outcome::Hit => hits += 1,
                Outcome::Miss { .. } | Outcome::MissModified { .. } | Outcome::MissTooBig => {
                    misses += 1
                }
            }
            cache.check_invariants();
        }
        let c = cache.counts();
        prop_assert_eq!(c.requests, reqs.len() as u64);
        prop_assert_eq!(c.hits, hits);
        prop_assert_eq!(c.hits + misses, c.requests);
        prop_assert!(c.bytes_hit <= c.bytes_requested);
        prop_assert!(cache.stats().max_used <= capacity);
    }

    /// Evictions happen only when necessary: a miss that evicted
    /// documents implies the document could not have fit beforehand.
    #[test]
    fn evictions_only_when_needed(
        reqs in request_stream(200),
        capacity in 2_000u64..20_000,
    ) {
        let mut cache = Cache::new(capacity, Box::new(named::lru()));
        for r in &reqs {
            let used_before = cache.used();
            let had = cache.contains(r.url);
            match cache.request(r) {
                Outcome::Miss { evicted } if !evicted.is_empty() => {
                    prop_assert!(
                        used_before + r.size > capacity,
                        "evicted with {} free",
                        capacity - used_before
                    );
                    prop_assert!(!had);
                }
                Outcome::MissTooBig => prop_assert!(r.size > capacity),
                _ => {}
            }
        }
    }

    /// A hit never changes the byte accounting; a miss adds exactly the
    /// document (minus evictions).
    #[test]
    fn used_bytes_evolve_exactly(
        reqs in request_stream(200),
        capacity in 5_000u64..50_000,
    ) {
        let mut cache = Cache::new(capacity, Box::new(named::size()));
        for r in &reqs {
            let before = cache.used();
            match cache.request(r) {
                Outcome::Hit => prop_assert_eq!(cache.used(), before),
                Outcome::Miss { evicted } => {
                    let freed: u64 = evicted.iter().map(|m| m.size).sum();
                    prop_assert_eq!(cache.used(), before - freed + r.size);
                }
                Outcome::MissModified { evicted } => {
                    let freed: u64 = evicted.iter().map(|m| m.size).sum();
                    // The stale copy's size also left the cache.
                    prop_assert!(cache.used() <= before + r.size);
                    prop_assert!(cache.used() + freed >= r.size);
                }
                Outcome::MissTooBig => prop_assert!(cache.used() <= before),
            }
        }
    }

    /// All 36 taxonomy combinations preserve the sorted-structure
    /// invariant: victim() always returns the head of the sorted list.
    #[test]
    fn sorted_policy_victim_is_sorted_head(
        reqs in request_stream(150),
        combo in 0usize..36,
    ) {
        let spec = KeySpec::all36(7)[combo];
        let mut cache = Cache::new(u64::MAX, Box::new(SortedPolicy::new(spec)));
        let mut shadow = SortedPolicy::new(spec);
        for r in &reqs {
            let had_same = cache.meta(r.url).map(|m| m.size) == Some(r.size);
            cache.request(r);
            let meta = *cache.meta(r.url).unwrap();
            if had_same {
                shadow.on_access(&meta);
            } else {
                shadow.on_remove(r.url);
                shadow.on_insert(&meta);
            }
        }
        let t = reqs.last().map(|r| r.time + 1).unwrap_or(0);
        prop_assert_eq!(shadow.victim(t, 0, &cache), {
            let order = shadow.sorted_urls(&cache);
            order.first().copied()
        });
    }

    /// Two-level inclusion: with an infinite L2, every L1-resident
    /// document is also L2-resident, and level hit counts are exclusive.
    #[test]
    fn two_level_inclusion_and_accounting(
        reqs in request_stream(200),
        l1_cap in 2_000u64..15_000,
    ) {
        let mut h = TwoLevelCache::new(
            Cache::new(l1_cap, Box::new(named::size())),
            Cache::infinite(Box::new(named::lru())),
        );
        for r in &reqs {
            h.request(r);
        }
        for m in h.l1().iter() {
            prop_assert!(h.l2().contains(m.url));
        }
        let l1 = h.l1().counts();
        let l2 = h.l2_counts_over_all_requests();
        prop_assert_eq!(l1.requests, l2.requests);
        prop_assert!(l1.hits + l2.hits <= l1.requests);
    }

    /// Partitioned caches: class counters sum to the totals, and no
    /// partition exceeds its capacity.
    #[test]
    fn partitioned_accounting(
        reqs in request_stream(200),
        audio_frac in 0.1f64..0.9,
    ) {
        let mut p = PartitionedCache::audio_split(20_000, audio_frac, || {
            Box::new(named::size())
        });
        for r in &reqs {
            p.request(r);
        }
        let total = p.total_counts();
        let sum_req: u64 = p.partitions().iter().map(|x| x.class_counts.requests).sum();
        let sum_hits: u64 = p.partitions().iter().map(|x| x.class_counts.hits).sum();
        prop_assert_eq!(total.requests, sum_req);
        prop_assert_eq!(total.hits, sum_hits);
        for part in p.partitions() {
            prop_assert!(part.cache.used() <= part.cache.capacity());
            part.cache.check_invariants();
        }
    }

    /// LRU-MIN's defining guarantee: if any cached document is at least
    /// as large as the incoming one, the victim is at least that large.
    #[test]
    fn lru_min_victim_size_bound(
        reqs in request_stream(150),
        incoming in 1u64..4_000,
    ) {
        let mut cache = Cache::new(u64::MAX, Box::new(named::lru()));
        let mut lm = webcache::core::policy::LruMin::new();
        for r in &reqs {
            cache.request(r);
        }
        for m in cache.iter() {
            lm.on_insert(m);
        }
        let any_big = cache.iter().any(|m| m.size >= incoming);
        if let Some(victim) = lm.victim(u64::MAX, incoming, &cache) {
            let vsize = cache.meta(victim).unwrap().size;
            if any_big {
                prop_assert!(vsize >= incoming, "victim {vsize} < incoming {incoming}");
            }
        } else {
            prop_assert!(cache.is_empty());
        }
    }

    /// CLF round trip for arbitrary well-formed raw requests.
    #[test]
    fn clf_round_trips_arbitrary_requests(
        time in 0u64..100_000_000,
        path in "[a-z0-9/._-]{1,40}",
        host in "[a-z0-9.-]{1,20}",
        client in "[a-z0-9.-]{1,20}",
        status in prop::sample::select(vec![200u16, 304, 404, 500]),
        size in 0u64..1_000_000_000,
        lm in prop::option::of(0u64..100_000_000),
    ) {
        let req = RawRequest {
            time,
            client,
            url: format!("http://{host}/{path}"),
            status,
            size,
            last_modified: lm,
        };
        let epoch = 800_000_000;
        let line = clf::format_line(&req, epoch);
        let back = clf::parse_line(&line, epoch).expect("round trip");
        prop_assert_eq!(back, req);
    }

    /// Moving averages stay within the input's recorded range.
    #[test]
    fn moving_average_is_bounded(
        values in prop::collection::vec(prop::option::of(0.0f64..100.0), 1..60),
        window in 1usize..10,
    ) {
        let s = DailySeries::new(values);
        if let Some((lo, hi)) = s.range() {
            for v in s.moving_average(window).values.iter().flatten() {
                prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
            }
            for v in s.moving_average_recorded(window).values.iter().flatten() {
                prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
            }
        }
    }

    /// The deterministic random key is a total order: no two distinct
    /// documents ever compare equal under a full KeySpec rank + id.
    #[test]
    fn random_key_total_order(urls in prop::collection::hash_set(0u32..10_000, 2..50)) {
        let spec = KeySpec::primary(Key::Random);
        let metas: Vec<_> = urls
            .iter()
            .map(|&u| webcache::core::DocMeta {
                url: UrlId(u),
                size: 100,
                doc_type: DocType::Text,
                entry_time: 0,
                last_access: 0,
                nrefs: 1,
                expires: None,
                refetch_latency_ms: 0,
                type_priority: 0,
                last_modified: None,
            })
            .collect();
        let mut keys: Vec<_> = metas.iter().map(|m| (spec.rank(m), m.url)).collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), metas.len());
    }
}
