//! A hit re-ranks only what it can move, over every key triple.
//!
//! `SortedPolicy` recomputes only the rank components a hit can change —
//! ATIME, DAY(ATIME) and NREF, the keys ranked by `last_access` and
//! `nrefs` — and keeps every other component from the rank already in
//! its slab: in `on_access` once position tracking is on, as here, and
//! otherwise when the document reaches the head (DESIGN.md D39, held to
//! a sort by `cache::tests` and `sorted_model.rs`). That is exact only
//! because a hit changes nothing else a key reads. Here every one of the
//! 10³ (primary, secondary, tertiary) triples of the six Table 1 keys,
//! RANDOM and the three extension keys runs a random stream of hits,
//! misses and size changes through a `Cache` whose decorator sets each
//! document's expiry, refetch latency and type priority. After every
//! request the policy's `sorted_urls()` must be the resident set sorted
//! by `spec.rank(meta)` of the cache's own metadata, every tracked
//! position must be the document's index in that order, and a miss must
//! evict a prefix of the order it found.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::sync::{Arc, Mutex, MutexGuard};
use webcache_core::cache::{Cache, DocMeta, Outcome};
use webcache_core::policy::{Key, KeySpec, RemovalPolicy, ResidentMeta, SortedPolicy};
use webcache_core::util::splitmix64;
use webcache_trace::{ClientId, DocType, Request, ServerId, Timestamp, UrlId, SECONDS_PER_DAY};

/// Table 1's keys, RANDOM, and the extension keys of section 5.
const KEYS: [Key; 10] = [
    Key::Size,
    Key::Log2Size,
    Key::EntryTime,
    Key::AccessTime,
    Key::DayOfAccess,
    Key::NRef,
    Key::Random,
    Key::DocTypePriority,
    Key::Latency,
    Key::Expiry,
];
const TRIPLES: usize = KEYS.len() * KEYS.len() * KEYS.len();
const URLS: u32 = 24;
/// Two sizes per power-of-two band, so that LOG2(SIZE) ties and SIZE
/// does not.
const SIZES: [u64; 5] = [1024, 1500, 2048, 3000, 4096];
/// Seconds between requests: often none (ETIME and ATIME tie), sometimes
/// across a day boundary or two (DAY(ATIME) moves).
const GAPS: [u64; 8] = [
    0,
    0,
    1,
    1,
    7,
    3600,
    SECONDS_PER_DAY / 2,
    2 * SECONDS_PER_DAY,
];
/// About six of the documents at a time.
const CAPACITY: u64 = 14_000;

fn spec(triple: usize) -> KeySpec {
    KeySpec {
        primary: KEYS[triple / 100],
        secondary: KEYS[triple / 10 % 10],
        tertiary: KEYS[triple % 10],
        salt: 0x5EED,
    }
}

/// Expiry (none for a quarter of the versions), refetch latency and type
/// priority, each from a few values so that they tie, and each a function
/// of the URL and size: a size change re-decorates the document.
fn decorate(r: &Request, m: &mut DocMeta) {
    let h = splitmix64(u64::from(r.url.0) << 32 ^ r.size);
    m.expires = (!h.is_multiple_of(4)).then(|| m.entry_time + (h >> 2) % 3 * SECONDS_PER_DAY);
    m.refetch_latency_ms = (h >> 8) % 4 * 150;
    m.type_priority = ((h >> 16) % 3) as u8;
}

/// The policy inside the cache, shared with the test that reads its
/// sorted list. It forwards `observes_hits`, so the cache starts without
/// calling `on_access` and must read the answer again when tracking is
/// switched on through it.
struct Shared(Arc<Mutex<SortedPolicy>>);

impl Shared {
    fn get(&self) -> MutexGuard<'_, SortedPolicy> {
        self.0.lock().expect("not poisoned")
    }
}

impl RemovalPolicy for Shared {
    fn name(&self) -> String {
        self.get().name()
    }
    fn on_insert(&mut self, meta: &DocMeta) {
        self.get().on_insert(meta);
    }
    fn on_access(&mut self, meta: &DocMeta) {
        self.get().on_access(meta);
    }
    fn observes_hits(&self) -> bool {
        self.get().observes_hits()
    }
    fn on_remove(&mut self, url: UrlId) {
        self.get().on_remove(url);
    }
    fn victim(
        &mut self,
        now: Timestamp,
        incoming_size: u64,
        docs: &dyn ResidentMeta,
    ) -> Option<UrlId> {
        self.get().victim(now, incoming_size, docs)
    }
    fn len(&self) -> usize {
        self.get().len()
    }
    fn removal_position(&self, url: UrlId, docs: &dyn ResidentMeta) -> Option<usize> {
        self.get().removal_position(url, docs)
    }
    fn enable_position_tracking(&mut self, docs: &dyn ResidentMeta) {
        self.get().enable_position_tracking(docs);
    }
}

/// One request: `url` after `GAPS[gap]` seconds, at its usual size or,
/// when `modified`, at another one (a size change, and another when it
/// next returns to its usual size).
#[derive(Debug, Clone, Copy)]
struct Step {
    url: u32,
    modified: bool,
    gap: usize,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = (0..URLS, 0..10u8, 0..GAPS.len()).prop_map(|(url, m, gap)| Step {
        url,
        modified: m == 0,
        gap,
    });
    prop::collection::vec(step, 1..max_len)
}

/// The resident set sorted by `spec.rank` of the cache's metadata.
fn naive_order(cache: &Cache, spec: KeySpec) -> Vec<UrlId> {
    let mut order: Vec<_> = cache.iter().map(|m| (spec.rank(m), m.url)).collect();
    order.sort_unstable();
    order.into_iter().map(|(_, url)| url).collect()
}

#[derive(Debug, Default)]
struct Seen {
    hits: u64,
    modified: u64,
    evictions: u64,
}

fn replay(triple: usize, stream: &[Step], seen: &mut Seen) -> Result<(), TestCaseError> {
    let spec = spec(triple);
    let keys = (spec.primary, spec.secondary, spec.tertiary);
    let policy = Arc::new(Mutex::new(SortedPolicy::new(spec)));
    let mut cache =
        Cache::new(CAPACITY, Box::new(Shared(Arc::clone(&policy)))).with_decorator(decorate);
    cache.enable_position_tracking();
    let mut now = 0;
    for (i, step) in stream.iter().enumerate() {
        now += GAPS[step.gap];
        let usual = SIZES[step.url as usize % SIZES.len()];
        let size = if step.modified { usual + 1 } else { usual };
        let r = Request {
            time: now,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(step.url),
            size,
            doc_type: DocType::Text,
            last_modified: None,
        };
        let mut before = naive_order(&cache, spec);
        before.retain(|&url| url != r.url);
        let outcome = cache.request(&r);
        seen.modified += u64::from(matches!(outcome, Outcome::MissModified { .. }));
        match outcome {
            Outcome::Hit => seen.hits += 1,
            Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
                let evicted: Vec<UrlId> = evicted.iter().map(|m| m.url).collect();
                prop_assert!(
                    evicted[..] == before[..evicted.len()],
                    "{:?}: request {i} evicted {evicted:?}, the order was {before:?}",
                    keys
                );
                seen.evictions += evicted.len() as u64;
            }
            Outcome::MissTooBig => {}
        }
        cache.check_invariants();
        let order = naive_order(&cache, spec);
        let sorted = policy.lock().expect("not poisoned").sorted_urls(&cache);
        prop_assert!(
            sorted == order,
            "{keys:?}: after request {i} the list is {sorted:?}, the naive sort {order:?}"
        );
        for (at, &url) in order.iter().enumerate() {
            let tracked = cache.removal_position(url);
            prop_assert!(
                tracked == Some(at),
                "{keys:?}: after request {i} {url:?} is tracked at {tracked:?}, not {at}"
            );
        }
    }
    Ok(())
}

/// Case `k` runs triple `k % 1000`, so every triple gets its share of
/// streams.
#[test]
fn every_key_triple_reranks_a_hit_exactly() {
    let (rounds, max_len) = if cfg!(debug_assertions) {
        (2, 120)
    } else {
        (16, 400)
    };
    let mut case = 0;
    let mut seen = Seen::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases((rounds * TRIPLES) as u32));
    let outcome = runner.run(&steps(max_len), |stream| {
        let triple = case % TRIPLES;
        case += 1;
        replay(triple, &stream, &mut seen)
    });
    if let Err(e) = outcome {
        panic!("{e}");
    }
    assert!(case >= TRIPLES, "only {case} streams ran");
    assert!(
        seen.hits > 0 && seen.modified > 0 && seen.evictions > 0,
        "the streams must hit, change sizes and evict: {seen:?}"
    );
}
