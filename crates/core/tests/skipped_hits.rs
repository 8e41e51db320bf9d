//! A hit the cache does not deliver changes nothing.
//!
//! A policy that answers `false` to `observes_hits` promises that
//! `on_access` would leave it as it is, and the cache then skips the call
//! (DESIGN.md D41). Here every policy runs beside itself wrapped in
//! [`Always`], which forwards everything but answers `true`, so its cache
//! delivers every hit. The policies: the 36 key pairs of
//! `KeySpec::all36`, LRU-MIN, GreedyDual-Size under both cost models,
//! Pitkow/Recker and, in an infinite cache, `NeverEvict`. Random streams
//! re-reference documents, change their sizes and cross day boundaries,
//! and position tracking is switched on partway, through each cache. After
//! every request the two caches must agree on the outcome (victims
//! included), on every counter and gauge, and, once tracking is on, on the
//! removal position of every resident document; at the end, on the
//! exported state.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use webcache_core::cache::{Cache, DocMeta, Outcome};
use webcache_core::policy::greedy_dual::GdCost;
use webcache_core::policy::{
    GreedyDualSize, KeySpec, LruMin, NeverEvict, PitkowRecker, RemovalPolicy, ResidentMeta,
    SortedPolicy,
};
use webcache_trace::{ClientId, DocType, Request, ServerId, Timestamp, UrlId, SECONDS_PER_DAY};

const URLS: u32 = 24;
/// Two sizes per power-of-two band, so that LOG2(SIZE) ties and SIZE
/// does not.
const SIZES: [u64; 5] = [1024, 1500, 2048, 3000, 4096];
/// Seconds between requests: often none, sometimes across a day boundary
/// or two (DAY(ATIME) moves, Pitkow/Recker purges).
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
/// The 36 key pairs, then the five policies that are not sorted orders.
const POLICIES: usize = 36 + 5;

/// Policy `i` of [`POLICIES`], and whether its cache is infinite.
fn policy(i: usize) -> (Box<dyn RemovalPolicy>, bool) {
    match i {
        0..36 => (
            Box::new(SortedPolicy::new(KeySpec::all36(0x5EED)[i])),
            false,
        ),
        36 => (Box::new(LruMin::new()), false),
        37 => (Box::new(GreedyDualSize::with_cost(GdCost::Uniform)), false),
        38 => (Box::new(GreedyDualSize::with_cost(GdCost::Bytes)), false),
        39 => (Box::new(PitkowRecker::default()), false),
        _ => (Box::new(NeverEvict::new()), true),
    }
}

fn cache(policy: Box<dyn RemovalPolicy>, infinite: bool) -> Cache {
    if infinite {
        Cache::infinite(policy)
    } else {
        Cache::new(CAPACITY, policy)
    }
}

/// A policy whose cache delivers every hit: everything is forwarded but
/// `observes_hits`, which keeps the trait's default.
struct Always(Box<dyn RemovalPolicy>);

impl RemovalPolicy for Always {
    fn name(&self) -> String {
        self.0.name()
    }
    fn on_insert(&mut self, meta: &DocMeta) {
        self.0.on_insert(meta);
    }
    fn on_access(&mut self, meta: &DocMeta) {
        self.0.on_access(meta);
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
    fn removal_position(&self, url: UrlId, docs: &dyn ResidentMeta) -> Option<usize> {
        self.0.removal_position(url, docs)
    }
    fn enable_position_tracking(&mut self, docs: &dyn ResidentMeta) {
        self.0.enable_position_tracking(docs);
    }
    fn periodic_target(&self, now: Timestamp, used: u64, capacity: u64) -> Option<u64> {
        self.0.periodic_target(now, used, capacity)
    }
    fn export_state(&self) -> Vec<u8> {
        self.0.export_state()
    }
    fn import_state(&mut self, bytes: &[u8]) -> bool {
        self.0.import_state(bytes)
    }
}

/// One request: `url` after `GAPS[gap]` seconds, at its usual size or,
/// when `modified`, at another one.
#[derive(Debug, Clone, Copy)]
struct Step {
    url: u32,
    modified: bool,
    gap: usize,
}

/// A stream, and the request before which position tracking is switched
/// on (never, when it is past the stream's end).
fn streams(max_len: usize) -> impl Strategy<Value = (Vec<Step>, usize)> {
    let step = (0..URLS, 0..10u8, 0..GAPS.len()).prop_map(|(url, m, gap)| Step {
        url,
        modified: m == 0,
        gap,
    });
    (
        prop::collection::vec(step, 1..max_len),
        0..max_len + max_len / 4,
    )
}

#[derive(Debug, Default)]
struct Seen {
    hits: u64,
    /// Hits served while the policy answered `false`.
    skipped: u64,
    modified: u64,
    evictions: u64,
    periodic: u64,
    tracked: u64,
}

fn replay(
    which: usize,
    stream: &[Step],
    track_at: usize,
    seen: &mut Seen,
) -> Result<(), TestCaseError> {
    let (plain, infinite) = policy(which);
    let name = plain.name();
    let mut observes = plain.observes_hits();
    let mut a = cache(plain, infinite);
    let (inner, _) = policy(which);
    let mut b = cache(Box::new(Always(inner)), infinite);
    let mut now = 0;
    for (i, step) in stream.iter().enumerate() {
        if i == track_at {
            a.enable_position_tracking();
            b.enable_position_tracking();
            seen.tracked += 1;
            let (mut probe, _) = policy(which);
            probe.enable_position_tracking(&a);
            observes = probe.observes_hits();
        }
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
        let got = a.request(&r);
        let want = b.request(&r);
        prop_assert!(
            got == want,
            "{name}: request {i} ({r:?}) gave {got:?} skipped, {want:?} delivered"
        );
        match got {
            Outcome::Hit => {
                seen.hits += 1;
                seen.skipped += u64::from(!observes);
            }
            Outcome::MissModified { evicted } => {
                seen.modified += 1;
                seen.evictions += evicted.len() as u64;
            }
            Outcome::Miss { evicted } => seen.evictions += evicted.len() as u64,
            Outcome::MissTooBig => {}
        }
        let gauges = |c: &Cache| (*c.stats(), c.used(), c.len());
        prop_assert!(
            gauges(&a) == gauges(&b),
            "{name}: after request {i} {:?} skipped, {:?} delivered",
            gauges(&a),
            gauges(&b)
        );
        a.check_invariants();
        if i >= track_at {
            for m in a.iter() {
                let (skipped, delivered) = (a.removal_position(m.url), b.removal_position(m.url));
                prop_assert!(
                    skipped == delivered,
                    "{name}: after request {i} {:?} is at {skipped:?} skipped, {delivered:?} delivered",
                    m.url
                );
            }
        }
    }
    seen.periodic += a.stats().periodic_evictions;
    prop_assert!(
        a.export_state() == b.export_state(),
        "{name}: the exported states differ"
    );
    Ok(())
}

/// Case `k` runs policy `k % POLICIES`, so every policy gets its share of
/// streams.
#[test]
fn skipping_hits_changes_nothing() {
    let (rounds, max_len) = if cfg!(debug_assertions) {
        (24, 200)
    } else {
        (192, 500)
    };
    let mut case = 0;
    let mut seen = Seen::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases((rounds * POLICIES) as u32));
    let outcome = runner.run(&streams(max_len), |(stream, track_at)| {
        let which = case % POLICIES;
        case += 1;
        replay(which, &stream, track_at, &mut seen)
    });
    if let Err(e) = outcome {
        panic!("{e}");
    }
    assert!(case >= POLICIES, "only {case} streams ran");
    assert!(
        seen.hits > 0
            && seen.skipped > 0
            && seen.skipped < seen.hits
            && seen.modified > 0
            && seen.evictions > 0
            && seen.periodic > 0
            && seen.tracked > 0,
        "the streams must hit with and without delivery, change sizes, evict, purge and track: {seen:?}"
    );
}
