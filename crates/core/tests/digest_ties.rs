//! Ties the sorted list's 96-bit digest cannot split (DESIGN.md D45).
//!
//! A `SortedPolicy` files each document at its `KeySpec` digest: one
//! 32-bit word per key, each saturating at `u32::MAX`, every word after a
//! saturated one zero, and only the top 32 bits of the first RANDOM key.
//! Documents whose digests are equal are ordered at the head, and in the
//! tracked position index, by `KeySpec::rank` and then the url. Here each
//! kind of tie the digest makes is forced, and the victims and tracked
//! positions are held to a naive sort by `(spec.rank, url)`:
//!
//! * sizes of 4 GiB and more, under SIZE-primary and SIZE-secondary
//!   specs;
//! * reference counts and timestamps past 2³²;
//! * two URL ids whose first RANDOM component agrees in its top 32 bits
//!   but whose full components order them against their ids, found by a
//!   scan below, for a RANDOM key in each of the three places.
//!
//! Pitkow/Recker's two lists keep the top 32 bits of their 64-bit
//! tie-break the same way: a pair found by the same scan must leave in the
//! order of the full tie-break. The `#[doc(hidden)]` thread-local
//! `policy::sorted::TIES` counts the heads settled among tied digests, so
//! each test can show it reached that path.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use webcache_core::cache::{DocMeta, SlabStore};
use webcache_core::policy::sorted::TIES;
use webcache_core::policy::{Key, KeySpec, PitkowRecker, RemovalPolicy, SortedPolicy};
use webcache_core::util::splitmix64;
use webcache_trace::{DocType, UrlId, SECONDS_PER_DAY};

/// The specs' salt.
const SALT: u64 = 0x7135;
/// Sizes at and past the SIZE word's saturation, and two below it that
/// share a LOG2(SIZE).
const SIZES: [u64; 6] = [1 << 32, (1 << 32) + 1, 5 << 30, u32::MAX as u64, 2048, 2049];
/// The first request's time: four seconds before ETIME and ATIME saturate.
const T0: u64 = (1 << 32) - 4;
/// Seconds between requests: mostly none.
const GAPS: [u64; 4] = [0, 0, 1, 2];
/// The first reference count of an odd url: NREF saturates on its second
/// hit. Even urls start at 1.
const N0: u64 = (1 << 32) - 3;

/// Heads settled among tied digests so far, on this thread.
fn ties() -> u64 {
    TIES.with(Cell::get)
}

fn meta(url: u32, size: u64, time: u64, nrefs: u64) -> DocMeta {
    DocMeta {
        url: UrlId(url),
        size,
        doc_type: DocType::Text,
        entry_time: time,
        last_access: time,
        nrefs,
        expires: None,
        refetch_latency_ms: 0,
        type_priority: 0,
        last_modified: None,
    }
}

/// Two url ids, the first below the second, whose `value`s agree in their
/// top 32 bits of `bits` and are ordered against the ids: the second id's
/// value is the smaller. Scanned from id 0, as a birthday search.
fn colliding(bits: u32, value: impl Fn(u32) -> u64) -> (u32, u32) {
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for url in 0..1u32 << 22 {
        let v = value(url);
        match seen.get(&(v >> (bits - 32))) {
            Some(&first) if value(first) > v => return (first, url),
            Some(_) => {}
            None => {
                seen.insert(v >> (bits - 32), url);
            }
        }
    }
    panic!("no colliding pair below 2^22");
}

/// For a RANDOM key in each place of a spec, a pair of urls that its
/// digest ties and its rank orders against their ids. Scanned once per
/// process.
fn random_pairs() -> [(u32, u32); 3] {
    static PAIRS: OnceLock<[(u32, u32); 3]> = OnceLock::new();
    *PAIRS.get_or_init(scan_random_pairs)
}

fn scan_random_pairs() -> [(u32, u32); 3] {
    let specs = [
        KeySpec::pair(Key::Random, Key::Size),
        KeySpec::pair(Key::Size, Key::Random),
        KeySpec::pair(Key::Size, Key::NRef),
    ];
    [0, 1, 2].map(|place| {
        let spec = specs[place].with_salt(SALT);
        colliding(63, |url| {
            let (p, s, t) = spec.rank(&meta(url, 1, 0, 1));
            [p, s, t][place] as u64
        })
    })
}

/// A `SortedPolicy` untracked and one tracked, beside their documents'
/// metadata, held to the naive sort. The metadata is kept twice: in the
/// slab the policies read, indexed up to the largest colliding id, and
/// in a map the naive sort walks.
struct Lane {
    spec: KeySpec,
    untracked: SortedPolicy,
    tracked: SortedPolicy,
    docs: SlabStore,
    resident: BTreeMap<UrlId, DocMeta>,
}

impl Lane {
    fn new(spec: KeySpec) -> Lane {
        Lane::with_slab(spec, SlabStore::default())
    }

    /// A lane on `docs`, an empty slab, perhaps grown by an earlier lane.
    fn with_slab(spec: KeySpec, docs: SlabStore) -> Lane {
        let mut tracked = SortedPolicy::new(spec);
        tracked.enable_position_tracking(&docs);
        Lane {
            spec,
            untracked: SortedPolicy::new(spec),
            tracked,
            docs,
            resident: BTreeMap::new(),
        }
    }

    fn insert(&mut self, m: DocMeta) {
        self.docs.insert(m, ());
        self.resident.insert(m.url, m);
        self.untracked.on_insert(&m);
        self.tracked.on_insert(&m);
    }

    /// A hit, as the cache delivers it: to a policy that observes hits.
    fn hit(&mut self, m: DocMeta) {
        self.docs.insert(m, ());
        self.resident.insert(m.url, m);
        for p in [&mut self.untracked, &mut self.tracked] {
            if p.observes_hits() {
                p.on_access(&m);
            }
        }
    }

    fn remove(&mut self, url: UrlId) {
        self.docs.remove(url);
        self.resident.remove(&url);
        self.untracked.on_remove(url);
        self.tracked.on_remove(url);
    }

    /// Every resident document by `(spec.rank, url)`.
    fn naive(&self) -> Vec<UrlId> {
        let docs = self.resident.values();
        let mut order: Vec<_> = docs.map(|m| (self.spec.rank(m), m.url)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, url)| url).collect()
    }

    /// Both victims are the naive head, and every document's position, in
    /// the tracked index and, if `scan`, by the untracked scan, is its
    /// place in the naive sort. The scan walks the slab, every id up to
    /// the largest colliding one, so only the unit tests take it.
    fn check(&mut self, scan: bool) -> Result<Option<UrlId>, TestCaseError> {
        let order = self.naive();
        let name = self.spec.name();
        let head = order.first().copied();
        let untracked = self.untracked.victim(0, 0, &self.docs);
        let tracked = self.tracked.victim(0, 0, &self.docs);
        prop_assert!(
            (untracked, tracked) == (head, head),
            "{name}: victims {untracked:?} untracked, {tracked:?} tracked, of {order:?}"
        );
        for (at, &url) in order.iter().enumerate() {
            let tracked = self.tracked.removal_position(url, &self.docs);
            let scanned = if scan {
                self.untracked.removal_position(url, &self.docs)
            } else {
                Some(at)
            };
            prop_assert!(
                (tracked, scanned) == (Some(at), Some(at)),
                "{name}: {url:?} at {tracked:?} tracked, {scanned:?} scanned, in {order:?}"
            );
        }
        Ok(head)
    }

    /// Evict victim by victim, each the naive head.
    fn drain(&mut self, scan: bool) -> Result<(), TestCaseError> {
        while let Some(url) = self.check(scan)? {
            self.remove(url);
        }
        Ok(())
    }

    /// [`Lane::check`] with the scan, failing the test on a mismatch.
    fn assert_sorted(&mut self) {
        if let Err(e) = self.check(true) {
            panic!("{}: {e:?}", self.spec.name());
        }
    }

    /// [`Lane::drain`] with the scan, failing the test on a mismatch.
    fn assert_drains(&mut self) {
        if let Err(e) = self.drain(true) {
            panic!("{}: {e:?}", self.spec.name());
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Reference the pool's `url`th url at `SIZES[size]` after `GAPS[gap]` seconds:
    /// an insert, a hit, or a size change (remove and re-insert).
    Request { url: usize, size: usize, gap: usize },
    /// Invalidate the pool's `url`th url.
    Remove { url: usize },
    /// Remove the victim.
    Evict,
}

fn ops(urls: usize, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    let raw = (0u8..10, 0..urls, 0..SIZES.len(), 0..GAPS.len());
    prop::collection::vec(raw, 1..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, url, size, gap)| match kind {
                0 => Op::Remove { url },
                1 => Op::Evict,
                _ => Op::Request { url, size, gap },
            })
            .collect()
    })
}

/// Every pair of keys, and RANDOM first, over a few small urls and the
/// three colliding pairs, under streams whose sizes, reference counts and
/// times saturate their words: the victims and positions are the naive
/// sort's after every step, and the streams reach the tie path.
#[test]
fn tied_digests_leave_in_rank_order() {
    let pairs = random_pairs();
    let mut urls = vec![0, 1, 2];
    urls.extend(pairs.iter().flat_map(|&(a, b)| [a, b]));
    let mut specs = KeySpec::all36(SALT);
    specs.push(KeySpec::pair(Key::Random, Key::Size).with_salt(SALT));
    specs.push(KeySpec::pair(Key::Random, Key::NRef).with_salt(SALT));
    let (rounds, max_len) = if cfg!(debug_assertions) {
        (4, 60)
    } else {
        (48, 120)
    };
    let before = ties();
    let mut case = 0;
    // One slab, grown once to the largest id, for every case.
    let mut slab = SlabStore::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases((rounds * specs.len()) as u32));
    let outcome = runner.run(&ops(urls.len(), max_len), |ops| {
        let mut lane = Lane::with_slab(specs[case % specs.len()], std::mem::take(&mut slab));
        case += 1;
        let mut now = T0;
        for op in ops {
            match op {
                Op::Request { url, size, gap } => {
                    now += GAPS[gap];
                    let (url, size) = (urls[url], SIZES[size]);
                    match lane.resident.get(&UrlId(url)).copied() {
                        Some(m) if m.size == size => lane.hit(DocMeta {
                            last_access: now,
                            nrefs: m.nrefs + 1,
                            ..m
                        }),
                        resident => {
                            if resident.is_some() {
                                lane.remove(UrlId(url));
                            }
                            let nrefs = if url % 2 == 1 { N0 } else { 1 };
                            lane.insert(meta(url, size, now, nrefs));
                        }
                    }
                }
                Op::Remove { url } => lane.remove(UrlId(urls[url])),
                Op::Evict => {
                    if let Some(url) = lane.check(false)? {
                        lane.remove(url);
                    }
                }
            }
            lane.check(false)?;
        }
        lane.drain(false)?;
        slab = lane.docs;
        Ok(())
    });
    if let Err(e) = outcome {
        panic!("{e}");
    }
    assert!(ties() > before, "no head was settled among tied digests");
}

/// Documents of 4 GiB and more tie at a zero SIZE word: under SIZE first
/// they leave largest first, and under SIZE second, after an equal NREF,
/// the same; never by url.
#[test]
fn sizes_past_4_gib_leave_largest_first() {
    for spec in [
        KeySpec::pair(Key::Size, Key::Random),
        KeySpec::pair(Key::Size, Key::EntryTime),
        KeySpec::pair(Key::NRef, Key::Size),
        KeySpec::pair(Key::EntryTime, Key::Size),
    ] {
        let mut lane = Lane::new(spec.with_salt(SALT));
        let before = ties();
        // Ascending urls, ascending sizes: the naive order is reversed.
        for (url, size) in [
            (1, u32::MAX as u64),
            (2, 1 << 32),
            (3, 5 << 30),
            (4, 1 << 40),
        ] {
            lane.insert(meta(url, size, 7, 1));
        }
        lane.assert_drains();
        assert!(ties() > before, "{}: no tie settled", spec.name());
    }
}

/// Reference counts and timestamps past 2³² saturate their words: the
/// documents leave by their full count or time.
#[test]
fn counts_and_times_past_2_32_leave_in_full_order() {
    const PAST: u64 = 1 << 32;
    const COUNTS: [u64; 3] = [PAST + 9, PAST + 2, PAST];
    let lanes = [
        (KeySpec::pair(Key::NRef, Key::Random), COUNTS, 5),
        (KeySpec::pair(Key::NRef, Key::EntryTime), COUNTS, 5),
        (KeySpec::pair(Key::AccessTime, Key::Size), [1; 3], PAST),
        (KeySpec::pair(Key::EntryTime, Key::NRef), [1; 3], PAST),
    ];
    for (spec, nrefs, time) in lanes {
        let mut lane = Lane::new(spec.with_salt(SALT));
        let before = ties();
        for (i, url) in [1u32, 2, 3].into_iter().enumerate() {
            // Later urls come earlier in time, so the naive order is
            // reversed.
            let m = meta(url, 100, time + 10 - 3 * i as u64, nrefs[i]);
            lane.insert(m);
        }
        lane.assert_sorted();
        // Hits raise ATIME and NREF further past saturation.
        for url in [3u32, 1] {
            let m = lane.resident[&UrlId(url)];
            lane.hit(DocMeta {
                last_access: m.last_access + 20,
                nrefs: m.nrefs + 1,
                ..m
            });
            lane.assert_sorted();
        }
        lane.assert_drains();
        assert!(ties() > before, "{}: no tie settled", spec.name());
    }
}

/// Two urls whose first RANDOM component agrees in its top 32 bits tie on
/// the digest; they leave in the order of the full component, which is
/// against their ids, wherever the RANDOM key sits.
#[test]
fn random_components_that_agree_in_32_bits_leave_in_full_order() {
    let pairs = random_pairs();
    let specs = [
        KeySpec::pair(Key::Random, Key::Size),
        KeySpec::pair(Key::Size, Key::Random),
        KeySpec::pair(Key::Size, Key::NRef),
    ];
    for (spec, (a, b)) in specs.into_iter().zip(pairs) {
        let spec = spec.with_salt(SALT);
        let mut lane = Lane::new(spec);
        let before = ties();
        lane.insert(meta(a, 100, 3, 1));
        lane.insert(meta(b, 100, 3, 1));
        lane.insert(meta(5, 50, 3, 1));
        let naive = lane.naive();
        let at = |url| naive.iter().position(|&u| u == UrlId(url));
        assert!(at(b) < at(a), "{}: {naive:?}", spec.name());
        lane.assert_drains();
        assert!(ties() > before, "{}: no tie settled", spec.name());
    }
}

/// Pitkow/Recker's lists keep the top 32 bits of `splitmix64(url ^ salt)`:
/// two urls that agree there leave by the full value, on the day list and
/// on the size list alike.
#[test]
fn pitkow_recker_ties_leave_by_the_full_tiebreak() {
    let (a, b) = colliding(64, |url| splitmix64(u64::from(url) ^ SALT));
    let day = 3 * SECONDS_PER_DAY;
    for (now, expect) in [
        (day + 100, "the size list"),
        (day + SECONDS_PER_DAY, "the day list"),
    ] {
        let mut p = PitkowRecker::new(None, SALT);
        let mut docs = SlabStore::default();
        let before = ties();
        for m in [meta(a, 100, day + 5, 1), meta(b, 100, day + 5, 1)] {
            docs.insert(m, ());
            p.on_insert(&m);
        }
        for url in [b, a] {
            assert_eq!(p.victim(now, 0, &docs), Some(UrlId(url)), "{expect}");
            docs.remove(UrlId(url));
            p.on_remove(UrlId(url));
        }
        assert!(ties() > before, "{expect}: no tie settled");
    }
}
