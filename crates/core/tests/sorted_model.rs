//! The policy module's one sorted list against oracles (DESIGN.md D23,
//! D34).
//!
//! `SortedPolicy` orders its documents with a sorted run in front of a
//! lazy heap and rebuilds both when stale entries pile up; `sorted_urls()`
//! sorts the rank slab and never sees either. For every one of the 36
//! key combinations and any mix of inserts, hits, size changes, removals
//! and evictions, the head the queues produce must be the head of that
//! sorted list — including after a checkpoint round trip
//! (`export_state` / `restore_state`) and with position tracking on.
//! GreedyDual-Size (both cost models) and Pitkow/Recker file into the
//! same list, so the same streams drive them beside every `SortedPolicy`
//! and hold them to naive O(n) scans: GreedyDual-Size's victim is the
//! minimum `(H, url)` and sets the inflation value, its tracked
//! `removal_position` is the count of smaller entries, and its state
//! round trip continues identically; Pitkow/Recker evicts the stalest day
//! if it is before today, else the largest document.
//!
//! Streams are built to hit the awkward cases: most requests share a
//! second with their predecessor (so ETIME/ATIME tie and arrival order is
//! not rank order), sizes come from five values in three power-of-two
//! bands (LOG2SIZE ties), day boundaries are rare (DAY ties), reference
//! counts restart at 1 on every re-insert (NREF ties), and a document
//! that changes size and changes back within a second returns to the
//! exact rank it had — A → B → A — while its first entry is still queued.
//!
//! A hit that raises a rank below the run's back files nothing and leaves
//! the queued entry as a lower bound (D37). Since D39 an untracked list
//! files no hit at all: the plain policies and the cache's own rank each
//! document at the head, from the cache's metadata, while the tracked
//! policies re-rank each hit as it happens; both are held to the same
//! oracles. One document is scripted
//! through every state that leaves its rank in, with the number of lower
//! bounds re-filed on the way held exact, and the first property's own
//! cases must re-file at least once.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::cell::Cell;
use std::cmp::Reverse;
use webcache_core::cache::{Cache, DocMeta, Outcome, SlabStore};
use webcache_core::policy::greedy_dual::GdCost;
use webcache_core::policy::sorted::REFILES;
use webcache_core::policy::{
    GreedyDualSize, Key, KeySpec, PitkowRecker, RemovalPolicy, SortedPolicy,
};
use webcache_core::util::splitmix64;
use webcache_trace::{day_of, ClientId, DocType, Request, ServerId, UrlId, SECONDS_PER_DAY};

/// Two sizes per band so that LOG2SIZE ties while SIZE does not.
const SIZES: [u64; 5] = [1024, 1500, 2048, 3000, 4096];
/// Seconds between requests: mostly none, sometimes most of a day.
const GAPS: [u64; 8] = [0, 0, 0, 0, 1, 1, 7, SECONDS_PER_DAY / 2];
/// Big enough never to evict on its own, small enough that one request
/// of this size evicts everything.
const CAPACITY: u64 = 1 << 40;
/// The document of that size; ids index a slab, so just past the others.
const FLUSH_URL: u32 = 3000;
/// Pitkow/Recker's tie-break salt.
const PR_SALT: u64 = 0x5EED;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Reference `url` at `SIZES[size]` after `GAPS[gap]` seconds: an
    /// insert, a hit, or a size change (remove and re-insert).
    Request { url: u32, size: usize, gap: usize },
    /// Invalidate `url`.
    Remove { url: u32 },
    /// Remove whatever the policy names as victim.
    Evict,
}

fn ops(urls: u32, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    // Sizes are drawn so that a document usually keeps its size (a hit).
    prop::collection::vec((0u8..10, 0..urls, 0usize..40, 0usize..8), 1..max_len).prop_map(
        move |raw| {
            raw.into_iter()
                .map(|(kind, url, size, gap)| match kind {
                    0 => Op::Remove { url },
                    1 => Op::Evict,
                    _ => Op::Request {
                        url,
                        size: if size < 5 { size } else { url as usize % 5 },
                        gap,
                    },
                })
                .collect()
        },
    )
}

fn request(time: u64, url: u32, size: u64) -> Request {
    Request {
        time,
        client: ClientId(0),
        server: ServerId(0),
        url: UrlId(url),
        size,
        doc_type: DocType::ALL[url as usize % 6],
        last_modified: None,
    }
}

/// URLs a miss evicted, in removal order.
fn evicted_urls(out: Outcome) -> Vec<UrlId> {
    match out {
        Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
            evicted.into_iter().map(|m| m.url).collect()
        }
        other => panic!("expected a miss, got {other:?}"),
    }
}

/// GreedyDual-Size's `H` in 2^20 fixed point (Cao & Irani): the
/// inflation value plus cost over size, never below `L + 1`.
fn gds_value(cost: GdCost, inflation: u64, size: u64) -> u64 {
    let cost = match cost {
        GdCost::Uniform => 1 << 20,
        GdCost::Bytes => size << 20,
    };
    inflation
        .saturating_add(cost / size.max(1))
        .max(inflation + 1)
}

/// A model's slot for `url`, the slab grown to hold it.
fn slot<T: Clone>(slab: &mut Vec<Option<T>>, url: UrlId) -> &mut Option<T> {
    let i = url.0 as usize;
    if i >= slab.len() {
        slab.resize(i + 1, None);
    }
    &mut slab[i]
}

/// The naive GreedyDual-Size: each resident document's `H`, by url id.
struct GdsModel {
    cost: GdCost,
    inflation: u64,
    values: Vec<Option<u64>>,
}

impl GdsModel {
    /// Every resident `(H, url)`, in url order.
    fn entries(&self) -> impl Iterator<Item = (u64, UrlId)> + '_ {
        let slots = self.values.iter().enumerate();
        slots.filter_map(|(i, h)| h.map(|h| (h, UrlId(i as u32))))
    }

    /// An insert or a hit: the document's value at today's inflation.
    fn touch(&mut self, meta: &DocMeta) {
        let h = gds_value(self.cost, self.inflation, meta.size);
        *slot(&mut self.values, meta.url) = Some(h);
    }

    /// The minimum `(H, url)`, found by a scan; its `H` becomes `L`.
    fn victim(&mut self) -> Option<UrlId> {
        let (h, url) = self.entries().min()?;
        self.inflation = h;
        Some(url)
    }

    /// How many resident documents sort before `url`.
    fn position(&self, url: UrlId) -> Option<usize> {
        let key = ((*self.values.get(url.0 as usize)?)?, url);
        Some(self.entries().filter(|&e| e < key).count())
    }

    /// `export_state`'s bytes: `L`, then `(url, H)` in url order.
    fn state(&self) -> Vec<u8> {
        let mut out = self.inflation.to_le_bytes().to_vec();
        for (h, url) in self.entries() {
            out.extend_from_slice(&url.0.to_le_bytes());
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }
}

/// One GreedyDual-Size cost model: a bare policy, a position-tracking
/// one, and the model they must agree with.
struct GdsLane {
    plain: GreedyDualSize,
    tracked: GreedyDualSize,
    model: GdsModel,
}

impl GdsLane {
    fn new(cost: GdCost) -> GdsLane {
        let mut tracked = GreedyDualSize::with_cost(cost);
        tracked.enable_position_tracking(&SlabStore::<()>::default());
        GdsLane {
            plain: GreedyDualSize::with_cost(cost),
            tracked,
            model: GdsModel {
                cost,
                inflation: 0,
                values: Vec::new(),
            },
        }
    }
}

/// The naive Pitkow/Recker: each resident document's `(DAY(ATIME), SIZE)`,
/// by url id.
#[derive(Default)]
struct PrModel {
    docs: Vec<Option<(u64, u64)>>,
}

impl PrModel {
    /// Every resident `(url, day, size)`, in url order.
    fn entries(&self) -> impl Iterator<Item = (UrlId, u64, u64)> + '_ {
        let slots = self.docs.iter().enumerate();
        slots.filter_map(|(i, d)| d.map(|(day, size)| (UrlId(i as u32), day, size)))
    }

    /// The stalest-day document if its day is before today, else the
    /// largest; ties by `splitmix64(url ^ salt)`, then url.
    fn victim(&self, now: u64) -> Option<UrlId> {
        let (stale, day, _) = self
            .entries()
            .min_by_key(|&(u, day, _)| (day, pr_tiebreak(u), u))?;
        if day < day_of(now) {
            return Some(stale);
        }
        self.entries()
            .min_by_key(|&(u, _, size)| (Reverse(size), pr_tiebreak(u), u))
            .map(|(u, _, _)| u)
    }
}

/// Pitkow/Recker's tie-break: the full 64 bits of the url's hash.
fn pr_tiebreak(url: UrlId) -> u64 {
    splitmix64(url.0 as u64 ^ PR_SALT)
}

/// The subjects: a cache whose own policy is never asked for a victim
/// until the end (its queues keep every stale entry), and bare policies
/// fed the same events from the cache's metadata — two `SortedPolicy`s,
/// one of them tracking positions, a GreedyDual-Size lane per cost model
/// and a Pitkow/Recker. `check_every` is how often the bare policies'
/// heads are compared with the oracles — asking pops stale heads (and
/// moves GreedyDual-Size's inflation value), so asking rarely leaves a
/// different structure behind than asking always.
struct Harness {
    spec: KeySpec,
    cache: Cache,
    plain: SortedPolicy,
    tracked: SortedPolicy,
    gds: [GdsLane; 2],
    pitkow_recker: PitkowRecker,
    pr_model: PrModel,
    now: u64,
}

impl Harness {
    fn new(spec: KeySpec) -> Harness {
        let cache = Cache::new(CAPACITY, Box::new(SortedPolicy::new(spec)));
        let mut tracked = SortedPolicy::new(spec);
        tracked.enable_position_tracking(&cache);
        Harness {
            spec,
            cache,
            plain: SortedPolicy::new(spec),
            tracked,
            gds: [GdsLane::new(GdCost::Uniform), GdsLane::new(GdCost::Bytes)],
            pitkow_recker: PitkowRecker::new(None, PR_SALT),
            pr_model: PrModel::default(),
            now: 0,
        }
    }

    /// Every bare policy.
    fn subjects(&mut self) -> [&mut dyn RemovalPolicy; 7] {
        let [a, b] = &mut self.gds;
        [
            &mut self.plain,
            &mut self.tracked,
            &mut a.plain,
            &mut a.tracked,
            &mut b.plain,
            &mut b.tracked,
            &mut self.pitkow_recker,
        ]
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Request { url, size, gap } => {
                self.now += GAPS[gap];
                let r = request(self.now, url, SIZES[size]);
                let hit = self.cache.request(&r).is_hit();
                let meta = *self.cache.meta(r.url).expect("just referenced");
                for p in self.subjects() {
                    if hit {
                        p.on_access(&meta);
                    } else {
                        p.on_remove(r.url);
                        p.on_insert(&meta);
                    }
                }
                for lane in &mut self.gds {
                    lane.model.touch(&meta);
                }
                let day = day_of(meta.last_access);
                *slot(&mut self.pr_model.docs, meta.url) = Some((day, meta.size));
            }
            Op::Remove { url } => self.remove(UrlId(url)),
            Op::Evict => {
                let head = self.check_heads()?;
                if let Some(url) = head {
                    self.remove(url);
                }
            }
        }
        let resident = self.cache.len();
        for p in self.subjects() {
            prop_assert!(
                p.len() == resident,
                "{}: {} of {resident}",
                p.name(),
                p.len()
            );
        }
        Ok(())
    }

    fn remove(&mut self, url: UrlId) {
        self.cache.remove(url);
        for p in self.subjects() {
            p.on_remove(url);
        }
        for lane in &mut self.gds {
            *slot(&mut lane.model.values, url) = None;
        }
        *slot(&mut self.pr_model.docs, url) = None;
    }

    /// Every bare policy's victim against its oracle; the `SortedPolicy`
    /// head is the one returned.
    fn check_heads(&mut self) -> Result<Option<UrlId>, TestCaseError> {
        let want = self.plain.sorted_urls(&self.cache).first().copied();
        prop_assert_eq!(self.plain.victim(self.now, 0, &self.cache), want);
        prop_assert_eq!(self.tracked.victim(self.now, 0, &self.cache), want);
        if let Some(url) = want {
            prop_assert_eq!(self.tracked.removal_position(url, &self.cache), Some(0));
            prop_assert_eq!(self.cache.removal_position(url), Some(0));
        }
        for lane in &mut self.gds {
            let head = lane.model.victim();
            prop_assert_eq!(lane.plain.victim(self.now, 0, &self.cache), head);
            prop_assert_eq!(lane.tracked.victim(self.now, 0, &self.cache), head);
            // Every document while there are few, four or five after.
            let resident = self.cache.len();
            let stride = if resident <= 32 { 1 } else { resident / 4 };
            for (_, url) in lane.model.entries().step_by(stride) {
                let scan = lane.model.position(url);
                prop_assert_eq!(lane.tracked.removal_position(url, &self.cache), scan);
            }
        }
        let head = self.pr_model.victim(self.now);
        prop_assert_eq!(self.pitkow_recker.victim(self.now, 0, &self.cache), head);
        Ok(want)
    }

    /// Replace each GreedyDual-Size lane's policies with ones restored
    /// from their exported state: the resident documents replayed (in
    /// reverse url order, at inflation zero), then the bytes imported.
    fn restore_greedy_dual(&mut self) -> Result<(), TestCaseError> {
        for lane in &mut self.gds {
            let state = lane.plain.export_state();
            prop_assert_eq!(&state, &lane.model.state());
            prop_assert_eq!(&lane.tracked.export_state(), &state);
            let mut plain = GreedyDualSize::with_cost(lane.model.cost);
            let resident: Vec<(u64, UrlId)> = lane.model.entries().collect();
            for &(_, url) in resident.iter().rev() {
                plain.on_insert(self.cache.meta(url).expect("resident"));
            }
            let mut tracked = plain.clone();
            prop_assert!(plain.import_state(&state));
            tracked.enable_position_tracking(&self.cache);
            prop_assert!(tracked.import_state(&state));
            prop_assert_eq!(&tracked.export_state(), &state);
            lane.plain = plain;
            lane.tracked = tracked;
        }
        Ok(())
    }

    /// Empty the cache — and a copy restored from its checkpoint — with
    /// one request as large as the cache. Each must evict every document
    /// in exactly the oracle's order, through queues nobody has tidied.
    /// Then drain the other bare policies victim by victim, each in its
    /// model's order.
    fn flush(mut self) -> Result<(), TestCaseError> {
        self.check_heads()?;
        let want = self.plain.sorted_urls(&self.cache);
        let state = self.cache.export_state();
        let mut restored = Cache::new(CAPACITY, Box::new(SortedPolicy::new(self.spec)));
        prop_assert!(restored.restore_state(&state));
        let everything = request(self.now, FLUSH_URL, CAPACITY);
        prop_assert_eq!(&evicted_urls(self.cache.request(&everything)), &want);
        prop_assert_eq!(&evicted_urls(restored.request(&everything)), &want);
        // Nothing is inserted while draining, so the victims come in one
        // fixed order, which a sort gives.
        for lane in &mut self.gds {
            let mut order: Vec<(u64, UrlId)> = lane.model.entries().collect();
            order.sort_unstable();
            for head in order.into_iter().map(|(_, u)| Some(u)).chain([None]) {
                prop_assert_eq!(lane.plain.victim(self.now, 0, &self.cache), head);
                prop_assert_eq!(lane.tracked.victim(self.now, 0, &self.cache), head);
                if let Some(url) = head {
                    lane.plain.on_remove(url);
                    lane.tracked.on_remove(url);
                }
            }
        }
        let (mut stale, mut today): (Vec<_>, Vec<_>) = self
            .pr_model
            .entries()
            .partition(|&(_, day, _)| day < day_of(self.now));
        stale.sort_unstable_by_key(|&(u, day, _)| (day, pr_tiebreak(u), u));
        today.sort_unstable_by_key(|&(u, _, size)| (Reverse(size), pr_tiebreak(u), u));
        for head in stale
            .iter()
            .chain(&today)
            .map(|&(u, _, _)| Some(u))
            .chain([None])
        {
            prop_assert_eq!(self.pitkow_recker.victim(self.now, 0, &self.cache), head);
            if let Some(url) = head {
                self.pitkow_recker.on_remove(url);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn victim_is_the_head_of_the_sorted_list(
        combo in 0usize..36,
        ops in ops(12, 400),
        check_every in prop::sample::select(vec![1usize, 5, 1000]),
    ) {
        let mut h = Harness::new(KeySpec::all36(3)[combo]);
        for (step, &op) in ops.iter().enumerate() {
            h.apply(op)?;
            if step.is_multiple_of(check_every) {
                h.check_heads()?;
            }
        }
        h.flush()?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GreedyDual-Size's state round trip at an arbitrary step: the
    /// restored policies continue exactly as the model does.
    #[test]
    fn greedy_dual_continues_identically_after_a_state_round_trip(
        combo in 0usize..36,
        ops in ops(12, 400),
        restore_at in 0usize..400,
        check_every in prop::sample::select(vec![1usize, 5, 1000]),
    ) {
        let mut h = Harness::new(KeySpec::all36(3)[combo]);
        for (step, &op) in ops.iter().enumerate() {
            if step == restore_at {
                h.restore_greedy_dual()?;
            }
            h.apply(op)?;
            if step.is_multiple_of(check_every) {
                h.check_heads()?;
            }
        }
        h.flush()?;
    }
}

/// The same property at the size where the queues are rebuilt: a few
/// thousand documents, nearly all hits, a quarter of a million requests —
/// stale entries outnumber live ones many times over, one to three times
/// per run. Every key that a hit re-ranks, as primary and as secondary,
/// filing in the run (ATIME first), in the heap (NREF first) and in both.
#[test]
fn victim_is_the_head_of_the_sorted_list_across_queue_rebuilds() {
    const DOCS: u64 = FLUSH_URL as u64;
    let specs = [
        KeySpec::primary(Key::AccessTime),
        KeySpec::pair(Key::AccessTime, Key::NRef),
        KeySpec::pair(Key::NRef, Key::AccessTime),
        KeySpec::pair(Key::NRef, Key::Size),
        KeySpec::pair(Key::DayOfAccess, Key::NRef),
        KeySpec::pair(Key::EntryTime, Key::AccessTime),
        KeySpec::pair(Key::Size, Key::AccessTime),
        KeySpec::pair(Key::Log2Size, Key::NRef),
    ];
    for (lane, spec) in specs.into_iter().enumerate() {
        let mut h = Harness::new(spec);
        let mut x = lane as u64;
        for step in 0..250_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = x >> 33;
            let op = match draw % 1000 {
                0 => Op::Remove {
                    url: (draw / 1000 % DOCS) as u32,
                },
                1..=3 => Op::Evict,
                _ => {
                    // Popular documents are low ids, squared-uniform.
                    let u = (draw / 1000 % DOCS) * (draw / 3_000_000 % DOCS) / DOCS;
                    Op::Request {
                        url: u as u32,
                        size: if draw.is_multiple_of(997) {
                            (draw % 5) as usize
                        } else {
                            u as usize % 5
                        },
                        gap: (draw / 7 % 8) as usize,
                    }
                }
            };
            h.apply(op)
                .unwrap_or_else(|e| panic!("{} step {step}: {e:?}", spec.name()));
            if step.is_multiple_of(50_000) {
                h.check_heads()
                    .unwrap_or_else(|e| panic!("{} step {step}: {e:?}", spec.name()));
            }
        }
        h.flush()
            .unwrap_or_else(|e| panic!("{}: {e:?}", spec.name()));
    }
}

/// GreedyDual-Size across queue rebuilds. Its stale entries are usually
/// swept by its own victims: the inflation value `L` climbs past them.
/// Here it cannot keep up: the cache holds two megabyte documents, so
/// nearly every request for one evicts another and raises `L` by one unit
/// of `1/size`, while one-to-sixteen-byte documents, worth up to a million
/// units, are hit in between and leave a stale entry far above `L` each
/// time —
/// tens of thousands of them against a few dozen residents, so the queues
/// are rebuilt (twice in this run). Uniform cost only: under byte cost
/// every document is worth the same above `L`, and the sweep keeps up. A
/// cache under the policy, with position tracking on, must evict exactly
/// as the model does and place every document where the model's count
/// does.
#[test]
fn greedy_dual_matches_its_model_across_queue_rebuilds() {
    const SMALL: u64 = 32;
    const LARGE: u64 = 256;
    let cost = GdCost::Uniform;
    let mut cache = Cache::new(2 << 20, Box::new(GreedyDualSize::with_cost(cost)));
    cache.enable_position_tracking();
    let mut model = GdsLane::new(cost).model;
    let mut x = 11u64;
    for step in 0..300_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = x >> 33;
        let (url, size) = if draw.is_multiple_of(4) {
            (SMALL + draw / 4 % LARGE, 1 << 20)
        } else {
            let url = draw / 4 % SMALL;
            (url, 1 + url % 16)
        };
        let r = request(step / 4, url as u32, size);
        let evicted = match cache.request(&r) {
            out if out.is_hit() => Vec::new(),
            out => evicted_urls(out),
        };
        for url in evicted {
            assert_eq!(model.victim(), Some(url), "step {step}");
            *slot(&mut model.values, url) = None;
        }
        model.touch(cache.meta(r.url).expect("just referenced"));
        if step.is_multiple_of(10_000) {
            for (_, url) in model.entries() {
                let want = model.position(url);
                assert_eq!(cache.removal_position(url), want, "step {step}");
            }
        }
    }
}

/// Lower bounds this thread's sorted lists have re-filed so far.
fn refiles() -> u64 {
    REFILES.with(Cell::get)
}

/// The first property's own cases (the runner is seeded as the macro's
/// is) reach the path where a head re-files a lower bound at its
/// document's rank.
#[test]
fn the_oracle_cases_refile_lower_bounds() {
    let before = refiles();
    let cases = (
        0usize..36,
        ops(12, 400),
        prop::sample::select(vec![1usize, 5, 1000]),
    );
    TestRunner::new(ProptestConfig::with_cases(256))
        .run(&cases, |(combo, ops, check_every)| {
            let mut h = Harness::new(KeySpec::all36(3)[combo]);
            for (step, &op) in ops.iter().enumerate() {
                h.apply(op)?;
                if step.is_multiple_of(check_every) {
                    h.check_heads()?;
                }
            }
            h.flush()
        })
        .unwrap_or_else(|e| panic!("{e}"));
    let refiled = refiles() - before;
    assert!(refiled > 0, "256 cases re-filed no lower bound");
}

/// A position-tracking `SortedPolicy` beside its documents' metadata, for
/// streams written out by hand.
struct Scripted {
    spec: KeySpec,
    policy: SortedPolicy,
    docs: SlabStore,
}

impl Scripted {
    fn new(spec: KeySpec) -> Scripted {
        let docs = SlabStore::default();
        let mut policy = SortedPolicy::new(spec);
        policy.enable_position_tracking(&docs);
        Scripted { spec, policy, docs }
    }

    fn meta(url: u32, size: u64, nrefs: u64) -> DocMeta {
        DocMeta {
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            entry_time: 0,
            last_access: nrefs,
            nrefs,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: 0,
            last_modified: None,
        }
    }

    fn insert(&mut self, url: u32, size: u64, nrefs: u64) {
        let m = Scripted::meta(url, size, nrefs);
        self.policy.on_insert(&m);
        self.docs.insert(m, ());
    }

    fn hit(&mut self, url: u32, size: u64, nrefs: u64) {
        let m = Scripted::meta(url, size, nrefs);
        self.policy.on_access(&m);
        self.docs.insert(m, ());
    }

    fn remove(&mut self, url: u32) {
        self.policy.on_remove(UrlId(url));
        self.docs.remove(UrlId(url));
    }

    /// The naive sort: every document by its rank, then url.
    fn order(&self) -> Vec<UrlId> {
        let docs = self.docs.iter().map(|(m, ())| m);
        let mut order: Vec<_> = docs.map(|m| (self.spec.rank(m), m.url)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, url)| url).collect()
    }

    /// The head and `url`'s tracked position are the naive sort's, and a
    /// copy empties victim by victim in its order, re-filing `refiled`
    /// lower bounds on the way.
    fn check(&mut self, step: &str, url: u32, refiled: u64) {
        let order = self.order();
        assert_eq!(
            self.policy.victim(0, 0, &self.docs),
            order.first().copied(),
            "{step}"
        );
        let at = order.iter().position(|&u| u == UrlId(url));
        assert_eq!(
            self.policy.removal_position(UrlId(url), &self.docs),
            at,
            "{step}"
        );
        let mut copy = self.policy.clone();
        let before = refiles();
        for &url in &order {
            assert_eq!(
                copy.victim(0, 0, &self.docs),
                Some(url),
                "{step}: drained out of order"
            );
            copy.on_remove(url);
        }
        assert_eq!(copy.victim(0, 0, &self.docs), None, "{step}");
        assert_eq!(refiles() - before, refiled, "{step}: lower bounds re-filed");
    }
}

/// One document taken through every state its rank can be in, under
/// NREF/SIZE with a far more popular document at the back of the run so that each hit on it is
/// a raise that files nothing: raised lazily, raised again, lowered by a
/// size change (a re-insert while resident), raised over two queued
/// entries, removed, re-inserted at one queued entry's rank and raised
/// over three. After every step the policy is held to the naive sort, and
/// a copy emptied through the state re-files exactly one lower bound when
/// the document's rank is unfiled and none otherwise. Then the policy
/// itself is emptied the same way.
#[test]
fn a_lower_bound_is_refiled_once_from_every_state() {
    const DOC: u32 = 3;
    const POPULAR: u32 = 9;
    let mut s = Scripted::new(KeySpec::pair(Key::NRef, Key::Size));
    s.insert(POPULAR, 1000, 1);
    for nrefs in 2..=10 {
        s.hit(POPULAR, 1000, nrefs);
    }
    // SIZE ranks larger documents lower: url 0 is the head.
    let size = |url: u32| 2000 - u64::from(url);
    for url in 0..POPULAR {
        s.insert(url, size(url), 1);
    }
    s.check("filed", DOC, 0);
    s.hit(DOC, size(DOC), 2);
    s.check("raised", DOC, 1);
    s.hit(DOC, size(DOC), 3);
    s.check("raised twice", DOC, 1);
    s.insert(DOC, 5000, 3);
    s.check("lowered by a size change", DOC, 0);
    s.hit(DOC, 5000, 4);
    s.check("raised over two entries", DOC, 1);
    s.remove(DOC);
    s.check("removed", DOC, 0);
    s.insert(DOC, 5000, 3);
    s.check("re-inserted at a queued entry's rank", DOC, 0);
    s.hit(DOC, 5000, 4);
    s.check("raised over three entries", DOC, 1);

    let before = refiles();
    for url in s.order() {
        assert_eq!(s.policy.victim(0, 0, &s.docs), Some(url));
        s.remove(url.0);
    }
    assert_eq!(s.policy.victim(0, 0, &s.docs), None);
    assert_eq!(refiles() - before, 1);
}
