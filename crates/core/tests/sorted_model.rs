//! `SortedPolicy`'s order structure against an oracle (DESIGN.md D23).
//!
//! The policy orders its documents with a sorted run in front of a lazy
//! heap and rebuilds both when stale entries pile up; `sorted_urls()`
//! sorts the rank slab and never sees either. For every one of the 36
//! key combinations and any mix of inserts, hits, size changes, removals
//! and evictions, the head the queues produce must be the head of that
//! sorted list — including after a checkpoint round trip
//! (`export_state` / `restore_state`) and with position tracking on.
//!
//! Streams are built to hit the awkward cases: most requests share a
//! second with their predecessor (so ETIME/ATIME tie and arrival order is
//! not rank order), sizes come from five values in three power-of-two
//! bands (LOG2SIZE ties), day boundaries are rare (DAY ties), reference
//! counts restart at 1 on every re-insert (NREF ties), and a document
//! that changes size and changes back within a second returns to the
//! exact rank it had — A → B → A — while its first entry is still queued.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use webcache_core::cache::{Cache, Outcome};
use webcache_core::policy::{Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_trace::{ClientId, DocType, Request, ServerId, UrlId, SECONDS_PER_DAY};

/// Two sizes per band so that LOG2SIZE ties while SIZE does not.
const SIZES: [u64; 5] = [1024, 1500, 2048, 3000, 4096];
/// Seconds between requests: mostly none, sometimes most of a day.
const GAPS: [u64; 8] = [0, 0, 0, 0, 1, 1, 7, SECONDS_PER_DAY / 2];
/// Big enough never to evict on its own, small enough that one request
/// of this size evicts everything.
const CAPACITY: u64 = 1 << 40;
/// The document of that size; ids index a slab, so just past the others.
const FLUSH_URL: u32 = 3000;

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

/// The subjects: a cache whose own policy is never asked for a victim
/// until the end (its queues keep every stale entry), and two bare
/// policies fed the same events from the cache's metadata, one of them
/// tracking positions. `check_every` is how often the bare policies'
/// heads are compared with the oracle — asking pops stale heads, so
/// asking rarely leaves a different structure behind than asking always.
struct Harness {
    spec: KeySpec,
    cache: Cache,
    plain: SortedPolicy,
    tracked: SortedPolicy,
    now: u64,
}

impl Harness {
    fn new(spec: KeySpec) -> Harness {
        let mut tracked = SortedPolicy::new(spec);
        tracked.enable_position_tracking();
        Harness {
            spec,
            cache: Cache::new(CAPACITY, Box::new(SortedPolicy::new(spec))),
            plain: SortedPolicy::new(spec),
            tracked,
            now: 0,
        }
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Request { url, size, gap } => {
                self.now += GAPS[gap];
                let r = request(self.now, url, SIZES[size]);
                let hit = self.cache.request(&r).is_hit();
                let meta = *self.cache.meta(r.url).expect("just referenced");
                for p in [&mut self.plain, &mut self.tracked] {
                    if hit {
                        p.on_access(&meta);
                    } else {
                        p.on_remove(r.url);
                        p.on_insert(&meta);
                    }
                }
            }
            Op::Remove { url } => self.remove(UrlId(url)),
            Op::Evict => {
                let head = self.check_heads()?;
                if let Some(url) = head {
                    self.remove(url);
                }
            }
        }
        prop_assert_eq!(self.plain.len(), self.cache.len());
        prop_assert_eq!(self.tracked.len(), self.cache.len());
        Ok(())
    }

    fn remove(&mut self, url: UrlId) {
        self.cache.remove(url);
        self.plain.on_remove(url);
        self.tracked.on_remove(url);
    }

    /// Both bare policies' victims against the sorted slab.
    fn check_heads(&mut self) -> Result<Option<UrlId>, TestCaseError> {
        let want = self.plain.sorted_urls().first().copied();
        prop_assert_eq!(self.plain.victim(self.now, 0), want);
        prop_assert_eq!(self.tracked.victim(self.now, 0), want);
        if let Some(url) = want {
            prop_assert_eq!(self.tracked.removal_position(url), Some(0));
            prop_assert_eq!(self.cache.removal_position(url), Some(0));
        }
        Ok(want)
    }

    /// Empty the cache — and a copy restored from its checkpoint — with
    /// one request as large as the cache. Each must evict every document
    /// in exactly the oracle's order, through queues nobody has tidied.
    fn flush(mut self) -> Result<(), TestCaseError> {
        self.check_heads()?;
        let want = self.plain.sorted_urls();
        let state = self.cache.export_state();
        let mut restored = Cache::new(CAPACITY, Box::new(SortedPolicy::new(self.spec)));
        prop_assert!(restored.restore_state(&state));
        let everything = request(self.now, FLUSH_URL, CAPACITY);
        prop_assert_eq!(&evicted_urls(self.cache.request(&everything)), &want);
        prop_assert_eq!(&evicted_urls(restored.request(&everything)), &want);
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
