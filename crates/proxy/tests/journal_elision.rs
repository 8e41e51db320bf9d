//! The journal buffer's elision against what the cache actually holds
//! (DESIGN.md D24).
//!
//! A document evicted while its `Insert` is still buffered has that
//! record rewritten as an `Evict`: the body never reaches the disk. The
//! oracle here never looks at the buffer. It is the live cache — the
//! resident set after every request, as the socketless [`Driver`] running
//! the proxy's own request path reports it — and the journal *file*, read
//! back with [`persist::read_journal`] and recovered into a cold driver
//! the way a restarting proxy recovers. For any request stream, any
//! choice of drain points and any byte at which the file is cut:
//!
//! * at every drain boundary the recovered cache is the live cache,
//!   document for document: metadata, fetch time and body;
//! * a torn prefix recovers a subset of the cache as it stood after the
//!   last request the prefix names, each document exactly as it was then
//!   — colder, never wrong — and the prefix has no sequence gap;
//! * the file is never longer than the one the same stream writes when
//!   every request is drained on its own, which is what a buffer that
//!   rewrote nothing would have written.
//!
//! Streams are built for churn: twelve URLs over five sizes in a cache
//! that holds three or four of them, SIZE removing what was just inserted
//! and LRU what was not. Copies are fresh for `TTL` ticks; the origin
//! stamps each size a document takes as its `Last-Modified`. A document
//! usually keeps its size: a fresh copy is a hit, an expired one is
//! revalidated with a `304` (touch and re-stamp, one `Refresh` record).
//! Sometimes it changes size, which the proxy learns only on expiry: the
//! origin's `200` invalidates the copy and re-inserts under the same id,
//! or — grown past the cache — invalidates it and passes through. Each
//! property checks that its generated cases produced every one of those.
//! An id is a slot of the shard (DESIGN.md D26): with so few documents
//! resident the shard's table sweeps every few requests, so the records
//! of one journal use one id for several URLs, and each property checks
//! that its generated cases did.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use webcache_core::policy::{named, RemovalPolicy};
use webcache_proxy::driver::{Driver, FetchError, Fetched};
use webcache_proxy::persist::{self, JournalOp, JournalWriter, SnapshotDoc};
use webcache_proxy::ProxyConfig;
use webcache_trace::UrlId;

const URLS: u8 = 12;
const SIZES: [u64; 5] = [100, 300, 700, 1500, 3000];
const CAPACITY: u64 = 4000;
/// Ticks a copy stays fresh. A document comes back every twelve requests
/// or so: most come back expired, and a change of size is soon learnt.
const TTL: u64 = 2;
/// A size no cache of `CAPACITY` stores: the request passes through, and
/// takes a smaller resident copy of the document with it.
const TOO_BIG: u64 = 5000;
/// Never reached: drop-oldest is the unit tests' business.
const BUFFER: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Step {
    url: u8,
    size: u64,
    /// Drain the buffer into the file after this request.
    drain: bool,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0..URLS, 0usize..20, 0u8..8), 1..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(url, size, drain)| Step {
                url,
                // Seven times in ten a document has its usual size.
                size: match size {
                    0..=4 => SIZES[size],
                    5 => TOO_BIG,
                    _ => SIZES[url as usize % 5],
                },
                drain: drain == 0,
            })
            .collect()
    })
}

fn policy(lru: bool) -> Box<dyn RemovalPolicy> {
    if lru {
        Box::new(named::lru())
    } else {
        Box::new(named::size())
    }
}

/// One shard of `CAPACITY` bytes whose copies expire after `TTL` ticks.
fn config() -> ProxyConfig {
    ProxyConfig::new(CAPACITY).with_ttl(TTL)
}

fn url(u: u8) -> String {
    format!("http://elide.test/doc-{u}.html")
}

/// The body the origin serves for `u` at tick `t`: no two fetches agree,
/// so a recovered body names the fetch it came from.
fn body(u: u8, t: usize, size: u64) -> Bytes {
    Bytes::from(
        (0..size)
            .map(|j| (u.wrapping_mul(31) as u64 + 131 * t as u64 + 7 * j) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// The origin's answer to request `i` (tick `i + 1`) of `step`. The
/// origin's copy of each document is its size and the tick it took that
/// size, its `Last-Modified`: a conditional GET no older than that gets a
/// `304`, anything else the document.
fn answer(
    versions: &mut HashMap<u8, (u64, u64)>,
    step: &Step,
    i: usize,
) -> impl FnOnce(Option<u64>) -> Result<Fetched, FetchError> {
    let version = versions
        .entry(step.url)
        .or_insert((step.size, i as u64 + 1));
    if version.0 != step.size {
        *version = (step.size, i as u64 + 1);
    }
    let (u, size, modified) = (step.url, step.size, Some(version.1));
    move |since| {
        Ok(match since {
            Some(since) if Some(since) >= modified => Fetched {
                status: 304,
                last_modified: modified,
                body: Bytes::new(),
            },
            _ => Fetched {
                status: 200,
                last_modified: modified,
                body: body(u, i, size),
            },
        })
    }
}

/// A temp dir that cleans itself up when the case passes or fails.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new() -> CaseDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wc-elision-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create case dir");
        CaseDir(dir)
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The one shard's resident documents, sorted by URL.
fn residents(driver: &Driver) -> Vec<SnapshotDoc> {
    driver.shards().swap_remove(0).0
}

/// Ids are a process's own: compare documents by URL text.
fn by_text(mut docs: Vec<SnapshotDoc>) -> Vec<SnapshotDoc> {
    for d in &mut docs {
        d.meta.url = UrlId(0);
    }
    docs
}

/// Recover the journal in `dir` into a cold cache: the records read and
/// the resident set they rebuild.
fn recover(dir: &CaseDir, lru: bool) -> (persist::JournalRead, Vec<SnapshotDoc>) {
    let read = persist::read_journal(&dir.0, 0);
    let cold = Driver::new(config(), || policy(lru), None, Some(&dir.0));
    (read, by_text(residents(&cold)))
}

/// What one replay of a stream left behind.
struct Run {
    dir: CaseDir,
    /// The resident set after each request; index `t - 1` for tick `t`.
    after: Vec<Vec<SnapshotDoc>>,
    elided: u64,
    /// Ids the live shard had two URLs resident under, one after the other.
    rebound: usize,
    /// Fresh hits, `304` refreshes, size-change re-inserts and too-big
    /// pass-throughs the stream produced.
    made: [u64; 4],
}

impl Run {
    fn journal(&self) -> Vec<u8> {
        std::fs::read(persist::journal_path(&self.dir.0, 0)).expect("read journal")
    }
}

/// Replay `steps` through a live shard, draining where they say (and at
/// the end) or, with `every_request`, after each one. At every drain the
/// file must recover to the live cache.
fn run(lru: bool, steps: &[Step], every_request: bool) -> Result<Run, TestCaseError> {
    let dir = CaseDir::new();
    let mut live = Driver::new(config(), || policy(lru), Some(BUFFER), None);
    let mut w = JournalWriter::create(&dir.0, 0).expect("create journal");
    let mut after = Vec::with_capacity(steps.len());
    let mut seen: HashMap<UrlId, String> = HashMap::new();
    let mut rebound = 0;
    let mut versions = HashMap::new();
    for (i, step) in steps.iter().enumerate() {
        live.request(&url(step.url), answer(&mut versions, step, i));
        let t = live.stats().requests;
        prop_assert_eq!(t, i as u64 + 1);
        let residents = residents(&live);
        for d in &residents {
            let before = seen.insert(d.meta.url, d.url.clone());
            rebound += before.is_some_and(|before| before != d.url) as usize;
        }
        after.push(by_text(residents));
        if every_request || step.drain || i + 1 == steps.len() {
            w.append(&live.drain(0)).expect("append");
            let (read, recovered) = recover(&dir, lru);
            prop_assert!(read.note.is_none(), "{:?}", read.note);
            prop_assert!(
                recovered == after[i],
                "journal drained after request {t} recovers\n{recovered:?}\nnot the live cache\n{:?}",
                after[i]
            );
        }
    }
    let (stats, cache) = (live.stats(), live.shards()[0].1);
    Ok(Run {
        dir,
        after,
        elided: stats.journal_elided,
        rebound,
        made: [
            stats.hits - stats.revalidated,
            stats.revalidated,
            cache.modified_invalidations,
            cache.too_big,
        ],
    })
}

/// The last tick a journal prefix names. Every record of that request and
/// of the ones before it is in the prefix; what follows it can only be
/// evictions, which carry no clock.
fn last_tick(ops: &[(u64, JournalOp)]) -> u64 {
    ops.iter()
        .filter_map(|(_, op)| match op {
            JournalOp::Insert { now, .. } | JournalOp::Touch { now, .. } => Some(*now),
            JournalOp::Refresh { fetched_at, .. } => Some(*fetched_at),
            JournalOp::Evict { .. } => None,
        })
        .max()
        .unwrap_or(0)
}

/// Every property of the module docs for one stream and one cut; how many
/// ids the live shard re-bound on the way, and what else it made.
fn check(
    lru: bool,
    steps: &[Step],
    cut_permille: usize,
) -> Result<(usize, [u64; 4]), TestCaseError> {
    let elided = run(lru, steps, false)?;
    let plain = run(lru, steps, true)?;
    // A buffer that holds one request at a time has nothing to rewrite.
    prop_assert_eq!(plain.elided, 0);
    let (journal, unelided) = (elided.journal(), plain.journal());
    prop_assert!(
        journal.len() <= unelided.len() && (journal.len() < unelided.len()) == (elided.elided > 0),
        "{} record(s) rewritten, {} bytes against {}",
        elided.elided,
        journal.len(),
        unelided.len()
    );

    // Tear the file anywhere, header included.
    check_cut(lru, &elided, journal.len() * cut_permille / 1000)?;
    Ok((elided.rebound, elided.made))
}

/// The torn-prefix property of the module docs for `elided`'s journal cut
/// at byte `cut`.
fn check_cut(lru: bool, elided: &Run, cut: usize) -> Result<(), TestCaseError> {
    let journal = elided.journal();
    let torn = CaseDir::new();
    std::fs::write(persist::journal_path(&torn.0, 0), &journal[..cut]).expect("write prefix");
    let (read, recovered) = recover(&torn, lru);
    if let Some(note) = &read.note {
        prop_assert!(
            note.contains("torn") || note.contains("bad journal header"),
            "cut at byte {} of {}: {}",
            cut,
            journal.len(),
            note
        );
    }
    let then: &[SnapshotDoc] = match last_tick(&read.ops) {
        0 => &[],
        t => &elided.after[t as usize - 1],
    };
    for doc in &recovered {
        prop_assert!(
            then.contains(doc),
            "cut at byte {} of {}: {} recovered as it never was after request {}",
            cut,
            journal.len(),
            doc.url,
            last_tick(&read.ops)
        );
    }
    Ok(())
}

/// [`check`] over generated streams and cuts, some of which must have made
/// the shard use an id twice.
fn recovers_what_survived(lru: bool) {
    let (cases, max_len) = if cfg!(debug_assertions) {
        (48, 80)
    } else {
        (384, 240)
    };
    let mut rebinding_cases = 0;
    let mut made = [0; 4];
    let outcome = TestRunner::new(ProptestConfig::with_cases(cases)).run(
        &(steps(max_len), 0usize..=1000),
        |(steps, cut)| {
            let (rebound, case_made) = check(lru, &steps, cut)?;
            rebinding_cases += (rebound > 0) as usize;
            for (made, case) in made.iter_mut().zip(case_made) {
                *made += case;
            }
            Ok(())
        },
    );
    if let Err(e) = outcome {
        panic!("{e}");
    }
    assert!(
        made.iter().all(|&n| n > 0),
        "fresh hits, 304 refreshes, size-change re-inserts, too-big pass-throughs: {made:?}"
    );
    assert!(
        rebinding_cases > 0,
        "no generated case bound one id to two URLs: replay under reused ids went untested"
    );
}

#[test]
fn size_recovers_what_survived() {
    recovers_what_survived(false);
}

#[test]
fn lru_recovers_what_survived() {
    recovers_what_survived(true);
}

/// SIZE removes the largest document first, so in a cache of small
/// documents each large one is evicted by the next: drained once at the
/// end, only the last large body reaches the file.
#[test]
fn size_churn_writes_strictly_fewer_bytes() {
    let small = |u| Step {
        url: u,
        size: 100,
        drain: false,
    };
    let large = |u| Step {
        url: u,
        size: 3000,
        drain: false,
    };
    let steps = [
        small(0),
        small(1),
        large(2),
        large(3),
        small(0),
        large(4),
        large(5),
    ];
    let elided = run(false, &steps, false).expect("elided run");
    let plain = run(false, &steps, true).expect("plain run");
    assert_eq!(
        elided.elided, 3,
        "docs 2, 3 and 4 were gone before the drain"
    );
    let saved = plain.journal().len() - elided.journal().len();
    assert!(
        saved > 3 * 3000,
        "three 3000-byte bodies stay off the disk, saved {saved}"
    );
    let resident: Vec<&str> = elided.after[6].iter().map(|d| d.url.as_str()).collect();
    assert_eq!(resident, [url(0), url(1), url(5)]);
}

/// A revalidation is one record. Written as two — a `Touch`, then a
/// `Refresh` — a journal cut between them recovered the copy touched but
/// not re-stamped, which the live cache never held. Every cut of a journal
/// that holds a `304`, that one included, recovers a state the cache held.
#[test]
fn no_cut_splits_a_revalidation() {
    let step = |url, size| Step {
        url,
        size,
        drain: false,
    };
    // Document 0 goes stale behind `TTL` requests for document 1 and is
    // revalidated unchanged; the last request is a fresh hit on it.
    let mut steps = vec![step(0, 100)];
    steps.extend((0..TTL).map(|_| step(1, 300)));
    steps.extend([step(0, 100), step(0, 100)]);
    let live = run(false, &steps, false).expect("live run");
    assert_eq!(
        live.made,
        [TTL, 1, 0, 0],
        "hits, 304s, re-inserts, too-bigs"
    );
    for cut in 0..=live.journal().len() {
        if let Err(e) = check_cut(false, &live, cut) {
            panic!("{}", e.0);
        }
    }
}
