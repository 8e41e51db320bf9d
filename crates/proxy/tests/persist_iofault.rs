//! Disk-fault integration tests: a failing disk never takes down the
//! proxy. Seeded [`IoFaultPlan`]s inject `ENOSPC`/`EIO`, short writes,
//! and fsync failures into every persist write path while a real
//! proxy/origin pair serves traffic. Serving must continue at full hit
//! rate, the [`PersistHealth`] machine must walk
//! `Healthy -> Degraded -> (Healthy | Disabled)` exactly as specified,
//! and a later fault-free restart must recover a cache that is at most
//! *colder* than what was served — never wrong.

mod common;

use bytes::Bytes;
use common::{fetch, get, hit_rate, ChildProxy, TempDir};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::Read;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::cache::{CacheStats, DocMeta};
use webcache_core::policy::named;
use webcache_proxy::persist::{self, JournalOp, JournalWriter, ShardSnapshot, SnapshotDoc};
use webcache_proxy::{
    DocStore, IoFaultInjector, IoFaultPlan, OriginServer, PersistConfig, PersistHealth,
    ProxyConfig, ProxyServer,
};
use webcache_trace::{DocType, UrlId};

/// Poll `cond` every 10 ms until it holds or `deadline` passes.
fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn test_origin(n: usize) -> (OriginServer, Vec<String>) {
    let store = Arc::new(DocStore::new());
    let urls: Vec<String> = (0..n)
        .map(|i| format!("http://io.test/doc-{i}.html"))
        .collect();
    for (i, url) in urls.iter().enumerate() {
        store.put_synthetic(url, 800 + (i as u64 * 137) % 3_000, 3);
    }
    let origin = OriginServer::start(store).expect("origin");
    (origin, urls)
}

fn proxy_config() -> ProxyConfig {
    ProxyConfig::new(1 << 22).with_shards(4)
}

fn start(origin: SocketAddr, pcfg: PersistConfig) -> ProxyServer {
    ProxyServer::start_persistent(origin, proxy_config(), pcfg, || Box::new(named::lru()))
        .expect("start persistent proxy")
}

/// Acceptance: with 100% journal-append failure the proxy serves a full
/// run at >= 0.95x the no-fault hit rate, transitions
/// `Healthy -> Degraded` exactly once, and a fault-free restart comes
/// back warm (degraded-mode snapshots still landed).
#[test]
fn full_append_failure_serves_full_run_and_restarts_warm() {
    let (origin, urls) = test_origin(60);

    // Baseline: identical workload, no faults.
    let base_dir = TempDir::new("accept-base");
    let baseline = {
        let p = start(origin.addr(), PersistConfig::new(base_dir.0.clone()));
        for url in &urls {
            assert!(get(p.addr(), url).is_some(), "baseline fetch of {url}");
        }
        let _ = hit_rate(p.addr(), &urls);
        hit_rate(p.addr(), &urls)
    };
    assert!(baseline > 0.9, "baseline too cold to be meaningful");

    // Faulted run: every journal append fails, probes fail too (the
    // probe draws from the append class), and the backoff keeps the
    // retry budget from running out during the test — one long episode.
    let dir = TempDir::new("accept-fault");
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_millis(100))
        .with_journal_fsync(Duration::from_millis(5))
        .with_iofault(IoFaultPlan::new(7).append_error(1.0))
        .with_degraded_policy(Duration::from_secs(30), 8);
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some(), "faulted fetch of {url}");
    }
    let _ = hit_rate(p.addr(), &urls);
    let faulted = hit_rate(p.addr(), &urls);
    assert!(
        wait_for(Duration::from_secs(5), || {
            health.health() == PersistHealth::Degraded
        }),
        "append failures never degraded the store"
    );
    let s = p.stats();
    assert_eq!(
        s.degraded_transitions, 1,
        "one fault episode must be exactly one Healthy -> Degraded edge"
    );
    assert_eq!(s.heals, 0, "probes cannot heal while appends fail");
    assert!(
        s.journal_lost_records > 0,
        "suspended journaling must be accounted as durability loss"
    );
    assert!(
        faulted >= 0.95 * baseline,
        "hit rate {faulted:.3} under disk faults fell below 0.95x baseline {baseline:.3}"
    );
    // Wait for at least one degraded-mode snapshot on cadence, then shut
    // down; the final snapshot also runs in the Degraded arm.
    drop(p);
    assert_eq!(health.health(), PersistHealth::Degraded);
    assert_eq!(
        health.stats().journal_bytes,
        0,
        "every append was refused before it wrote"
    );
    assert!(
        health.stats().snapshots > 0 && health.stats().snapshot_bytes > 0,
        "degraded-mode snapshots are counted with what they wrote"
    );
    assert_eq!(
        health.stats().snapshots_skipped,
        0,
        "only a healthy store skips a cadence snapshot"
    );

    // Fault-free restart: warm, possibly colder, never wrong.
    let p2 = start(origin.addr(), PersistConfig::new(dir.0.clone()));
    let report = p2.recovery_report().expect("recovery report");
    assert!(report.docs > 0, "degraded-mode snapshots must restart warm");
    let post = hit_rate(p2.addr(), &urls);
    assert!(
        post >= 0.9 * faulted,
        "warm restart hit rate {post:.3} fell below 0.9x pre-shutdown {faulted:.3}"
    );
}

/// A bounded fault episode heals: once the disk recovers, the re-arm
/// probe succeeds, a full snapshot covers the gap, and journaling
/// resumes — `Degraded -> Healthy` with the episode counted once.
#[test]
fn fault_episode_heals_via_probe_and_snapshot() {
    let (origin, urls) = test_origin(20);
    let dir = TempDir::new("heal");
    // Fault window: the first two append-class ops fail (the initial
    // drain plus the first probe), then the disk "recovers". Snapshots
    // only on demand (60 s cadence) so the op sequence stays append-only
    // until the healing snapshot.
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_secs(60))
        .with_journal_fsync(Duration::from_millis(5))
        .with_iofault(IoFaultPlan::new(11).append_error(1.0).active_range(0, 2))
        .with_degraded_policy(Duration::from_millis(10), 50);
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some());
    }
    assert!(
        wait_for(Duration::from_secs(10), || {
            health.health() == PersistHealth::Healthy && health.stats().heals == 1
        }),
        "episode never healed: health {:?}, {} heals",
        health.health(),
        health.stats().heals,
    );
    assert_eq!(
        health.stats().degraded_transitions,
        1,
        "one episode, one edge"
    );
    // Journaling resumed: touch everything again, then restart warm.
    let _ = hit_rate(p.addr(), &urls);
    drop(p);
    assert_eq!(health.health(), PersistHealth::Healthy);

    let p2 = start(origin.addr(), PersistConfig::new(dir.0.clone()));
    assert!(p2.recovery_report().expect("report").docs > 0);
    assert!(
        hit_rate(p2.addr(), &urls) > 0.9,
        "healed store must restart warm"
    );
}

/// When the disk never comes back, the retry budget runs out and
/// persistence is disabled — while the proxy keeps serving.
#[test]
fn exhausted_probes_disable_persistence_but_serving_continues() {
    let (origin, urls) = test_origin(20);
    let dir = TempDir::new("disable");
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_millis(50))
        .with_journal_fsync(Duration::from_millis(5))
        .with_iofault(
            IoFaultPlan::new(13)
                .append_error(1.0)
                .sync_error(1.0)
                .snapshot_error(1.0),
        )
        .with_degraded_policy(Duration::from_millis(5), 3);
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some());
    }
    assert!(
        wait_for(Duration::from_secs(10), || {
            health.health() == PersistHealth::Disabled
        }),
        "probes never exhausted into Disabled (health {:?})",
        health.health(),
    );
    assert_eq!(health.stats().degraded_transitions, 1);
    assert_eq!(health.stats().heals, 0);
    // Persistence is gone; the proxy is not.
    let rate = hit_rate(p.addr(), &urls);
    assert!(
        rate > 0.9,
        "serving must continue at full hit rate after Disabled (got {rate:.3})"
    );
    // Shutdown must not hang on the dead disk.
    let t0 = Instant::now();
    drop(p);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown with persistence disabled must be prompt"
    );
    assert_eq!(health.health(), PersistHealth::Disabled);
}

/// Persister shutdown while snapshots fail: the final snapshot errors,
/// the process still exits promptly, health ends Degraded, and a
/// fault-free restart recovers from the journal alone.
#[test]
fn shutdown_under_snapshot_faults_exits_degraded_and_journal_recovers() {
    let (origin, urls) = test_origin(30);
    let dir = TempDir::new("shutdown");
    // Snapshot-class writes always fail; journal appends and fsyncs
    // succeed, so the journal is the only durable record.
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_secs(60))
        .with_journal_fsync(Duration::from_millis(5))
        .with_iofault(IoFaultPlan::new(17).snapshot_error(1.0))
        .with_degraded_policy(Duration::from_secs(30), 8);
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some());
    }
    // Let the journal fsync the tail, then shut down: the final snapshot
    // fails, degrading the store on its way out — no hang, no panic.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    drop(p);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown under snapshot faults must be prompt"
    );
    assert_eq!(
        health.health(),
        PersistHealth::Degraded,
        "failed final snapshot must leave the store Degraded"
    );

    let p2 = start(origin.addr(), PersistConfig::new(dir.0.clone()));
    let report = p2.recovery_report().expect("report");
    assert!(report.docs > 0, "journal alone must give a warm restart");
    assert!(
        report.replayed > 0,
        "recovery must come from journal replay"
    );
    // Never wrong: every body served post-restart matches the origin.
    for url in &urls {
        let first = fetch(p2.addr(), url).expect("post-restart fetch");
        let again = fetch(p2.addr(), url).expect("post-restart refetch");
        assert_eq!(first.body, again.body, "unstable body for {url}");
    }
}

/// A full journal buffer drops oldest (bounded memory), counts the
/// drops, and forces a snapshot so the journal is never trusted across
/// the gap; the restart is still correct.
#[test]
fn journal_buffer_overflow_is_counted_and_forces_snapshot() {
    let (origin, urls) = test_origin(120);
    let dir = TempDir::new("overflow");
    // Cap of 1 record: any two mutations between persister ticks (50 ms
    // here) overflow. Cadence snapshots are 60 s out, so any snapshot
    // file that appears is the forced one.
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_secs(60))
        .with_journal_fsync(Duration::from_secs(60))
        .with_journal_buf_records(1);
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some());
    }
    assert!(
        health.stats().journal_dropped > 0,
        "burst through a 1-record buffer must drop oldest"
    );
    assert_eq!(
        health.health(),
        PersistHealth::Healthy,
        "overflow is loss, not a disk fault — no degrade"
    );
    assert_eq!(p.stats().degraded_transitions, 0);
    assert!(p.stats().journal_dropped > 0, "drops surface in ProxyStats");
    let forced = wait_for(Duration::from_secs(5), || {
        std::fs::read_dir(&dir.0)
            .map(|rd| {
                rd.flatten()
                    .any(|e| e.path().extension().is_some_and(|x| x == "wcs"))
            })
            .unwrap_or(false)
    });
    assert!(forced, "dropped records must force a snapshot off-cadence");
    assert!(wait_for(Duration::from_secs(5), || health
        .stats()
        .snapshots
        > 0));
    assert!(health.stats().snapshot_bytes > 0 && health.stats().journal_bytes > 0);
    drop(p);

    let p2 = start(origin.addr(), PersistConfig::new(dir.0.clone()));
    assert!(p2.recovery_report().expect("report").docs > 0);
    for url in urls.iter().take(20) {
        let resp = fetch(p2.addr(), url).expect("post-restart fetch");
        assert!(!resp.body.is_empty(), "empty recovered body for {url}");
    }
}

/// Newest snapshot generation on disk and the latest modification time
/// of any journal.
fn disk_state(dir: &TempDir) -> (u64, std::time::SystemTime) {
    let names = || {
        std::fs::read_dir(&dir.0)
            .expect("read persist dir")
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
    };
    let gen = names()
        .filter_map(|name| name.strip_suffix(".wcs")?.split_once("-g")?.1.parse().ok())
        .max()
        .unwrap_or(0);
    let mtime = names()
        .filter(|name| name.ends_with(".wcj"))
        .map(|name| {
            let journal = std::fs::metadata(dir.0.join(name)).expect("journal exists");
            journal.modified().expect("mtime")
        })
        .max()
        .expect("a journal per shard");
    (gen, mtime)
}

/// An idle persister leaves the disk alone: with nothing logged since the
/// last committed snapshot the cadence snapshot is skipped (no new
/// generation, no rotation) and the group fsync finds nothing to sync.
/// One request later it is back at work.
#[test]
fn idle_persister_writes_nothing_until_the_next_request() {
    let (origin, urls) = test_origin(4);
    let dir = TempDir::new("idle");
    let pcfg = PersistConfig::new(dir.0.clone())
        .with_snapshot_interval(Duration::from_millis(50))
        .with_journal_fsync(Duration::from_millis(5));
    let p = start(origin.addr(), pcfg);
    let health = p.persist_health_state().expect("persistent proxy");
    for url in &urls {
        assert!(get(p.addr(), url).is_some());
    }
    // A skip decided after the last response says a snapshot covering
    // every request committed; the second one from here on cannot have
    // been under way while they were still being logged.
    let settled = |skips: u64| {
        wait_for(Duration::from_secs(5), || {
            health.stats().snapshots_skipped >= skips
        })
    };
    assert!(
        settled(health.stats().snapshots_skipped + 2),
        "an idle cache is never skipped"
    );
    let (gen, mtime) = disk_state(&dir);
    let (snapshots, journal_bytes) = (health.stats().snapshots, health.stats().journal_bytes);
    assert!(gen > 0 && snapshots > 0 && journal_bytes > 0);

    // Three more snapshot intervals go by.
    assert!(settled(health.stats().snapshots_skipped + 3));
    assert_eq!(disk_state(&dir), (gen, mtime), "an idle persister wrote");
    assert_eq!(health.stats().snapshots, snapshots);
    assert_eq!(health.stats().journal_bytes, journal_bytes);

    // A hit logs a touch: journal appended, next cadence snapshot taken.
    assert_eq!(get(p.addr(), &urls[0]), Some(true));
    assert!(wait_for(Duration::from_secs(5), || {
        health.stats().snapshots > snapshots
    }));
    let (gen_after, mtime_after) = disk_state(&dir);
    assert!(gen_after > gen, "generation {gen_after} after {gen}");
    assert!(
        mtime_after > mtime,
        "the journal was appended to and rotated"
    );
    assert!(health.stats().journal_bytes > journal_bytes);
    assert_eq!(health.health(), PersistHealth::Healthy);
}

/// The `webcache-proxy` binary reports persistence loss in its exit
/// status: SIGTERM during an unhealed fault episode exits 3 (degraded),
/// after probe exhaustion exits 4 (disabled), printing the transition
/// lines a supervisor can alert on.
#[test]
fn exit_status_reflects_final_persist_health() {
    let (origin, urls) = test_origin(10);
    for (tag, extra_args, want_code, want_line) in [
        (
            "degraded",
            vec![
                "--iofault",
                "seed=7,append=1.0",
                "--degraded-backoff",
                "30000",
                "--degraded-retries",
                "8",
            ],
            3,
            "health degraded",
        ),
        (
            "disabled",
            vec![
                "--iofault",
                "seed=7,append=1.0,sync=1.0,snapshot=1.0",
                "--degraded-backoff",
                "1",
                "--degraded-retries",
                "2",
            ],
            4,
            "health disabled",
        ),
    ] {
        let dir = TempDir::new(&format!("exit-{tag}"));
        let origin_addr = origin.addr().to_string();
        let dir_arg = dir.arg();
        let mut args = vec![
            "--origin",
            &origin_addr,
            "--persist-dir",
            &dir_arg,
            "--snapshot-interval",
            "50",
            "--journal-fsync",
            "5",
        ];
        args.extend(extra_args);
        let mut p = ChildProxy::spawn(&args);
        for url in &urls {
            assert!(get(p.addr, url).is_some(), "{tag}: fetch through child");
        }
        // Give the persister time to hit the faulting disk and walk the
        // state machine, then terminate gracefully (std cannot send
        // SIGTERM; shell out to kill(1)).
        std::thread::sleep(Duration::from_millis(600));
        let term = std::process::Command::new("kill")
            .args(["-TERM", &p.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(term.success(), "{tag}: SIGTERM failed");
        let mut rest = String::new();
        let _ = p.stdout.take().expect("stdout").read_to_string(&mut rest);
        let status = p.child.wait().expect("wait child");
        assert_eq!(
            status.code(),
            Some(want_code),
            "{tag}: exit status must report persistence loss (stdout: {rest})"
        );
        assert!(
            rest.contains(want_line),
            "{tag}: transition line {want_line:?} missing from stdout: {rest}"
        );
        assert!(
            rest.contains("shutdown complete"),
            "{tag}: child must shut down cleanly, not crash (stdout: {rest})"
        );
    }
}

// ---------------------------------------------------------------------------
// Property battery: arbitrary fault schedules at the persist layer
// ---------------------------------------------------------------------------

/// Position-dependent reference body (splices can't pass as intact).
fn body_for(i: usize, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| {
            (i as u8)
                .wrapping_mul(29)
                .wrapping_add((j as u8).wrapping_mul(11))
        })
        .collect()
}

fn url_for(i: usize) -> String {
    format!("http://io-fuzz.test/doc-{i}.html")
}

fn doc_meta(i: usize, size: usize) -> DocMeta {
    DocMeta {
        url: UrlId(i as u32),
        size: size as u64,
        doc_type: DocType::ALL[i % DocType::ALL.len()],
        entry_time: i as u64,
        last_access: i as u64 + 1,
        nrefs: 1,
        expires: None,
        refetch_latency_ms: 0,
        type_priority: 0,
        last_modified: Some(7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault schedule over the write path — failed appends,
    /// short writes, failed fsyncs, failed snapshot commits, in any
    /// interleaving — may only make a later fault-free recovery
    /// *colder*: no panic anywhere, every recovered body byte-identical
    /// to what was written, never a stale update presented as fresh
    /// (a lost journal record can only remove documents from recovery,
    /// not resurrect overwritten bytes).
    #[test]
    fn arbitrary_fault_schedules_never_corrupt_recovery(
        seed in 0u64..1_000,
        append_p in 0.0f64..0.5,
        short_p in 0.0f64..0.4,
        sync_p in 0.0f64..0.9,
        snap_p in 0.0f64..0.9,
        sizes in prop::collection::vec(1usize..2_000, 1..10),
        tail in prop::collection::vec((0usize..10, 0u8..4), 0..24),
    ) {
        let dir = TempDir::new("prop");
        let nshards = 2u32;
        let plan = IoFaultPlan::new(seed)
            .append_error(append_p)
            .short_write(short_p)
            .sync_error(sync_p)
            .snapshot_error(snap_p);
        let inj = Arc::new(IoFaultInjector::new(plan));

        // Reference: url -> body as most recently *written* (snapshot
        // or journal). Recovery may return any faulted-away subset, but
        // whatever it returns must match this map exactly.
        let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
        let mut per_shard: Vec<Vec<SnapshotDoc>> =
            (0..nshards).map(|_| Vec::new()).collect();
        for (i, &size) in sizes.iter().enumerate() {
            let body = body_for(i, size);
            expected.insert(url_for(i), body.clone());
            per_shard[i % nshards as usize].push(SnapshotDoc {
                meta: doc_meta(i, size),
                url: url_for(i),
                fetched_at: i as u64,
                body: Bytes::from(body),
            });
        }
        for (shard, docs) in per_shard.into_iter().enumerate() {
            // A faulted snapshot commit simply leaves that shard cold.
            let _ = persist::write_shard_snapshot_hooked(
                &dir.0,
                &ShardSnapshot {
                    shard: shard as u32,
                    nshards,
                    gen: 1,
                    seq: 0,
                    now: 100,
                    capacity: 1 << 20,
                    current_day: 0,
                    stats: CacheStats::default(),
                    policy_state: Vec::new(),
                    docs,
                },
                Some(&inj),
            );
        }

        // Journal tail through the faulting writer, record by record —
        // failed appends leave sequence gaps, short writes leave torn
        // tails; both must truncate replay, never corrupt it.
        let mut writers: HashMap<u32, JournalWriter> = HashMap::new();
        let mut seqs: HashMap<u32, u64> = HashMap::new();
        for &(doc, kind) in &tail {
            let i = doc % sizes.len();
            let shard = (i % nshards as usize) as u32;
            let w = match writers.entry(shard) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    match JournalWriter::create(&dir.0, shard) {
                        Ok(w) => v.insert(w.with_hook(Some(inj.clone()))),
                        Err(_) => continue,
                    }
                }
            };
            let seq = {
                let e = seqs.entry(shard).or_insert(0);
                *e += 1;
                *e
            };
            let op = match kind {
                0 => {
                    // An insert that *overwrites* the document with new
                    // bytes: if this record survives, recovery must
                    // serve the new body; if it is lost, the old one.
                    let body = body_for(i + 100, sizes[i]);
                    let op = JournalOp::Insert {
                        old_id: i as u32,
                        url: url_for(i),
                        now: 200 + seq,
                        size: sizes[i] as u64,
                        doc_type: DocType::ALL[i % DocType::ALL.len()],
                        last_modified: Some(9),
                        fetched_at: 200 + seq,
                        body: Bytes::from(body.clone()),
                    };
                    if w.append(&[(seq, op)]).is_ok() {
                        expected.insert(url_for(i), body);
                    }
                    continue;
                }
                1 => JournalOp::Touch { old_id: i as u32, now: 200 + seq, size: sizes[i] as u64 },
                2 => JournalOp::Evict { old_id: i as u32 },
                _ => JournalOp::Refresh {
                    old_id: i as u32,
                    fetched_at: 200 + seq,
                },
            };
            let _ = w.append(&[(seq, op)]);
            let _ = w.sync();
        }
        drop(writers);

        // Fault-free recovery: colder is fine, wrong is not.
        let rec = persist::recover(&dir.0, nshards);
        for rs in rec.shards.iter().flatten() {
            for d in &rs.snap.docs {
                let reference = expected.get(&d.url);
                prop_assert!(
                    reference.is_some(),
                    "recovered unknown url {}",
                    d.url
                );
                // Snapshot bodies predate the journal tail; they must
                // match the *originally snapshotted* bytes.
                let original = body_for(d.meta.url.0 as usize, d.meta.size as usize);
                prop_assert_eq!(d.body.as_ref(), &original[..]);
            }
        }
        for jr in &rec.journals {
            let mut last = 0u64;
            for (s, op) in &jr.ops {
                prop_assert!(
                    last == 0 || *s == last + 1,
                    "replayable journal must have contiguous seqs ({last} -> {s})"
                );
                last = *s;
                if let JournalOp::Insert { url, size, body, .. } = op {
                    let reference = expected.get(url);
                    prop_assert!(reference.is_some(), "journal insert for unknown {url}");
                    prop_assert_eq!(body.len() as u64, *size);
                    // A surviving journal insert must carry the newest
                    // bytes for its URL.
                    prop_assert_eq!(body.as_ref(), &reference.expect("checked")[..]);
                }
            }
        }
    }
}
