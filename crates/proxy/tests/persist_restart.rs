//! Kill-point integration tests for crash-safe persistence: a real
//! `webcache-proxy` child process is warmed through a [`FaultyOrigin`],
//! SIGKILLed at hostile moments — before any snapshot exists, mid-journal
//! with a snapshot behind it, while snapshots are being written, and with
//! a cache too small for its documents — and restarted from the same
//! directory. The warm restart must preserve the
//! working set: the post-restart hit rate over an identical probe set
//! must be at least 0.9× the pre-kill rate.
//!
//! And restarts with no kill: from a directory as a build before
//! DESIGN.md D26 wrote it, and of a GreedyDual-Size shard into the same
//! and into another shard count — what `apply_recovery` keeps of the ids
//! and the policy state a snapshot recorded.

mod common;

use bytes::Bytes;
use common::{get, hit_rate, ChildProxy, TempDir};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::cache::{Cache, CacheStats, DocMeta};
use webcache_core::policy::{GreedyDualSize, RemovalPolicy};
use webcache_core::util::splitmix64;
use webcache_proxy::persist::{self, ShardSnapshot, SnapshotDoc};
use webcache_proxy::{
    DocStore, FaultPlan, FaultyOrigin, OriginServer, PersistConfig, ProxyConfig, ProxyServer,
};
use webcache_trace::{ClientId, DocType, ServerId, UrlId};

/// Room for all 80 test documents (227 KB) many times over.
const ROOMY: u64 = 1 << 22;

/// Warm a child through a lightly faulty origin, SIGKILL it, restart it
/// from the same directory, and require the warm restart to preserve at
/// least 0.9× of the pre-kill probe hit rate.
///
/// `snapshot_ms` positions the kill relative to the snapshot machinery;
/// `settle` is how long the persister gets between the probe and the
/// kill.
fn kill_and_restart(tag: &str, capacity: u64, snapshot_ms: u64, fsync_ms: u64, settle: Duration) {
    let store = Arc::new(DocStore::new());
    let urls: Vec<String> = (0..80)
        .map(|i| format!("http://kp.test/doc-{i}.html"))
        .collect();
    let mut total_bytes = 0;
    for (i, url) in urls.iter().enumerate() {
        let size = 1_000 + (i as u64 * 211) % 4_000;
        store.put_synthetic(url, size, 3);
        total_bytes += size;
    }
    let origin = OriginServer::start(store).expect("origin");
    // A lightly hostile origin during warm-up: short delays the proxy
    // absorbs transparently, so persistence runs under realistic load.
    let plan = FaultPlan::new(5).delay(0.2, Duration::from_millis(2));
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("fault shim");
    let dir = TempDir::new(tag);
    let spawn = || {
        ChildProxy::spawn(&[
            "--origin",
            &faulty.addr().to_string(),
            "--capacity",
            &capacity.to_string(),
            "--shards",
            "4",
            "--persist-dir",
            &dir.arg(),
            "--snapshot-interval",
            &snapshot_ms.to_string(),
            "--journal-fsync",
            &fsync_ms.to_string(),
        ])
    };

    let mut p1 = spawn();
    for url in &urls {
        assert_eq!(get(p1.addr, url), Some(false), "cold fetch of {url}");
    }
    // Probe twice: the first pass settles the cache (any probe mutates
    // it), the second measures the state the restart must reproduce.
    let _ = hit_rate(p1.addr, &urls);
    let pre = hit_rate(p1.addr, &urls);
    std::thread::sleep(settle);
    p1.sigkill();

    let p2 = spawn();
    assert!(
        p2.recovered_docs > 0,
        "{tag}: warm restart recovered nothing"
    );
    let post = hit_rate(p2.addr, &urls);

    assert!(
        post >= 0.9 * pre,
        "{tag}: warm-restart hit rate {post:.3} fell below 0.9x the pre-kill {pre:.3}"
    );
    assert!(pre > 0.5, "{tag}: pre-kill probe too cold to be meaningful");
    assert_eq!(
        pre < 1.0,
        capacity < total_bytes,
        "{tag}: the probe misses exactly when the cache is too small for the documents"
    );
}

/// Kill before the first snapshot ever fires: recovery must come
/// entirely from the journal tail.
#[test]
fn sigkill_before_first_snapshot_recovers_from_journal() {
    // Snapshot interval far beyond the test's lifetime; aggressive
    // fsync so the journal tail is durable when the kill lands.
    kill_and_restart("journal-only", ROOMY, 60_000, 5, Duration::from_millis(100));
}

/// Kill with a snapshot on disk and fresh journal records beyond it:
/// recovery must stitch snapshot + journal tail together.
#[test]
fn sigkill_mid_journal_recovers_snapshot_plus_tail() {
    // One snapshot lands during the settle window; the probe's touches
    // keep journaling after it.
    kill_and_restart("mid-journal", ROOMY, 300, 5, Duration::from_millis(450));
}

/// Kill while snapshots are being written continuously: whatever
/// generation the kill tears, recovery must fall back to a valid one.
#[test]
fn sigkill_during_snapshot_writes_falls_back_to_valid_generation() {
    // Snapshots every 25 ms and no settle: the SIGKILL races snapshot
    // writing itself; the rename-commit protocol must leave a valid
    // generation behind.
    kill_and_restart("during-snapshot", ROOMY, 25, 5, Duration::from_millis(0));
}

/// Kill a cache that has been evicting since its warm-up, under the
/// binary's default SIZE policy: snapshot and journal carry inserts,
/// evictions and inserts evicted before they were ever written, and the
/// restart must come back with the documents that had survived.
#[test]
fn sigkill_of_an_evicting_cache_recovers_the_survivors() {
    // Two thirds of what the documents weigh; kill point as `mid-journal`.
    kill_and_restart("evicting", 150_000, 300, 5, Duration::from_millis(450));
}

/// A directory as the commit before D26 wrote it: document ids handed out
/// by one process-wide interner (sparse in any one shard), each document
/// in the shard its *id* hashed to, and the interner's table in a `.wci`
/// file beside the snapshots. Every document comes back warm — in the
/// shard its *text* hashes to — and the next generation's garbage
/// collection takes the `.wci` with it, and the `.wcsb` body file a
/// build before D27 wrote beside each snapshot.
#[test]
fn a_directory_the_parent_wrote_recovers_warm_and_loses_its_wci() {
    let dir = TempDir::new("parent-dir");
    let store = Arc::new(DocStore::new());
    let mut shards: Vec<Vec<SnapshotDoc>> = (0..4).map(|_| Vec::new()).collect();
    let mut urls = Vec::new();
    for i in 0..40u32 {
        let (id, size) = (7 + 13 * i, 500 + 10 * i as u64);
        let url = format!("http://old.test/doc-{i}.html");
        store.put_synthetic(&url, size, 3);
        shards[(splitmix64(id as u64) & 3) as usize].push(SnapshotDoc {
            meta: DocMeta {
                url: UrlId(id),
                size,
                doc_type: DocType::Text,
                entry_time: i as u64 + 1,
                last_access: i as u64 + 1,
                nrefs: 1,
                expires: None,
                refetch_latency_ms: 0,
                type_priority: 5,
                last_modified: Some(3),
            },
            url: url.clone(),
            fetched_at: i as u64 + 1,
            body: Bytes::from(vec![i as u8; size as usize]),
        });
        urls.push(url);
    }
    assert!(shards.iter().all(|docs| !docs.is_empty()));
    for (shard, docs) in shards.into_iter().enumerate() {
        let snap = ShardSnapshot {
            shard: shard as u32,
            nshards: 4,
            gen: 1,
            seq: 0,
            now: 40,
            capacity: ROOMY / 4,
            current_day: 0,
            stats: CacheStats::default(),
            policy_state: Vec::new(),
            docs,
        };
        persist::write_shard_snapshot(&dir.0, &snap).expect("write snapshot");
    }
    let wci = dir.0.join("interner-g1.wci");
    std::fs::write(&wci, b"a URL table nothing reads any more").expect("write .wci");
    let wcsb = dir.0.join("shard-0-g1.wcsb");
    std::fs::write(&wcsb, b"a body file nothing reads any more").expect("write .wcsb");

    let origin = OriginServer::start(store).expect("origin");
    let p = ChildProxy::spawn(&[
        "--origin",
        &origin.addr().to_string(),
        "--capacity",
        &ROOMY.to_string(),
        "--shards",
        "4",
        "--persist-dir",
        &dir.arg(),
        "--snapshot-interval",
        "50",
    ]);
    assert_eq!(p.recovered_docs, 40);
    for url in &urls {
        assert_eq!(get(p.addr, url), Some(true), "{url} came back cold");
    }
    assert_eq!(origin.stats().full_responses.load(Ordering::Relaxed), 0);

    let deadline = Instant::now() + Duration::from_secs(10);
    while wci.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!wci.exists(), "generation 2 was collected around the .wci");
    assert!(
        !wcsb.exists(),
        "generation 2 was collected around the .wcsb"
    );
    assert!(dir.0.join("shard-0-g2.wcs").exists());
    assert!(!dir.0.join("shard-0-g1.wcs").exists());
}

/// A one-shard directory whose snapshot is a GreedyDual-Size cache with
/// evictions behind it — an inflation value above zero, which only the
/// opaque policy state carries — started and stopped with `shards` shards;
/// what was written, and what the stop's final snapshot wrote back.
fn gd_size_round_trip(tag: &str, shards: usize) -> (ShardSnapshot, Vec<ShardSnapshot>) {
    let gd_size = || -> Box<dyn RemovalPolicy> { Box::new(GreedyDualSize::new()) };
    let mut cache = Cache::new(1000, gd_size());
    for (id, size) in [300, 200, 400, 250, 150, 350].into_iter().enumerate() {
        cache.request(&webcache_trace::Request {
            time: id as u64 + 1,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(id as u32),
            size,
            doc_type: DocType::Text,
            last_modified: None,
        });
    }
    let cs = cache.export_state();
    assert_ne!(cs.policy_state[..8], [0; 8], "nothing was evicted");
    let written = ShardSnapshot {
        shard: 0,
        nshards: 1,
        gen: 1,
        seq: 0,
        now: 6,
        capacity: cs.capacity,
        current_day: cs.current_day,
        stats: cs.stats,
        policy_state: cs.policy_state,
        docs: cs
            .docs
            .into_iter()
            .map(|meta| SnapshotDoc {
                meta,
                url: format!("http://gd.test/{}.html", meta.url.0),
                fetched_at: meta.entry_time,
                body: Bytes::from(vec![meta.url.0 as u8; meta.size as usize]),
            })
            .collect(),
    };
    let dir = TempDir::new(tag);
    persist::write_shard_snapshot(&dir.0, &written).expect("write snapshot");

    let nowhere = "127.0.0.1:1".parse().expect("address");
    let config = ProxyConfig::new(1000 * shards as u64).with_shards(shards);
    let proxy = ProxyServer::start_persistent(nowhere, config, PersistConfig::new(&dir.0), gd_size)
        .expect("start");
    let report = proxy.recovery_report().expect("persistent");
    assert_eq!(report.docs, written.docs.len() as u64);
    drop(proxy);
    let back = persist::recover(&dir.0, shards as u32);
    let snaps = back.shards.into_iter().flatten().map(|rs| rs.snap);
    (written, snaps.collect())
}

/// Same shard count: `restore_entries`' `Imported` arm. Ids, `H` values
/// and the inflation value are the ones written.
#[test]
fn a_gd_size_shard_recovered_whole_keeps_its_ids_and_its_inflation() {
    let (written, back) = gd_size_round_trip("gd-same", 1);
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].policy_state, written.policy_state);
    assert_eq!(back[0].docs, written.docs);
    assert_eq!(back[0].stats, written.stats);
}

/// Another shard count: fresh ids from zero in each shard, and `Replayed`
/// — the inflation value starts over.
#[test]
fn a_gd_size_shard_split_in_two_gets_fresh_ids_and_a_replayed_policy() {
    let (written, back) = gd_size_round_trip("gd-split", 2);
    let recovered: usize = back.iter().map(|snap| snap.docs.len()).sum();
    assert_eq!(recovered, written.docs.len());
    for snap in &back {
        assert_eq!(snap.policy_state[..8], [0; 8]);
        let ids: Vec<u32> = snap.docs.iter().map(|d| d.meta.url.0).collect();
        assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
        for d in &snap.docs {
            let was = written.docs.iter().find(|w| w.url == d.url);
            assert_eq!(was.map(|w| &w.body), Some(&d.body), "{}", d.url);
        }
    }
}
