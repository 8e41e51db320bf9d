//! Kill-point integration tests for crash-safe persistence: a real
//! `webcache-proxy` child process is warmed through a [`FaultyOrigin`],
//! SIGKILLed at hostile moments — before any snapshot exists, mid-journal
//! with a snapshot behind it, while snapshots are being written, and with
//! a cache too small for its documents — and restarted from the same
//! directory. The warm restart must preserve the
//! working set: the post-restart hit rate over an identical probe set
//! must be at least 0.9× the pre-kill rate.

mod common;

use common::{get, hit_rate, ChildProxy, TempDir};
use std::sync::Arc;
use std::time::Duration;
use webcache_proxy::{DocStore, FaultPlan, FaultyOrigin, OriginServer};

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
            "--workers",
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
