//! Everything at once: a fault-free baseline pass, then the same workload
//! through a flaky origin into a child `webcache-proxy` whose disk fails
//! every journal append and fsync (one long Degraded episode, so
//! durability is whatever the snapshots give), with slow clients
//! attached; the child is SIGKILLed mid-run and restarted fault-free from
//! the same directory. The proxy must be colder at most: never down,
//! never wrong.
//!
//! This file holds exactly one test. Its goodput-collapse detector
//! compares two passes timed inside this process, so no other test may
//! run beside it.

mod common;

use common::{drive, fetch_slowly, get, hit_rate, ChildProxy, TempDir};
use std::collections::HashMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use webcache_proxy::{FaultPlan, FaultyOrigin, OriginServer};

/// A child with the persister on a tight cadence, so a run of a second
/// or two overlaps several snapshot rounds.
fn spawn(origin: SocketAddr, dir: &TempDir, capacity: u64, extra: &[&str]) -> ChildProxy {
    let (origin, capacity, dir) = (origin.to_string(), capacity.to_string(), dir.arg());
    let mut args = vec![
        "--origin",
        &origin,
        "--capacity",
        &capacity,
        "--shards",
        "2",
        "--persist-dir",
        &dir,
        "--snapshot-interval",
        "300",
        "--journal-fsync",
        "10",
    ];
    args.extend(extra);
    ChildProxy::spawn(&args)
}

/// Warm the proxy with one pass of `urls` from four clients, then time a
/// second: `200` responses per second. Four clients keep the figure
/// bound by capacity: the origin's per-connection delay faults overlap
/// instead of adding up.
fn goodput(addr: SocketAddr, urls: &[&str]) -> f64 {
    let _ = drive(urls, 4, |_| addr);
    let t0 = Instant::now();
    let ok = drive(urls, 4, |_| addr).ok;
    ok as f64 / t0.elapsed().as_secs_f64()
}

#[test]
fn degraded_but_up_under_origin_disk_and_overload_faults_then_warm_restart() {
    let trace = common::paper_trace(0.002);
    let capacity = common::quarter_capacity(&trace);
    let origin = OriginServer::start(common::seed_origin(&trace)).expect("origin");
    let urls = common::urls(&trace);

    // Probe the workload's small hot set: frequent URLs well below the
    // SIZE policy's eviction frontier (it removes largest first, so small
    // documents are in effect pinned). Those stay cached whatever order
    // the parallel clients arrive in, so their hit rate shows what the
    // faults did and not what eviction order did.
    let probe: Vec<&str> = {
        let size_cutoff = (capacity / 128).max(1);
        let mut freq: HashMap<&str, (usize, usize)> = HashMap::new();
        for (i, r) in trace.requests.iter().enumerate() {
            if r.size <= size_cutoff {
                let seen = freq.entry(urls[i]).or_insert((0, 0));
                *seen = (seen.0 + 1, i);
            }
        }
        let mut ranked: Vec<_> = freq.into_iter().collect();
        ranked.sort_by_key(|&(_, count_and_last)| std::cmp::Reverse(count_and_last));
        ranked.into_iter().take(48).map(|(url, _)| url).collect()
    };
    assert!(!probe.is_empty(), "no small documents to probe");

    // Pass 1: the same workload and probe with no faults.
    let (base_hit_rate, base_goodput) = {
        let dir = TempDir::new("chaos-base");
        let p = spawn(origin.addr(), &dir, capacity, &[]);
        let goodput = goodput(p.addr, &urls);
        let _ = hit_rate(p.addr, &probe);
        (hit_rate(p.addr, &probe), goodput)
    };
    assert!(base_hit_rate > 0.0, "fault-free probe hit nothing");

    // Pass 2: a flaky origin, a dead journal path (every append and fsync
    // fails, and so do the re-arm probes, whose backoff outlives the run:
    // the episode never heals), four slow clients.
    let plan = FaultPlan::new(1996)
        .server_error(0.04)
        .delay(0.10, Duration::from_millis(2));
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("fault shim");
    let dir = TempDir::new("chaos");
    let mut p = spawn(
        faulty.addr(),
        &dir,
        capacity,
        &[
            "--iofault",
            "seed=9,append=1.0,sync=1.0",
            "--degraded-backoff",
            "60000",
            "--degraded-retries",
            "8",
        ],
    );
    let (addr, stop) = (p.addr, &AtomicBool::new(false));
    let (chaos_goodput, chaos_hit_rate) = std::thread::scope(|scope| {
        // The overload: four clients dribbling requests a byte every 2 ms
        // (they pin buffers in the proxy, never a thread).
        let (slow_url, pace) = (urls[0], Duration::from_millis(2));
        for _ in 0..4 {
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !fetch_slowly(addr, slow_url, 1, pace, stop) {
                        std::thread::sleep(pace);
                    }
                }
            });
        }
        let goodput = goodput(addr, &urls);
        let _ = hit_rate(addr, &probe);
        // Over answered probes only, with one retry: a `503` off the flaky
        // origin is an origin fault, not a cache miss, and the gate is
        // about what the disk faults did to the cache.
        let answers: Vec<bool> = probe
            .iter()
            .filter_map(|u| get(addr, u).or_else(|| get(addr, u)))
            .collect();
        let hits = answers.iter().filter(|&&hit| hit).count();
        // A degraded-mode snapshot round covers the probe's churn; then
        // SIGKILL with the slow clients still attached.
        std::thread::sleep(Duration::from_millis(450));
        p.sigkill();
        stop.store(true, Ordering::Relaxed);
        (goodput, hits as f64 / answers.len().max(1) as f64)
    });
    // The first failed drain came within one journal-fsync tick of the
    // first insert; whatever the child had to say, it has said.
    let degraded = p
        .stdout
        .take()
        .expect("child stdout")
        .lines()
        .map_while(Result::ok)
        .any(|line| line.contains("persist: health degraded"));
    assert!(degraded, "the child never printed its degraded transition");
    assert!(
        faulty.stats().injected() > 0,
        "the origin shim injected nothing"
    );
    assert!(
        chaos_hit_rate >= 0.95 * base_hit_rate,
        "probe hit rate {chaos_hit_rate:.3} under faults < 0.95x the fault-free {base_hit_rate:.3}"
    );
    // A collapse detector, not a benchmark: origin delays and the slow
    // clients do slow a closed loop, but below about a third of the
    // baseline, serving itself is stuck on the failing disk.
    assert!(
        chaos_goodput >= 0.35 * base_goodput,
        "goodput {chaos_goodput:.0}/s under faults < 0.35x the fault-free {base_goodput:.0}/s"
    );

    // Pass 3: restart from the same directory with no faults.
    let p2 = spawn(origin.addr(), &dir, capacity, &[]);
    assert!(p2.recovered_docs > 0, "the restart recovered nothing");
    assert!(
        hit_rate(p2.addr, &probe) > 0.0,
        "the restarted proxy served no hits"
    );
}
