//! Stage timers: each layer a request crosses, called directly through
//! its public functions on the workload's own first requests, in
//! batches, reported as the median time per operation. Nothing here
//! touches a socket — the cost of a layer with the others taken away.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use webcache_core::cache::{Cache, ShardedCache};
use webcache_core::cluster::{HashRing, Membership};
use webcache_core::policy::{named, RemovalPolicy};
use webcache_core::sim::simulate_policy;
use webcache_proxy::http::{self, RequestParser};
use webcache_proxy::persist::{self, JournalOp, JournalWriter, ShardSnapshot, SnapshotDoc};
use webcache_trace::{Request, Trace, UrlId};

use crate::child::SHARDS;
use crate::gen::Docs;
use crate::stats::median;

/// Requests the timers run over at full scale.
const STAGE_REQUESTS: usize = 20_000;
/// Operations per timed batch.
const BATCH: usize = 500;
/// Journal records per append, as the proxy's persister batches them.
const JOURNAL_BATCH: usize = 64;
const JOURNAL_BATCHES: usize = 64;
/// Documents in the timed snapshot, capped by bytes so a trace of large
/// bodies does not turn the timer into a disk benchmark.
const SNAPSHOT_DOCS: usize = 10_000;
const SNAPSHOT_BYTES: u64 = 32 << 20;
const REPS: usize = 5;

/// Median over batches of the time per operation, in ns. `f` runs one
/// batch of `ops` operations.
fn per_op_ns(batches: usize, ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..batches.max(1))
        .map(|b| {
            let t0 = Instant::now();
            f(b);
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&times)
}

/// Median wall time of `f` over `REPS` runs, in ms.
fn median_ms(mut f: impl FnMut(usize)) -> f64 {
    per_op_ns(REPS, 1, &mut f) / 1e6
}

fn policy(lru: bool) -> Box<dyn RemovalPolicy> {
    if lru {
        Box::new(named::lru())
    } else {
        Box::new(named::size())
    }
}

/// `ShardedCache::try_with_shard_for` + `Cache::request` on a resident
/// document: lock, lookup, policy touch.
fn cache_hit_ns(reqs: &[Request], lru: bool) -> f64 {
    let cache: ShardedCache = ShardedCache::new(u64::MAX / 4, SHARDS, || policy(lru));
    for r in reqs {
        cache.request(r);
    }
    per_op_ns(reqs.len() / BATCH, BATCH, |b| {
        for r in &reqs[b * BATCH..(b + 1) * BATCH] {
            black_box(cache.try_with_shard_for(r.url, |c, _| c.request(r)));
        }
    })
}

/// `Cache::request` for a document never seen, into a cache already
/// full: insert plus the evictions that make room. Each operation gets
/// a fresh id above the trace's, with the size of a real request.
fn cache_miss_evict_ns(reqs: &[Request], fresh_from: u32, lru: bool) -> f64 {
    let bytes: u64 = reqs.iter().map(|r| r.size).sum();
    let largest = reqs.iter().map(|r| r.size).max().unwrap_or(1);
    let mut cache = Cache::new((bytes / 10).max(largest), policy(lru));
    let fresh = |i: usize, r: &Request| Request {
        url: UrlId(fresh_from + i as u32),
        ..*r
    };
    // First pass fills the cache; the timed pass uses ids above it.
    for (i, r) in reqs.iter().enumerate() {
        cache.request(&fresh(i, r));
    }
    let base = reqs.len();
    per_op_ns(reqs.len() / BATCH, BATCH, |b| {
        for (i, r) in reqs.iter().enumerate().skip(b * BATCH).take(BATCH) {
            black_box(cache.request(&fresh(base + i, r)));
        }
    })
}

/// Journal records for `reqs` as the proxy would log them: `Insert`
/// with the body the first time a document is seen, `Touch` after.
fn journal_ops(reqs: &[Request], docs: &Docs) -> Vec<(u64, JournalOp)> {
    let mut seen = std::collections::HashSet::new();
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            let now = i as u64 + 1;
            let op = if seen.insert(r.url) {
                let url = &docs.urls[r.url.0 as usize];
                JournalOp::Insert {
                    old_id: r.url.0,
                    url: url.clone(),
                    now,
                    size: r.size,
                    doc_type: r.doc_type,
                    last_modified: Some(1),
                    fetched_at: now,
                    body: http::synthetic_body(url, r.size),
                }
            } else {
                JournalOp::Touch {
                    old_id: r.url.0,
                    now,
                    size: r.size,
                }
            };
            (now, op)
        })
        .collect()
}

/// `JournalWriter::append` per record and `sync` per batch.
fn journal(dir: &Path, ops: &[(u64, JournalOp)]) -> Result<(f64, f64), String> {
    let err = |e| format!("journal stage: {e}");
    let mut w = JournalWriter::create(dir, 0).map_err(err)?;
    let mut append_ns = Vec::new();
    let mut sync_us = Vec::new();
    for batch in ops.chunks(JOURNAL_BATCH) {
        let t0 = Instant::now();
        w.append(batch).map_err(err)?;
        append_ns.push(t0.elapsed().as_nanos() as f64 / batch.len() as f64);
        let t1 = Instant::now();
        w.sync().map_err(err)?;
        sync_us.push(t1.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((median(&append_ns), median(&sync_us)))
}

/// One shard's snapshot of the first documents of the trace, built the
/// way the proxy builds its own: cache state plus bodies.
fn snapshot_of(reqs: &[Request], docs: &Docs, max_docs: usize) -> ShardSnapshot {
    let mut cache = Cache::new(u64::MAX / 4, policy(false));
    let mut bytes = 0;
    for r in reqs {
        if cache.len() >= max_docs || bytes >= SNAPSHOT_BYTES {
            break;
        }
        if !cache.contains(r.url) {
            bytes += r.size;
        }
        cache.request(r);
    }
    let state = cache.export_state();
    ShardSnapshot {
        shard: 0,
        nshards: 1,
        gen: 1,
        seq: 0,
        now: reqs.len() as u64,
        capacity: state.capacity,
        current_day: state.current_day,
        stats: state.stats,
        policy_state: state.policy_state,
        docs: state
            .docs
            .into_iter()
            .map(|meta| {
                let url = docs.urls[meta.url.0 as usize].clone();
                SnapshotDoc {
                    body: http::synthetic_body(&url, meta.size),
                    meta,
                    url,
                    fetched_at: 1,
                }
            })
            .collect(),
    }
}

/// `write_shard_snapshot` and `persist::recover` of the same snapshot.
fn snapshot(dir: &Path, mut snap: ShardSnapshot) -> Result<(f64, f64), String> {
    let mut failure = None;
    let write_ms = median_ms(|rep| {
        snap.gen = rep as u64 + 1;
        if let Err(e) = persist::write_shard_snapshot(dir, &snap) {
            failure = Some(format!("snapshot stage: {e}"));
        }
    });
    let recover_ms = median_ms(|_| {
        let rec = persist::recover(dir, 1);
        let docs = rec.shards[0].as_ref().map_or(0, |s| s.snap.docs.len());
        if docs != snap.docs.len() {
            failure = Some(format!(
                "snapshot stage: recovered {docs} of {} documents",
                snap.docs.len()
            ));
        }
    });
    match failure {
        Some(f) => Err(f),
        None => Ok((write_ms, recover_ms)),
    }
}

/// Run every stage timer over the first requests of `trace`. `scale`
/// shrinks the work for `--smoke`; `tmp` is an empty scratch directory.
pub fn run(
    trace: &Trace,
    docs: &Docs,
    scale: f64,
    tmp: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(1);
    let n = (scaled(STAGE_REQUESTS).min(trace.len()) / BATCH).max(1) * BATCH;
    let reqs: Vec<Request> = trace.requests.iter().cycle().take(n).copied().collect();
    let batches = n / BATCH;
    let batch = |b: usize| &reqs[b * BATCH..(b + 1) * BATCH];
    let mut out = Vec::new();

    let mut parser = RequestParser::new();
    let mut parsed = true;
    out.push((
        "proxy.http.parse_ns",
        per_op_ns(batches, BATCH, |b| {
            for r in batch(b) {
                parsed &= parser
                    .feed_complete(&docs.wire[r.url.0 as usize])
                    .unwrap_or(false);
                black_box(parser.target().len());
                parser.reset();
            }
        }),
    ));
    if !parsed {
        return Err("parse stage: a generated request did not parse".into());
    }

    let mut interner = trace.interner.clone();
    out.push((
        "trace.intern_ns",
        per_op_ns(batches, BATCH, |b| {
            for r in batch(b) {
                black_box(interner.url(&docs.urls[r.url.0 as usize]));
            }
        }),
    ));
    if interner.url_count() != trace.interner.url_count() {
        return Err("intern stage: a known URL was interned as new".into());
    }

    out.push(("core.cache.hit_ns.size", cache_hit_ns(&reqs, false)));
    out.push(("core.cache.hit_ns.lru", cache_hit_ns(&reqs, true)));
    let fresh_from = trace.interner.url_count() as u32;
    out.push((
        "core.cache.miss_evict_ns.size",
        cache_miss_evict_ns(&reqs, fresh_from, false),
    ));
    out.push((
        "core.cache.miss_evict_ns.lru",
        cache_miss_evict_ns(&reqs, fresh_from, true),
    ));

    let mut head = Vec::new();
    out.push((
        "proxy.http.encode_head_ns",
        per_op_ns(batches, BATCH, |b| {
            for r in batch(b) {
                http::encode_hit_head_into(&mut head, r.size, Some(1));
                black_box(head.len());
            }
        }),
    ));

    let journal_reqs = &reqs[..(scaled(JOURNAL_BATCHES) * JOURNAL_BATCH).min(n)];
    let (append_ns, sync_us) = journal(&tmp.join("journal"), &journal_ops(journal_reqs, docs))?;
    out.push(("proxy.persist.append_ns", append_ns));
    out.push(("proxy.persist.sync_us", sync_us));
    let snap = snapshot_of(&trace.requests, docs, scaled(SNAPSHOT_DOCS));
    let (snapshot_ms, recover_ms) = snapshot(&tmp.join("snapshot"), snap)?;
    out.push(("proxy.persist.snapshot_ms", snapshot_ms));
    out.push(("proxy.persist.recover_ms", recover_ms));

    let ring = HashRing::build(1, &Membership::new(1, vec![0, 1, 2, 3]), 64);
    out.push((
        "core.cluster.owner_ns",
        per_op_ns(batches, BATCH, |b| {
            for r in batch(b) {
                black_box(ring.owner(&docs.urls[r.url.0 as usize]));
            }
        }),
    ));

    let prefix = Trace {
        name: trace.name.clone(),
        requests: trace.requests[..n.min(trace.len())].to_vec(),
        interner: trace.interner.clone(),
        validation: trace.validation,
    };
    let capacity = (prefix.total_bytes() / 10).max(1);
    out.push((
        "core.sim.lane_req_ns",
        median_ms(|_| {
            black_box(simulate_policy(&prefix, capacity, policy(false)));
        }) * 1e6
            / prefix.len().max(1) as f64,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::hot_small_trace;

    #[test]
    fn every_stage_reports_a_positive_time() {
        let trace = hot_small_trace(1, 3000);
        let docs = Docs::of(&trace);
        let tmp = std::env::temp_dir().join(format!("wcbench-stages-{}", std::process::id()));
        let out = run(&trace, &docs, 0.05, &tmp).expect("stages run");
        std::fs::remove_dir_all(&tmp).unwrap();
        assert_eq!(out.len(), 13);
        for (name, v) in &out {
            assert!(
                crate::metrics::metric(name).is_some(),
                "{name} is in the table"
            );
            assert!(*v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }

    #[test]
    fn miss_evict_stage_really_evicts() {
        let trace = hot_small_trace(2, 2000);
        let reqs: Vec<Request> = trace.requests.clone();
        let bytes: u64 = reqs.iter().map(|r| r.size).sum();
        let mut cache = Cache::new(bytes / 10, policy(false));
        for (i, r) in reqs.iter().enumerate() {
            cache.request(&Request {
                url: UrlId(10_000 + i as u32),
                ..*r
            });
        }
        assert!(cache.stats().evictions > 1000, "{:?}", cache.stats());
        assert!(cache_miss_evict_ns(&reqs, 10_000, false) > 0.0);
    }
}
