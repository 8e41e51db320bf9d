//! # webcache-loadgen
//!
//! A multi-threaded load generator that replays a workload trace
//! against a live [`webcache_proxy::ProxyServer`] backed by a
//! fault-free [`webcache_proxy::origin::OriginServer`], measuring what
//! the offline benchmarks cannot: served-traffic latency and
//! throughput.
//!
//! Two pacing modes:
//!
//! * **Closed loop** (default): each client thread issues one request,
//!   waits for the full response, then takes the next request off a
//!   shared cursor — offered load adapts to what the proxy can absorb.
//! * **Open loop** ([`ReplayConfig::time_scale`]): requests are issued
//!   at their trace timestamps compressed by a factor *K*, whether or
//!   not earlier responses have come back — offered load is what the
//!   trace says, and queueing delay shows up in the tail instead of
//!   silently throttling the generator. Latency is measured from each
//!   request's *scheduled* time, so coordinated omission is accounted
//!   for.
//!
//! Independently, [`ReplayConfig::slow_clients`] adds a population of
//! clients that dribble their request bytes a few at a time, always
//! inside the proxy's read timeout — well-behaved wire traffic that
//! completes eventually, and costs the proxy's reactor only buffers,
//! never a worker. Their outcomes are tracked separately
//! ([`ReplayReport::slow_ok`] / [`ReplayReport::slow_errors`]) so the
//! closed-loop error gate stays meaningful.
//!
//! Per-request latency (connect → full body) is recorded in
//! microseconds into a [`webcache_stats::Histogram`] (log₂ bins) and
//! reported as p50/p90/p99 plus the exact maximum, together with
//! aggregate req/s and goodput (200-responses only). The sweep in
//! `src/main.rs` replays the same trace across shard counts and
//! slow-client populations; results land in `BENCH_proxy.json` (see
//! README "Serving benchmark").

#![warn(missing_docs)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::policy::RemovalPolicy;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::origin::{DocStore, OriginServer};
use webcache_proxy::{PersistConfig, ProxyConfig, ProxyServer};
use webcache_stats::Histogram;
use webcache_trace::Trace;

/// How one replay run is shaped.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Closed-loop client threads issuing requests.
    pub clients: usize,
    /// Proxy cache shards (nonzero power of two).
    pub shards: usize,
    /// Proxy worker threads.
    pub workers: usize,
    /// Proxy job-queue bound.
    pub queue_depth: usize,
    /// Proxy cache capacity in bytes.
    pub capacity: u64,
    /// Additional clients dribbling their requests slowly (but always
    /// within the read timeout). Zero disables them.
    pub slow_clients: usize,
    /// `Some(K)` switches the measured clients to open-loop pacing:
    /// request *i* is issued at `trace_time[i] / K` seconds after the
    /// replay starts, and latency is measured from that scheduled
    /// instant. `None` is closed-loop.
    pub time_scale: Option<f64>,
    /// Run the proxy with crash-safe persistence into this directory
    /// (aggressive cadence: snapshot every 250 ms, journal group-fsync
    /// every 10 ms — so even short replays overlap several snapshot
    /// rounds). `None` replays without persistence. Used for the
    /// persistence-overhead A/B: same trace, with and without the
    /// persister running.
    pub persist_dir: Option<std::path::PathBuf>,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            clients: 4,
            shards: 1,
            workers: 4,
            queue_depth: 64,
            capacity: 1 << 20,
            slow_clients: 0,
            time_scale: None,
            persist_dir: None,
        }
    }
}

/// Latency quantiles over one replay, in microseconds. p50/p90/p99 are
/// read from the log₂ histogram (bin-interpolated); `max_us` is exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median request latency.
    pub p50_us: u64,
    /// 90th-percentile request latency.
    pub p90_us: u64,
    /// 99th-percentile request latency.
    pub p99_us: u64,
    /// Slowest single request.
    pub max_us: u64,
}

/// The outcome of replaying one trace through one proxy configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Shard count the proxy ran with.
    pub shards: usize,
    /// Client threads used.
    pub clients: usize,
    /// Slow-client threads that ran alongside.
    pub slow_clients: usize,
    /// Open-loop time compression factor, if open-loop pacing was used.
    pub time_scale: Option<f64>,
    /// Requests issued by the measured clients (= trace length).
    pub requests: u64,
    /// Client-visible failures among measured clients: I/O errors or
    /// any non-200 response.
    pub errors: u64,
    /// Requests completed by the slow-client population.
    pub slow_ok: u64,
    /// Failures among the slow-client population (tracked apart from
    /// `errors`, which covers the measured clients only).
    pub slow_errors: u64,
    /// Proxy-side hits (cache-served + revalidated).
    pub hits: u64,
    /// Proxy-side hit rate over all requests.
    pub hit_rate: f64,
    /// Wall-clock duration of the whole replay.
    pub elapsed_secs: f64,
    /// Aggregate throughput across measured clients (all responses).
    pub requests_per_sec: f64,
    /// Goodput: 200 responses per second across measured clients.
    pub ok_per_sec: f64,
    /// Body-byte throughput: response-body bytes delivered to measured
    /// clients per second (200 responses only — the measure the
    /// zero-copy hit path is meant to move).
    pub bytes_per_sec: f64,
    /// Per-request latency distribution (from the scheduled instant
    /// under open-loop pacing, from issue time otherwise), over every
    /// request including errors.
    pub latency: LatencySummary,
    /// Latency over responses the proxy marked `X-Cache: HIT` —
    /// the cache-served path in isolation.
    pub hit_latency: LatencySummary,
    /// Latency over 200 responses *not* marked as cache hits (misses
    /// and revalidation round trips; errors are excluded from both
    /// split summaries but included in `latency`).
    pub miss_latency: LatencySummary,
}

/// Sort `lats` and summarise it; all-zero when empty.
fn summarize(lats: &mut [u64]) -> LatencySummary {
    if lats.is_empty() {
        return LatencySummary::default();
    }
    lats.sort_unstable();
    let hist = Histogram::log2(lats);
    let q = |p: f64| hist.quantile(p).unwrap_or(0);
    LatencySummary {
        p50_us: q(0.50),
        p90_us: q(0.90),
        p99_us: q(0.99),
        max_us: lats.last().copied().unwrap_or(0),
    }
}

/// Seed an origin document store with every trace URL at its first-seen
/// size (the origin serves deterministic synthetic bodies of that size).
pub fn seed_origin(trace: &Trace) -> Arc<DocStore> {
    let store = Arc::new(DocStore::new());
    let mut seen = vec![false; trace.interner.url_count()];
    for r in &trace.requests {
        let idx = r.url.0 as usize;
        if idx < seen.len() && !seen[idx] {
            seen[idx] = true;
            if let Some(url) = trace.interner.url_text(r.url) {
                store.put_synthetic(url, r.size, r.last_modified.unwrap_or(1));
            }
        }
    }
    store
}

/// One GET through the proxy, reading the full response.
fn fetch(addr: SocketAddr, url: &str) -> Result<Response, http::HttpError> {
    let mut stream = TcpStream::connect(addr)?;
    http::write_request(&mut stream, &Request::get(url))?;
    http::read_response(&mut stream)
}

/// One GET dribbled a few bytes at a time, pausing `pace` between
/// chunks — always inside the proxy's read timeout, so a correct proxy
/// must serve it, however long it chooses to wait.
fn fetch_slowly(addr: SocketAddr, url: &str, pace: Duration, stop: &AtomicBool) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let wire = format!("GET {url} HTTP/1.0\r\n\r\n");
    for chunk in wire.as_bytes().chunks(4) {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        if stream.write_all(chunk).is_err() || stream.flush().is_err() {
            return false;
        }
        std::thread::sleep(pace);
    }
    matches!(http::read_response(&mut stream), Ok(r) if r.status == 200)
}

/// Replay `trace` through a freshly started origin + proxy pair,
/// returning the measured report. `policy` constructs one
/// removal-policy instance per shard.
pub fn replay(
    trace: &Trace,
    cfg: ReplayConfig,
    policy: impl FnMut() -> Box<dyn RemovalPolicy>,
) -> std::io::Result<ReplayReport> {
    let origin = OriginServer::start(seed_origin(trace))?;
    let pconfig = ProxyConfig::new(cfg.capacity)
        .with_shards(cfg.shards)
        .with_workers(cfg.workers, cfg.queue_depth);
    let proxy = match &cfg.persist_dir {
        Some(dir) => {
            let pc = PersistConfig::new(dir)
                .with_snapshot_interval(Duration::from_millis(250))
                .with_journal_fsync(Duration::from_millis(10));
            ProxyServer::start_persistent(origin.addr(), pconfig, pc, policy).map_err(|e| {
                std::io::Error::other(format!("persistent proxy failed to start: {e}"))
            })?
        }
        None => ProxyServer::start(origin.addr(), pconfig, policy)?,
    };
    let addr = proxy.addr();

    // Resolve URL text once, up front — the replay loop must not pay an
    // interner lookup inside the timed section. Timestamps ride along
    // for open-loop scheduling.
    let urls: Vec<&str> = trace
        .requests
        .iter()
        .map(|r| trace.interner.url_text(r.url).unwrap_or(""))
        .collect();
    let times: Vec<u64> = trace.requests.iter().map(|r| r.time).collect();
    let t0 = times.first().copied().unwrap_or(0);

    // Slow clients pace their dribble to a third of the proxy's read
    // timeout: unambiguously alive, unambiguously slow.
    let pace = (pconfig.read_timeout / 3).min(Duration::from_millis(100));

    let cursor = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let body_bytes = AtomicU64::new(0);
    let slow_ok = AtomicU64::new(0);
    let slow_errors = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    // Per-request latency tagged by client-observed outcome, so the
    // report can split the distribution by cache outcome.
    const TAG_HIT: u8 = 0;
    const TAG_MISS: u8 = 1;
    const TAG_ERROR: u8 = 2;
    let tagged: Vec<(u64, u8)> = std::thread::scope(|scope| {
        for _ in 0..cfg.slow_clients {
            scope.spawn(|| {
                // First trace URL: after its first fetch, a steady
                // cache hit — the load is the dribble, not the miss.
                let url = urls.first().copied().unwrap_or("http://slow.test/x");
                while !stop.load(Ordering::Relaxed) {
                    if fetch_slowly(addr, url, pace, &stop) {
                        slow_ok.fetch_add(1, Ordering::Relaxed);
                    } else if !stop.load(Ordering::Relaxed) {
                        slow_errors.fetch_add(1, Ordering::Relaxed);
                        // A shed or refused connection must not turn
                        // into a reconnect hot loop at high counts.
                        std::thread::sleep(pace);
                    }
                }
            });
        }
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::with_capacity(urls.len() / cfg.clients.max(1) + 1);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(url) = urls.get(i) else { break };
                        let issue_at = match cfg.time_scale {
                            Some(k) if k > 0.0 => {
                                let offset = Duration::from_secs_f64((times[i] - t0) as f64 / k);
                                let sched = started + offset;
                                std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                                sched
                            }
                            _ => Instant::now(),
                        };
                        let outcome = fetch(addr, url);
                        let lat = issue_at.elapsed().as_micros() as u64;
                        let tag = match &outcome {
                            Ok(resp) if resp.status == 200 => {
                                body_bytes.fetch_add(resp.body.len() as u64, Ordering::Relaxed);
                                if resp.is_cache_hit() {
                                    TAG_HIT
                                } else {
                                    TAG_MISS
                                }
                            }
                            _ => TAG_ERROR,
                        };
                        local.push((lat, tag));
                        if tag == TAG_ERROR {
                            errors.fetch_add(1, Ordering::Relaxed);
                        } else {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local
                })
            })
            .collect();
        let out = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect();
        stop.store(true, Ordering::Relaxed);
        out
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = tagged.iter().map(|&(lat, _)| lat).collect();
    let mut hit_lat: Vec<u64> = tagged
        .iter()
        .filter(|&&(_, t)| t == TAG_HIT)
        .map(|&(lat, _)| lat)
        .collect();
    let mut miss_lat: Vec<u64> = tagged
        .iter()
        .filter(|&&(_, t)| t == TAG_MISS)
        .map(|&(lat, _)| lat)
        .collect();
    let stats = proxy.stats();
    let requests = urls.len() as u64;
    let per_sec = |n: u64| {
        if elapsed > 0.0 {
            n as f64 / elapsed
        } else {
            0.0
        }
    };
    Ok(ReplayReport {
        shards: cfg.shards,
        clients: cfg.clients.max(1),
        slow_clients: cfg.slow_clients,
        time_scale: cfg.time_scale,
        requests,
        errors: errors.load(Ordering::Relaxed),
        slow_ok: slow_ok.load(Ordering::Relaxed),
        slow_errors: slow_errors.load(Ordering::Relaxed),
        hits: stats.hits + stats.revalidated,
        hit_rate: stats.hit_rate(),
        elapsed_secs: elapsed,
        requests_per_sec: per_sec(requests),
        ok_per_sec: per_sec(ok.load(Ordering::Relaxed)),
        bytes_per_sec: per_sec(body_bytes.load(Ordering::Relaxed)),
        latency: summarize(&mut latencies),
        hit_latency: summarize(&mut hit_lat),
        miss_latency: summarize(&mut miss_lat),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::policy::named;
    use webcache_trace::RawRequest;

    fn tiny_trace() -> Trace {
        let raws: Vec<RawRequest> = (0..200)
            .map(|i| RawRequest {
                time: i,
                client: "c".into(),
                url: format!("http://s.test/d{}.html", i % 20),
                status: 200,
                size: 300 + (i % 20) * 10,
                last_modified: None,
            })
            .collect();
        Trace::from_raw("tiny", &raws)
    }

    #[test]
    fn seeded_origin_holds_every_unique_url() {
        let trace = tiny_trace();
        let store = seed_origin(&trace);
        assert_eq!(store.len(), 20);
        let doc = store.get("http://s.test/d0.html").expect("seeded doc");
        assert_eq!(doc.body.len(), 300);
    }

    #[test]
    fn replay_serves_the_whole_trace_without_errors() {
        let trace = tiny_trace();
        let report = replay(
            &trace,
            ReplayConfig {
                clients: 4,
                shards: 2,
                ..ReplayConfig::default()
            },
            || Box::new(named::lru()),
        )
        .expect("replay");
        assert_eq!(report.requests, 200);
        assert_eq!(report.errors, 0, "clean origin must yield zero errors");
        // 20 unique docs, 200 requests, ample capacity: everything after
        // first touch is a hit — up to a few concurrent first touches of
        // the same URL, which double-miss.
        assert!(report.hits >= 150, "hits = {}", report.hits);
        assert!(report.requests_per_sec > 0.0);
        assert!(report.ok_per_sec > 0.0);
        assert!(report.latency.p50_us <= report.latency.max_us);
    }

    #[test]
    fn replay_with_slow_clients_stays_clean() {
        let trace = tiny_trace();
        let report = replay(
            &trace,
            ReplayConfig {
                clients: 4,
                shards: 2,
                slow_clients: 8,
                ..ReplayConfig::default()
            },
            || Box::new(named::lru()),
        )
        .expect("replay");
        assert_eq!(report.errors, 0, "reactor must absorb slow clients");
        assert_eq!(
            report.slow_errors, 0,
            "slow-but-live clients must be served, not timed out"
        );
        assert!(report.hits >= 150, "hits = {}", report.hits);
    }

    #[test]
    fn open_loop_paces_requests_to_scaled_trace_time() {
        let trace = tiny_trace(); // timestamps 0..199 s
        let started = Instant::now();
        let report = replay(
            &trace,
            ReplayConfig {
                clients: 8,
                // 400x compression: 199 trace-seconds ≈ 0.5 wall-seconds.
                time_scale: Some(400.0),
                ..ReplayConfig::default()
            },
            || Box::new(named::lru()),
        )
        .expect("replay");
        let wall = started.elapsed();
        assert_eq!(report.errors, 0);
        assert_eq!(report.time_scale, Some(400.0));
        // The replay cannot finish before the last scheduled instant —
        // open loop is paced by the trace clock, not by responses.
        assert!(
            wall >= Duration::from_millis(450),
            "finished in {wall:?}; open-loop pacing was not applied"
        );
    }
}
