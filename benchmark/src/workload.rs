//! The workloads: set-up, the measured phases, the checks, and the
//! metrics each run reports. Three drive the real `webcache-proxy` child
//! over host loopback with the simulator run beside it on the same
//! trace; `sim_sweep` is the simulator alone on all five of the paper's
//! workloads.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use webcache_core::sim::max_needed;
use webcache_proxy::http;
use webcache_proxy::origin::OriginServer;
use webcache_trace::Trace;
use webcache_workload::{generate, profiles};

use crate::child::ProxyChild;
use crate::client::{self, Outcome, Pace, Phase, Sample, Spans, LATE_NS};
use crate::gen::{self, Docs};
use crate::json::Json;
use crate::metrics::{self, HOT_SMALL, PAPER_MIX, PAPER_MIX_PERSIST, SIM_SWEEP};
use crate::procfs;
use crate::stats::{median, percentile};
use crate::{sim, stages};

/// `run_seconds` of `BENCHMARK.json`: the length every share below is
/// tuned for. Stage-timer work scales with `seconds / RUN_SECONDS`.
pub const RUN_SECONDS: f64 = 30.0;

/// Open-loop rates of Phase B: a sixth to a quarter of what the closed
/// loop sustains on the 2-core box, so the generator's two connections
/// are seldom both busy when a request falls due.
const HOT_RATE: f64 = 3000.0;
const PAPER_RATE: f64 = 1500.0;
/// Closed-loop rates the workloads were seen to sustain here on a slow
/// day. They size each trace so that Phase A, one full pass over it, takes
/// about its share of the run: the work is fixed, the time is measured.
const HOT_CLOSED_RATE: f64 = 16_000.0;
const PAPER_CLOSED_RATE: f64 = 4000.0;
const U_REQUESTS: f64 = 173_384.0;
/// Phase A alternates a segment against the proxy with a short one
/// against the loopback reference; each timing is the median over
/// segments, and each `*_vs_loopback` the median over the pairs.
const CLOSED_SEGMENT: Duration = Duration::from_millis(500);
const CLOSED_REFERENCE: Duration = Duration::from_millis(125);
/// Phase B is cut into segments too; its percentiles are medians over
/// them, so that one stall of the host moves one segment.
const OPEN_SEGMENT_S: f64 = 1.0;
/// The latency limit `loadgen.within_5ms_frac` is stated against.
const LIMIT_NS: u64 = 5_000_000;
/// Documents replayed after the warm restart.
const PROBE_DOCS: usize = 2000;
/// Serial single-client requests behind `proxy.loopback_hit_us` and
/// `net.baseline_rtt_us` at full scale.
const LOOPBACK_REQUESTS: usize = 1500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotSmall,
    PaperMix,
    PaperMixPersist,
    SimSweep,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HotSmall,
        Kind::PaperMix,
        Kind::PaperMixPersist,
        Kind::SimSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotSmall => HOT_SMALL,
            Kind::PaperMix => PAPER_MIX,
            Kind::PaperMixPersist => PAPER_MIX_PERSIST,
            Kind::SimSweep => SIM_SWEEP,
        }
    }

    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How one run is shaped.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// The traced run: shorter phases, then the span pass and the stage
    /// timers. End-to-end numbers come from runs with this off.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median and the last one is
    /// measured on.
    pub setups: usize,
    /// `benchmark/out`: scratch space, span files.
    pub out_dir: PathBuf,
}

impl RunCfg {
    fn phase_a(&self) -> f64 {
        self.seconds * 0.50
    }
    fn phase_b(&self) -> f64 {
        self.seconds * if self.trace { 0.15 } else { 0.30 }
    }
    fn span_pass(&self) -> f64 {
        self.seconds * 0.16
    }
    fn sim(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.trace { 0.03 } else { 0.14 })
    }
    /// Share of the full-scale stage-timer work.
    fn scale(&self) -> f64 {
        (self.seconds / RUN_SECONDS).min(1.0)
    }
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any one makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    fn new(workload: &'static str) -> Report {
        Report {
            workload,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            metrics::metric(name).is_some(),
            "{name} is not in the table"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn tally(&mut self, what: &str, phase: &Phase) {
        self.attempted += phase.samples.len() as u64;
        self.failed += phase.failed() as u64;
        if phase.failed() > 0 {
            self.problems.push(format!(
                "{what}: {} of {} requests failed ({})",
                phase.failed(),
                phase.samples.len(),
                phase.failure_summary()
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// A scratch directory removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up system: origin in this process, proxy as a child, and the
/// inputs they were built from.
struct Live {
    proxy: ProxyChild,
    origin: OriginServer,
    reference: Reference,
    persist_dir: Option<PathBuf>,
    trace: Trace,
    docs: Docs,
    /// The trace as document ids, in request order.
    reqs: Vec<u32>,
    capacity: u64,
    generate_ms: f64,
    load_ms: f64,
    setup_s: f64,
}

/// Generate, pack and reload the trace, seed and start the origin, spawn
/// the proxy and warm it: everything before the first measured request.
fn set_up(kind: Kind, cfg: &RunCfg, dir: &Path, report: &mut Report) -> Result<Live, String> {
    let t0 = Instant::now();
    let packed = gen::pack(&dir.join("trace.wct"), || match kind {
        Kind::HotSmall => {
            gen::hot_small_trace(cfg.seed, (HOT_CLOSED_RATE * cfg.phase_a()) as usize)
        }
        _ => gen::paper_mix_trace(cfg.seed, PAPER_CLOSED_RATE * cfg.phase_a() / U_REQUESTS),
    })?;
    let trace = packed.trace;
    let docs = Docs::of(&trace);
    let capacity = match kind {
        Kind::HotSmall => gen::HOT_CAPACITY,
        _ => ((max_needed(&trace) as f64 * gen::PAPER_CAPACITY_FRAC) as u64).max(1),
    };
    let origin = OriginServer::start(docs.origin_store()).map_err(|e| format!("origin: {e}"))?;
    let persist_dir = (kind == Kind::PaperMixPersist).then(|| dir.join("persist"));
    if let Some(p) = &persist_dir {
        let _ = std::fs::remove_dir_all(p);
    }
    let proxy = ProxyChild::spawn(origin.addr(), capacity, persist_dir.as_deref())?;
    match kind {
        // Fetch every document once, so that from here on all is hits.
        Kind::HotSmall => {
            let all: Vec<u32> = (0..docs.urls.len() as u32).collect();
            let pace = Pace::Closed {
                deadline: Duration::from_secs(60),
            };
            let warm = client::run_phase(proxy.addr, &docs, &all, 0, pace, all.len(), 0);
            report.tally("warm-up", &warm);
            if warm.hits() > 0 {
                report
                    .problems
                    .push("warm-up: a first fetch was a hit".into());
            }
        }
        // Cold start: only make sure the proxy answers.
        _ => drop(proxy_stats(proxy.addr)?),
    }
    Ok(Live {
        reqs: trace.requests.iter().map(|r| r.url.0).collect(),
        proxy,
        origin,
        reference: Reference::start().map_err(|e| format!("loopback reference: {e}"))?,
        persist_dir,
        trace,
        docs,
        capacity,
        generate_ms: packed.generate_ms,
        load_ms: packed.load_ms,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn proxy_stats(addr: SocketAddr) -> Result<Json, String> {
    let body = client::get_raw(addr, "/__webcache/stats")?;
    Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("/__webcache/stats: {e}"))
}

/// Counters read from outside the proxy at a phase boundary.
struct Counters {
    stats: Json,
    switches: u64,
    origin_requests: u64,
}

impl Counters {
    fn read(live: &Live) -> Result<Counters, String> {
        let pid = live.proxy.pid();
        let o = live.origin.stats();
        Ok(Counters {
            stats: proxy_stats(live.proxy.addr)?,
            switches: procfs::context_switches(pid),
            origin_requests: o.full_responses.load(Ordering::Relaxed)
                + o.not_modified.load(Ordering::Relaxed),
        })
    }

    fn stat(&self, key: &str) -> f64 {
        self.stats.num(key).unwrap_or(0.0)
    }

    /// `hits + revalidated`: what the paper's HR counts.
    fn served_from_cache(&self) -> f64 {
        self.stat("hits") + self.stat("revalidated")
    }
}

/// The client's `x-cache: HIT` count must equal the proxy's own.
fn check_hits(
    report: &mut Report,
    what: &str,
    samples: &[Sample],
    before: &Counters,
    after: &Counters,
) {
    let proxy = after.served_from_cache() - before.served_from_cache();
    let hits = samples.iter().filter(|s| s.outcome == Outcome::Hit).count();
    if hits as f64 != proxy {
        report.problems.push(format!(
            "{what}: client saw {hits} x-cache hits, proxy counted {proxy}"
        ));
    }
    let requests = after.stat("requests") - before.stat("requests");
    if samples.len() as f64 != requests {
        report.problems.push(format!(
            "{what}: client sent {} requests, proxy counted {requests}",
            samples.len()
        ));
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median latency in ns of the samples `pred` selects, if there are any.
fn p50_ns(samples: &[Sample], pred: impl Fn(Outcome) -> bool) -> Option<f64> {
    let lat = latencies(samples, pred);
    (!lat.is_empty()).then(|| percentile(&lat, 0.50))
}

/// Requests per second of one closed-loop segment: successes over the
/// time to the last completion.
fn segment_rate(phase: &Phase) -> f64 {
    let end_ns = phase
        .samples
        .iter()
        .map(|s| s.due_ns + s.lat_ns)
        .max()
        .unwrap_or(0);
    phase.ok() as f64 * 1e9 / end_ns.max(1) as f64
}

/// Phase A: closed loop, two clients on one cursor, one full pass over
/// the trace, cut into segments with a reference segment after each.
fn phase_a(kind: Kind, cfg: &RunCfg, live: &Live, report: &mut Report) -> Result<(), String> {
    let pid = live.proxy.pid();
    let cpu_now = || procfs::cpu_time(pid).ok_or("cannot read /proc/<pid>/stat of the proxy");
    // Fixed work: the guard only stops a run that has gone wrong.
    let guard = Duration::from_secs_f64(cfg.phase_a() * 3.0);
    let started = Instant::now();
    let before = Counters::read(live)?;
    let mut all: Vec<Sample> = Vec::new();
    let (mut rates, mut reference, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_us, mut user_us, mut sys_us, mut cpu_ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50_ratio, mut hit_ratio) = (Vec::new(), Vec::new());
    let mut rss_mb = Vec::new();
    let mut offset = 0;
    while offset < live.reqs.len() && started.elapsed() < guard {
        let cpu_before = cpu_now()?;
        let segment = client::run_phase(
            live.proxy.addr,
            &live.docs,
            &live.reqs,
            offset,
            Pace::Closed {
                deadline: CLOSED_SEGMENT,
            },
            live.reqs.len() - offset,
            0,
        );
        let cpu = cpu_now()?.since(&cpu_before);
        rss_mb.extend(procfs::status(pid).map(|s| s.vm_rss_kb as f64 / 1024.0));
        let loopback = live.reference.closed(CLOSED_REFERENCE);
        report.tally("phase A", &segment);
        report.tally("phase A reference", &loopback);
        offset += segment.samples.len();
        let (rate, ref_rate) = (segment_rate(&segment), segment_rate(&loopback));
        let requests = segment.samples.len().max(1) as f64;
        // The last segment may be a stub; a short one says little.
        if segment.samples.len() >= 100 && ref_rate > 0.0 {
            rates.push(rate);
            reference.push(ref_rate);
            ratios.push(rate / ref_rate);
            cpu_us.push(cpu.total_s() * 1e6 / requests);
            user_us.push(cpu.user_s * 1e6 / requests);
            sys_us.push(cpu.sys_s * 1e6 / requests);
            // CPU per request in units of one loopback round trip.
            cpu_ratio.push(cpu.total_s() / requests * ref_rate / client::CLIENTS as f64);
            let bare = p50_ns(&loopback.samples, |_| true).unwrap_or(1.0).max(1.0);
            p50_ratio.extend(p50_ns(&segment.samples, |_| true).map(|p| p / bare));
            hit_ratio.extend(p50_ns(&segment.samples, |o| o == Outcome::Hit).map(|p| p / bare));
        }
        all.extend(segment.samples);
    }
    let after = Counters::read(live)?;
    check_hits(report, "phase A", &all, &before, &after);
    if all.len() < live.reqs.len() {
        report.problems.push(format!(
            "phase A: the guard cut the pass at {} of {} requests",
            all.len(),
            live.reqs.len()
        ));
    }

    let d = |key: &str| after.stat(key) - before.stat(key);
    let requests = d("requests").max(1.0);
    let (from_cache, from_origin) = (d("bytes_from_cache"), d("bytes_from_origin"));
    report.set("ok_vs_loopback", median(&ratios));
    report.set("cpu_vs_loopback", median(&cpu_ratio));
    report.set("p50_vs_loopback", median(&p50_ratio));
    report.set("hit_p50_vs_loopback", median(&hit_ratio));
    report.set("proxy_rss_mb", median(&rss_mb));
    report.set("ok_per_s", median(&rates));
    report.set("net.loopback_per_s", median(&reference));
    report.set("proxy_cpu_us_per_req", median(&cpu_us));
    report.set(
        "hit_rate",
        (after.served_from_cache() - before.served_from_cache()) / requests,
    );
    report.set(
        "byte_hit_rate",
        from_cache / (from_cache + from_origin).max(1.0),
    );
    report.set("proxy.user_us_per_req", median(&user_us));
    report.set("proxy.sys_us_per_req", median(&sys_us));
    report.set(
        "proxy.ctx_switches_per_req",
        (after.switches - before.switches) as f64 / requests,
    );
    report.set("proxy.requests", d("requests"));
    report.set("proxy.hits", d("hits"));
    report.set("proxy.misses", d("misses"));
    report.set("proxy.bytes_from_cache", from_cache);
    report.set("proxy.bytes_from_origin", from_origin);
    report.set("proxy.cached_bytes", after.stat("cached_bytes"));
    report.set("proxy.rejected", d("rejected"));
    report.set("proxy.origin_failures", d("origin_failures"));
    // Since the proxy started, so that hot_small's warm-up is in it.
    report.set("origin.requests", after.origin_requests as f64);
    // hot_small's warm-up requested every document already.
    let mut requested = vec![kind == Kind::HotSmall; live.docs.urls.len()];
    for s in &all {
        requested[s.doc as usize] = true;
    }
    let unique = requested.iter().filter(|&&r| r).count();
    report.set(
        "proxy.double_miss_frac",
        after.origin_requests as f64 / unique.max(1) as f64 - 1.0,
    );
    Ok(())
}

/// Sorted latencies of the samples `pred` selects.
fn latencies(samples: &[Sample], pred: impl Fn(Outcome) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| pred(s.outcome))
        .map(|s| s.lat_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Phase B: open loop at a fixed rate, timed from each request's due
/// time, in segments.
fn phase_b(kind: Kind, cfg: &RunCfg, live: &Live, report: &mut Report) -> Result<(), String> {
    let rate_per_s = match kind {
        Kind::HotSmall => HOT_RATE,
        _ => PAPER_RATE,
    };
    let pace = Pace::Open { rate_per_s };
    let per_segment = ((rate_per_s * OPEN_SEGMENT_S.min(cfg.phase_b())) as usize).max(1);
    let segments = ((cfg.phase_b() / OPEN_SEGMENT_S) as usize).max(1);
    let before = Counters::read(live)?;
    let mut all: Vec<Sample> = Vec::new();
    let (mut p50, mut p99, mut hit_p50, mut miss_p50) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut beyond = usize::MAX;
    for i in 0..segments {
        let segment = client::run_phase(
            live.proxy.addr,
            &live.docs,
            &live.reqs,
            i * per_segment,
            pace,
            per_segment,
            0,
        );
        report.tally("phase B", &segment);
        // A failed request took as long as it took and is in the percentiles.
        let lat = latencies(&segment.samples, |_| true);
        p50.push(percentile(&lat, 0.50));
        p99.push(percentile(&lat, 0.99));
        beyond = beyond.min(lat.len() / 100);
        hit_p50.extend(p50_ns(&segment.samples, |o| o == Outcome::Hit));
        miss_p50.extend(p50_ns(&segment.samples, |o| o == Outcome::Miss));
        all.extend(segment.samples);
    }
    let after = Counters::read(live)?;
    check_hits(report, "phase B", &all, &before, &after);

    report.set("p50_us", us(median(&p50)));
    report.set("p99_us", us(median(&p99)));
    report.set("hit_p50_us", us(median(&hit_p50)));
    if kind != Kind::HotSmall {
        report.set("miss_p50_us", us(median(&miss_p50)));
    }
    let lat = latencies(&all, |_| true);
    let mut late: Vec<u64> = all.iter().map(|s| s.late_ns).collect();
    late.sort_unstable();
    let share = |count: usize| count as f64 / all.len().max(1) as f64;
    report.set(
        "loadgen.late_frac",
        share(late.iter().filter(|&&l| l > LATE_NS).count()),
    );
    report.set("loadgen.late_p99_us", us(percentile(&late, 0.99)));
    report.set(
        "loadgen.within_5ms_frac",
        share(
            all.iter()
                .filter(|s| !matches!(s.outcome, Outcome::Failed(_)) && s.lat_ns <= LIMIT_NS)
                .count(),
        ),
    );
    report.set("loadgen.p999_us", us(percentile(&lat, 0.999)));
    report.set("loadgen.p99_samples_beyond", beyond as f64);
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// SIGKILL the persistent proxy, restart it on the same directory and
/// replay a probe set of documents that were resident before the kill.
fn kill_and_restart(cfg: &RunCfg, live: &mut Live, report: &mut Report) -> Result<(), String> {
    let dir = live.persist_dir.clone().expect("a persistent workload");
    let addr = live.proxy.addr;
    let closed = Pace::Closed {
        deadline: Duration::from_secs(60),
    };
    // Most recently requested documents first; those the proxy answers
    // from cache now are resident, and the first of them are the probe.
    let mut seen = vec![false; live.docs.urls.len()];
    let recent: Vec<u32> = live
        .reqs
        .iter()
        .rev()
        .filter(|&&d| !std::mem::replace(&mut seen[d as usize], true))
        .copied()
        .collect();
    let want = ((PROBE_DOCS as f64 * cfg.scale()) as usize).clamp(1, recent.len());
    let scan_over = &recent[..(3 * want).min(recent.len())];
    let scan = client::run_phase(addr, &live.docs, scan_over, 0, closed, scan_over.len(), 0);
    report.tally("probe scan", &scan);
    let probe: Vec<u32> = scan
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Hit)
        .map(|s| s.doc)
        .take(want)
        .collect();
    if probe.is_empty() {
        return Err("probe scan found no resident document".into());
    }
    let pre = client::run_phase(addr, &live.docs, &probe, 0, closed, probe.len(), 0);
    report.tally("probe before kill", &pre);

    let stats = proxy_stats(addr)?;
    let persist = stats.get("persist").cloned().unwrap_or(Json::Null);
    report.set(
        "persist.journal_dropped",
        persist.num("journal_dropped").unwrap_or(0.0),
    );
    report.set(
        "persist.journal_lost_records",
        persist.num("journal_lost_records").unwrap_or(0.0),
    );
    report.set(
        "persist.bytes_per_cached_byte",
        dir_bytes(&dir) as f64 / stats.num("cached_bytes").unwrap_or(0.0).max(1.0),
    );

    live.proxy.kill();
    let restarted = Instant::now();
    live.proxy = ProxyChild::spawn(live.origin.addr(), live.capacity, Some(&dir))?;
    let post = client::run_phase(
        live.proxy.addr,
        &live.docs,
        &probe,
        0,
        closed,
        probe.len(),
        0,
    );
    report.set("warm_restart_s", restarted.elapsed().as_secs_f64());
    report.tally("probe after restart", &post);
    let ratio = post.hits() as f64 / pre.hits().max(1) as f64;
    report.set("warm_hit_ratio", ratio);
    // A shortened run ends before the first snapshot and recovers a
    // cache of a megabyte from the journal alone; 64 probe documents on
    // it came back at 0.85 to 0.92.
    let floor = if cfg.scale() >= 1.0 { 0.9 } else { 0.75 };
    if ratio < floor {
        report.problems.push(format!(
            "warm restart kept {} of {} probe hits (ratio {ratio:.3} < {floor})",
            post.hits(),
            pre.hits()
        ));
    }
    Ok(())
}

/// The traced pass: a closed loop in which every other request records
/// spans, so both kinds meet the same moments and the same mix. With two
/// clients the rate is two over the latency, so the overhead of tracing
/// is read off the two medians. Returns the spans for the span file.
fn span_pass(cfg: &RunCfg, live: &Live, report: &mut Report) -> Vec<Spans> {
    let pace = Pace::Closed {
        deadline: Duration::from_secs_f64(cfg.span_pass()),
    };
    let phase = client::run_phase(
        live.proxy.addr,
        &live.docs,
        &live.reqs,
        0,
        pace,
        usize::MAX,
        2,
    );
    report.tally("span pass", &phase);
    let p50_ns = |traced: bool| {
        let mut v: Vec<u64> = phase
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.lat_ns)
            .collect();
        v.sort_unstable();
        percentile(&v, 0.50)
    };
    report.set(
        "loadgen.trace_overhead_frac",
        1.0 - p50_ns(false) / p50_ns(true).max(1.0),
    );
    let spans = phase.spans;
    let p50 = |pick: &dyn Fn(&Spans) -> Option<u64>| {
        let mut v: Vec<u64> = spans.iter().filter_map(pick).collect();
        v.sort_unstable();
        us(percentile(&v, 0.50))
    };
    report.set("client.connect_us", p50(&|s| Some(s.connect_ns())));
    report.set("client.ttfb_us.hit", p50(&|s| s.hit.then(|| s.ttfb_ns())));
    if spans.iter().any(|s| !s.hit) {
        report.set(
            "client.ttfb_us.miss",
            p50(&|s| (!s.hit).then(|| s.ttfb_ns())),
        );
    }
    report.set("client.body_us", p50(&|s| Some(s.body_ns())));
    spans
}

/// Write the spans of the traced pass: per request one parent id, its
/// document, and `[start, end]` of each child span in ns from the start
/// of its slice.
fn write_spans(path: &Path, docs: &Docs, spans: &[Spans]) -> Result<(), String> {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let m = s.marks_ns;
        out.push_str(&format!(
            "{{\"request\":{},\"url\":\"{}\",\"hit\":{},\"spans\":{{\"connect\":[{},{}],\
             \"send\":[{},{}],\"ttfb\":[{},{}],\"body\":[{},{}]}}}}{}\n",
            s.id,
            docs.urls[s.doc as usize],
            s.hit,
            m[0],
            m[1],
            m[1],
            m[2],
            m[2],
            m[3],
            m[3],
            m[4],
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The loopback reference: a responder that does nothing a proxy does —
/// accept, read the request, write a canned head and one-KiB body, close
/// — driven by the same client code. What a request costs the client and
/// the kernel alone, and so a measure of how fast the host is running
/// right now: its rate follows the host's changes of pace as the
/// proxy's does, which is why the gated timings are ratios to it.
/// Serves until asked for `/quit`.
struct Reference {
    addr: SocketAddr,
    /// Its single document, as the client code wants it.
    docs: Docs,
    thread: Option<std::thread::JoinHandle<()>>,
}

const REFERENCE_URL: &str = "http://loopback.bench.test/1k.html";
const REFERENCE_BODY: u64 = 1024;

impl Reference {
    fn start() -> std::io::Result<Reference> {
        use std::io::{Read, Write};
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut response = Vec::new();
        http::encode_hit_head_into(&mut response, REFERENCE_BODY, Some(1));
        response.extend_from_slice(&http::synthetic_body(REFERENCE_URL, REFERENCE_BODY));
        let thread = std::thread::spawn(move || {
            let mut request = [0u8; 4096];
            for mut conn in listener.incoming().flatten() {
                let mut got = 0;
                while !request[..got].ends_with(b"\r\n\r\n") {
                    match conn.read(&mut request[got..]) {
                        Ok(n) if n > 0 => got += n,
                        _ => break,
                    }
                }
                if request.starts_with(b"GET /quit ") {
                    break;
                }
                let _ = conn.write_all(&response);
            }
        });
        Ok(Reference {
            addr,
            docs: Docs {
                urls: vec![REFERENCE_URL.into()],
                sizes: vec![REFERENCE_BODY],
                wire: vec![gen::wire_request(REFERENCE_URL)],
            },
            thread: Some(thread),
        })
    }

    /// A closed-loop segment against the reference.
    fn closed(&self, deadline: Duration) -> Phase {
        let pace = Pace::Closed { deadline };
        client::run_phase(self.addr, &self.docs, &[0], 0, pace, usize::MAX, 0)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = client::get_raw(self.addr, "/quit");
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One serial client against the proxy (the resident document nearest
/// one KiB) and against the loopback reference, request by request in
/// turn so that a change of pace mid-way lands on both: their difference
/// is what the proxy adds, and what of that the stage timers do not
/// explain is the reactor's own cost.
fn loopback(
    cfg: &RunCfg,
    live: &Live,
    report: &mut Report,
    stage_sum_us: f64,
) -> Result<(), String> {
    let doc = (0..live.docs.sizes.len() as u32)
        .filter(|&d| live.docs.sizes[d as usize] > 0)
        .min_by_key(|&d| live.docs.sizes[d as usize].abs_diff(REFERENCE_BODY))
        .ok_or("no document to probe")?;
    let n = ((LOOPBACK_REQUESTS as f64 * cfg.scale()) as usize).max(20);
    let reference = &live.reference;
    let mut buf = Vec::new();
    // The first fetch makes the document resident if it was not.
    client::get(live.proxy.addr, &live.docs, doc, true, &mut buf);
    let (mut hit_ns, mut rtt_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let t0 = Instant::now();
        let hit = client::get(live.proxy.addr, &live.docs, doc, false, &mut buf);
        let t1 = Instant::now();
        let bare = client::get(reference.addr, &reference.docs, 0, false, &mut buf);
        let t2 = Instant::now();
        if hit != Outcome::Hit || bare != Outcome::Hit {
            return Err(format!("loopback probe: got {hit:?} and {bare:?}"));
        }
        hit_ns.push((t1 - t0).as_nanos() as u64);
        rtt_ns.push((t2 - t1).as_nanos() as u64);
    }
    report.attempted += 2 * n as u64 + 1;
    hit_ns.sort_unstable();
    rtt_ns.sort_unstable();
    let (hit_us, rtt_us) = (us(percentile(&hit_ns, 0.5)), us(percentile(&rtt_ns, 0.5)));
    report.set("net.baseline_rtt_us", rtt_us);
    report.set("proxy.loopback_hit_us", hit_us);
    report.set("proxy.overhead_us", hit_us - rtt_us);
    report.set("proxy.stage_sum_us", stage_sum_us);
    report.set("proxy.reactor.gap_us", hit_us - rtt_us - stage_sum_us);
    Ok(())
}

fn set_sim(report: &mut Report, rate: sim::SweepRate) {
    report.set("sim_vs_spin", rate.vs_spin);
    report.set("sim_req_per_s", rate.lane_requests_per_s);
    report.set("sim.spin_per_s", rate.spin_per_s);
}

/// Run one proxy workload.
fn run_proxy(kind: Kind, cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::new(kind.name());
    let scratch = Scratch::new(&cfg.out_dir)?;
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..cfg.setups.max(1) {
        // Tear the previous instance down before the next one starts.
        drop(live.take());
        let l = set_up(kind, cfg, &scratch.0, &mut report)?;
        setup_times.push(l.setup_s);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    report.set("setup_s", median(&setup_times));
    report.set("workload.generate_ms", live.generate_ms);
    report.set("trace.binfmt.load_ms", live.load_ms);

    phase_a(kind, cfg, &live, &mut report)?;
    let hit_rate = report.get("hit_rate").unwrap_or(0.0);
    phase_b(kind, cfg, &live, &mut report)?;

    if cfg.trace {
        let spans = span_pass(cfg, &live, &mut report);
        write_spans(
            &cfg.out_dir.join(format!("trace_{}.json", kind.name())),
            &live.docs,
            &spans,
        )?;
        let timers = stages::run(
            &live.trace,
            &live.docs,
            cfg.scale(),
            &scratch.0.join("stages"),
        )?;
        let stage = |name: &str| {
            timers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let stage_sum_us = (stage("proxy.http.parse_ns")
            + stage("trace.intern_ns")
            + stage("core.cache.hit_ns.size")
            + stage("proxy.http.encode_head_ns"))
            / 1e3;
        for (name, v) in &timers {
            report.set(name, *v);
        }
        loopback(cfg, &live, &mut report, stage_sum_us)?;
    }

    let status = procfs::status(live.proxy.pid()).ok_or("cannot read the proxy's status")?;
    report.set("proxy.rss_peak_mb", status.vm_hwm_kb as f64 / 1024.0);
    report.set("proxy.threads", status.threads as f64);
    if kind == Kind::PaperMixPersist {
        kill_and_restart(cfg, &mut live, &mut report)?;
    }

    // The simulator beside it, on the same trace at the same capacity,
    // with the proxy gone so that its persister cannot get in the way.
    live.proxy.kill();
    set_sim(
        &mut report,
        sim::sweep_rate(&[(&live.trace, live.capacity)], cfg.sim(), 3),
    );
    let sim_hit_rate = sim::checked_size_hit_rate(
        &live.trace,
        live.capacity,
        cfg.seed,
        true,
        &mut report.problems,
    );
    report.set("core.sim.hit_rate_gap", hit_rate - sim_hit_rate);
    report.set(
        "error_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}

/// `sim_sweep`: all five of the paper's workloads through all 36
/// policies at 10% of MaxNeeded, in process. Not listed in
/// `BENCHMARK.json` — it has no proxy to report the proxy's metrics —
/// but run by `benchmark/run.sh` and `--smoke`.
fn run_sim_sweep(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::new(SIM_SWEEP);
    let scratch = Scratch::new(&cfg.out_dir)?;
    let scale = cfg.scale();
    let mut setup_times = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        let t0 = Instant::now();
        traces.clear();
        for profile in profiles::all() {
            let path = scratch.0.join(format!("{}.wct", profile.name));
            let packed = gen::pack(&path, || {
                generate(&profile.scaled(scale.clamp(0.002, 1.0)), cfg.seed)
            })?;
            traces.push(packed.trace);
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_times));
    let inputs: Vec<(&Trace, u64)> = traces
        .iter()
        .map(|t| (t, (max_needed(t) / 10).max(1)))
        .collect();
    set_sim(
        &mut report,
        sim::sweep_rate(&inputs, Duration::from_secs_f64(cfg.seconds * 0.8), 5),
    );
    for &(trace, capacity) in &inputs {
        // The paper's headline holds on U; the other workloads only get
        // the lane-equality check.
        let is_u = trace.name.starts_with('U');
        sim::checked_size_hit_rate(trace, capacity, cfg.seed, is_u, &mut report.problems);
        report.attempted += trace.len() as u64;
    }
    Ok(report)
}

pub fn run(kind: Kind, cfg: &RunCfg) -> Result<Report, String> {
    match kind {
        Kind::SimSweep => run_sim_sweep(cfg),
        _ => run_proxy(kind, cfg),
    }
}
