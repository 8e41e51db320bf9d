//! Serving benchmark: replay a packed `.wct` trace against a live
//! proxy/origin pair across shard counts and slow-client populations, and
//! write `BENCH_proxy.json` at the repository root (format documented
//! in README "Serving benchmark").
//!
//! ```text
//! loadgen [--trace path.wct] [--profile u] [--scale 0.05] [--seed 1]
//!         [--clients N] [--workers N] [--shards 1,2,4]
//!         [--slow-clients 0,4,1000] [--open-loop] [--time-scale K]
//!         [--capacity-frac 0.25] [--json path] [--smoke] [--cluster]
//! ```
//!
//! Without `--trace`, a workload is generated from `--profile` at
//! `--scale`, saved as a packed trace in a temp file, and loaded back
//! through the mmap path — so the bench exercises the same `.wct` load
//! path as production replays.
//!
//! `--slow-clients` sweeps populations of clients that dribble request
//! bytes inside the read timeout: well-behaved traffic that must cost
//! the proxy buffers, never workers. `--open-loop --time-scale K` issues
//! requests at trace timestamps compressed K-fold instead of closed
//! loop. `--smoke` is the CI gate: a tiny trace with a handful of slow
//! clients, asserting zero client-visible errors on every run and that
//! every slow client completes. `--cluster`
//! replays the trace through consistent-hash rings of 1, 2, and 4
//! child proxies and SIGKILLs one of two nodes mid-run, gating on zero
//! client-visible errors and on the 2-node aggregate hit rate at least
//! matching the single node.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::Duration;
use webcache_core::cache::sharded::default_shard_count;
use webcache_core::policy::named;
use webcache_loadgen::{replay, seed_origin, ReplayConfig, ReplayReport};
use webcache_proxy::http::{self, Request};
use webcache_proxy::origin::OriginServer;
use webcache_trace::binfmt;
use webcache_trace::Trace;
use webcache_workload::{generator, profiles};

struct Args {
    trace: Option<PathBuf>,
    profile: String,
    scale: f64,
    seed: u64,
    clients: usize,
    workers: usize,
    shards: Option<Vec<usize>>,
    slow_clients: Vec<usize>,
    open_loop: bool,
    time_scale: f64,
    capacity_frac: f64,
    json: PathBuf,
    smoke: bool,
    /// `Some(n)`: after the regular sweep, run the crash/warm-restart
    /// scenario — warm a persistent child proxy with the first `n` trace
    /// requests, SIGKILL it, restart it from the same persistence
    /// directory, and compare hit rates over the same probe set.
    kill_restart_at: Option<usize>,
    /// Run the chaos scenario after the sweep: origin faults + injected
    /// disk faults + slow-client overload + SIGKILL mid-run + fault-free
    /// warm restart, in one run, with hard gates on the outcome.
    chaos: bool,
    /// Run the cluster scenario after the sweep: replay the trace
    /// through rings of 1, 2, and 4 child proxies (same capacity per
    /// node), then SIGKILL one of two nodes mid-run and fail over
    /// client-side, with hard gates on the outcome.
    cluster: bool,
}

fn parse_args() -> Args {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = Args {
        trace: None,
        profile: "u".to_string(),
        scale: 0.05,
        seed: 1,
        clients: (2 * cores).max(4),
        workers: 4 * cores,
        shards: None,
        slow_clients: vec![0],
        open_loop: false,
        time_scale: 1000.0,
        capacity_frac: 0.25,
        json: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_proxy.json"
        )),
        smoke: false,
        kill_restart_at: None,
        chaos: false,
        cluster: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--trace" => args.trace = Some(PathBuf::from(val("--trace"))),
            "--profile" => args.profile = val("--profile"),
            "--scale" => args.scale = parse_or_die(&val("--scale"), "--scale: float"),
            "--seed" => args.seed = parse_or_die(&val("--seed"), "--seed: integer"),
            "--clients" => args.clients = parse_or_die(&val("--clients"), "--clients: integer"),
            "--workers" => args.workers = parse_or_die(&val("--workers"), "--workers: integer"),
            "--shards" => {
                args.shards = Some(parse_list_or_die(
                    &val("--shards"),
                    "--shards: comma-separated integers",
                ))
            }
            "--slow-clients" => {
                args.slow_clients = parse_list_or_die(
                    &val("--slow-clients"),
                    "--slow-clients: comma-separated integers",
                )
            }
            "--open-loop" => args.open_loop = true,
            "--time-scale" => {
                args.time_scale = parse_or_die(&val("--time-scale"), "--time-scale: float")
            }
            "--capacity-frac" => {
                args.capacity_frac = parse_or_die(&val("--capacity-frac"), "--capacity-frac: float")
            }
            "--json" => args.json = PathBuf::from(val("--json")),
            "--smoke" => args.smoke = true,
            "--kill-restart-at" => {
                args.kill_restart_at = Some(parse_or_die(
                    &val("--kill-restart-at"),
                    "--kill-restart-at: integer",
                ))
            }
            "--chaos" => args.chaos = true,
            "--cluster" => args.cluster = true,
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

/// A usage error: report it plainly and exit 2 — no panic backtrace for
/// a mistyped flag.
fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}

fn parse_or_die<T: std::str::FromStr>(s: &str, msg: &str) -> T {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("{msg} (got {s:?})")))
}

fn parse_list_or_die<T: std::str::FromStr>(s: &str, msg: &str) -> Vec<T> {
    s.split(',').map(|part| parse_or_die(part, msg)).collect()
}

/// Load the trace to replay: an explicit `.wct`, or a generated workload
/// round-tripped through the packed format so the mmap load path is the
/// one being exercised.
fn load_trace(args: &Args) -> Trace {
    if let Some(path) = &args.trace {
        return binfmt::load(path)
            .unwrap_or_else(|e| die(&format!("load --trace {}: {e}", path.display())));
    }
    let profile = profiles::by_name(&args.profile)
        .unwrap_or_else(|| die(&format!("unknown profile {:?}", args.profile)))
        .scaled(args.scale);
    let trace = generator::generate(&profile, args.seed);
    let tmp = std::env::temp_dir().join(format!("loadgen-{}.wct", std::process::id()));
    binfmt::save(&trace, &tmp).expect("save generated trace");
    let loaded = binfmt::load(&tmp).expect("reload generated trace");
    let _ = std::fs::remove_file(&tmp);
    loaded
}

fn run_json(r: &ReplayReport, cores: usize) -> String {
    format!(
        "    {{\"cores\": {}, \"shards\": {}, \"requests\": {}, \
         \"errors\": {}, \"slow_clients\": {}, \"slow_ok\": {}, \"slow_errors\": {}, \
         \"time_scale\": {}, \"hits\": {}, \"hit_rate\": {:.4}, \"elapsed_secs\": {:.3}, \
         \"requests_per_sec\": {:.1}, \"ok_per_sec\": {:.1}, \"bytes_per_sec\": {:.0}, \
         \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
         \"hit_p50_us\": {}, \"hit_p99_us\": {}, \"hit_max_us\": {}, \
         \"miss_p50_us\": {}, \"miss_p99_us\": {}, \"miss_max_us\": {}}}",
        cores,
        r.shards,
        r.requests,
        r.errors,
        r.slow_clients,
        r.slow_ok,
        r.slow_errors,
        r.time_scale
            .map_or("null".to_string(), |k| format!("{k:.1}")),
        r.hits,
        r.hit_rate,
        r.elapsed_secs,
        r.requests_per_sec,
        r.ok_per_sec,
        r.bytes_per_sec,
        r.latency.p50_us,
        r.latency.p90_us,
        r.latency.p99_us,
        r.latency.max_us,
        r.hit_latency.p50_us,
        r.hit_latency.p99_us,
        r.hit_latency.max_us,
        r.miss_latency.p50_us,
        r.miss_latency.p99_us,
        r.miss_latency.max_us,
    )
}

// ---------------------------------------------------------------------------
// Crash / warm-restart scenario (`--kill-restart-at`)
// ---------------------------------------------------------------------------

/// What the kill/warm-restart scenario measured.
struct KillRestartReport {
    /// Warm-up requests issued before the SIGKILL.
    kill_at: usize,
    /// Distinct URLs probed before and after the restart.
    probe_urls: usize,
    /// Client-observed hit rate over the probe set just before the kill.
    pre_hit_rate: f64,
    /// Client-observed hit rate over the same probe set after restart.
    post_hit_rate: f64,
    /// Documents the restarted proxy reported recovering from disk.
    recovered_docs: u64,
}

/// The `webcache-proxy` binary: `$WEBCACHE_PROXY_BIN`, or the sibling of
/// the running loadgen executable (both live in the same target dir).
fn proxy_bin() -> PathBuf {
    if let Ok(p) = std::env::var("WEBCACHE_PROXY_BIN") {
        return PathBuf::from(p);
    }
    std::env::current_exe()
        .expect("current_exe")
        .with_file_name("webcache-proxy")
}

/// A child `webcache-proxy` process with its parsed startup lines.
struct ChildProxy {
    child: Child,
    addr: SocketAddr,
    /// Kept open: dropping it would close the pipe and SIGPIPE the child
    /// on its next print. The chaos scenario takes it to monitor health
    /// transition lines.
    stdout: Option<BufReader<ChildStdout>>,
    /// Documents reported by the child's recovery log line.
    recovered_docs: u64,
}

/// Spawn a persistent child proxy and wait for its startup lines.
fn spawn_proxy(origin: SocketAddr, dir: &Path, capacity: u64, shards: usize) -> ChildProxy {
    spawn_proxy_with(origin, dir, capacity, shards, &[])
}

/// [`spawn_proxy`] with extra command-line flags (fault injection,
/// degraded policy).
fn spawn_proxy_with(
    origin: SocketAddr,
    dir: &Path,
    capacity: u64,
    shards: usize,
    extra: &[&str],
) -> ChildProxy {
    let mut cli = vec![
        "--origin".to_string(),
        origin.to_string(),
        "--capacity".to_string(),
        capacity.to_string(),
        "--shards".to_string(),
        shards.to_string(),
        "--workers".to_string(),
        "4".to_string(),
        "--persist-dir".to_string(),
        dir.display().to_string(),
        "--snapshot-interval".to_string(),
        "300".to_string(),
        "--journal-fsync".to_string(),
        "10".to_string(),
    ];
    cli.extend(extra.iter().map(|s| s.to_string()));
    spawn_proxy_cli(&cli)
}

/// Spawn `webcache-proxy` with an explicit argument list and wait for
/// its startup lines.
fn spawn_proxy_cli(cli: &[String]) -> ChildProxy {
    let bin = proxy_bin();
    let mut child = Command::new(&bin)
        .args(cli)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout piped"));
    let mut recovered_docs = 0u64;
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read proxy stdout");
        assert!(n > 0, "webcache-proxy exited before printing its address");
        let line = line.trim();
        eprintln!("    {line}");
        if let Some(rest) = line.strip_prefix("webcache-proxy: recovered ") {
            recovered_docs = rest
                .split_whitespace()
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
        }
        if let Some(rest) = line.strip_prefix("webcache-proxy: listening on ") {
            break rest.parse().expect("parse proxy address");
        }
    };
    ChildProxy {
        child,
        addr,
        stdout: Some(reader),
        recovered_docs,
    }
}

/// One GET through the child proxy; `Some(is_cache_hit)` on a 200.
fn get_via(addr: SocketAddr, url: &str) -> Option<bool> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    http::write_request(&mut s, &Request::get(url)).ok()?;
    let resp = http::read_response(&mut s).ok()?;
    (resp.status == 200).then(|| resp.is_cache_hit())
}

/// Hit rate over `probe` as the client observes it (`X-Cache: HIT`).
fn probe_hit_rate(addr: SocketAddr, probe: &[&str]) -> f64 {
    if probe.is_empty() {
        return 0.0;
    }
    let hits = probe
        .iter()
        .filter(|u| get_via(addr, u) == Some(true))
        .count();
    hits as f64 / probe.len() as f64
}

/// Warm a persistent child proxy with a trace prefix, SIGKILL it,
/// restart it from the same directory, and measure the warm-restart hit
/// rate over an identical probe set.
fn run_kill_restart(
    trace: &Trace,
    capacity: u64,
    shards: usize,
    kill_at: usize,
) -> KillRestartReport {
    let origin = OriginServer::start(seed_origin(trace)).expect("start origin");
    let dir = std::env::temp_dir().join(format!("loadgen-killrestart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let urls: Vec<&str> = trace
        .requests
        .iter()
        .map(|r| trace.interner.url_text(r.url).unwrap_or(""))
        .collect();
    let kill_at = kill_at.min(urls.len());
    // Probe set: distinct warmed URLs, newest first (the working set a
    // warm restart must preserve), capped so the probe stays fast.
    let mut probe: Vec<&str> = Vec::new();
    for &u in urls[..kill_at].iter().rev() {
        if !probe.contains(&u) {
            probe.push(u);
            if probe.len() >= 256 {
                break;
            }
        }
    }

    eprintln!("loadgen: kill-restart: warming child proxy with {kill_at} requests");
    let p1 = spawn_proxy(origin.addr(), &dir, capacity, shards);
    for u in &urls[..kill_at] {
        let _ = get_via(p1.addr, u);
    }
    // Let at least one snapshot round land (300 ms cadence): the warm
    // restart should exercise snapshot + journal-tail replay, and the
    // persisted URL table keeps document ids stable across the restart.
    std::thread::sleep(Duration::from_millis(450));
    // Probe twice: the first pass re-inserts any probe URLs the warm-up
    // evicted (churning the cache as any probe must), so the second pass
    // measures the steady state — the same state the post-restart probe
    // will run against. Comparing pass one to the post-restart probe
    // would compare two different cache states.
    let _ = probe_hit_rate(p1.addr, &probe);
    let pre_hit_rate = probe_hit_rate(p1.addr, &probe);
    // Let a snapshot round cover the probe churn and the group fsync
    // (10 ms) make the journal tail durable, then kill without any
    // warning — no flush, no final snapshot.
    std::thread::sleep(Duration::from_millis(400));
    let mut p1 = p1;
    p1.child.kill().expect("SIGKILL child proxy");
    let _ = p1.child.wait();
    eprintln!(
        "loadgen: kill-restart: SIGKILLed warm proxy (probe hit rate {pre_hit_rate:.3}); restarting"
    );

    let p2 = spawn_proxy(origin.addr(), &dir, capacity, shards);
    let post_hit_rate = probe_hit_rate(p2.addr, &probe);
    let recovered_docs = p2.recovered_docs;
    let mut p2 = p2;
    let _ = p2.child.kill();
    let _ = p2.child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "loadgen: kill-restart: recovered {recovered_docs} docs, probe hit rate \
         {pre_hit_rate:.3} pre-kill -> {post_hit_rate:.3} post-restart"
    );
    KillRestartReport {
        kill_at,
        probe_urls: probe.len(),
        pre_hit_rate,
        post_hit_rate,
        recovered_docs,
    }
}

/// Persistence-overhead A/B on the hit path: same trace, same
/// configuration, with and without the persister running (snapshotting
/// every 250 ms during the replay). Returns goodput ratio
/// (persistent / baseline), best of two attempts to absorb noise.
fn run_persist_ab(trace: &Trace, capacity: u64, shards: usize, args: &Args) -> f64 {
    let mk = |persist_dir: Option<PathBuf>| ReplayConfig {
        clients: args.clients,
        shards,
        workers: args.workers,
        queue_depth: 16 * args.workers.max(1),
        capacity,
        slow_clients: 0,
        time_scale: None,
        persist_dir,
    };
    // Repeat the trace until the replay runs long enough (several
    // snapshot rounds, mostly warm requests) that the measurement is a
    // steady-state hit-path comparison rather than cold-start noise.
    let mut long_trace = trace.clone();
    if !long_trace.requests.is_empty() {
        let base = long_trace.requests.clone();
        while long_trace.requests.len() < 8_000 {
            long_trace.requests.extend(base.iter().cloned());
        }
    }
    let dir = std::env::temp_dir().join(format!("loadgen-persist-ab-{}", std::process::id()));
    let run = |persist: bool| -> f64 {
        if persist {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let cfg = mk(persist.then(|| dir.clone()));
        let r = replay(&long_trace, cfg, || Box::new(named::lru())).expect("persist A/B replay");
        r.ok_per_sec
    };
    let base = run(false).max(f64::MIN_POSITIVE);
    let mut ratio = run(true) / base;
    if ratio < 0.95 {
        // One retry: tiny traces are noisy and the baseline is itself a
        // single sample.
        ratio = ratio.max(run(true) / base);
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("loadgen: persistence overhead: goodput {ratio:.2}x the no-persistence baseline");
    ratio
}

// ---------------------------------------------------------------------------
// Chaos scenario (`--chaos`)
// ---------------------------------------------------------------------------

/// What the chaos scenario measured and observed.
struct ChaosReport {
    /// Probe hit rate on a fault-free run of the same workload.
    baseline_hit_rate: f64,
    /// Fault-free closed-loop goodput (ok responses per second).
    baseline_ok_per_sec: f64,
    /// Probe hit rate under origin faults + disk faults + overload.
    hit_rate: f64,
    /// Goodput under the same chaos.
    ok_per_sec: f64,
    /// The child printed its `Healthy -> Degraded` transition line.
    degraded_seen: bool,
    /// The child gave up on the disk entirely (not expected here: the
    /// probe backoff is longer than the run).
    disabled_seen: bool,
    /// Origin-side faults actually injected by the shim.
    origin_faults: u64,
    /// Documents the fault-free restart recovered from disk.
    recovered_docs: u64,
    /// Probe hit rate after the fault-free warm restart.
    post_restart_hit_rate: f64,
}

/// Dribble `GET` requests byte-by-byte at `addr` until `stop` is raised:
/// the overload component of the chaos run (pins buffers in the proxy,
/// never workers).
fn dribble_requests(
    addr: SocketAddr,
    url: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let req = format!("GET {url} HTTP/1.0\r\n\r\n");
        for b in req.as_bytes() {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if s.write_all(std::slice::from_ref(b)).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut buf = Vec::new();
        use std::io::Read;
        let _ = s.take(1 << 20).read_to_end(&mut buf);
    }
}

/// Drive `urls` through the proxy from `threads` parallel closed-loop
/// clients and return (ok responses, elapsed). Parallelism keeps the
/// goodput figure capacity-bound: per-connection origin delay faults
/// overlap instead of serialising.
fn drive_parallel(addr: SocketAddr, urls: &[&str], threads: usize) -> (usize, Duration) {
    let t0 = std::time::Instant::now();
    let ok: usize = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let chunk: Vec<String> = urls
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .map(|u| u.to_string())
                    .collect();
                scope.spawn(move || chunk.iter().filter(|u| get_via(addr, u).is_some()).count())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("drive thread"))
            .sum()
    });
    (ok, t0.elapsed())
}

/// The full chaos run: a fault-free baseline pass, then the same
/// workload through a flaky origin into a child proxy whose disk fails
/// every journal append and fsync (one long Degraded episode —
/// snapshot-grade durability), under slow-client overload; the child is
/// SIGKILLed mid-run and restarted fault-free from the same directory.
///
/// The proxy must serve the chaos pass at >= 0.95x the baseline hit
/// rate, print its degraded transition exactly as specified, and
/// restart warm — colder at most, never down, never wrong.
fn run_chaos(trace: &Trace, capacity: u64, shards: usize) -> ChaosReport {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use webcache_proxy::{FaultPlan, FaultyOrigin};

    let origin = OriginServer::start(seed_origin(trace)).expect("start origin");
    let urls: Vec<&str> = trace
        .requests
        .iter()
        .map(|r| trace.interner.url_text(r.url).unwrap_or(""))
        .collect();
    let warm_n = urls.len().min(500);
    // Probe the workload's *small* hot set — frequent urls well below
    // the SIZE policy's eviction frontier (it removes largest-first, so
    // small documents are effectively pinned). Those stay cached in any
    // parallel-client drive order; their hit rate isolates what the
    // faults did from run-to-run eviction noise.
    let probe: Vec<&str> = {
        let size_cutoff = (capacity / 128).max(1);
        let mut freq: HashMap<&str, (usize, usize)> = HashMap::new();
        for (i, r) in trace.requests[..warm_n].iter().enumerate() {
            if r.size > size_cutoff {
                continue;
            }
            let e = freq.entry(urls[i]).or_insert((0, 0));
            e.0 += 1;
            e.1 = i;
        }
        let mut ranked: Vec<(&str, (usize, usize))> = freq.into_iter().collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        ranked.into_iter().take(48).map(|(u, _)| u).collect()
    };
    assert!(!probe.is_empty(), "chaos probe set is empty");

    // Pass 1 — fault-free baseline of the same workload and probe.
    eprintln!(
        "loadgen: chaos: baseline pass ({warm_n} requests, {} probes)",
        probe.len()
    );
    let base_dir = std::env::temp_dir().join(format!("loadgen-chaos-base-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let (baseline_hit_rate, baseline_ok_per_sec) = {
        let p = spawn_proxy(origin.addr(), &base_dir, capacity, shards);
        let _ = drive_parallel(p.addr, &urls[..warm_n], 4); // warm first
        let (ok, took) = drive_parallel(p.addr, &urls[..warm_n], 4);
        let ok_per_sec = ok as f64 / took.as_secs_f64().max(1e-9);
        let _ = probe_hit_rate(p.addr, &probe);
        let rate = probe_hit_rate(p.addr, &probe);
        let mut p = p;
        let _ = p.child.kill();
        let _ = p.child.wait();
        (rate, ok_per_sec)
    };
    let _ = std::fs::remove_dir_all(&base_dir);

    // Pass 2 — chaos: flaky origin, dead journal path (every append and
    // fsync fails; probes fail too, so the episode never heals and the
    // backoff outlives the run), slow-client overload.
    let plan = FaultPlan::new(1996)
        .server_error(0.04)
        .delay(0.10, Duration::from_millis(2));
    let faulty = FaultyOrigin::start(origin.addr(), plan).expect("start fault shim");
    let dir = std::env::temp_dir().join(format!("loadgen-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("loadgen: chaos: fault pass (origin faults + disk faults + overload)");
    let mut p = spawn_proxy_with(
        faulty.addr(),
        &dir,
        capacity,
        shards,
        &[
            "--iofault",
            "seed=9,append=1.0,sync=1.0",
            "--degraded-backoff",
            "60000",
            "--degraded-retries",
            "8",
        ],
    );
    // Monitor the child's stdout for health transition lines.
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let monitor = {
        let mut reader = p.stdout.take().expect("child stdout");
        let lines = Arc::clone(&lines);
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let l = line.trim().to_string();
                        eprintln!("    {l}");
                        lines.lock().expect("lines lock").push(l);
                    }
                }
            }
        })
    };
    let stop = Arc::new(AtomicBool::new(false));
    let slow: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let addr = p.addr;
            let url = urls[0].to_string();
            std::thread::spawn(move || dribble_requests(addr, url, stop))
        })
        .collect();
    let _ = drive_parallel(p.addr, &urls[..warm_n], 4); // warm first
    let (ok, took) = drive_parallel(p.addr, &urls[..warm_n], 4);
    let ok_per_sec = ok as f64 / took.as_secs_f64().max(1e-9);
    let _ = probe_hit_rate(p.addr, &probe);
    // Probe over successful responses only, with one retry: a 503 from
    // the flaky origin is an origin fault, not a cache miss — the gate
    // is about what the *disk* faults did to the cache.
    let hit_rate = {
        let mut hits = 0usize;
        let mut answered = 0usize;
        for u in &probe {
            let r = get_via(p.addr, u).or_else(|| get_via(p.addr, u));
            if let Some(hit) = r {
                answered += 1;
                hits += hit as usize;
            }
        }
        if answered == 0 {
            0.0
        } else {
            hits as f64 / answered as f64
        }
    };
    // Wait for the degraded transition line (the first failed drain
    // lands within one journal-fsync tick of the first insert), and for
    // a degraded-mode snapshot round to cover the probe churn.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let saw = |needle: &str| {
        lines
            .lock()
            .expect("lines lock")
            .iter()
            .any(|l| l.contains(needle))
    };
    while std::time::Instant::now() < deadline && !saw("health degraded") {
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(450));
    // SIGKILL mid-run, overload still attached: no flush, no farewell.
    p.child.kill().expect("SIGKILL chaos child");
    let _ = p.child.wait();
    stop.store(true, Ordering::Relaxed);
    for t in slow {
        let _ = t.join();
    }
    let _ = monitor.join();
    let degraded_seen = saw("health degraded");
    let disabled_seen = saw("health disabled");
    let origin_faults = faulty.stats().injected();

    // Pass 3 — fault-free restart from the chaos directory.
    eprintln!("loadgen: chaos: fault-free warm restart");
    let p2 = spawn_proxy(origin.addr(), &dir, capacity, shards);
    let recovered_docs = p2.recovered_docs;
    let post_restart_hit_rate = probe_hit_rate(p2.addr, &probe);
    let mut p2 = p2;
    let _ = p2.child.kill();
    let _ = p2.child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "loadgen: chaos: hit rate {hit_rate:.3} vs baseline {baseline_hit_rate:.3}, \
         goodput {ok_per_sec:.1}/s vs {baseline_ok_per_sec:.1}/s, degraded {degraded_seen}, \
         {origin_faults} origin faults, recovered {recovered_docs} docs, \
         post-restart hit rate {post_restart_hit_rate:.3}"
    );
    ChaosReport {
        baseline_hit_rate,
        baseline_ok_per_sec,
        hit_rate,
        ok_per_sec,
        degraded_seen,
        disabled_seen,
        origin_faults,
        recovered_docs,
        post_restart_hit_rate,
    }
}

// ---------------------------------------------------------------------------
// Cluster scenario (`--cluster`)
// ---------------------------------------------------------------------------

/// One node-count's aggregate measurements over the full trace replay.
struct ClusterRun {
    nodes: u32,
    requests: usize,
    ok: usize,
    client_errors: usize,
    hits: usize,
    hit_rate: f64,
    ok_per_sec: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

/// What the mid-run node kill and client-side failover observed.
struct ClusterKill {
    killed_node: u32,
    requests: usize,
    ok: usize,
    client_errors: usize,
    /// Requests that needed the one-shot re-route to the survivor.
    failovers: usize,
}

/// What the cluster scenario measured.
struct ClusterReport {
    capacity_per_node: u64,
    runs: Vec<ClusterRun>,
    kill: ClusterKill,
}

/// Reserve `n` distinct ephemeral peer addresses (bind, record, drop).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// Spawn one cluster node. No persistence flags: the binary treats
/// `--persist-dir` and `--cluster-seed-list` as mutually exclusive.
fn spawn_cluster_node(
    origin: SocketAddr,
    capacity: u64,
    shards: usize,
    seed_list: &str,
    node_id: u32,
) -> ChildProxy {
    spawn_proxy_cli(&[
        "--origin".to_string(),
        origin.to_string(),
        "--capacity".to_string(),
        capacity.to_string(),
        "--shards".to_string(),
        shards.to_string(),
        "--workers".to_string(),
        "4".to_string(),
        "--policy".to_string(),
        "lru".to_string(),
        "--cluster-seed-list".to_string(),
        seed_list.to_string(),
        "--node-id".to_string(),
        node_id.to_string(),
    ])
}

/// The loadgen's own copy of the cluster ring: same seed, same vnode
/// count, same membership shape as the nodes build from the seed list,
/// so client-side routing agrees with server-side ownership exactly.
fn client_ring(members: Vec<u32>) -> webcache_core::cluster::HashRing {
    webcache_core::cluster::HashRing::build(
        webcache_proxy::cluster::DEFAULT_RING_SEED,
        &webcache_core::cluster::Membership::new(0, members),
        webcache_core::cluster::DEFAULT_VNODES,
    )
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[i.min(sorted.len() - 1)]
}

/// Replay `urls` through the cluster from `threads` closed-loop
/// clients, each request routed to its owner node per `ring`. Returns
/// `(ok, hits, errors, sorted latencies in µs, elapsed)`.
fn drive_cluster(
    addrs: &[SocketAddr],
    ring: &webcache_core::cluster::HashRing,
    urls: &[&str],
    threads: usize,
) -> (usize, usize, usize, Vec<u64>, Duration) {
    let t0 = std::time::Instant::now();
    let (mut ok, mut hits, mut errors) = (0usize, 0usize, 0usize);
    let mut latencies: Vec<u64> = Vec::with_capacity(urls.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let chunk: Vec<String> = urls
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .map(|u| u.to_string())
                    .collect();
                scope.spawn(move || {
                    let (mut ok, mut hits, mut errors) = (0usize, 0usize, 0usize);
                    let mut lat = Vec::with_capacity(chunk.len());
                    for u in &chunk {
                        let addr = addrs[ring.owner(u) as usize];
                        let r0 = std::time::Instant::now();
                        match get_via(addr, u) {
                            Some(hit) => {
                                ok += 1;
                                hits += hit as usize;
                                lat.push(r0.elapsed().as_micros() as u64);
                            }
                            None => errors += 1,
                        }
                    }
                    (ok, hits, errors, lat)
                })
            })
            .collect();
        for h in handles {
            let (o, hi, e, lat) = h.join().expect("cluster drive thread");
            ok += o;
            hits += hi;
            errors += e;
            latencies.extend(lat);
        }
    });
    latencies.sort_unstable();
    (ok, hits, errors, latencies, t0.elapsed())
}

/// Two-node run with a SIGKILL halfway through: the client re-routes
/// around the dead node exactly as the nodes themselves do (drop it
/// from the membership, rebuild the ring) and retries once on the new
/// owner. A post-retry failure is a client-visible error — the thing
/// the gate requires to be zero.
fn run_cluster_kill(
    origin: SocketAddr,
    capacity: u64,
    shards: usize,
    urls: &[&str],
) -> ClusterKill {
    let peers = free_addrs(2);
    let seed_list = peers
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{i}={a}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut nodes: Vec<ChildProxy> = (0..2)
        .map(|i| spawn_cluster_node(origin, capacity, shards, &seed_list, i))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|p| p.addr).collect();
    let mut ring = client_ring(vec![0, 1]);

    let half = urls.len() / 2;
    let _ = drive_cluster(&addrs, &ring, &urls[..half], 4);
    let killed: u32 = 0;
    nodes[killed as usize]
        .child
        .kill()
        .expect("SIGKILL cluster node");
    let _ = nodes[killed as usize].child.wait();
    eprintln!("loadgen: cluster: SIGKILLed node {killed} mid-run; second half fails over");

    let (mut ok, mut errors, mut failovers) = (0usize, 0usize, 0usize);
    for u in &urls[half..] {
        let owner = ring.owner(u);
        match get_via(addrs[owner as usize], u) {
            Some(_) => ok += 1,
            None => {
                failovers += 1;
                let survivors = ring
                    .members()
                    .iter()
                    .copied()
                    .filter(|&m| m != owner)
                    .collect();
                ring = client_ring(survivors);
                match get_via(addrs[ring.owner(u) as usize], u) {
                    Some(_) => ok += 1,
                    None => errors += 1,
                }
            }
        }
    }
    for p in &mut nodes[1..] {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
    eprintln!(
        "loadgen: cluster: kill scenario: {ok}/{} ok, {failovers} failovers, {errors} \
         client errors",
        urls.len() - half
    );
    ClusterKill {
        killed_node: killed,
        requests: urls.len() - half,
        ok,
        client_errors: errors,
        failovers,
    }
}

/// The full cluster scenario: the same trace through rings of 1, 2,
/// and 4 nodes at the same capacity per node (so aggregate capacity
/// scales with the ring and the hit rate must not fall when nodes are
/// added), then the two-node kill/failover run.
fn run_cluster(trace: &Trace, capacity_per_node: u64, shards: usize) -> ClusterReport {
    let origin = OriginServer::start(seed_origin(trace)).expect("start origin");
    let urls: Vec<&str> = trace
        .requests
        .iter()
        .filter_map(|r| trace.interner.url_text(r.url))
        .filter(|u| !u.is_empty())
        .collect();
    assert!(!urls.is_empty(), "cluster trace is empty");

    let mut runs = Vec::new();
    for n in [1u32, 2, 4] {
        let peers = free_addrs(n as usize);
        let seed_list = peers
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{i}={a}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut nodes: Vec<ChildProxy> = (0..n)
            .map(|i| spawn_cluster_node(origin.addr(), capacity_per_node, shards, &seed_list, i))
            .collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(|p| p.addr).collect();
        let ring = client_ring((0..n).collect());
        let (ok, hits, errors, lat, took) = drive_cluster(&addrs, &ring, &urls, 4);
        let hit_rate = if ok > 0 { hits as f64 / ok as f64 } else { 0.0 };
        let ok_per_sec = ok as f64 / took.as_secs_f64().max(1e-9);
        eprintln!(
            "loadgen: cluster: {n} node(s): {ok}/{} ok ({errors} errors), hit rate \
             {hit_rate:.3}, {ok_per_sec:.1} ok/s, p50 {} µs, p99 {} µs",
            urls.len(),
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
        );
        runs.push(ClusterRun {
            nodes: n,
            requests: urls.len(),
            ok,
            client_errors: errors,
            hits,
            hit_rate,
            ok_per_sec,
            p50_us: percentile(&lat, 0.50),
            p90_us: percentile(&lat, 0.90),
            p99_us: percentile(&lat, 0.99),
        });
        for p in &mut nodes {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }

    let kill = run_cluster_kill(origin.addr(), capacity_per_node, shards, &urls);
    ClusterReport {
        capacity_per_node,
        runs,
        kill,
    }
}

fn main() -> ExitCode {
    let mut args = parse_args();
    if args.smoke {
        // CI gate: tiny trace, a handful of slow clients (one per worker,
        // small enough to finish fast), strict assertions.
        args.scale = args.scale.min(0.002);
        args.shards.get_or_insert_with(|| vec![2]);
        if args.slow_clients == [0] {
            args.slow_clients = vec![args.workers.max(2)];
        }
    }
    args.slow_clients.sort_unstable();
    args.slow_clients.dedup();
    let trace = load_trace(&args);
    assert!(!trace.requests.is_empty(), "trace is empty");
    let capacity = ((trace.total_bytes() as f64 * args.capacity_frac) as u64).max(1 << 16);
    let ncores = default_shard_count();

    // Default sweep: the single-lock baseline, minimal sharding, and one
    // shard per core — deduplicated (on a 1-core machine that is {1, 2}).
    let mut shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, ncores]);
    shard_counts.sort_unstable();
    shard_counts.dedup();

    eprintln!(
        "loadgen: trace {} ({} requests, {} uniques, {} bytes), capacity {capacity}, \
         {} clients, slow clients {:?}, {} workers, shards {shard_counts:?}, pacing {}",
        trace.name,
        trace.len(),
        trace.interner.url_count(),
        trace.total_bytes(),
        args.clients,
        args.slow_clients,
        args.workers,
        if args.open_loop {
            format!("open-loop /{}", args.time_scale)
        } else {
            "closed-loop".to_string()
        },
    );

    let mut runs: Vec<ReplayReport> = Vec::new();
    for &slow_clients in &args.slow_clients {
        for &shards in &shard_counts {
            let cfg = ReplayConfig {
                clients: args.clients,
                shards,
                workers: args.workers,
                queue_depth: 16 * args.workers.max(1),
                capacity,
                slow_clients,
                time_scale: args.open_loop.then_some(args.time_scale),
                persist_dir: None,
            };
            let report = replay(&trace, cfg, || Box::new(named::lru())).expect("replay");
            eprintln!(
                "  slow {:>5} shards {:>3}: {:>8.1} req/s ({:>8.1} ok/s, \
                 {:>9.0} B/s), p50 {} µs, p99 {} µs (hit p99 {} µs), max {} µs, \
                 hit rate {:.3}, errors {}, slow ok/err {}/{}",
                report.slow_clients,
                report.shards,
                report.requests_per_sec,
                report.ok_per_sec,
                report.bytes_per_sec,
                report.latency.p50_us,
                report.latency.p99_us,
                report.hit_latency.p99_us,
                report.latency.max_us,
                report.hit_rate,
                report.errors,
                report.slow_ok,
                report.slow_errors,
            );
            runs.push(report);
        }
    }

    // Shard scaling is judged at the lightest slow-client load in the
    // sweep, where throughput is lock-bound rather than worker-bound.
    let min_slow = args.slow_clients.iter().copied().min().unwrap_or(0);
    let lightest = || runs.iter().filter(|r| r.slow_clients == min_slow);
    let baseline = lightest().find(|r| r.shards == 1);
    let best = lightest().max_by_key(|r| r.shards);
    let shard_speedup = match (baseline, best) {
        (Some(b), Some(m)) if b.requests_per_sec > 0.0 && m.shards > 1 => {
            Some(m.requests_per_sec / b.requests_per_sec)
        }
        _ => None,
    };

    // Crash/warm-restart scenario plus the persistence-overhead A/B,
    // run against the highest shard count in the sweep.
    let max_shards_cfg = shard_counts.iter().copied().max().unwrap_or(1);
    let (kill_report, persist_ratio) = match args.kill_restart_at {
        Some(n) => (
            Some(run_kill_restart(&trace, capacity, max_shards_cfg, n)),
            Some(run_persist_ab(&trace, capacity, max_shards_cfg, &args)),
        ),
        None => (None, None),
    };
    let chaos_report = args
        .chaos
        .then(|| run_chaos(&trace, capacity, max_shards_cfg));
    let cluster_report = args
        .cluster
        .then(|| run_cluster(&trace, capacity, max_shards_cfg));
    let extra = {
        let mut s = String::new();
        if let Some(k) = &kill_report {
            s.push_str(&format!(
                ",\n  \"kill_restart\": {{\"kill_at\": {}, \"probe_urls\": {}, \
                 \"pre_hit_rate\": {:.4}, \"post_hit_rate\": {:.4}, \"recovered_docs\": {}}}",
                k.kill_at, k.probe_urls, k.pre_hit_rate, k.post_hit_rate, k.recovered_docs
            ));
        }
        if let Some(r) = persist_ratio {
            s.push_str(&format!(",\n  \"persist_overhead_reactor\": {r:.2}"));
        }
        if let Some(c) = &chaos_report {
            s.push_str(&format!(
                ",\n  \"chaos\": {{\"baseline_hit_rate\": {:.4}, \"hit_rate\": {:.4}, \
                 \"hit_rate_ratio\": {:.4}, \"baseline_ok_per_sec\": {:.1}, \
                 \"ok_per_sec\": {:.1}, \"goodput_ratio\": {:.4}, \
                 \"degraded_seen\": {}, \"disabled_seen\": {}, \"origin_faults\": {}, \
                 \"recovered_docs\": {}, \"post_restart_hit_rate\": {:.4}}}",
                c.baseline_hit_rate,
                c.hit_rate,
                if c.baseline_hit_rate > 0.0 {
                    c.hit_rate / c.baseline_hit_rate
                } else {
                    0.0
                },
                c.baseline_ok_per_sec,
                c.ok_per_sec,
                if c.baseline_ok_per_sec > 0.0 {
                    c.ok_per_sec / c.baseline_ok_per_sec
                } else {
                    0.0
                },
                c.degraded_seen,
                c.disabled_seen,
                c.origin_faults,
                c.recovered_docs,
                c.post_restart_hit_rate,
            ));
        }
        if let Some(c) = &cluster_report {
            let rows = c
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"nodes\": {}, \"requests\": {}, \"ok\": {}, \
                         \"client_errors\": {}, \"hits\": {}, \"hit_rate\": {:.4}, \
                         \"ok_per_sec\": {:.1}, \"p50_us\": {}, \"p90_us\": {}, \
                         \"p99_us\": {}}}",
                        r.nodes,
                        r.requests,
                        r.ok,
                        r.client_errors,
                        r.hits,
                        r.hit_rate,
                        r.ok_per_sec,
                        r.p50_us,
                        r.p90_us,
                        r.p99_us,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            s.push_str(&format!(
                ",\n  \"cluster\": {{\"capacity_per_node\": {}, \"runs\": [\n{}\n  ], \
                 \"kill\": {{\"killed_node\": {}, \"requests\": {}, \"ok\": {}, \
                 \"client_errors\": {}, \"failovers\": {}}}}}",
                c.capacity_per_node,
                rows,
                c.kill.killed_node,
                c.kill.requests,
                c.kill.ok,
                c.kill.client_errors,
                c.kill.failovers,
            ));
        }
        s
    };

    let json = format!(
        "{{\n  \"trace\": \"{}\",\n  \"requests\": {},\n  \"unique_urls\": {},\n  \
         \"total_bytes\": {},\n  \"capacity\": {},\n  \"clients\": {},\n  \
         \"slow_clients\": {:?},\n  \"workers\": {},\n  \
         \"machine_parallelism\": {},\n  \"runs\": [\n{}\n  ],\n  \
         \"speedup_max_shards_vs_1\": {}{}\n}}\n",
        trace.name,
        trace.len(),
        trace.interner.url_count(),
        trace.total_bytes(),
        capacity,
        args.clients,
        args.slow_clients,
        args.workers,
        ncores,
        runs.iter()
            .map(|r| run_json(r, ncores))
            .collect::<Vec<_>>()
            .join(",\n"),
        shard_speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
        extra,
    );
    binfmt::write_atomic(&args.json, json.as_bytes()).expect("write BENCH_proxy.json");
    eprintln!("loadgen: wrote {}", args.json.display());

    if args.smoke {
        let bad = runs
            .iter()
            .find(|r| r.errors > 0 || r.hits == 0 || r.requests == 0 || r.slow_errors > 0);
        if let Some(r) = bad {
            eprintln!(
                "loadgen --smoke FAILED: shards {} saw {} errors ({} slow), {} hits \
                 over {} requests",
                r.shards, r.errors, r.slow_errors, r.hits, r.requests
            );
            return ExitCode::FAILURE;
        }
        // Warm-restart gates: the restarted proxy must actually have
        // recovered documents, and the probe set must hit at >= 0.9x its
        // pre-kill rate.
        if let Some(k) = &kill_report {
            if k.recovered_docs == 0 {
                eprintln!("loadgen --smoke FAILED: restarted proxy recovered 0 documents");
                return ExitCode::FAILURE;
            }
            if k.pre_hit_rate <= 0.0 || k.post_hit_rate < 0.9 * k.pre_hit_rate {
                eprintln!(
                    "loadgen --smoke FAILED: warm-restart hit rate {:.3} < 0.9x pre-kill {:.3}",
                    k.post_hit_rate, k.pre_hit_rate
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "loadgen --smoke: warm restart recovered {} docs, hit rate {:.3} -> {:.3}",
                k.recovered_docs, k.pre_hit_rate, k.post_hit_rate
            );
        }
        if let Some(r) = persist_ratio {
            if r < 0.95 {
                eprintln!(
                    "loadgen --smoke FAILED: persistence overhead — goodput {r:.2}x \
                     no-persistence baseline (< 0.95)"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("loadgen --smoke: persistence overhead {r:.2}x baseline");
        }
        eprintln!("loadgen --smoke passed: zero client-visible errors on every run");
    }
    // Chaos gates — hard-fail whenever `--chaos` ran, smoke or not: the
    // whole point is that a failing disk never takes down the proxy.
    if let Some(c) = &chaos_report {
        if !c.degraded_seen {
            eprintln!("loadgen --chaos FAILED: proxy never printed its degraded transition");
            return ExitCode::FAILURE;
        }
        if c.baseline_hit_rate <= 0.0 || c.hit_rate < 0.95 * c.baseline_hit_rate {
            eprintln!(
                "loadgen --chaos FAILED: hit rate {:.3} under faults < 0.95x baseline {:.3}",
                c.hit_rate, c.baseline_hit_rate
            );
            return ExitCode::FAILURE;
        }
        if c.baseline_ok_per_sec > 0.0 && c.ok_per_sec < 0.35 * c.baseline_ok_per_sec {
            // Collapse detector, not a benchmark: origin delay faults
            // and the slow-client overload legitimately slow the closed
            // loop, but falling past ~a third of baseline means serving
            // itself is wedged on the failing disk.
            eprintln!(
                "loadgen --chaos FAILED: goodput {:.1}/s under faults < 0.35x baseline {:.1}/s",
                c.ok_per_sec, c.baseline_ok_per_sec
            );
            return ExitCode::FAILURE;
        }
        if c.recovered_docs == 0 {
            eprintln!("loadgen --chaos FAILED: fault-free restart recovered 0 documents");
            return ExitCode::FAILURE;
        }
        if c.post_restart_hit_rate <= 0.0 {
            eprintln!("loadgen --chaos FAILED: restarted proxy served no hits");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen --chaos passed: degraded-but-up, hit rate {:.3} (baseline {:.3}), \
             restart recovered {} docs",
            c.hit_rate, c.baseline_hit_rate, c.recovered_docs
        );
    }
    // Cluster gates — hard-fail whenever `--cluster` ran: routing a
    // trace through the ring must never surface an error to a client
    // (a dead peer degrades to single-node behaviour), and adding a
    // node must not cost hit rate.
    if let Some(c) = &cluster_report {
        if let Some(r) = c.runs.iter().find(|r| r.client_errors > 0) {
            eprintln!(
                "loadgen --cluster FAILED: {} client-visible errors on the {}-node run",
                r.client_errors, r.nodes
            );
            return ExitCode::FAILURE;
        }
        if c.kill.client_errors > 0 {
            eprintln!(
                "loadgen --cluster FAILED: {} client-visible errors after SIGKILLing node {}",
                c.kill.client_errors, c.kill.killed_node
            );
            return ExitCode::FAILURE;
        }
        let rate = |n: u32| c.runs.iter().find(|r| r.nodes == n).map(|r| r.hit_rate);
        if let (Some(h1), Some(h2)) = (rate(1), rate(2)) {
            // Whisker for replay-order noise; with double the aggregate
            // capacity the 2-node ring should beat this comfortably.
            if h2 + 0.01 < h1 {
                eprintln!(
                    "loadgen --cluster FAILED: 2-node hit rate {h2:.3} below 1-node \
                     baseline {h1:.3}"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("loadgen --cluster: hit rate {h1:.3} (1 node) -> {h2:.3} (2 nodes)");
        }
        eprintln!(
            "loadgen --cluster passed: zero client-visible errors across {} runs and the \
             node-kill failover ({} failovers)",
            c.runs.len(),
            c.kill.failovers
        );
    }
    ExitCode::SUCCESS
}
