//! What the tests that run the real `webcache-proxy` binary as a child
//! process share: the child itself, a client that tells a hit from a
//! miss, a self-cleaning scratch directory, and the paper's Undergrad
//! workload with an origin that serves it. Also the naive HTTP
//! references the parser tests compare against ([`reference`]).

// Each test file is its own crate and uses its own subset.
#![allow(dead_code)]

pub mod reference;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webcache_proxy::http::{self, Request, Response};
use webcache_proxy::DocStore;
use webcache_trace::Trace;
use webcache_workload::{generator, profiles};

/// A child `webcache-proxy`, past its start-up lines. Killed when dropped.
pub struct ChildProxy {
    pub child: Child,
    pub addr: SocketAddr,
    /// `N` of the child's `recovered N document(s)` line; 0 without one.
    pub recovered_docs: u64,
    /// Everything the child prints after `listening on`. Kept open, since
    /// closing the pipe would SIGPIPE the child on its next print; a test
    /// that reads the health transition lines takes it.
    pub stdout: Option<BufReader<ChildStdout>>,
}

impl ChildProxy {
    /// Spawn `webcache-proxy ARGS` and wait for its address.
    pub fn spawn<S: AsRef<str>>(args: &[S]) -> ChildProxy {
        ChildProxy::try_spawn(args).expect("webcache-proxy exited before listening")
    }

    /// [`ChildProxy::spawn`], or `None` when the child exits before it
    /// listens (a port in its arguments was taken meanwhile, say).
    pub fn try_spawn<S: AsRef<str>>(args: &[S]) -> Option<ChildProxy> {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_webcache-proxy"));
        cmd.args(args.iter().map(|a| a.as_ref()));
        ChildProxy::start(cmd)
    }

    /// [`ChildProxy::spawn`] with the child's descriptor limit lowered to
    /// `nofile` first: a shell sets it and `exec`s the proxy, so the
    /// child's pid is the proxy's.
    pub fn spawn_with_fd_limit<S: AsRef<str>>(nofile: u32, args: &[S]) -> ChildProxy {
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg(format!("ulimit -n {nofile} && exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_webcache-proxy"))
            .args(args.iter().map(|a| a.as_ref()));
        ChildProxy::start(cmd).expect("webcache-proxy exited before listening")
    }

    fn start(mut cmd: Command) -> Option<ChildProxy> {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn webcache-proxy");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut recovered_docs = 0u64;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("read child stdout");
            if n == 0 {
                let _ = child.wait();
                return None;
            }
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("webcache-proxy: recovered ") {
                recovered_docs = rest
                    .split_whitespace()
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            }
            if let Some(rest) = line.strip_prefix("webcache-proxy: listening on ") {
                break rest.parse().expect("parse child address");
            }
        };
        Some(ChildProxy {
            child,
            addr,
            recovered_docs,
            stdout: Some(reader),
        })
    }

    /// SIGKILL: no flush, no final snapshot.
    pub fn sigkill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Send the child `signal` (`STOP`, `CONT`, …) with `kill(1)`.
    pub fn signal(&self, signal: &str) {
        let status = Command::new("kill")
            .arg(format!("-{signal}"))
            .arg(self.child.id().to_string())
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -{signal} failed");
    }

    /// The CPU time, user plus system, the child has used so far:
    /// `utime` and `stime` of `/proc/<pid>/stat`, in the kernel's
    /// 100 Hz clock ticks.
    pub fn cpu_time(&self) -> Duration {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .expect("read /proc/<pid>/stat");
        // Fields after the parenthesised command name, from `state` on.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .expect("stat has a command name")
            .1
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11..13]
            .iter()
            .map(|f| f.parse::<u64>().expect("utime/stime"))
            .sum();
        Duration::from_millis(ticks * 10)
    }

    /// How many threads the child runs: `Threads` of `/proc/<pid>/status`.
    pub fn threads(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc/<pid>/status");
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        line.and_then(|n| n.trim().parse().ok())
            .expect("status has a thread count")
    }

    /// How many descriptors the child has open.
    pub fn open_fds(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/fd", self.child.id()))
            .expect("list /proc/<pid>/fd")
            .count()
    }
}

impl Drop for ChildProxy {
    fn drop(&mut self) {
        self.sigkill();
    }
}

/// `n` distinct ephemeral addresses, each held by its listener: a node
/// drops the one it takes right before it binds its address.
pub fn reserve_addrs(n: usize) -> Vec<(SocketAddr, TcpListener)> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
            (l.local_addr().expect("local addr"), l)
        })
        .collect()
}

/// One GET through the proxy; the response when it is a `200`.
pub fn fetch(addr: SocketAddr, url: &str) -> Option<Response> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    http::write_request(&mut s, &Request::get(url)).ok()?;
    let resp = http::read_response(&mut s).ok()?;
    (resp.status == 200).then_some(resp)
}

/// One GET through the proxy; `Some(is_cache_hit)` on a `200`.
pub fn get(addr: SocketAddr, url: &str) -> Option<bool> {
    fetch(addr, url).map(|resp| resp.is_cache_hit())
}

/// The number `/__webcache/stats` reports under its top-level `key`.
pub fn stat(addr: SocketAddr, key: &str) -> u64 {
    let resp = fetch(addr, "/__webcache/stats").expect("admin stats");
    let json = String::from_utf8(resp.body.to_vec()).expect("stats is UTF-8 JSON");
    let tail = json
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        .1;
    let digits = tail.split(|c: char| !c.is_ascii_digit()).next();
    digits
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a count in {json}"))
}

/// Hit rate over `urls` as a client observes it (`X-Cache: HIT`).
pub fn hit_rate<S: AsRef<str>>(addr: SocketAddr, urls: &[S]) -> f64 {
    let hits = urls
        .iter()
        .filter(|u| get(addr, u.as_ref()) == Some(true))
        .count();
    hits as f64 / urls.len().max(1) as f64
}

/// An empty scratch directory that removes itself.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wc-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The path as a command-line argument.
    pub fn arg(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The paper's Undergrad workload at `scale`, seed 1.
pub fn paper_trace(scale: f64) -> Trace {
    let profile = profiles::by_name("u").expect("profile u").scaled(scale);
    generator::generate(&profile, 1)
}

/// The URL of every request of `trace`, in order.
pub fn urls(trace: &Trace) -> Vec<&str> {
    trace
        .requests
        .iter()
        .map(|r| trace.interner.url_text(r.url).expect("interned url"))
        .collect()
}

/// A quarter of the bytes `trace` requests: the cache size at which its
/// replay evicts throughout.
pub fn quarter_capacity(trace: &Trace) -> u64 {
    trace.total_bytes() / 4
}

/// An origin document store holding every URL of `trace` at its
/// first-seen size (the origin serves synthetic bodies of that size).
pub fn seed_origin(trace: &Trace) -> Arc<DocStore> {
    let store = Arc::new(DocStore::new());
    let mut seen = vec![false; trace.interner.url_count()];
    for r in &trace.requests {
        if !std::mem::replace(&mut seen[r.url.0 as usize], true) {
            let url = trace.interner.url_text(r.url).expect("interned url");
            store.put_synthetic(url, r.size, r.last_modified.unwrap_or(1));
        }
    }
    store
}

/// What [`drive`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// `200` responses.
    pub ok: usize,
    /// Those marked `X-Cache: HIT`.
    pub hits: usize,
    /// Everything else: I/O errors and other statuses.
    pub errors: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.ok += other.ok;
        self.hits += other.hits;
        self.errors += other.errors;
    }
}

/// Replay `urls` from `threads` closed-loop clients (client `t` takes
/// every `threads`-th URL from `t` on), each request sent to `route(url)`.
pub fn drive(urls: &[&str], threads: usize, route: impl Fn(&str) -> SocketAddr + Sync) -> Tally {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let route = &route;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for url in urls.iter().skip(t).step_by(threads) {
                        match get(route(url), url) {
                            Some(hit) => {
                                tally.ok += 1;
                                tally.hits += hit as usize;
                            }
                            None => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        let mut sum = Tally::default();
        for client in clients {
            sum += client.join().expect("client thread");
        }
        sum
    })
}

/// One `GET` dribbled `chunk` bytes at a time with `pace` between them:
/// a client that is slow but alive. Whether the answer was a `200`; gives
/// up, as a failure, once `stop` is raised.
pub fn fetch_slowly(
    addr: SocketAddr,
    url: &str,
    chunk: usize,
    pace: Duration,
    stop: &AtomicBool,
) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let wire = format!("GET {url} HTTP/1.0\r\n\r\n");
    for bytes in wire.as_bytes().chunks(chunk) {
        if stop.load(Ordering::Relaxed) || stream.write_all(bytes).is_err() {
            return false;
        }
        std::thread::sleep(pace);
    }
    matches!(http::read_response(&mut stream), Ok(r) if r.status == 200)
}
