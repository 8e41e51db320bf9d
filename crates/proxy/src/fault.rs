//! Deterministic fault injection for the origin path.
//!
//! A [`FaultyOrigin`] is a TCP shim that sits between the proxy and a real
//! [`crate::origin::OriginServer`] (or any HTTP/1.0 upstream) and injects
//! failures according to a seeded [`FaultPlan`]: refused connections,
//! fixed delays, mid-body stalls, truncated bodies, `5xx` responses, and
//! sustained-slow (dribbled) bodies.
//! Because the plan is a pure function of `(seed, connection index)`,
//! tests can precompute exactly which connections will fail
//! ([`FaultPlan::schedule`]) and assert the proxy's degradation counters
//! against the injected plan — while still driving real sockets, real
//! timeouts, and real partial reads through the production code path.
//!
//! The schedule is per connection, so the shim opts out of persistent
//! connections: it serves one request per connection and says so
//! (`Connection: close`), whatever the client asked for. Every origin
//! fetch through it is therefore a fresh connection with its own index.

use crate::http::{self, Response};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the accepted connection immediately, before reading the
    /// request — the closest a userspace shim gets to a refused
    /// connection (the client sees EOF before any response byte).
    RefuseConnect,
    /// Hold the connection for [`FaultPlan::delay_for`] before serving
    /// normally. Transparent when shorter than the proxy's read timeout;
    /// a timeout-path trigger when longer.
    Delay,
    /// Send half of the encoded response (mid-body for bodied replies,
    /// mid-headers for bodyless ones such as `304`), then hold the
    /// socket open for [`FaultPlan::stall_for`] before dropping it — a
    /// wedged origin.
    StallMidBody,
    /// Send the response head with the full `Content-Length`, but only
    /// half the body bytes, then close.
    TruncateBody,
    /// Answer `503 Service Unavailable` without consulting the upstream.
    ServerError,
    /// Latency degradation rather than failure: serve the complete,
    /// correct response, but dribble the body out in small chunks spread
    /// over [`FaultPlan::slow_for`] — a congested or overloaded origin.
    /// Kept under the proxy's read timeout, the transfer succeeds but
    /// each affected miss pays the sustained slow-path cost.
    SlowBody,
}

impl FaultKind {
    /// Every fault kind, in cumulative-probability order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::RefuseConnect,
        FaultKind::Delay,
        FaultKind::StallMidBody,
        FaultKind::TruncateBody,
        FaultKind::ServerError,
        FaultKind::SlowBody,
    ];
}

/// SplitMix64 — the shared deterministic mixer (`webcache_core::util`,
/// the same one the workload generator seeds its per-day RNG streams
/// with and `ShardedCache` keys shards with); here it maps
/// `(seed, connection)` to a draw. Also used by the proxy's retry path
/// for deterministic backoff jitter.
pub(crate) use webcache_core::util::splitmix64;

/// A seeded, deterministic plan of which connections fail and how.
///
/// The decision for connection `i` depends only on the seed, the
/// per-kind probabilities, and the active range — never on timing or
/// thread interleaving — so a run under a plan is exactly reproducible
/// and a test can compute the expected fault schedule up front.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Probability of each kind, indexed as [`FaultKind::ALL`].
    rates: [f64; 6],
    /// Only connections in `[active_from, active_to)` are faulted.
    active_from: u64,
    active_to: u64,
    /// Hold time for [`FaultKind::Delay`].
    pub delay_for: Duration,
    /// Hold time for [`FaultKind::StallMidBody`].
    pub stall_for: Duration,
    /// Total dribble time for [`FaultKind::SlowBody`] — the body is
    /// spread evenly over this window.
    pub slow_for: Duration,
}

impl FaultPlan {
    /// A plan injecting nothing; compose with the rate builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 6],
            active_from: 0,
            active_to: u64::MAX,
            delay_for: Duration::from_millis(5),
            stall_for: Duration::from_millis(200),
            slow_for: Duration::from_millis(40),
        }
    }

    fn rate(mut self, kind: FaultKind, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let i = FaultKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL covers every kind");
        self.rates[i] = p;
        assert!(
            self.rates.iter().sum::<f64>() <= 1.0 + 1e-9,
            "fault probabilities sum past 1"
        );
        self
    }

    /// Refuse a fraction `p` of connections.
    pub fn refuse_connect(self, p: f64) -> FaultPlan {
        self.rate(FaultKind::RefuseConnect, p)
    }

    /// Delay a fraction `p` of connections by `hold` before serving.
    pub fn delay(mut self, p: f64, hold: Duration) -> FaultPlan {
        self.delay_for = hold;
        self.rate(FaultKind::Delay, p)
    }

    /// Stall a fraction `p` of responses mid-body, holding the socket
    /// for `hold` before dropping it.
    pub fn stall(mut self, p: f64, hold: Duration) -> FaultPlan {
        self.stall_for = hold;
        self.rate(FaultKind::StallMidBody, p)
    }

    /// Truncate a fraction `p` of response bodies.
    pub fn truncate(self, p: f64) -> FaultPlan {
        self.rate(FaultKind::TruncateBody, p)
    }

    /// Answer a fraction `p` of requests with `503`.
    pub fn server_error(self, p: f64) -> FaultPlan {
        self.rate(FaultKind::ServerError, p)
    }

    /// Slow a fraction `p` of responses: the full body still arrives,
    /// dribbled evenly over `total`. Keep `total` under the proxy's read
    /// timeout to model sustained degradation rather than failure.
    pub fn slow_body(mut self, p: f64, total: Duration) -> FaultPlan {
        self.slow_for = total;
        self.rate(FaultKind::SlowBody, p)
    }

    /// Restrict faults to connections `from..to` (half-open), e.g. to
    /// let a warm-up phase through cleanly or to end an outage.
    pub fn active_range(mut self, from: u64, to: u64) -> FaultPlan {
        self.active_from = from;
        self.active_to = to;
        self
    }

    /// Aggregate fault probability while the plan is active.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The fault (if any) injected on connection `conn`.
    pub fn decide(&self, conn: u64) -> Option<FaultKind> {
        if conn < self.active_from || conn >= self.active_to {
            return None;
        }
        // 53 high bits → uniform draw in [0, 1).
        let draw = (splitmix64(self.seed ^ conn.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64
            / (1u64 << 53) as f64;
        let mut cumulative = 0.0;
        for (i, &p) in self.rates.iter().enumerate() {
            cumulative += p;
            if draw < cumulative {
                return Some(FaultKind::ALL[i]);
            }
        }
        None
    }

    /// The full fault schedule for the first `n` connections.
    pub fn schedule(&self, n: u64) -> Vec<Option<FaultKind>> {
        (0..n).map(|c| self.decide(c)).collect()
    }
}

/// Per-kind counters of faults actually injected, plus clean
/// pass-throughs.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Connections dropped before reading the request.
    pub refused: AtomicU64,
    /// Connections delayed, then served.
    pub delayed: AtomicU64,
    /// Responses stalled mid-body and dropped.
    pub stalled: AtomicU64,
    /// Responses truncated mid-body.
    pub truncated: AtomicU64,
    /// Requests answered `503` without reaching the upstream.
    pub server_errors: AtomicU64,
    /// Responses served complete but dribbled slowly.
    pub slowed: AtomicU64,
    /// Connections proxied through untouched.
    pub passed: AtomicU64,
}

impl FaultStats {
    /// Total faults injected (everything but clean pass-throughs).
    pub fn injected(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.stalled.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.server_errors.load(Ordering::Relaxed)
            + self.slowed.load(Ordering::Relaxed)
    }
}

/// A fault-injecting TCP shim in front of an HTTP/1.0 upstream.
pub struct FaultyOrigin {
    addr: SocketAddr,
    connections: Arc<AtomicU64>,
    stats: Arc<FaultStats>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FaultyOrigin {
    /// Start the shim on an ephemeral localhost port, forwarding clean
    /// connections to `upstream`.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<FaultyOrigin> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let connections = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(FaultStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let connections = Arc::clone(&connections);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let index = connections.fetch_add(1, Ordering::SeqCst);
                    let plan = plan.clone();
                    let stats = Arc::clone(&stats);
                    std::thread::spawn(move || {
                        let _ = serve_faulty(&mut stream, upstream, &plan, &stats, index);
                    });
                }
            })
        };
        Ok(FaultyOrigin {
            addr,
            connections,
            stats,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The shim's socket address — hand this to the proxy as its origin.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (fault indices run `0..connections`).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

impl Drop for FaultyOrigin {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Forward one request to the upstream — on a connection of its own, with
/// the client's `Connection` header dropped — and return its response.
fn forward(upstream: SocketAddr, mut req: http::Request) -> Result<Response, http::HttpError> {
    req.headers.remove("connection");
    let mut s = TcpStream::connect(upstream)?;
    http::write_request(&mut s, &req)?;
    Ok(http::read_response(&mut s)?.with_connection(false))
}

fn serve_faulty(
    stream: &mut TcpStream,
    upstream: SocketAddr,
    plan: &FaultPlan,
    stats: &FaultStats,
    index: u64,
) -> Result<(), http::HttpError> {
    match plan.decide(index) {
        Some(FaultKind::RefuseConnect) => {
            stats.refused.fetch_add(1, Ordering::Relaxed);
            // Drop without reading: the client sees EOF in place of a
            // status line.
            Ok(())
        }
        Some(FaultKind::ServerError) => {
            stats.server_errors.fetch_add(1, Ordering::Relaxed);
            let _ = http::read_request(stream)?;
            http::write_response(stream, &Response::status_only(503).with_connection(false))
        }
        Some(FaultKind::Delay) => {
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(plan.delay_for);
            let req = http::read_request(stream)?;
            let resp = forward(upstream, req)?;
            http::write_response(stream, &resp)
        }
        Some(FaultKind::StallMidBody) => {
            stats.stalled.fetch_add(1, Ordering::Relaxed);
            let req = http::read_request(stream)?;
            let resp = forward(upstream, req)?;
            // Half of the whole encoded response, then go silent while
            // holding the socket open: the client's read must time out.
            // Byte-identical to concatenating head+body and halving, but
            // written segment-wise so the full wire image is never
            // assembled in a throwaway buffer.
            let head = http::encode_response_head(&resp);
            let half = (head.len() + resp.body.len()) / 2;
            if half <= head.len() {
                stream.write_all(&head[..half])?;
            } else {
                stream.write_all(&head)?;
                stream.write_all(&resp.body[..half - head.len()])?;
            }
            stream.flush()?;
            std::thread::sleep(plan.stall_for);
            Ok(())
        }
        Some(FaultKind::TruncateBody) => {
            stats.truncated.fetch_add(1, Ordering::Relaxed);
            let req = http::read_request(stream)?;
            let resp = forward(upstream, req)?;
            // A truthful head, then only half the promised body and an
            // immediate close: the client sees a short read, not a hang.
            stream.write_all(&http::encode_response_head(&resp))?;
            stream.write_all(&resp.body[..resp.body.len() / 2])?;
            stream.flush()?;
            Ok(())
        }
        Some(FaultKind::SlowBody) => {
            stats.slowed.fetch_add(1, Ordering::Relaxed);
            let req = http::read_request(stream)?;
            let resp = forward(upstream, req)?;
            // Head promptly, then the body in small chunks paced so the
            // whole transfer spans `slow_for`: every byte arrives and the
            // response is correct, just slow. Per-chunk pauses stay well
            // under any sane read timeout, so this degrades latency
            // without tripping the failure paths.
            stream.write_all(&http::encode_response_head(&resp))?;
            stream.flush()?;
            let chunks = 8usize.min(resp.body.len().max(1));
            let pause = plan.slow_for / chunks as u32;
            let chunk_len = resp.body.len().div_ceil(chunks);
            for chunk in resp.body.chunks(chunk_len.max(1)) {
                std::thread::sleep(pause);
                stream.write_all(chunk)?;
                stream.flush()?;
            }
            Ok(())
        }
        None => {
            stats.passed.fetch_add(1, Ordering::Relaxed);
            let req = http::read_request(stream)?;
            let resp = forward(upstream, req)?;
            http::write_response(stream, &resp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::new(42).refuse_connect(0.1).server_error(0.2);
        let a = plan.schedule(10_000);
        let b = plan.schedule(10_000);
        assert_eq!(a, b, "same seed must give the same schedule");
        let refused = a
            .iter()
            .filter(|f| **f == Some(FaultKind::RefuseConnect))
            .count() as f64;
        let errors = a
            .iter()
            .filter(|f| **f == Some(FaultKind::ServerError))
            .count() as f64;
        assert!((refused / 10_000.0 - 0.1).abs() < 0.02, "refuse rate off");
        assert!((errors / 10_000.0 - 0.2).abs() < 0.02, "error rate off");
        let other = FaultPlan::new(43).refuse_connect(0.1).server_error(0.2);
        assert_ne!(other.schedule(10_000), a, "different seeds must differ");
    }

    #[test]
    fn active_range_gates_faults() {
        let plan = FaultPlan::new(7).server_error(1.0).active_range(3, 6);
        let s = plan.schedule(10);
        for (i, f) in s.iter().enumerate() {
            if (3..6).contains(&i) {
                assert_eq!(*f, Some(FaultKind::ServerError));
            } else {
                assert_eq!(*f, None);
            }
        }
        assert!((plan.total_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum past 1")]
    fn overfull_plans_are_rejected() {
        let _ = FaultPlan::new(1).refuse_connect(0.6).server_error(0.6);
    }
}
