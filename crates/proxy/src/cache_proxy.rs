//! The caching proxy itself: a CERN-style HTTP/1.0 proxy whose removal
//! decisions are made by a `webcache-core` policy.
//!
//! The proxy implements the three cases of section 1 of the paper:
//!
//! 1. a cached copy estimated consistent → serve it (hit);
//! 2. a cached copy past its freshness lifetime → conditional GET to the
//!    origin; `304` refreshes the copy (still a hit — no bytes moved),
//!    `200` replaces it (miss);
//! 3. no copy → forward the GET to the origin and cache the result.
//!
//! When the origin misbehaves the proxy degrades instead of failing:
//! every origin fetch (one exchange on the worker's persistent origin
//! connection, [`crate::upstream`]) runs under connect/read timeouts,
//! failed fetches are retried with exponential backoff and deterministic
//! jitter, a per-origin circuit breaker fast-fails while an origin is
//! known bad (closed → open → half-open), and a stale cached copy is
//! served — with a `Warning: 110` degraded marker — when revalidation
//! fails entirely (`stale-if-error` semantics). Every degradation is
//! counted in [`ProxyStats`].
//!
//! ## Concurrency
//!
//! The serving path is built on [`ShardedCache`]: document metadata,
//! bodies and freshness stamps for one URL all live under that URL's
//! shard lock (the proxy's maps ride in the shard extension slot), so a
//! request takes exactly one shard lock on the cache path and never
//! holds it across network I/O. Connections are accepted into a bounded
//! queue drained by a fixed pool of worker threads
//! ([`ProxyConfig::workers`]); when the queue is full the proxy refuses
//! the connection with `503` rather than growing without bound
//! (counted in [`ProxyStats::rejected`]).

use crate::accesslog::AccessLog;
use crate::cluster::{self, ClusterConfig, ClusterState};
use crate::fault::splitmix64;
use crate::http::HttpError;
use crate::http::{self, Request, Response};
use crate::iofault::IoFaultInjector;
use crate::persist::{self, JournalOp, PersistConfig, PersistError};
use crate::upstream::{Fetched, Upstream};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use webcache_core::cache::{CacheState, DocMeta, Outcome, RestoreOutcome, ShardedCache};
use webcache_core::cluster::Membership;
use webcache_core::policy::RemovalPolicy;
use webcache_trace::{ClientId, DocType, Interner, ServerId, UrlId};

/// How the proxy front end multiplexes client connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingBackend {
    /// One worker thread per in-flight connection: workers block on
    /// client reads and writes, so concurrency is bounded by
    /// [`ProxyConfig::workers`] + [`ProxyConfig::queue_depth`]. The
    /// original design; kept as the semantic reference.
    #[default]
    Threaded,
    /// A readiness-driven reactor: one event-loop thread owns every
    /// client socket in non-blocking mode and drives per-connection
    /// state machines; worker threads only run cache/origin work. Slow
    /// or idle clients cost a few kilobytes of buffer, never a thread.
    Reactor,
}

impl ServingBackend {
    /// Parse a backend name (`threaded` / `reactor`), as accepted by
    /// `--serving-backend` and `WEBCACHE_SERVING_BACKEND`.
    pub fn parse(s: &str) -> Option<ServingBackend> {
        match s.to_ascii_lowercase().as_str() {
            "threaded" => Some(ServingBackend::Threaded),
            "reactor" => Some(ServingBackend::Reactor),
            _ => None,
        }
    }

    /// The backend's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            ServingBackend::Threaded => "threaded",
            ServingBackend::Reactor => "reactor",
        }
    }
}

/// Proxy configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Number of cache shards (nonzero power of two). `1` — the default —
    /// reproduces the paper's monolithic cache bit-for-bit; higher values
    /// partition both the lock and the capacity per shard (each shard
    /// gets `capacity / shards` bytes — see the
    /// `webcache_core::cache::sharded` module docs for the accounting
    /// invariant). Serving deployments set this from `--shards`.
    pub shards: usize,
    /// Worker threads draining the connection queue. Defaults to 4× the
    /// machine's available parallelism.
    pub workers: usize,
    /// Bound on connections waiting for a worker; a connection arriving
    /// beyond it is refused with `503` (counted in
    /// [`ProxyStats::rejected`]) instead of queueing without bound.
    pub queue_depth: usize,
    /// Freshness lifetime in seconds: a copy older than this is
    /// revalidated with a conditional GET. `None` trusts copies forever
    /// (the simulator's behaviour for unchanged sizes).
    pub ttl: Option<u64>,
    /// TCP connect timeout for origin fetches.
    pub connect_timeout: Duration,
    /// Read/write timeout on an established origin connection — bounds
    /// how long a stalled origin can wedge a request. Also applied to
    /// client connections, so a client stalling mid-request cannot pin a
    /// worker forever (it gets `504`).
    pub read_timeout: Duration,
    /// Retries after the first failed fetch (total attempts = 1 + this).
    pub max_retries: u32,
    /// Base of the exponential backoff between retries; attempt `n`
    /// sleeps `base * 2^(n-1)` plus deterministic jitter in `[0, base/2)`.
    pub backoff_base: Duration,
    /// Consecutive exhausted fetches to one origin host before its
    /// circuit breaker opens.
    pub breaker_threshold: u32,
    /// Logical-clock ticks an open breaker waits before letting one
    /// half-open probe through. Logical (one tick per proxy request), not
    /// wall time, so breaker behaviour is deterministic under test.
    pub breaker_cooldown: u64,
    /// Serve an expired cached copy (marked degraded) when revalidation
    /// fails, instead of surfacing the origin error.
    pub serve_stale: bool,
    /// Which serving front end multiplexes client connections. Defaults
    /// to [`ServingBackend::Threaded`] unless the
    /// `WEBCACHE_SERVING_BACKEND` environment variable overrides it (so
    /// an unmodified test suite can be replayed against the reactor).
    pub backend: ServingBackend,
    /// Record one CLF-like line per served request (the default), in a
    /// ring of the last 4096. The ring is behind one mutex and allocates
    /// until its line buffers have grown, so benchmarks and the
    /// steady-state allocation test turn it off.
    pub access_log: bool,
}

impl ProxyConfig {
    /// A config with the given capacity, no TTL, one shard, and
    /// resilience defaults: 1 s connect / 2 s read timeouts, 2 retries
    /// with 10 ms backoff base, breaker opening after 5 failures for 32
    /// ticks, serve-stale on, 4×cores workers over a 16×workers queue.
    pub fn new(capacity: u64) -> ProxyConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = 4 * cores;
        ProxyConfig {
            capacity,
            shards: 1,
            workers,
            queue_depth: 16 * workers,
            ttl: None,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            breaker_threshold: 5,
            breaker_cooldown: 32,
            serve_stale: true,
            backend: std::env::var("WEBCACHE_SERVING_BACKEND")
                .ok()
                .and_then(|v| ServingBackend::parse(&v))
                .unwrap_or_default(),
            access_log: true,
        }
    }

    /// Enable or disable the per-request access log.
    pub fn with_access_log(mut self, on: bool) -> ProxyConfig {
        self.access_log = on;
        self
    }

    /// Set the serving backend explicitly (overrides the environment).
    pub fn with_backend(mut self, backend: ServingBackend) -> ProxyConfig {
        self.backend = backend;
        self
    }

    /// Set the shard count (must be a nonzero power of two).
    pub fn with_shards(mut self, shards: usize) -> ProxyConfig {
        self.shards = shards;
        self
    }

    /// Set the worker-pool size and the connection-queue bound.
    pub fn with_workers(mut self, workers: usize, queue_depth: usize) -> ProxyConfig {
        self.workers = workers;
        self.queue_depth = queue_depth;
        self
    }

    /// Set the freshness lifetime (logical seconds).
    pub fn with_ttl(mut self, ttl: u64) -> ProxyConfig {
        self.ttl = Some(ttl);
        self
    }

    /// Set retry count and backoff base.
    pub fn with_retries(mut self, max_retries: u32, backoff_base: Duration) -> ProxyConfig {
        self.max_retries = max_retries;
        self.backoff_base = backoff_base;
        self
    }

    /// Set connect and read timeouts.
    pub fn with_timeouts(mut self, connect: Duration, read: Duration) -> ProxyConfig {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self
    }

    /// Set circuit-breaker threshold and cooldown (in logical ticks).
    pub fn with_breaker(mut self, threshold: u32, cooldown: u64) -> ProxyConfig {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Enable or disable serve-stale-on-error.
    pub fn with_serve_stale(mut self, on: bool) -> ProxyConfig {
        self.serve_stale = on;
        self
    }
}

/// Counters the proxy exposes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStats {
    /// Client requests handled.
    pub requests: u64,
    /// Served from cache without touching the origin.
    pub hits: u64,
    /// Revalidations answered `304` (hits that cost one round trip).
    pub revalidated: u64,
    /// Full fetches from the origin.
    pub misses: u64,
    /// Bytes served from cache.
    pub bytes_from_cache: u64,
    /// Bytes fetched from the origin.
    pub bytes_from_origin: u64,
    /// Retry attempts after a failed origin fetch.
    pub retries: u64,
    /// Origin fetch attempts that timed out (connect or read).
    pub timeouts: u64,
    /// Origin fetches that failed even after all retries.
    pub origin_failures: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Fetches refused locally because a breaker was open.
    pub breaker_fast_fails: u64,
    /// Expired copies served (degraded) because revalidation failed.
    pub stale_serves: u64,
    /// Connections refused with `503` because the worker queue was full.
    pub rejected: u64,
    /// Journal records never written to disk (journaling suspended while
    /// degraded, or an append batch failed). Durability loss, not data
    /// loss: the next successful snapshot re-covers the live state.
    pub journal_lost_records: u64,
    /// Journal records evicted drop-oldest from a full per-shard buffer
    /// (stalled persister). Each occurrence forces a full snapshot
    /// before the journal is trusted again.
    pub journal_dropped: u64,
    /// `Healthy -> Degraded` persistence transitions (one per fault
    /// episode).
    pub persist_degraded: u64,
    /// `Degraded -> Healthy` recoveries (re-arm probe + snapshot
    /// succeeded).
    pub persist_heals: u64,
    /// Peer lookups attempted on local misses (cluster mode only).
    pub peer_lookups: u64,
    /// Peer lookups answered with a fresh copy — served without an
    /// origin fetch, counted in [`ProxyStats::hits`] as well.
    pub peer_hits: u64,
    /// Peer lookups answered `MISS` by a healthy owner.
    pub peer_misses: u64,
    /// Peer lookups that failed (error, timeout, or breaker fast-fail);
    /// each one fell through to the origin, never to the client.
    pub peer_failures: u64,
    /// Inbound peer queries this node answered with a fresh copy.
    pub peer_served: u64,
}

impl ProxyStats {
    /// Hit rate (cache-served plus revalidated, over all requests) —
    /// both avoid refetching the body.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.hits + self.revalidated) as f64 / self.requests as f64
        }
    }
}

/// Lock-free mirror of [`ProxyStats`], bumped by worker threads.
#[derive(Debug, Default)]
struct AtomicProxyStats {
    requests: AtomicU64,
    hits: AtomicU64,
    revalidated: AtomicU64,
    misses: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_from_origin: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    origin_failures: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
    stale_serves: AtomicU64,
    rejected: AtomicU64,
}

impl AtomicProxyStats {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ProxyStats {
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            revalidated: self.revalidated.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_from_cache: self.bytes_from_cache.load(Ordering::Relaxed),
            bytes_from_origin: self.bytes_from_origin.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            origin_failures: self.origin_failures.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            // Persistence-health counters live on `PersistHealthState`
            // and peer counters on `ClusterState`; `ProxyServer::stats`
            // and the admin endpoint merge them in.
            ..ProxyStats::default()
        }
    }
}

/// Circuit-breaker state for one origin host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BreakerState {
    /// Fetches flow normally; consecutive failures are counted.
    #[default]
    Closed,
    /// Fetches fast-fail locally until the cooldown elapses.
    Open,
    /// One probe fetch is allowed through; its outcome decides whether
    /// the breaker closes again or re-opens.
    HalfOpen,
}

#[derive(Debug, Default)]
struct Breaker {
    state: BreakerState,
    /// Consecutive exhausted fetches while closed.
    failures: u32,
    /// Logical tick at which the breaker last opened.
    opened_at: u64,
}

/// What a breaker says to a fetch about to start.
enum Admission {
    /// Closed with no failure on record — the common case; a success
    /// then has nothing to clear.
    Pristine,
    /// Closed, with failures a success clears.
    Closed,
    /// Half-open: one probe attempt, whose outcome decides.
    Probe,
    /// Open and inside its cooldown: fail fast.
    Refused,
}

/// Why a resilient origin fetch returned no response.
#[derive(Debug)]
enum FetchError {
    /// The host's breaker is open; no connection was attempted.
    BreakerOpen,
    /// Every attempt failed; `timed_out` if any attempt hit a timeout.
    Exhausted { timed_out: bool },
}

/// Persistence health, as seen by operators and the exit status.
///
/// The proxy *serves* in every state; only durability varies:
///
/// * [`Healthy`](PersistHealth::Healthy) — journal + snapshots as
///   designed; loss window is the journal fsync interval.
/// * [`Degraded`](PersistHealth::Degraded) — a persist write failed.
///   Journaling is suspended (an errored journal file may be torn, so
///   further appends would be unreadable anyway) but snapshots continue
///   on cadence: the loss window widens from the fsync interval to the
///   snapshot interval. A re-arm probe retries the disk with capped
///   exponential backoff; on success one full snapshot heals the gap
///   and journaling resumes.
/// * [`Disabled`](PersistHealth::Disabled) — the probe failed
///   `degraded_max_retries` times in a row. Persistence is switched off
///   entirely (journal buffers freed); the proxy keeps serving from
///   memory and the exit status reports the loss.
///
/// Invariant in every state: a degraded or healed store may restart
/// *colder*, never *wrong* — replay truncates at the first torn frame
/// or sequence gap, and every recovered body is checksum-verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistHealth {
    /// Journal + snapshots operating normally.
    Healthy,
    /// Journaling suspended, snapshot-grade durability, probing to heal.
    Degraded,
    /// Persistence off; serving continues from memory only.
    Disabled,
}

impl PersistHealth {
    /// Lowercase state name as printed in log lines.
    pub fn name(&self) -> &'static str {
        match self {
            PersistHealth::Healthy => "healthy",
            PersistHealth::Degraded => "degraded",
            PersistHealth::Disabled => "disabled",
        }
    }

    fn from_u8(v: u8) -> PersistHealth {
        match v {
            0 => PersistHealth::Healthy,
            1 => PersistHealth::Degraded,
            _ => PersistHealth::Disabled,
        }
    }
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_DISABLED: u8 = 2;

/// Shared persistence-health state: the current [`PersistHealth`] plus
/// durability-loss accounting. Worker threads read `state` on every
/// journaled mutation; only the persister thread transitions it.
#[derive(Debug, Default)]
pub struct PersistHealthState {
    /// Encoded [`PersistHealth`] (`0`/`1`/`2`).
    state: AtomicU8,
    /// `Healthy -> Degraded` edges (one per fault episode).
    degraded_transitions: AtomicU64,
    /// `Degraded -> Healthy` edges.
    heals: AtomicU64,
    /// Records never written: suspended journaling + failed appends.
    lost_records: AtomicU64,
    /// Records evicted drop-oldest from a full buffer.
    dropped_records: AtomicU64,
    /// Set when dropped records mean the journal alone no longer covers
    /// the snapshot gap; the persister must snapshot before trusting it.
    force_snapshot: AtomicBool,
}

impl PersistHealthState {
    /// Current health.
    pub fn health(&self) -> PersistHealth {
        PersistHealth::from_u8(self.state.load(Ordering::Acquire))
    }

    /// `Healthy -> Degraded` transitions so far.
    pub fn degraded_transitions(&self) -> u64 {
        self.degraded_transitions.load(Ordering::Relaxed)
    }

    /// `Degraded -> Healthy` recoveries so far.
    pub fn heals(&self) -> u64 {
        self.heals.load(Ordering::Relaxed)
    }

    /// Journal records lost to suspension or failed appends.
    pub fn lost_records(&self) -> u64 {
        self.lost_records.load(Ordering::Relaxed)
    }

    /// Journal records dropped oldest-first from a full buffer.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records.load(Ordering::Relaxed)
    }

    /// Whether new journal records are being accepted.
    fn is_accepting(&self) -> bool {
        self.state.load(Ordering::Acquire) == HEALTH_HEALTHY
    }

    /// Count `n` records that never reached the journal.
    fn count_lost(&self, n: u64) {
        self.lost_records.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` records evicted drop-oldest and demand a snapshot: the
    /// journal's tail no longer joins up with the last snapshot.
    fn record_overflow(&self, n: u64) {
        self.dropped_records.fetch_add(n, Ordering::Relaxed);
        self.force_snapshot.store(true, Ordering::Release);
    }

    /// Consume a pending forced-snapshot demand.
    fn take_force_snapshot(&self) -> bool {
        self.force_snapshot.swap(false, Ordering::AcqRel)
    }

    /// Begin a fault episode. Only a `Healthy` store transitions (a
    /// store already degraded stays in its episode); returns whether
    /// this call was the edge.
    fn degrade(&self, context: &str, e: &PersistError) -> bool {
        let edged = self
            .state
            .compare_exchange(
                HEALTH_HEALTHY,
                HEALTH_DEGRADED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if edged {
            self.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            println!(
                "webcache-proxy: persist: health degraded ({context}: {e}); \
                 journaling suspended, snapshots continue, serving unaffected"
            );
        }
        edged
    }

    /// End a fault episode after a successful probe + snapshot.
    fn heal(&self) {
        let edged = self
            .state
            .compare_exchange(
                HEALTH_DEGRADED,
                HEALTH_HEALTHY,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if edged {
            self.heals.fetch_add(1, Ordering::Relaxed);
            println!(
                "webcache-proxy: persist: health healed \
                 (snapshot committed, journaling resumed)"
            );
        }
    }

    /// Give up on the disk after `probes` consecutive failed probes.
    fn disable(&self, probes: u32) {
        if self.state.swap(HEALTH_DISABLED, Ordering::AcqRel) != HEALTH_DISABLED {
            println!(
                "webcache-proxy: persist: health disabled after {probes} failed \
                 probe(s); serving continues without persistence"
            );
        }
    }
}

/// Per-shard buffer of journal records awaiting the persister's next
/// drain. Sequence numbers are assigned here, under the shard lock, so
/// records for one shard are totally ordered. The buffer is bounded
/// (`PersistConfig::journal_buf_records`): a stalled persister costs
/// the oldest records (counted, snapshot forced), never unbounded
/// memory.
#[derive(Debug)]
struct JournalBuf {
    /// Records not yet handed to the persister thread.
    pending: VecDeque<(u64, JournalOp)>,
    /// Next sequence number to assign (starts at 1; replay treats
    /// `seq <= snapshot.seq` as already covered).
    next_seq: u64,
    /// Maximum `pending` length before drop-oldest kicks in.
    cap: usize,
    /// Shared health: gates acceptance and takes the loss accounting.
    health: Arc<PersistHealthState>,
}

/// Per-shard proxy sidecar, guarded by the owning shard's lock: body
/// bytes and fetch times for the documents resident in that shard.
#[derive(Debug, Default)]
struct ShardExt {
    bodies: HashMap<UrlId, Bytes>,
    /// Fetch time per resident document (for TTL freshness).
    fetched_at: HashMap<UrlId, u64>,
    /// Journal buffer — `Some` only when the proxy was started with
    /// persistence ([`ProxyServer::start_persistent`]). `None` keeps the
    /// non-persistent hit path allocation-free.
    journal: Option<Box<JournalBuf>>,
}

impl ShardExt {
    /// Record a cache mutation for the journal; no-op without persistence.
    fn log_op(&mut self, op: JournalOp) {
        if let Some(j) = self.journal.as_deref_mut() {
            if !j.health.is_accepting() {
                // Journaling suspended (degraded disk): the mutation is
                // durability loss until the next snapshot covers it.
                // `next_seq` does not advance, so post-heal records stay
                // contiguous with the healing snapshot's sequence.
                j.health.count_lost(1);
                return;
            }
            let seq = j.next_seq;
            j.next_seq += 1;
            j.pending.push_back((seq, op));
            let mut dropped = 0u64;
            while j.pending.len() > j.cap {
                j.pending.pop_front();
                dropped += 1;
            }
            if dropped > 0 {
                j.health.record_overflow(dropped);
            }
        }
    }
}

/// Shared proxy state. The cache path locks only the owning shard; the
/// remaining fields are either atomics or their own short-lived locks,
/// never held across network I/O.
pub(crate) struct ProxyState {
    cache: ShardedCache<ShardExt>,
    interner: Mutex<Interner>,
    stats: AtomicProxyStats,
    /// Logical clock: advances by one per request, so ATIME/ETIME/NREF
    /// behave exactly as in simulation. Wall time is deliberately not
    /// used — tests stay deterministic.
    now: AtomicU64,
    /// Per-origin-host circuit breakers.
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Counter feeding deterministic backoff jitter.
    jitter_seq: AtomicU64,
    /// Units of work that occupied a worker thread: one per connection
    /// under the threaded backend, one per dispatched cache/origin job
    /// under the reactor (inline fast-path hits never count). Not part
    /// of [`ProxyStats`] — it describes the serving engine, not the
    /// cache — but observable via [`ProxyServer::worker_jobs`].
    worker_jobs: AtomicU64,
    log: Mutex<AccessLog>,
    /// Cluster state when running as a cluster node
    /// ([`ProxyServer::start_clustered`]); `None` single-node.
    cluster: Option<Arc<ClusterState>>,
    /// Persistence health, mirrored here (set once at startup) so the
    /// admin stats endpoint can report it from any serving thread.
    persist_health: OnceLock<Arc<PersistHealthState>>,
}

impl ProxyState {
    /// Count a connection refused with `503` (queue full).
    pub(crate) fn count_rejected(&self) {
        AtomicProxyStats::add(&self.stats.rejected, 1);
    }

    /// Count one unit of work occupying a worker thread.
    pub(crate) fn count_worker_job(&self) {
        AtomicProxyStats::add(&self.worker_jobs, 1);
    }

    /// Append a line to the access log when it is on: a `200` of `size`
    /// bytes for `target`, served as `outcome` (`HIT`, `MISS`, …).
    fn log_access(&self, on: bool, now: u64, target: &str, size: u64, outcome: &str) {
        if on {
            self.log.lock().record(now, target, size, outcome);
        }
    }
}

/// A bounded MPMC handoff of accepted connections to the worker pool.
/// `push` never blocks: a full queue refuses the connection, which the
/// acceptor turns into a `503`.
struct ConnQueue {
    inner: StdMutex<QueueInner>,
    ready: Condvar,
    depth: usize,
}

struct QueueInner {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(depth: usize) -> ConnQueue {
        ConnQueue {
            inner: StdMutex::new(QueueInner {
                conns: VecDeque::with_capacity(depth),
                closed: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Enqueue a connection, or hand it back if the queue is full/closed.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.closed || q.conns.len() >= self.depth {
            return Err(stream);
        }
        q.conns.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a connection is available; `None` once the queue is
    /// closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(s) = q.conns.pop_front() {
                return Some(s);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

/// A running caching proxy.
pub struct ProxyServer {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    backend: Backend,
    /// Background persister, when started via
    /// [`ProxyServer::start_persistent`]. Stopped (with a final journal
    /// flush and snapshot) after the backend drains on drop.
    persist: Option<PersistRuntime>,
    recovered: Option<RecoveryReport>,
    /// Peer listener runtime, when started via
    /// [`ProxyServer::start_clustered`].
    cluster: Option<ClusterRuntime>,
}

/// Handle to the background persister thread.
struct PersistRuntime {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
    health: Arc<PersistHealthState>,
}

/// Handle to the cluster peer listener thread.
struct ClusterRuntime {
    shutdown: Arc<AtomicBool>,
    /// The bound peer-port address (used to wake the accept loop on
    /// shutdown).
    peer_addr: SocketAddr,
    listener: Option<std::thread::JoinHandle<()>>,
}

/// What [`ProxyServer::start_persistent`] rebuilt from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Documents resident after recovery (snapshot docs with verified
    /// bodies, plus journal-replayed inserts, minus replayed evictions).
    pub docs: u64,
    /// Bytes resident in the cache after recovery.
    pub bytes: u64,
    /// Journal records replayed on top of the snapshots.
    pub replayed: u64,
    /// Snapshot documents dropped because their body was missing,
    /// truncated, or failed its checksum — these become misses.
    pub quarantined: u64,
    /// Journals whose replay was cut short by a torn frame, checksum
    /// mismatch, or sequence gap — durability the previous run lost
    /// (e.g. to a faulting disk), surfaced rather than guessed at.
    pub truncated_journals: u64,
}

/// The running serving engine behind a [`ProxyServer`].
enum Backend {
    Threaded {
        queue: Arc<ConnQueue>,
        shutdown: Arc<AtomicBool>,
        acceptor: Option<std::thread::JoinHandle<()>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    },
    Reactor(crate::reactor::Reactor),
}

impl ProxyServer {
    /// Start a proxy forwarding misses to `origin`. `policy` constructs
    /// one removal-policy instance per shard ([`ProxyConfig::shards`]).
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is not a nonzero power of two, when
    /// the per-shard capacity rounds to zero, or when `config.workers`
    /// or `config.queue_depth` is zero.
    pub fn start(
        origin: SocketAddr,
        config: ProxyConfig,
        policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> std::io::Result<ProxyServer> {
        assert!(
            config.workers > 0,
            "worker pool must have at least one thread"
        );
        assert!(
            config.queue_depth > 0,
            "connection queue must hold at least one connection"
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = new_state(&config, None, policy);
        let backend = start_backend(listener, origin, config, &state)?;
        Ok(ProxyServer {
            addr,
            state,
            backend,
            persist: None,
            recovered: None,
            cluster: None,
        })
    }

    /// Start a proxy as one node of a cache cluster (design decision
    /// D17). In addition to serving clients, the node binds its peer
    /// port from the seed list and answers ICP-style peer queries from
    /// its local cache; on a local miss for a key another node owns, it
    /// asks the owner (one bounded attempt, peer-breaker guarded)
    /// before falling through to the origin. A dead peer therefore
    /// degrades this node to single-node behaviour — never an error —
    /// and a tripped peer breaker bumps the membership epoch without
    /// the dead node, re-homing its keys onto the survivors.
    ///
    /// # Panics
    ///
    /// As [`ProxyServer::start`]; additionally panics when
    /// `cluster_cfg.node_id` is missing from its own seed list.
    pub fn start_clustered(
        origin: SocketAddr,
        config: ProxyConfig,
        cluster_cfg: ClusterConfig,
        policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> std::io::Result<ProxyServer> {
        assert!(
            config.workers > 0,
            "worker pool must have at least one thread"
        );
        assert!(
            config.queue_depth > 0,
            "connection queue must hold at least one connection"
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let cluster = Arc::new(ClusterState::new(cluster_cfg));
        let peer_addr = cluster
            .config()
            .self_addr()
            .expect("ClusterState::new checked the seed list");
        let peer_listener = TcpListener::bind(peer_addr)?;
        let state = new_state(&config, Some(Arc::clone(&cluster)), policy);

        let shutdown = Arc::new(AtomicBool::new(false));
        let listener_thread = {
            let state = Arc::clone(&state);
            let cluster = Arc::clone(&cluster);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for conn in peer_listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Peer exchanges are one short frame each way;
                    // a thread per connection is plenty.
                    let state = Arc::clone(&state);
                    let cluster = Arc::clone(&cluster);
                    std::thread::spawn(move || {
                        serve_peer_connection(stream, config, &state, &cluster)
                    });
                }
            })
        };
        cluster::startup_exchange(&cluster);

        let backend = start_backend(listener, origin, config, &state)?;
        Ok(ProxyServer {
            addr,
            state,
            backend,
            persist: None,
            recovered: None,
            cluster: Some(ClusterRuntime {
                shutdown,
                peer_addr,
                listener: Some(listener_thread),
            }),
        })
    }

    /// Start a proxy with crash-safe persistence: recover the warm cache
    /// from `persist_cfg.dir` (newest valid snapshots plus journal
    /// replay, bodies checksum-verified), then serve while a background
    /// persister journals every cache mutation (group-fsynced every
    /// [`PersistConfig::journal_fsync`]) and takes a point-in-time
    /// snapshot every [`PersistConfig::snapshot_interval`]. Dropping the
    /// server flushes the journal and takes a final snapshot.
    ///
    /// Recovery never fails: corrupt or torn files only make the restart
    /// colder, and every degradation is reported on stdout.
    ///
    /// # Panics
    ///
    /// As [`ProxyServer::start`].
    pub fn start_persistent(
        origin: SocketAddr,
        config: ProxyConfig,
        persist_cfg: PersistConfig,
        policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> Result<ProxyServer, PersistError> {
        assert!(
            config.workers > 0,
            "worker pool must have at least one thread"
        );
        assert!(
            config.queue_depth > 0,
            "connection queue must hold at least one connection"
        );
        std::fs::create_dir_all(&persist_cfg.dir)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = new_state(&config, None, policy);
        let nshards = state.cache.shard_count();

        // Recover before serving: the cache is warm by the time the
        // first connection is accepted.
        let rec = persist::recover(&persist_cfg.dir, nshards as u32);
        let report = apply_recovery(&state, &rec);

        // Fault-injection hook (tests / chaos runs): threaded through
        // every journal writer and snapshot path below.
        let injector = persist_cfg
            .iofault
            .clone()
            .map(|plan| Arc::new(IoFaultInjector::new(plan)));
        let health = Arc::new(PersistHealthState::default());
        let _ = state.persist_health.set(Arc::clone(&health));

        // Install journal buffers (sequence numbers continue above
        // everything already on disk) and reopen the journals for
        // appending, truncating any torn tail replay ignored.
        let mut writers = Vec::with_capacity(nshards);
        for s in 0..nshards {
            let jr = &rec.journals[s];
            let snap_seq = rec.shards[s].as_ref().map(|r| r.snap.seq).unwrap_or(0);
            let max_seq = jr.ops.last().map(|(seq, _)| *seq).unwrap_or(0);
            let next_seq = snap_seq.max(max_seq) + 1;
            let buf_health = Arc::clone(&health);
            state.cache.with_shard(s, |_, ext| {
                ext.journal = Some(Box::new(JournalBuf {
                    pending: VecDeque::new(),
                    next_seq,
                    cap: persist_cfg.journal_buf_records,
                    health: buf_health,
                }));
            });
            writers.push(
                persist::JournalWriter::open_append(&persist_cfg.dir, s as u32, jr.valid_len)?
                    .with_hook(injector.clone()),
            );
        }
        println!(
            "webcache-proxy: recovered {} document(s) ({} bytes) from {}: replayed {} journal record(s), quarantined {}, {} truncated journal(s)",
            report.docs,
            report.bytes,
            persist_cfg.dir.display(),
            report.replayed,
            report.quarantined,
            report.truncated_journals,
        );
        for note in &rec.notes {
            println!("webcache-proxy: recovery note: {note}");
        }

        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let cfg = persist_cfg.clone();
            let gen = rec.max_gen + 1;
            let health = Arc::clone(&health);
            let injector = injector.clone();
            std::thread::spawn(move || {
                persister_loop(
                    &state,
                    &cfg,
                    writers,
                    gen,
                    &stop,
                    &health,
                    injector.as_deref(),
                )
            })
        };

        let backend = start_backend(listener, origin, config, &state)?;
        Ok(ProxyServer {
            addr,
            state,
            backend,
            persist: Some(PersistRuntime {
                stop,
                thread,
                health,
            }),
            recovered: Some(report),
            cluster: None,
        })
    }

    /// What recovery rebuilt from disk, when started with persistence.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovered
    }

    /// Current persistence health; `None` when started without
    /// persistence.
    pub fn persist_health(&self) -> Option<PersistHealth> {
        self.persist.as_ref().map(|p| p.health.health())
    }

    /// Shared persistence-health handle, for reading state and counters
    /// after the server has been dropped (the final snapshot on drop can
    /// still change health). `None` without persistence.
    pub fn persist_health_state(&self) -> Option<Arc<PersistHealthState>> {
        self.persist.as_ref().map(|p| Arc::clone(&p.health))
    }

    /// The proxy's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        let mut s = self.state.stats.snapshot();
        if let Some(p) = &self.persist {
            s.journal_lost_records = p.health.lost_records();
            s.journal_dropped = p.health.dropped_records();
            s.persist_degraded = p.health.degraded_transitions();
            s.persist_heals = p.health.heals();
        }
        if let Some(c) = &self.state.cluster {
            s.peer_lookups = c.peer_lookups();
            s.peer_hits = c.peer_hits();
            s.peer_misses = c.peer_misses();
            s.peer_failures = c.peer_failures();
            s.peer_served = c.peer_served();
        }
        s
    }

    /// Shared cluster state (ring, membership, peer counters), when
    /// started via [`ProxyServer::start_clustered`].
    pub fn cluster_state(&self) -> Option<Arc<ClusterState>> {
        self.state.cluster.clone()
    }

    /// The proxy's Common-Log-Format access log: its most recent 4096
    /// lines, oldest first.
    pub fn access_log(&self) -> String {
        self.state.log.lock().tail()
    }

    /// Bytes currently cached (lock-free, summed over shards).
    pub fn cached_bytes(&self) -> u64 {
        self.state.cache.used()
    }

    /// Number of cache shards the proxy is running with.
    pub fn shard_count(&self) -> usize {
        self.state.cache.shard_count()
    }

    /// Units of work that have occupied a worker thread so far: one per
    /// connection under the threaded backend, one per dispatched job
    /// under the reactor. Lets tests assert that idle or slow clients
    /// never pin a worker.
    pub fn worker_jobs(&self) -> u64 {
        self.state.worker_jobs.load(Ordering::Relaxed)
    }

    /// The serving backend this proxy is running.
    pub fn backend(&self) -> ServingBackend {
        match self.backend {
            Backend::Threaded { .. } => ServingBackend::Threaded,
            Backend::Reactor(_) => ServingBackend::Reactor,
        }
    }
}

/// Build the shared proxy state for a fresh (cold) proxy.
fn new_state(
    config: &ProxyConfig,
    cluster: Option<Arc<ClusterState>>,
    policy: impl FnMut() -> Box<dyn RemovalPolicy>,
) -> Arc<ProxyState> {
    Arc::new(ProxyState {
        cache: ShardedCache::new(config.capacity, config.shards, policy),
        interner: Mutex::new(Interner::new()),
        stats: AtomicProxyStats::default(),
        now: AtomicU64::new(0),
        breakers: Mutex::new(HashMap::new()),
        jitter_seq: AtomicU64::new(0),
        worker_jobs: AtomicU64::new(0),
        log: Mutex::new(AccessLog::new()),
        cluster,
        persist_health: OnceLock::new(),
    })
}

/// Start the configured serving engine on an already-bound listener.
fn start_backend(
    listener: TcpListener,
    origin: SocketAddr,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
) -> std::io::Result<Backend> {
    Ok(match config.backend {
        ServingBackend::Threaded => start_threaded(listener, origin, config, state),
        ServingBackend::Reactor => Backend::Reactor(crate::reactor::Reactor::start(
            listener,
            origin,
            config,
            Arc::clone(state),
        )?),
    })
}

/// Start the original threaded front end: an acceptor feeding a bounded
/// connection queue drained by blocking workers.
fn start_threaded(
    listener: TcpListener,
    origin: SocketAddr,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
) -> Backend {
    let queue = Arc::new(ConnQueue::new(config.queue_depth));
    let shutdown = Arc::new(AtomicBool::new(false));

    let workers = (0..config.workers)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(state);
            std::thread::spawn(move || {
                let mut up = Upstream::new(origin, &config);
                while let Some(mut stream) = queue.pop() {
                    AtomicProxyStats::add(&state.worker_jobs, 1);
                    serve_connection(&mut stream, &mut up, config, &state);
                }
            })
        })
        .collect();

    let acceptor = {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(state);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if let Err(mut refused) = queue.push(stream) {
                    // Queue full: refuse cheaply here rather than let
                    // accepted work grow without bound.
                    AtomicProxyStats::add(&state.stats.rejected, 1);
                    let _ = refused.set_write_timeout(Some(config.read_timeout));
                    let _ = http::write_response(&mut refused, &Response::status_only(503));
                }
            }
            queue.close();
        })
    };

    Backend::Threaded {
        queue,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        match &mut self.backend {
            Backend::Threaded {
                queue,
                shutdown,
                acceptor,
                workers,
            } => {
                shutdown.store(true, Ordering::SeqCst);
                // Wake the acceptor; the no-op connection drains as a
                // fast EOF.
                let _ = TcpStream::connect(self.addr);
                if let Some(h) = acceptor.take() {
                    let _ = h.join();
                }
                queue.close();
                for h in workers.drain(..) {
                    let _ = h.join();
                }
            }
            Backend::Reactor(reactor) => reactor.shutdown(),
        }
        // Stop the peer listener after the backend drains (workers'
        // outbound peer lookups are unaffected by the inbound side).
        if let Some(c) = self.cluster.take() {
            c.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(c.peer_addr);
            if let Some(h) = c.listener {
                let _ = h.join();
            }
        }
        // The backend has drained: no worker can log another journal op.
        // Now stop the persister — it drains the remaining records,
        // fsyncs, and takes a final snapshot before exiting.
        if let Some(p) = self.persist.take() {
            p.stop.store(true, Ordering::SeqCst);
            let _ = p.thread.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence: background persister and recovery application
// ---------------------------------------------------------------------------

fn log_persist_error(context: &str, e: &PersistError) {
    eprintln!("webcache-proxy: persist: {context}: {e}");
}

/// The background persister: drains per-shard journal buffers every tick,
/// group-fsyncs on [`PersistConfig::journal_fsync`], snapshots on
/// [`PersistConfig::snapshot_interval`], and — once `stop` is raised —
/// performs a final drain + fsync + snapshot before exiting. Shard locks
/// are held only for the drain/export critical sections; all file I/O
/// happens with no lock held, so the serving hit path never waits on the
/// disk.
///
/// This loop also drives the [`PersistHealth`] state machine:
///
/// * **Healthy** — as above. Any persist write error (append, sync,
///   snapshot) transitions to Degraded; the first re-arm probe is
///   scheduled one `degraded_backoff` out. A forced-snapshot demand
///   (buffer overflow dropped records) snapshots immediately.
/// * **Degraded** — journaling is suspended ([`ShardExt::log_op`] counts
///   instead of buffering; anything still pending is discarded as
///   counted loss, since appending past a torn tail would be unreadable
///   anyway). Snapshots continue on cadence — degraded durability is
///   snapshot-grade rather than none, and with the journal path dead
///   snapshots may still succeed (different files, different fault
///   classes). When due, a disk probe runs through the same injection
///   hook; success is confirmed by a full snapshot, which covers every
///   suspended/dropped record and rotates the torn journals clean —
///   only then does journaling resume (heal). Probe failures back off
///   exponentially (capped at 32x) and after
///   [`PersistConfig::degraded_max_retries`] in a row persistence is
///   Disabled.
/// * **Disabled** — journal buffers are freed and the loop idles until
///   stop. The proxy serves from memory; the exit status reports it.
///
/// On stop the loop attempts one final drain + sync + snapshot in
/// Healthy or Degraded (never probing, so a dead disk cannot delay
/// shutdown) and exits in whatever state it reached.
fn persister_loop(
    state: &Arc<ProxyState>,
    cfg: &PersistConfig,
    mut writers: Vec<persist::JournalWriter>,
    mut gen: u64,
    stop: &AtomicBool,
    health: &Arc<PersistHealthState>,
    hook: Option<&IoFaultInjector>,
) {
    let tick = cfg
        .journal_fsync
        .min(cfg.snapshot_interval)
        .clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut last_sync = Instant::now();
    let mut last_snap = Instant::now();
    let mut probe_failures: u32 = 0;
    let mut next_probe = Instant::now();
    let mut journals_freed = false;
    // Every snapshot attempt consumes a generation, success or not: a
    // retry must never reuse a generation some file may already carry.
    let snapshot_once =
        |writers: &mut Vec<persist::JournalWriter>, gen: &mut u64| -> Result<(), PersistError> {
            let r = take_snapshot(state, cfg, writers, *gen, health, hook);
            *gen += 1;
            r
        };
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        match health.health() {
            PersistHealth::Healthy => {
                drain_pending(state, &mut writers, health);
                if health.health() == PersistHealth::Healthy
                    && (stopping || last_sync.elapsed() >= cfg.journal_fsync)
                {
                    for w in &mut writers {
                        if let Err(e) = w.sync() {
                            health.degrade("journal sync", &e);
                            break;
                        }
                    }
                    last_sync = Instant::now();
                }
                let force = health.take_force_snapshot();
                if health.health() == PersistHealth::Healthy
                    && (stopping || force || last_snap.elapsed() >= cfg.snapshot_interval)
                {
                    if let Err(e) = snapshot_once(&mut writers, &mut gen) {
                        health.degrade("snapshot", &e);
                    }
                    last_snap = Instant::now();
                }
                if health.health() != PersistHealth::Healthy {
                    // A fresh fault episode: first probe one backoff out.
                    probe_failures = 0;
                    next_probe = Instant::now() + cfg.degraded_backoff;
                }
            }
            PersistHealth::Degraded => {
                discard_pending(state, health);
                if stopping || last_snap.elapsed() >= cfg.snapshot_interval {
                    if let Err(e) = snapshot_once(&mut writers, &mut gen) {
                        log_persist_error("degraded snapshot", &e);
                    }
                    last_snap = Instant::now();
                }
                if !stopping && Instant::now() >= next_probe {
                    let healed = match persist::probe_disk(&cfg.dir, hook) {
                        Ok(()) => match snapshot_once(&mut writers, &mut gen) {
                            Ok(()) => {
                                last_snap = Instant::now();
                                true
                            }
                            Err(e) => {
                                log_persist_error("re-arm snapshot", &e);
                                last_snap = Instant::now();
                                false
                            }
                        },
                        Err(e) => {
                            log_persist_error("disk probe", &e);
                            false
                        }
                    };
                    if healed {
                        health.heal();
                        probe_failures = 0;
                    } else {
                        probe_failures += 1;
                        if probe_failures >= cfg.degraded_max_retries {
                            health.disable(probe_failures);
                        } else {
                            let shift = probe_failures.min(5); // cap at 32x
                            next_probe = Instant::now() + cfg.degraded_backoff * (1 << shift);
                        }
                    }
                }
            }
            PersistHealth::Disabled => {
                if !journals_freed {
                    free_journal_buffers(state);
                    journals_freed = true;
                }
            }
        }
        if stopping {
            break;
        }
        std::thread::sleep(tick);
    }
}

/// Move every shard's buffered journal records to its writer (append
/// only — durability comes from the caller's group fsync). An append
/// failure is explicit durability loss: the batch is counted (the next
/// successful snapshot covers the state it described) and the store
/// degrades; remaining shards still get their drain, since their
/// journal files may be on healthier ground.
fn drain_pending(
    state: &Arc<ProxyState>,
    writers: &mut [persist::JournalWriter],
    health: &PersistHealthState,
) {
    for (s, w) in writers.iter_mut().enumerate() {
        let mut pending = state
            .cache
            .with_shard(s, |_, ext| match ext.journal.as_deref_mut() {
                Some(j) if !j.pending.is_empty() => std::mem::take(&mut j.pending),
                _ => VecDeque::new(),
            });
        if !pending.is_empty() {
            if let Err(e) = w.append(pending.make_contiguous()) {
                health.count_lost(pending.len() as u64);
                health.degrade("journal append", &e);
            }
        }
    }
}

/// Throw away buffered records while degraded, counting them as loss.
/// Appending them would be futile: an errored journal file may end in a
/// torn frame, making everything after it unreadable on replay. The
/// healing snapshot covers the live state they described.
fn discard_pending(state: &Arc<ProxyState>, health: &PersistHealthState) {
    for s in 0..state.cache.shard_count() {
        let n = state
            .cache
            .with_shard(s, |_, ext| match ext.journal.as_deref_mut() {
                Some(j) => {
                    let n = j.pending.len();
                    j.pending.clear();
                    n
                }
                None => 0,
            });
        if n > 0 {
            health.count_lost(n as u64);
        }
    }
}

/// Remove the per-shard journal buffers once persistence is Disabled:
/// [`ShardExt::log_op`] becomes a no-op again and the buffers' memory is
/// returned.
fn free_journal_buffers(state: &Arc<ProxyState>) {
    for s in 0..state.cache.shard_count() {
        state.cache.with_shard(s, |_, ext| {
            ext.journal = None;
        });
    }
}

/// One shard's state captured under its lock for snapshotting.
struct CapturedShard {
    snap_seq: u64,
    cs: CacheState,
    fetched: Vec<u64>,
    bodies: Vec<Bytes>,
}

/// Write one consistent generation: per-shard snapshots plus the URL
/// table, then rotate the journals. Crash-ordering argument:
///
/// 1. Records drained during capture (all `seq <= snap_seq`) are
///    appended *before* the snapshot that supersedes them — a crash
///    before the snapshot commits still replays them from the journal.
/// 2. The URL table is dumped *after* every shard capture; it is
///    append-only in the writing process, so every id a snapshot
///    references is below the table's length.
/// 3. Snapshot files are written atomically (tmp + fsync + rename), so
///    recovery sees either the old or the new generation, never a torn
///    one.
/// 4. Journals rotate only after every snapshot of this generation is
///    durable; every record dropped has `seq <= snap_seq`, which replay
///    skips anyway — a crash between commit and rotation is harmless.
fn take_snapshot(
    state: &Arc<ProxyState>,
    cfg: &PersistConfig,
    writers: &mut [persist::JournalWriter],
    gen: u64,
    health: &PersistHealthState,
    hook: Option<&IoFaultInjector>,
) -> Result<(), PersistError> {
    let nshards = writers.len();
    let mut caps = Vec::with_capacity(nshards);
    for (s, w) in writers.iter_mut().enumerate() {
        let (mut pending, cap) = state.cache.with_shard(s, |cache, ext| {
            let (pending, snap_seq) = match ext.journal.as_deref_mut() {
                Some(j) => (std::mem::take(&mut j.pending), j.next_seq - 1),
                None => (VecDeque::new(), 0),
            };
            let cs = cache.export_state();
            let fetched = cs
                .docs
                .iter()
                .map(|m| ext.fetched_at.get(&m.url).copied().unwrap_or(0))
                .collect();
            let bodies = cs
                .docs
                .iter()
                .map(|m| ext.bodies.get(&m.url).cloned().unwrap_or_default())
                .collect();
            (
                pending,
                CapturedShard {
                    snap_seq,
                    cs,
                    fetched,
                    bodies,
                },
            )
        });
        // A failed append here is tolerable: every taken record has
        // `seq <= snap_seq`, so the snapshot this function is about to
        // write covers the same state. Count the loss (a crash before
        // the snapshot commits would lose them) and carry on.
        if !pending.is_empty() {
            if let Err(e) = w.append(pending.make_contiguous()) {
                health.count_lost(pending.len() as u64);
                log_persist_error("snapshot pre-append", &e);
            }
        }
        caps.push(cap);
    }
    // Dump the URL table after the captures (see ordering note above).
    let urls: Vec<String> = {
        let interner = state.interner.lock();
        (0..interner.url_count())
            .map(|i| {
                interner
                    .url_text(UrlId(i as u32))
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    };
    let now = state.now.load(Ordering::SeqCst);
    persist::write_interner_hooked(&cfg.dir, gen, now, &urls, hook)?;
    for (s, cap) in caps.iter().enumerate() {
        let docs = cap
            .cs
            .docs
            .iter()
            .enumerate()
            .map(|(i, m)| persist::SnapshotDoc {
                meta: *m,
                url: urls.get(m.url.0 as usize).cloned().unwrap_or_default(),
                fetched_at: cap.fetched[i],
                body: cap.bodies[i].clone(),
            })
            .collect();
        persist::write_shard_snapshot_hooked(
            &cfg.dir,
            &persist::ShardSnapshot {
                shard: s as u32,
                nshards: nshards as u32,
                gen,
                seq: cap.snap_seq,
                now,
                capacity: cap.cs.capacity,
                current_day: cap.cs.current_day,
                stats: cap.cs.stats,
                policy_state: cap.cs.policy_state.clone(),
                docs,
            },
            hook,
        )?;
    }
    for w in writers.iter_mut() {
        w.sync()?;
        w.rotate()?;
    }
    persist::gc_old_generations(&cfg.dir, nshards as u32, gen);
    Ok(())
}

/// Reinstate recovered snapshots + journals into a freshly built (empty)
/// [`ProxyState`]. Never fails: anything that cannot be applied is
/// skipped, leaving those documents as cache misses.
fn apply_recovery(state: &Arc<ProxyState>, rec: &persist::RecoveredData) -> RecoveryReport {
    let nshards = state.cache.shard_count();
    let mut report = RecoveryReport {
        quarantined: rec.shards.iter().flatten().map(|r| r.quarantined).sum(),
        truncated_journals: rec.journals.iter().filter(|j| j.note.is_some()).count() as u64,
        ..RecoveryReport::default()
    };

    // Re-intern the persisted URL table in order: on this fresh interner
    // ids are assigned sequentially, so a surviving table maps every old
    // id to itself. Snapshot documents carry their URL text as well,
    // covering a lost or truncated table.
    let mut id_map: HashMap<u32, UrlId> = HashMap::new();
    {
        let mut interner = state.interner.lock();
        if let Some(urls) = &rec.interner {
            for (i, u) in urls.iter().enumerate() {
                id_map.insert(i as u32, interner.url(u));
            }
        }
        for rs in rec.shards.iter().flatten() {
            for d in &rs.snap.docs {
                id_map
                    .entry(d.meta.url.0)
                    .or_insert_with(|| interner.url(&d.url));
            }
        }
    }

    // Policy rank state and per-shard stats are expressed in the writing
    // process's ids; they transfer only when every document keeps its id
    // and the shard layout is unchanged. Otherwise the policy order is
    // rebuilt by replaying inserts ([`Cache::restore_state_lenient`]).
    let identity = rec.shards.iter().flatten().all(|rs| {
        rs.snap.nshards as usize == nshards
            && rs
                .snap
                .docs
                .iter()
                .all(|d| id_map.get(&d.meta.url.0) == Some(&UrlId(d.meta.url.0)))
    });

    // Route every verified document to the shard its (new) id hashes to.
    let mut per_shard: Vec<Vec<(DocMeta, u64, Bytes)>> = (0..nshards).map(|_| Vec::new()).collect();
    for rs in rec.shards.iter().flatten() {
        for d in &rs.snap.docs {
            let Some(&new_id) = id_map.get(&d.meta.url.0) else {
                continue;
            };
            let mut meta = d.meta;
            meta.url = new_id;
            per_shard[state.cache.shard_index(new_id)].push((meta, d.fetched_at, d.body.clone()));
        }
    }

    let mut max_now = rec
        .shards
        .iter()
        .flatten()
        .map(|rs| rs.snap.now)
        .max()
        .unwrap_or(0);

    for (s, mut docs) in per_shard.into_iter().enumerate() {
        if docs.is_empty() {
            continue;
        }
        let capacity = state.cache.shard_capacity(s);
        // A changed shard layout can overfill a shard: shed the least
        // recently used documents until the snapshot fits.
        let mut total: u64 = docs.iter().map(|(m, _, _)| m.size).sum();
        if total > capacity {
            docs.sort_by_key(|(m, _, _)| std::cmp::Reverse(m.last_access));
            while total > capacity {
                let Some((m, _, _)) = docs.pop() else { break };
                total -= m.size;
            }
        }
        docs.sort_by_key(|(m, _, _)| m.url.0);
        let old = if identity {
            rec.shards[s].as_ref()
        } else {
            None
        };
        let cache_state = CacheState {
            capacity,
            current_day: old.map(|rs| rs.snap.current_day).unwrap_or(0),
            stats: old.map(|rs| rs.snap.stats).unwrap_or_default(),
            docs: docs.iter().map(|(m, _, _)| *m).collect(),
            policy_state: old
                .map(|rs| rs.snap.policy_state.clone())
                .unwrap_or_default(),
        };
        state.cache.with_shard(s, |cache, ext| {
            if cache.restore_state_lenient(&cache_state) == RestoreOutcome::Failed {
                return;
            }
            for (m, fetched, body) in &docs {
                ext.bodies.insert(m.url, body.clone());
                ext.fetched_at.insert(m.url, *fetched);
            }
        });
    }

    // Replay journal records newer than each shard's snapshot, in append
    // order. Ids are resolved through the same map; an `Insert` extends
    // it (the record carries its URL text).
    for (old_shard, jr) in rec.journals.iter().enumerate() {
        let snap_seq = rec
            .shards
            .get(old_shard)
            .and_then(|o| o.as_ref())
            .map(|r| r.snap.seq)
            .unwrap_or(0);
        for (seq, op) in &jr.ops {
            if *seq <= snap_seq {
                continue;
            }
            max_now = max_now.max(apply_journal_op(state, op, &mut id_map));
            report.replayed += 1;
        }
    }

    report.bytes = state.cache.used();
    report.docs = (0..nshards)
        .map(|s| state.cache.with_shard(s, |cache, _| cache.len() as u64))
        .sum();
    if max_now > 0 {
        state.now.store(max_now, Ordering::SeqCst);
    }
    report
}

/// Apply one replayed journal record; returns the record's clock stamp
/// (0 when it carries none) so recovery can restore the logical clock.
fn apply_journal_op(
    state: &Arc<ProxyState>,
    op: &JournalOp,
    id_map: &mut HashMap<u32, UrlId>,
) -> u64 {
    match op {
        JournalOp::Insert {
            old_id,
            url,
            now,
            size,
            doc_type,
            last_modified,
            fetched_at,
            body,
        } => {
            // The frame checksum already covered the body; the length
            // check is belt-and-braces against a logic bug upstream.
            if body.len() as u64 != *size {
                return *now;
            }
            let new_id = *id_map
                .entry(*old_id)
                .or_insert_with(|| state.interner.lock().url(url));
            state.cache.with_shard_for(new_id, |cache, ext| {
                let r = webcache_trace::Request {
                    time: *now,
                    client: ClientId(0),
                    server: ServerId(0),
                    url: new_id,
                    size: *size,
                    doc_type: *doc_type,
                    last_modified: *last_modified,
                };
                match cache.request(&r) {
                    Outcome::Hit => {
                        ext.bodies.insert(new_id, body.clone());
                    }
                    Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
                        for m in evicted {
                            ext.bodies.remove(&m.url);
                            ext.fetched_at.remove(&m.url);
                        }
                        ext.bodies.insert(new_id, body.clone());
                        ext.fetched_at.insert(new_id, *fetched_at);
                    }
                    Outcome::MissTooBig => {}
                }
            });
            *now
        }
        JournalOp::Touch { old_id, now, size } => {
            if let Some(&new_id) = id_map.get(old_id) {
                state.cache.with_shard_for(new_id, |cache, ext| {
                    let Some(meta) = cache.meta(new_id).copied() else {
                        return;
                    };
                    if meta.size != *size {
                        return;
                    }
                    let body = ext.bodies.get(&new_id).cloned().unwrap_or_default();
                    touch_resident_in(cache, ext, new_id, "", &meta, &body, *now);
                });
            }
            *now
        }
        JournalOp::Evict { old_id } => {
            if let Some(&new_id) = id_map.get(old_id) {
                state.cache.with_shard_for(new_id, |cache, ext| {
                    cache.remove(new_id);
                    ext.bodies.remove(&new_id);
                    ext.fetched_at.remove(&new_id);
                });
            }
            0
        }
        JournalOp::Refresh { old_id, fetched_at } => {
            if let Some(&new_id) = id_map.get(old_id) {
                state.cache.with_shard_for(new_id, |cache, ext| {
                    if cache.contains(new_id) {
                        ext.fetched_at.insert(new_id, *fetched_at);
                    }
                });
            }
            *fetched_at
        }
    }
}

/// The origin host named by a proxy-form target, for breaker keying.
fn host_of(target: &str) -> &str {
    let rest = target.strip_prefix("http://").unwrap_or(target);
    rest.split('/').next().unwrap_or(rest)
}

fn is_timeout(e: &HttpError) -> bool {
    matches!(e, HttpError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    ))
}

/// One client connection, one request. Read errors get an error status
/// instead of a silent close: a malformed or oversized request is `400`,
/// a client stalling past the read timeout is `504`. Any bytes the
/// client pipelined after its first request are ignored.
fn serve_connection(
    stream: &mut TcpStream,
    up: &mut Upstream,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    match http::read_request(stream) {
        Ok(req) => {
            let _ = respond(stream, up, config, state, req);
        }
        Err(e) => {
            let status = if is_timeout(&e) { 504 } else { 400 };
            let _ = http::write_response(stream, &Response::status_only(status));
        }
    }
}

/// Fetch from the origin with retries, backoff, and the host's circuit
/// breaker. Each attempt is one [`Upstream::fetch`]; a `5xx` response
/// counts as a failed attempt. No lock is held across network I/O or
/// backoff sleeps.
fn fetch_origin_resilient(
    up: &mut Upstream,
    target: &str,
    if_modified_since: Option<u64>,
    config: &ProxyConfig,
    state: &Arc<ProxyState>,
    host: &str,
) -> Result<Fetched, FetchError> {
    // Breaker admission: open → fast-fail (or half-open probe after the
    // cooldown); a probe gets exactly one attempt.
    let admission = breaker_admit(state, host, config);
    if matches!(admission, Admission::Refused) {
        AtomicProxyStats::add(&state.stats.breaker_fast_fails, 1);
        return Err(FetchError::BreakerOpen);
    }
    let attempts = if matches!(admission, Admission::Probe) {
        1
    } else {
        1 + config.max_retries
    };
    let mut timed_out = false;
    for attempt in 0..attempts {
        if attempt > 0 {
            // Exponential backoff with deterministic jitter: the jitter
            // stream is seeded by a per-proxy counter, not wall time, so
            // runs are reproducible.
            let base_ms = config.backoff_base.as_millis().max(1) as u64;
            AtomicProxyStats::add(&state.stats.retries, 1);
            let seq = state.jitter_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let jitter_ms = splitmix64(seq) % (base_ms / 2 + 1);
            let sleep =
                config.backoff_base * (1 << (attempt - 1)) + Duration::from_millis(jitter_ms);
            std::thread::sleep(sleep);
        }
        match up.fetch(target, if_modified_since) {
            Ok(resp) if resp.status < 500 => {
                if !matches!(admission, Admission::Pristine) {
                    breaker_on_success(state, host);
                }
                return Ok(resp);
            }
            Ok(_server_error) => {}
            Err(e) => {
                if is_timeout(&e) {
                    timed_out = true;
                    AtomicProxyStats::add(&state.stats.timeouts, 1);
                }
            }
        }
    }

    // All attempts failed: record it and account the breaker.
    AtomicProxyStats::add(&state.stats.origin_failures, 1);
    let now = state.now.load(Ordering::SeqCst);
    if breaker_on_failure(state, host, config, now) {
        AtomicProxyStats::add(&state.stats.breaker_trips, 1);
    }
    Err(FetchError::Exhausted { timed_out })
}

/// The client-facing status for a fetch that produced no response.
fn error_response(e: &FetchError) -> Response {
    Response::status_only(match e {
        FetchError::BreakerOpen => 503,
        FetchError::Exhausted { timed_out: true } => 504,
        FetchError::Exhausted { timed_out: false } => 502,
    })
}

fn respond(
    stream: &mut TcpStream,
    up: &mut Upstream,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
    req: Request,
) -> Result<(), HttpError> {
    if req.method != "GET" {
        return http::write_response(stream, &Response::status_only(501));
    }
    if req.target == ADMIN_STATS_TARGET {
        // Operator plane: answered without ticking the request clock or
        // counting client demand.
        return http::write_response(stream, &admin_stats_response(state));
    }
    if !req.target.starts_with("http://") {
        return http::write_response(stream, &Response::status_only(400));
    }
    let resp = proxy_get(up, config, state, &req.target)?;
    http::write_response(stream, &finalize_response(&req, resp))
}

/// Target of the admin stats endpoint: `GET /__webcache/stats` returns
/// a JSON snapshot of every [`ProxyStats`] counter plus derived hit
/// rate, resident bytes, persistence health, and — in cluster mode —
/// the ring epoch, member set, and peer counters. Origin-form (no
/// `http://` host), so it can never collide with a cacheable URL.
pub const ADMIN_STATS_TARGET: &str = "/__webcache/stats";

/// Build the admin stats response (see [`ADMIN_STATS_TARGET`]).
pub(crate) fn admin_stats_response(state: &Arc<ProxyState>) -> Response {
    let s = state.stats.snapshot();
    let hit_rate = s.hit_rate();
    let mut json = format!(
        "{{\"requests\":{},\"hits\":{},\"revalidated\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"bytes_from_cache\":{},\"bytes_from_origin\":{},\"cached_bytes\":{},\"retries\":{},\
         \"timeouts\":{},\"origin_failures\":{},\"breaker_trips\":{},\"breaker_fast_fails\":{},\
         \"stale_serves\":{},\"rejected\":{}",
        s.requests,
        s.hits,
        s.revalidated,
        s.misses,
        hit_rate,
        s.bytes_from_cache,
        s.bytes_from_origin,
        state.cache.used(),
        s.retries,
        s.timeouts,
        s.origin_failures,
        s.breaker_trips,
        s.breaker_fast_fails,
        s.stale_serves,
        s.rejected,
    );
    match state.persist_health.get() {
        Some(h) => {
            json.push_str(&format!(
                ",\"persist\":{{\"health\":\"{}\",\"journal_lost_records\":{},\
                 \"journal_dropped\":{},\"degraded_transitions\":{},\"heals\":{}}}",
                h.health().name(),
                h.lost_records(),
                h.dropped_records(),
                h.degraded_transitions(),
                h.heals(),
            ));
        }
        None => json.push_str(",\"persist\":null"),
    }
    match &state.cluster {
        Some(c) => {
            let members = c
                .members()
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",");
            json.push_str(&format!(
                ",\"cluster\":{{\"node_id\":{},\"epoch\":{},\"members\":[{members}],\
                 \"peer_lookups\":{},\"peer_hits\":{},\"peer_misses\":{},\"peer_failures\":{},\
                 \"peer_served\":{},\"epoch_bumps\":{}}}",
                c.node_id(),
                c.epoch(),
                c.peer_lookups(),
                c.peer_hits(),
                c.peer_misses(),
                c.peer_failures(),
                c.peer_served(),
                c.epoch_bumps(),
            ));
        }
        None => json.push_str(",\"cluster\":null"),
    }
    json.push('}');
    Response::ok(Bytes::from(json), None)
}

/// Apply the downstream conditional GET (a client cache or a child proxy
/// in a hierarchy, as in the paper's case 2): if our copy is not newer
/// than the caller's, a bodyless 304 suffices. Shared by both serving
/// backends so the wire protocol cannot drift between them.
pub(crate) fn finalize_response(req: &Request, resp: Response) -> Response {
    if let (Some(since), Some(lm)) = (req.if_modified_since(), resp.last_modified()) {
        if resp.status == 200 && lm <= since {
            let mut not_modified = Response::status_only(304);
            if resp.is_cache_hit() {
                not_modified = not_modified.with_cache_status(true);
            }
            return not_modified;
        }
    }
    resp
}

/// Admit one request: tick the logical clock, count it, intern the URL.
/// Exactly one call per client request, on whichever thread first sees
/// it — the worker under the threaded backend, the event loop under the
/// reactor — so the clock advances identically under both.
pub(crate) fn begin_request(state: &Arc<ProxyState>, target: &str) -> (UrlId, u64) {
    let now = state.now.fetch_add(1, Ordering::SeqCst) + 1;
    AtomicProxyStats::add(&state.stats.requests, 1);
    let url = state.interner.lock().url(target);
    (url, now)
}

/// The proxy's core GET logic, factored out for direct (in-process) use.
fn proxy_get(
    up: &mut Upstream,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
    target: &str,
) -> Result<Response, HttpError> {
    let (url, now) = begin_request(state, target);
    Ok(proxy_get_at(up, config, state, target, url, now))
}

/// Reactor fast path: serve a fresh cache hit inline on the event loop,
/// without a worker round-trip. Declines (`None`) when the shard lock is
/// contended, the document is absent, or the copy is past its TTL — the
/// request is then dispatched to a worker with the same `(url, now)`, so
/// the logical clock still ticks exactly once per request.
///
/// Returns the raw `(body, last_modified)` pair rather than a built
/// [`Response`]: the reactor encodes the fixed-form hit head directly
/// into a pooled buffer, so constructing a header map here would be the
/// fast path's only allocation. The body `Bytes` is a refcount clone of
/// the shard's copy — the document is never memcpy'd. Peek and policy
/// touch happen under one `try_lock`ed shard guard; the shard lock is
/// taken exactly once per hit.
pub(crate) fn try_serve_fresh_hit(
    config: &ProxyConfig,
    state: &Arc<ProxyState>,
    target: &str,
    url: UrlId,
    now: u64,
) -> Option<(Bytes, Option<u64>)> {
    let (meta, body) = state.cache.try_with_shard_for(url, |cache, ext| {
        let meta = *cache.meta(url)?;
        let fetched = ext.fetched_at.get(&url).copied().unwrap_or(0);
        let fresh = config
            .ttl
            .is_none_or(|ttl| now.saturating_sub(fetched) <= ttl);
        if !fresh {
            return None;
        }
        let body = ext.bodies.get(&url).cloned().unwrap_or_default();
        touch_resident_in(cache, ext, url, target, &meta, &body, now);
        Some((meta, body))
    })??;
    AtomicProxyStats::add(&state.stats.hits, 1);
    AtomicProxyStats::add(&state.stats.bytes_from_cache, meta.size);
    state.log_access(config.access_log, now, target, meta.size, "HIT");
    Some((body, meta.last_modified))
}

/// The three cases of the paper's section 1, for a request already
/// admitted by [`begin_request`]. May block on origin I/O and backoff
/// sleeps — never run this on the reactor's event loop.
pub(crate) fn proxy_get_at(
    up: &mut Upstream,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
    target: &str,
    url: UrlId,
    now: u64,
) -> Response {
    // Phase 1: consult the cache under the owning shard's lock only. A
    // fresh hit records its policy touch under the same guard, so the
    // hot path enters the shard lock exactly once (the reactor fast path
    // in `try_serve_fresh_hit` follows the same single-visit protocol).
    let peeked = state.cache.with_shard_for(url, |cache, ext| {
        let meta = *cache.meta(url)?;
        let body = ext.bodies.get(&url).cloned().unwrap_or_default();
        let fetched = ext.fetched_at.get(&url).copied().unwrap_or(0);
        let fresh = config
            .ttl
            .is_none_or(|ttl| now.saturating_sub(fetched) <= ttl);
        if fresh {
            touch_resident_in(cache, ext, url, target, &meta, &body, now);
        }
        Some((meta, body, fresh))
    });

    let host = host_of(target);
    if let Some((meta, body, fresh)) = peeked {
        if fresh {
            // Case 1: consistent copy, serve it (already touched above).
            AtomicProxyStats::add(&state.stats.hits, 1);
            AtomicProxyStats::add(&state.stats.bytes_from_cache, meta.size);
            state.log_access(config.access_log, now, target, meta.size, "HIT");
            return Response::ok(body, meta.last_modified).with_cache_status(true);
        }
        // Case 2: revalidate with a conditional GET.
        let since = Some(meta.last_modified.unwrap_or(0));
        return match fetch_origin_resilient(up, target, since, &config, state, host) {
            Ok(origin_resp) if origin_resp.status == 304 => {
                AtomicProxyStats::add(&state.stats.revalidated, 1);
                state.cache.with_shard_for(url, |_, ext| {
                    ext.fetched_at.insert(url, now);
                    ext.log_op(JournalOp::Refresh {
                        old_id: url.0,
                        fetched_at: now,
                    });
                });
                record_cache_hit(state, url, &meta, &body, target, now, config.access_log);
                Response::ok(body, meta.last_modified).with_cache_status(true)
            }
            Ok(origin_resp) if origin_resp.status == 200 => {
                // Modified: insert the fresh copy.
                store_and_serve(state, url, target, origin_resp, now, config.access_log)
            }
            // Origin answered but with neither 304 nor a document (e.g.
            // the document is gone): pass it through, keep our copy.
            Ok(origin_resp) => origin_resp.into_response(),
            Err(_e) if config.serve_stale => {
                // Revalidation failed: serve the expired copy, marked
                // degraded, rather than surfacing the origin failure
                // (`stale-if-error`). Freshness is NOT renewed — the next
                // request past the TTL revalidates again. The policy sees
                // the reference, but no hit is counted: degraded serves
                // are reported separately in `stale_serves`.
                AtomicProxyStats::add(&state.stats.stale_serves, 1);
                AtomicProxyStats::add(&state.stats.bytes_from_cache, meta.size);
                touch_resident(state, url, target, &meta, &body, now);
                state.log_access(config.access_log, now, target, meta.size, "STALE");
                Response::ok(body, meta.last_modified)
                    .with_cache_status(true)
                    .with_degraded()
            }
            Err(e) => error_response(&e),
        };
    }

    // Case 3: no copy. In cluster mode, ask the key's owner first — a
    // `FOUND` serves without touching the origin; `MISS`, timeout, or a
    // dead peer all fall through to the origin (degrading to
    // single-node behaviour, never a client-visible error).
    if let Some(resp) = cluster_peer_lookup(&config, state, target, now) {
        return resp;
    }
    let origin_resp = match fetch_origin_resilient(up, target, None, &config, state, host) {
        Ok(resp) => resp,
        Err(e) => return error_response(&e),
    };
    if origin_resp.status != 200 {
        return origin_resp.into_response();
    }
    // A non-owner serves but does not store: each key has one home, so
    // exactly one removal-policy instance governs its lifetime, and the
    // cluster's aggregate capacity is not spent on duplicates.
    if state
        .cluster
        .as_ref()
        .is_some_and(|c| c.owner(target) != c.node_id())
    {
        return serve_uncached(state, target, origin_resp, now, config.access_log);
    }
    store_and_serve(state, url, target, origin_resp, now, config.access_log)
}

/// Ask the owner of `target` for a fresh copy before paying the origin
/// round trip (cluster mode, case 3). Returns `Some` only for a `FOUND`
/// answer; every other outcome — we own the key, a healthy `MISS`, a
/// dead peer, an open peer breaker — returns `None` and the caller
/// falls through to the origin. A tripped peer breaker declares the
/// peer dead: membership is bumped without it (re-homing its keys) and
/// the new epoch broadcast to the survivors.
fn cluster_peer_lookup(
    config: &ProxyConfig,
    state: &Arc<ProxyState>,
    target: &str,
    now: u64,
) -> Option<Response> {
    let cluster = state.cluster.as_ref()?;
    let owner = cluster.owner(target);
    if owner == cluster.node_id() {
        return None;
    }
    let addr = cluster.config().addr_of(owner)?;
    let key = format!("peer#{owner}");
    cluster.count_lookup();
    // Peer-breaker admission: one bounded attempt, no retries — the
    // origin is always available as the fallback, so a sick peer must
    // never add more than one timeout of latency.
    if matches!(breaker_admit(state, &key, config), Admission::Refused) {
        cluster.count_failure();
        return None;
    }
    let query = cluster::Frame::Query {
        sender: cluster.node_id(),
        epoch: cluster.epoch(),
        url: target.to_string(),
    };
    match cluster::call_peer(addr, &query, cluster.config().peer_timeout) {
        Ok(cluster::Frame::Found {
            last_modified,
            body,
            ..
        }) => {
            breaker_on_success(state, &key);
            cluster.count_hit();
            let size = body.len() as u64;
            AtomicProxyStats::add(&state.stats.hits, 1);
            AtomicProxyStats::add(&state.stats.bytes_from_cache, size);
            state.log_access(config.access_log, now, target, size, "PEER-HIT");
            Some(Response::ok(Bytes::from(body), last_modified).with_cache_status(true))
        }
        Ok(cluster::Frame::Miss { .. }) => {
            breaker_on_success(state, &key);
            cluster.count_miss();
            None
        }
        Ok(_) | Err(_) => {
            cluster.count_failure();
            if breaker_on_failure(state, &key, config, now) {
                AtomicProxyStats::add(&state.stats.breaker_trips, 1);
                if let Some(m) = cluster.remove_peer(owner) {
                    // Broadcast off the request path: the client's
                    // response must not wait on peer round trips.
                    let cluster = Arc::clone(cluster);
                    std::thread::spawn(move || cluster.broadcast_membership(&m));
                }
            }
            None
        }
    }
}

/// Breaker admission for `key` (an origin host, or `peer#<node>`):
/// closed → open → half-open, the cooldown counted in logical ticks. A
/// key with no entry has never failed — entries are created by
/// [`breaker_on_failure`] alone, so the path of a healthy origin looks
/// its host up by `&str` and allocates nothing.
fn breaker_admit(state: &Arc<ProxyState>, key: &str, config: &ProxyConfig) -> Admission {
    let now = state.now.load(Ordering::SeqCst);
    let mut breakers = state.breakers.lock();
    let Some(b) = breakers.get_mut(key) else {
        return Admission::Pristine;
    };
    match b.state {
        BreakerState::Closed if b.failures == 0 => Admission::Pristine,
        BreakerState::Closed => Admission::Closed,
        BreakerState::HalfOpen => Admission::Probe,
        BreakerState::Open if now.saturating_sub(b.opened_at) >= config.breaker_cooldown => {
            b.state = BreakerState::HalfOpen;
            Admission::Probe
        }
        BreakerState::Open => Admission::Refused,
    }
}

/// A healthy answer closes the breaker and clears its failure count.
fn breaker_on_success(state: &Arc<ProxyState>, key: &str) {
    if let Some(b) = state.breakers.lock().get_mut(key) {
        b.state = BreakerState::Closed;
        b.failures = 0;
    }
}

/// Count one failure; `true` when this failure tripped the breaker
/// open: a failed half-open probe re-opens immediately, a closed breaker
/// opens once consecutive failures reach the threshold.
fn breaker_on_failure(state: &Arc<ProxyState>, key: &str, config: &ProxyConfig, now: u64) -> bool {
    let mut breakers = state.breakers.lock();
    if !breakers.contains_key(key) {
        breakers.insert(key.to_string(), Breaker::default());
    }
    let b = breakers.get_mut(key).expect("present: inserted above");
    b.failures += 1;
    let opens = match b.state {
        BreakerState::HalfOpen => true,
        BreakerState::Closed => b.failures >= config.breaker_threshold,
        BreakerState::Open => false,
    };
    if opens {
        b.state = BreakerState::Open;
        b.opened_at = now;
    }
    opens
}

/// One inbound peer connection, one frame. A `Query` is answered from
/// the local cache only — never by fetching from the origin on a peer's
/// behalf, so lookups cannot recurse — and a `Membership` is adopted if
/// strictly newer, then answered with whatever this node now believes.
fn serve_peer_connection(
    mut stream: TcpStream,
    config: ProxyConfig,
    state: &Arc<ProxyState>,
    cluster: &Arc<ClusterState>,
) {
    let timeout = cluster.config().peer_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let Ok(frame) = cluster::read_frame(&mut stream) else {
        return;
    };
    let reply = match frame {
        cluster::Frame::Query { url, .. } => match peer_lookup_local(&config, state, &url) {
            Some((body, last_modified)) => {
                cluster.count_served();
                cluster::Frame::Found {
                    epoch: cluster.epoch(),
                    last_modified,
                    body: body.to_vec(),
                }
            }
            None => cluster::Frame::Miss {
                epoch: cluster.epoch(),
            },
        },
        cluster::Frame::Membership { epoch, members, .. } => {
            let _ = cluster.install(Membership::new(epoch, members));
            let m = cluster.current_membership();
            cluster::Frame::Membership {
                sender: cluster.node_id(),
                epoch: m.epoch,
                members: m.members,
            }
        }
        // FOUND/MISS are replies; receiving one as a request is a
        // protocol error — drop the connection.
        _ => return,
    };
    let _ = stream.write_all(&cluster::encode_frame(&reply));
}

/// Look up `target` in the local cache on behalf of a peer: a fresh
/// copy or nothing. Does not tick the logical clock or count a client
/// request — a peer query is not client demand — but does touch the
/// policy, since the document was genuinely referenced.
fn peer_lookup_local(
    config: &ProxyConfig,
    state: &Arc<ProxyState>,
    target: &str,
) -> Option<(Bytes, Option<u64>)> {
    let url = state.interner.lock().url(target);
    let now = state.now.load(Ordering::SeqCst);
    state.cache.with_shard_for(url, |cache, ext| {
        let meta = *cache.meta(url)?;
        let fetched = ext.fetched_at.get(&url).copied().unwrap_or(0);
        let fresh = config
            .ttl
            .is_none_or(|ttl| now.saturating_sub(fetched) <= ttl);
        if !fresh || meta.size > cluster::MAX_PEER_BODY {
            return None;
        }
        let body = ext.bodies.get(&url).cloned().unwrap_or_default();
        touch_resident_in(cache, ext, url, target, &meta, &body, now);
        Some((body, meta.last_modified))
    })
}

/// Serve a 200 origin response without storing it — the cluster-mode
/// path for keys another node owns. Still a miss: the bytes moved from
/// the origin.
fn serve_uncached(
    state: &Arc<ProxyState>,
    target: &str,
    origin_resp: Fetched,
    now: u64,
    log: bool,
) -> Response {
    let size = origin_resp.body.len() as u64;
    AtomicProxyStats::add(&state.stats.misses, 1);
    AtomicProxyStats::add(&state.stats.bytes_from_origin, size);
    state.log_access(log, now, target, size, "MISS");
    Response::ok(origin_resp.body, origin_resp.last_modified).with_cache_status(false)
}

/// Re-reference a document we are serving from memory, so the policy
/// sees it. Tolerates losing a race with an eviction between the peek
/// and this touch: the cache request then re-inserts the copy being
/// served, and its body is restored alongside.
fn touch_resident(
    state: &Arc<ProxyState>,
    url: UrlId,
    target: &str,
    meta: &DocMeta,
    body: &Bytes,
    now: u64,
) {
    state.cache.with_shard_for(url, |cache, ext| {
        touch_resident_in(cache, ext, url, target, meta, body, now)
    });
}

/// [`touch_resident`]'s body, for callers already holding the owning
/// shard's guard (the reactor's fast path touches under the same
/// `try_lock` it peeked with, so peek and touch are one atomic step).
#[allow(clippy::too_many_arguments)]
fn touch_resident_in(
    cache: &mut webcache_core::cache::Cache,
    ext: &mut ShardExt,
    url: UrlId,
    target: &str,
    meta: &DocMeta,
    body: &Bytes,
    now: u64,
) {
    let r = webcache_trace::Request {
        time: now,
        client: ClientId(0),
        server: ServerId(0),
        url,
        size: meta.size,
        doc_type: meta.doc_type,
        last_modified: meta.last_modified,
    };
    match cache.request(&r) {
        Outcome::Hit => {
            ext.log_op(JournalOp::Touch {
                old_id: url.0,
                now,
                size: meta.size,
            });
        }
        Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
            for m in evicted {
                ext.bodies.remove(&m.url);
                ext.fetched_at.remove(&m.url);
                ext.log_op(JournalOp::Evict { old_id: m.url.0 });
            }
            ext.bodies.insert(url, body.clone());
            let fetched = *ext.fetched_at.entry(url).or_insert(now);
            ext.log_op(JournalOp::Insert {
                old_id: url.0,
                url: target.to_string(),
                now,
                size: meta.size,
                doc_type: meta.doc_type,
                last_modified: meta.last_modified,
                fetched_at: fetched,
                body: body.clone(),
            });
        }
        Outcome::MissTooBig => {}
    }
}

/// A cache hit: update metadata/policy through the simulator-grade cache.
/// Used by the revalidation (`304`) arm, which has already dropped the
/// shard guard for origin I/O; the fresh-hit paths touch inline instead.
#[allow(clippy::too_many_arguments)]
fn record_cache_hit(
    state: &Arc<ProxyState>,
    url: UrlId,
    meta: &DocMeta,
    body: &Bytes,
    target: &str,
    now: u64,
    log: bool,
) {
    touch_resident(state, url, target, meta, body, now);
    AtomicProxyStats::add(&state.stats.hits, 1);
    AtomicProxyStats::add(&state.stats.bytes_from_cache, meta.size);
    state.log_access(log, now, target, meta.size, "HIT");
}

/// Store a 200 origin response (evicting via the policy) and serve it.
fn store_and_serve(
    state: &Arc<ProxyState>,
    url: UrlId,
    target: &str,
    origin_resp: Fetched,
    now: u64,
    log: bool,
) -> Response {
    let size = origin_resp.body.len() as u64;
    AtomicProxyStats::add(&state.stats.misses, 1);
    AtomicProxyStats::add(&state.stats.bytes_from_origin, size);
    let last_modified = origin_resp.last_modified;
    state.cache.with_shard_for(url, |cache, ext| {
        let r = webcache_trace::Request {
            time: now,
            client: ClientId(0),
            server: ServerId(0),
            url,
            size,
            doc_type: DocType::classify(target),
            last_modified,
        };
        match cache.request(&r) {
            Outcome::Hit => {
                // Same URL and size already cached (raced with another
                // thread); just refresh the body.
                ext.bodies.insert(url, origin_resp.body.clone());
                ext.log_op(JournalOp::Insert {
                    old_id: url.0,
                    url: target.to_string(),
                    now,
                    size,
                    doc_type: DocType::classify(target),
                    last_modified,
                    fetched_at: ext.fetched_at.get(&url).copied().unwrap_or(now),
                    body: origin_resp.body.clone(),
                });
            }
            Outcome::Miss { evicted } | Outcome::MissModified { evicted } => {
                for meta in evicted {
                    ext.bodies.remove(&meta.url);
                    ext.fetched_at.remove(&meta.url);
                    ext.log_op(JournalOp::Evict { old_id: meta.url.0 });
                }
                ext.bodies.insert(url, origin_resp.body.clone());
                ext.fetched_at.insert(url, now);
                ext.log_op(JournalOp::Insert {
                    old_id: url.0,
                    url: target.to_string(),
                    now,
                    size,
                    doc_type: DocType::classify(target),
                    last_modified,
                    fetched_at: now,
                    body: origin_resp.body.clone(),
                });
            }
            Outcome::MissTooBig => {
                // Larger than a shard's capacity: pass through uncached.
            }
        }
    });
    state.log_access(log, now, target, size, "MISS");
    Response::ok(origin_resp.body, last_modified).with_cache_status(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{DocStore, OriginServer};
    use webcache_core::policy::named;

    fn setup(capacity: u64, ttl: Option<u64>) -> (OriginServer, ProxyServer) {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        store.put_synthetic("http://o.test/b.gif", 3000, 10);
        store.put_synthetic("http://o.test/c.au", 6000, 10);
        let origin = OriginServer::start(store).unwrap();
        let mut config = ProxyConfig::new(capacity);
        config.ttl = ttl;
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
        (origin, proxy)
    }

    fn get(proxy: &ProxyServer, url: &str) -> Response {
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        http::write_request(&mut s, &Request::get(url)).unwrap();
        http::read_response(&mut s).unwrap()
    }

    #[test]
    fn second_request_is_a_cache_hit() {
        let (origin, proxy) = setup(100_000, None);
        let first = get(&proxy, "http://o.test/a.html");
        assert_eq!(first.status, 200);
        assert!(!first.is_cache_hit());
        let second = get(&proxy, "http://o.test/a.html");
        assert!(second.is_cache_hit());
        assert_eq!(second.body, first.body);
        // Origin saw exactly one full fetch.
        assert_eq!(origin.stats().full_responses.load(Ordering::Relaxed), 1);
        let s = proxy.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn eviction_follows_the_size_policy() {
        let (_origin, proxy) = setup(9_500, None);
        get(&proxy, "http://o.test/a.html"); // 1000
        get(&proxy, "http://o.test/b.gif"); // 3000
        get(&proxy, "http://o.test/c.au"); // 6000 -> evicts c? no: inserting c (6000) needs room: 1000+3000+6000 = 10000 > 9500, SIZE evicts largest resident (b.gif 3000).
        assert_eq!(proxy.cached_bytes(), 7000);
        // a and c are hits; b was evicted and misses.
        assert!(get(&proxy, "http://o.test/a.html").is_cache_hit());
        assert!(get(&proxy, "http://o.test/c.au").is_cache_hit());
        assert!(!get(&proxy, "http://o.test/b.gif").is_cache_hit());
    }

    #[test]
    fn sharded_proxy_still_serves_hits() {
        let store = Arc::new(DocStore::new());
        for i in 0..16 {
            store.put_synthetic(&format!("http://o.test/d{i}.html"), 500 + i * 10, 10);
        }
        let origin = OriginServer::start(store).unwrap();
        let config = ProxyConfig::new(1 << 20).with_shards(4);
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::lru())).unwrap();
        assert_eq!(proxy.shard_count(), 4);
        for i in 0..16 {
            assert!(!get(&proxy, &format!("http://o.test/d{i}.html")).is_cache_hit());
        }
        for i in 0..16 {
            let r = get(&proxy, &format!("http://o.test/d{i}.html"));
            assert!(r.is_cache_hit(), "d{i} should be resident");
            assert_eq!(r.body.len() as u64, 500 + i * 10);
        }
        let s = proxy.stats();
        assert_eq!(s.requests, 32);
        assert_eq!(s.hits, 16);
        assert_eq!(s.misses, 16);
    }

    #[test]
    fn full_worker_queue_refuses_with_503() {
        let (_origin, proxy) = {
            let store = Arc::new(DocStore::new());
            store.put_synthetic("http://o.test/a.html", 1000, 10);
            let origin = OriginServer::start(store).unwrap();
            // Accept-time shedding is threaded-backend mechanics (an
            // idle connection occupying a worker); under the reactor an
            // idle connection occupies nothing by design, and shedding
            // happens at dispatch instead (see tests/reactor.rs). Pin
            // the backend so the env override cannot retarget this test.
            let config = ProxyConfig::new(100_000)
                .with_backend(ServingBackend::Threaded)
                .with_workers(1, 1)
                .with_timeouts(Duration::from_secs(1), Duration::from_secs(2));
            let proxy =
                ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
            (origin, proxy)
        };
        // Occupy the single worker: connect and send nothing.
        let stalled = TcpStream::connect(proxy.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // Fill the one queue slot.
        let mut queued = TcpStream::connect(proxy.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Beyond the bound: refused immediately with 503.
        let mut refused = TcpStream::connect(proxy.addr()).unwrap();
        let resp = http::read_response(&mut refused).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(proxy.stats().rejected, 1);
        // Releasing the stalled connection frees the worker; the queued
        // client is then served normally.
        drop(stalled);
        http::write_request(&mut queued, &Request::get("http://o.test/a.html")).unwrap();
        let resp = http::read_response(&mut queued).unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn ttl_expiry_triggers_revalidation_not_refetch() {
        let (origin, proxy) = setup(100_000, Some(1));
        get(&proxy, "http://o.test/a.html");
        // Advance the logical clock past the TTL with unrelated traffic.
        get(&proxy, "http://o.test/b.gif");
        get(&proxy, "http://o.test/c.au");
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.is_cache_hit(), "revalidated copy still served from cache");
        assert_eq!(origin.stats().not_modified.load(Ordering::Relaxed), 1);
        assert_eq!(proxy.stats().revalidated, 1);
    }

    #[test]
    fn modified_document_is_refetched_after_expiry() {
        let (origin, proxy) = setup(100_000, Some(1));
        let before = get(&proxy, "http://o.test/a.html");
        origin.store().modify("http://o.test/a.html", 1500, 99);
        get(&proxy, "http://o.test/b.gif"); // advance clock
        get(&proxy, "http://o.test/c.au");
        let after = get(&proxy, "http://o.test/a.html");
        assert!(!after.is_cache_hit());
        assert_eq!(after.body.len(), 1500);
        assert_ne!(after.body, before.body);
        // And the fresh copy serves as a hit again.
        assert!(get(&proxy, "http://o.test/a.html").is_cache_hit());
    }

    #[test]
    fn non_proxy_requests_are_rejected() {
        let (_origin, proxy) = setup(100_000, None);
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        http::write_request(&mut s, &Request::get("/origin-form")).unwrap();
        assert_eq!(http::read_response(&mut s).unwrap().status, 400);
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        let mut post = Request::get("http://o.test/a.html");
        post.method = "POST".to_string();
        http::write_request(&mut s, &post).unwrap();
        assert_eq!(http::read_response(&mut s).unwrap().status, 501);
    }

    #[test]
    fn access_log_is_clf_like() {
        let (_origin, proxy) = setup(100_000, None);
        get(&proxy, "http://o.test/a.html");
        get(&proxy, "http://o.test/a.html");
        let log = proxy.access_log();
        assert!(log.contains("MISS"));
        assert!(log.contains("HIT"));
        assert_eq!(log.lines().count(), 2);
    }

    #[test]
    fn host_of_extracts_the_breaker_key() {
        assert_eq!(host_of("http://o.test/a.html"), "o.test");
        assert_eq!(host_of("http://o.test:8080/deep/path"), "o.test:8080");
        assert_eq!(host_of("o.test/x"), "o.test");
    }

    #[test]
    fn dead_origin_yields_5xx_not_a_hang_for_uncached_documents() {
        // Bind a listener and drop it so the port refuses connections.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = ProxyServer::start(
            dead,
            ProxyConfig::new(100_000)
                .with_retries(1, Duration::from_millis(1))
                .with_breaker(2, 1000),
            || Box::new(named::size()),
        )
        .unwrap();
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.status >= 500, "expected 5xx, got {}", r.status);
        let s = proxy.stats();
        assert_eq!(s.origin_failures, 1);
        assert_eq!(s.retries, 1);
        // Second failure reaches the threshold and trips the breaker;
        // the third request fast-fails without touching the network.
        get(&proxy, "http://o.test/a.html");
        assert_eq!(proxy.stats().breaker_trips, 1);
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 503);
        assert_eq!(proxy.stats().breaker_fast_fails, 1);
    }

    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = ProxyServer::start(
            dead,
            ProxyConfig::new(100_000)
                .with_retries(0, Duration::from_millis(1))
                .with_breaker(2, 2),
            || Box::new(named::size()),
        )
        .unwrap();
        // Two failures trip the breaker.
        get(&proxy, "http://o.test/a.html");
        get(&proxy, "http://o.test/a.html");
        assert_eq!(proxy.stats().breaker_trips, 1);
        // Inside the cooldown: fast-fail, no network attempt.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 503);
        assert_eq!(proxy.stats().breaker_fast_fails, 1);
        // Cooldown elapsed: the half-open probe gets one real attempt; its
        // failure must re-open the breaker immediately (second trip), not
        // restart the closed-state failure count.
        let probe = get(&proxy, "http://o.test/a.html");
        assert_eq!(
            probe.status, 502,
            "probe is a real attempt, not a fast-fail"
        );
        assert_eq!(proxy.stats().breaker_trips, 2);
        // And the re-opened breaker fast-fails again.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 503);
        let s = proxy.stats();
        assert_eq!(s.breaker_fast_fails, 2);
        assert_eq!(s.origin_failures, 3, "two trip failures + the probe");
    }

    #[test]
    fn breakers_are_independent_per_origin_host() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = ProxyServer::start(
            dead,
            ProxyConfig::new(100_000)
                .with_retries(0, Duration::from_millis(1))
                .with_breaker(2, 1000),
            || Box::new(named::size()),
        )
        .unwrap();
        // Trip a.test's breaker.
        get(&proxy, "http://a.test/x");
        get(&proxy, "http://a.test/x");
        assert_eq!(proxy.stats().breaker_trips, 1);
        assert_eq!(get(&proxy, "http://a.test/x").status, 503);
        // b.test must not inherit a.test's open breaker: it still gets a
        // real attempt (502 exhausted, not 503 fast-fail).
        let r = get(&proxy, "http://b.test/y");
        assert_eq!(r.status, 502, "b.test inherited a.test's breaker");
        assert_eq!(
            proxy.stats().breaker_fast_fails,
            1,
            "only a.test fast-failed"
        );
        // And b.test trips on its own failure count.
        get(&proxy, "http://b.test/y");
        assert_eq!(proxy.stats().breaker_trips, 2);
        assert_eq!(get(&proxy, "http://b.test/y").status, 503);
    }

    #[test]
    fn serve_stale_leaves_breaker_state_intact() {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        let origin = OriginServer::start(store).unwrap();
        let config = ProxyConfig::new(100_000)
            .with_ttl(1)
            .with_retries(0, Duration::from_millis(1))
            .with_breaker(2, 1000);
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
        // Cache a copy, then lose the origin.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
        drop(origin);
        // Two uncached fetches fail and trip the host's breaker.
        get(&proxy, "http://o.test/b.gif");
        get(&proxy, "http://o.test/c.au");
        assert_eq!(proxy.stats().breaker_trips, 1);
        // The expired copy revalidates into the open breaker: served stale
        // (degraded) off the fast-fail, with no network attempt.
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 200, "stale copy must survive an open breaker");
        assert!(r.is_cache_hit());
        assert!(r.is_degraded());
        let s = proxy.stats();
        assert_eq!(s.stale_serves, 1);
        assert_eq!(s.breaker_fast_fails, 1);
        // The stale serve must not close, reset, or re-trip the breaker:
        // the next uncached fetch is still fast-failed.
        assert_eq!(get(&proxy, "http://o.test/d.html").status, 503);
        assert_eq!(proxy.stats().breaker_trips, 1);
        assert_eq!(proxy.stats().breaker_fast_fails, 2);
    }

    #[test]
    fn stale_copy_is_served_degraded_when_origin_dies() {
        let (origin, proxy) = setup_resilient(Some(1));
        let first = get(&proxy, "http://o.test/a.html");
        assert!(!first.is_degraded());
        drop(origin); // origin goes away
        get(&proxy, "http://o.test/b.gif"); // advance clock past TTL (5xx, uncached)
        get(&proxy, "http://o.test/c.au");
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 200, "cached doc must survive origin death");
        assert!(r.is_cache_hit());
        assert!(r.is_degraded(), "stale serve must carry the 110 warning");
        assert_eq!(r.body, first.body);
        let s = proxy.stats();
        assert_eq!(s.stale_serves, 1);
        assert!(s.origin_failures >= 1);
    }

    #[test]
    fn serve_stale_can_be_disabled() {
        let (origin, proxy) = {
            let store = Arc::new(DocStore::new());
            store.put_synthetic("http://o.test/a.html", 1000, 10);
            let origin = OriginServer::start(store).unwrap();
            let config = ProxyConfig::new(100_000)
                .with_ttl(1)
                .with_retries(0, Duration::from_millis(1))
                .with_serve_stale(false);
            let proxy =
                ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
            (origin, proxy)
        };
        get(&proxy, "http://o.test/a.html");
        drop(origin);
        get(&proxy, "http://o.test/x"); // advance clock
        get(&proxy, "http://o.test/y");
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.status >= 500, "without serve-stale the error surfaces");
        assert_eq!(proxy.stats().stale_serves, 0);
    }

    /// Origin + proxy tuned for fast failure detection in tests.
    fn setup_resilient(ttl: Option<u64>) -> (OriginServer, ProxyServer) {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        store.put_synthetic("http://o.test/b.gif", 3000, 10);
        store.put_synthetic("http://o.test/c.au", 6000, 10);
        let origin = OriginServer::start(store).unwrap();
        let mut config = ProxyConfig::new(100_000)
            .with_retries(1, Duration::from_millis(1))
            .with_breaker(50, 1000);
        config.ttl = ttl;
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
        (origin, proxy)
    }

    #[test]
    fn hit_rate_accounts_revalidations() {
        let mut s = ProxyStats {
            requests: 4,
            hits: 1,
            revalidated: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.5);
        s.requests = 0;
        assert_eq!(s.hit_rate(), 0.0);
    }
}
