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
//! every origin fetch (one exchange on a pooled persistent origin
//! connection, `upstream`) runs under connect/read timeouts,
//! failed fetches are retried with exponential backoff and deterministic
//! jitter, a per-origin circuit breaker fast-fails while an origin is
//! known bad (closed → open → half-open), and a stale cached copy is
//! served — with a `Warning: 110` degraded marker — when revalidation
//! fails entirely (`stale-if-error` semantics). Every degradation is
//! counted in [`ProxyStats`].
//!
//! ## Concurrency
//!
//! The serving path is built on [`ShardedCache`]: a document's metadata,
//! body and freshness stamp are one cache entry ([`Resident`] is the
//! entry's payload, DESIGN.md D20) under that URL's shard lock, and so is
//! the id the URL's text has there (`url_table`, D26), so a request takes
//! exactly one lock on the cache path and never holds it across network
//! I/O. Client sockets belong to the reactor's
//! event loop, which answers fresh hits inline, runs a miss's origin
//! exchange itself when an idle origin connection is at hand and nothing
//! about it can block, and hands everything else to a fixed pool of
//! worker threads ([`ProxyConfig::workers`]) through a bounded job queue;
//! when the queue is full the request is shed with `503` rather than
//! queued without bound (counted in [`ProxyStats::rejected`]).
//!
//! ## Where things live
//!
//! This module owns the shared state ([`ProxyState`], the per-document
//! payload, the per-shard URL table and journal slot) and the life cycle of a
//! [`ProxyServer`]. The request logic is in `serve`, the resilient origin
//! fetch in `fetch`, circuit breakers in `breaker`, counters and the admin
//! endpoint in `stats`, the persister thread and recovery in `persister`,
//! tunables in `config`, and client socket multiplexing in `reactor`.

use crate::accesslog::AccessLog;
use crate::breaker::Breakers;
use crate::cluster::{self, ClusterConfig, ClusterState};
use crate::iofault::IoFaultInjector;
use crate::persist::{self, JournalOp, PersistConfig, PersistError};
use crate::persister::{apply_recovery, install_journals, persister_loop, JournalBuf};
use crate::reactor::Reactor;
use crate::serve::serve_peer_connection;
use crate::stats::Counters;
use crate::url_table::UrlTable;
use bytes::Bytes;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use webcache_core::cache::{Cache, ShardedCache};
use webcache_core::cluster::key_hash;
use webcache_core::policy::RemovalPolicy;
use webcache_core::util::splitmix64;

pub use crate::config::ProxyConfig;
pub use crate::persister::{PersistHealth, PersistHealthState};
pub use crate::stats::{ProxyStats, ADMIN_STATS_TARGET};

/// What the proxy keeps for one resident document beside the cache's own
/// [`webcache_core::cache::DocMeta`]: the payload of the document's cache
/// entry, inserted and removed with it.
#[derive(Debug, Clone)]
pub(crate) struct Resident {
    /// The document's URL, shared with its shard's [`UrlTable`]: the
    /// entry's slot id says nothing outside the shard lock, this does.
    pub(crate) url: Arc<str>,
    /// The document body.
    pub(crate) body: Bytes,
    /// Logical time of the fetch or last revalidation (for TTL freshness).
    pub(crate) fetched_at: u64,
}

/// One shard's cache: every entry carries its document's [`Resident`].
pub(crate) type ShardCache = Cache<Resident>;

/// Per-shard proxy state beside the cache, guarded by the owning shard's
/// lock.
#[derive(Debug, Default)]
pub(crate) struct ShardExt {
    /// Which slot id each URL of this shard has.
    pub(crate) urls: UrlTable,
    /// Journal buffer — `Some` only when the proxy was started with
    /// persistence ([`ProxyServer::start_persistent`]). `None` keeps the
    /// non-persistent hit path allocation-free.
    pub(crate) journal: Option<Box<JournalBuf>>,
}

impl ShardExt {
    /// Record a cache mutation for the journal; no-op without persistence.
    pub(crate) fn log_op(&mut self, op: JournalOp) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.log(op);
        }
    }
}

/// Shared proxy state. The cache path locks only the owning shard; the
/// remaining fields are either atomics or their own short-lived locks,
/// never held across network I/O.
pub(crate) struct ProxyState {
    pub(crate) cache: ShardedCache<Resident, ShardExt>,
    /// The counter table ([`crate::stats`]); the persister and the
    /// cluster layer count into the same one.
    pub(crate) counters: Arc<Counters>,
    /// Logical clock: advances by one per request, so ATIME/ETIME/NREF
    /// behave exactly as in simulation. Wall time is deliberately not
    /// used — tests stay deterministic.
    pub(crate) now: AtomicU64,
    /// Circuit breakers, per origin host and per cluster peer.
    pub(crate) breakers: Breakers,
    /// Counter feeding deterministic backoff jitter.
    pub(crate) jitter_seq: AtomicU64,
    log: Mutex<AccessLog>,
    /// Cluster state when running as a cluster node
    /// ([`ProxyServer::start_clustered`]); `None` single-node.
    pub(crate) cluster: Option<Arc<ClusterState>>,
    /// Persistence health, set once at startup when the proxy persists:
    /// the one handle, read by the admin stats endpoint on the event loop
    /// and by [`ProxyServer::persist_health`].
    pub(crate) persist_health: OnceLock<Arc<PersistHealthState>>,
}

impl ProxyState {
    /// The shard `target` lives in, from its text alone: the same on
    /// every node and after every restart.
    pub(crate) fn shard_of(&self, target: &str) -> usize {
        (splitmix64(key_hash(target)) & (self.cache.shard_count() as u64 - 1)) as usize
    }

    /// Append a line to the access log when it is on: a `200` of `size`
    /// bytes for `target`, served as `outcome` (`HIT`, `MISS`, …).
    pub(crate) fn log_access(&self, on: bool, now: u64, target: &str, size: u64, outcome: &str) {
        if on {
            self.log.lock().record(now, target, size, outcome);
        }
    }
}

/// A running caching proxy.
pub struct ProxyServer {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    reactor: Reactor,
    /// Background persister, when started via
    /// [`ProxyServer::start_persistent`]. Stopped (with a final journal
    /// flush and snapshot) after the reactor drains on drop.
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
        let (listener, addr) = bind_client_port(&config)?;
        let state = new_state(&config, None, policy);
        let reactor = Reactor::start(listener, origin, config, Arc::clone(&state))?;
        Ok(ProxyServer {
            addr,
            state,
            reactor,
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
        let (listener, addr) = bind_client_port(&config)?;
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

        let reactor = Reactor::start(listener, origin, config, Arc::clone(&state))?;
        Ok(ProxyServer {
            addr,
            state,
            reactor,
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
        let (listener, addr) = bind_client_port(&config)?;
        std::fs::create_dir_all(&persist_cfg.dir)?;
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
        let health = Arc::new(PersistHealthState::new(Arc::clone(&state.counters)));
        let _ = state.persist_health.set(Arc::clone(&health));

        // Install journal buffers and reopen the journals for appending,
        // truncating any torn tail replay ignored.
        install_journals(&state, &rec, persist_cfg.journal_buf_records, &health);
        let mut writers = Vec::with_capacity(nshards);
        for (s, jr) in rec.journals.iter().enumerate() {
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
            let gen = rec.max_gen + 1;
            std::thread::spawn(move || {
                persister_loop(
                    &state,
                    &persist_cfg,
                    writers,
                    gen,
                    &stop,
                    &health,
                    injector.as_deref(),
                )
            })
        };

        let reactor = Reactor::start(listener, origin, config, Arc::clone(&state))?;
        Ok(ProxyServer {
            addr,
            state,
            reactor,
            persist: Some(PersistRuntime { stop, thread }),
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
        self.state.persist_health.get().map(|h| h.health())
    }

    /// Shared persistence-health handle, for reading health and the
    /// counters ([`PersistHealthState::stats`]) after the server has been
    /// dropped (the final snapshot on drop can still change both). `None`
    /// without persistence.
    pub fn persist_health_state(&self) -> Option<Arc<PersistHealthState>> {
        self.state.persist_health.get().cloned()
    }

    /// The proxy's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        self.state.counters.snapshot()
    }

    /// Shared cluster state (ring and membership), when
    /// started via [`ProxyServer::start_clustered`].
    pub fn cluster_state(&self) -> Option<Arc<ClusterState>> {
        self.state.cluster.clone()
    }

    /// The proxy's Common-Log-Format access log: its most recent 4096
    /// lines, oldest first. Empty unless [`ProxyConfig::access_log`] is
    /// on.
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
}

/// The start-up prologue every `start*` shares: check the pool sizes,
/// bind the client port.
fn bind_client_port(config: &ProxyConfig) -> std::io::Result<(TcpListener, SocketAddr)> {
    assert!(
        config.workers > 0,
        "worker pool must have at least one thread"
    );
    assert!(
        config.queue_depth > 0,
        "job queue must hold at least one job"
    );
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// Build the shared proxy state for a fresh (cold) proxy.
pub(crate) fn new_state(
    config: &ProxyConfig,
    cluster: Option<Arc<ClusterState>>,
    policy: impl FnMut() -> Box<dyn RemovalPolicy>,
) -> Arc<ProxyState> {
    Arc::new(ProxyState {
        cache: ShardedCache::new(config.capacity, config.shards, policy),
        // A cluster node's table is its cluster state's, built first.
        counters: cluster
            .as_ref()
            .map_or_else(Arc::default, |c| Arc::clone(&c.counters)),
        now: AtomicU64::new(0),
        breakers: Breakers::default(),
        jitter_seq: AtomicU64::new(0),
        log: Mutex::new(AccessLog::new()),
        cluster,
        persist_health: OnceLock::new(),
    })
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        self.reactor.shutdown();
        // Stop the peer listener after the reactor drains (workers'
        // outbound peer lookups are unaffected by the inbound side).
        if let Some(c) = self.cluster.take() {
            c.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(c.peer_addr);
            if let Some(h) = c.listener {
                let _ = h.join();
            }
        }
        // The reactor has drained: no worker can log another journal op.
        // Now stop the persister — it drains the remaining records,
        // fsyncs, and takes a final snapshot before exiting.
        if let Some(p) = self.persist.take() {
            p.stop.store(true, Ordering::SeqCst);
            let _ = p.thread.join();
        }
    }
}

/// Helpers shared by the unit tests of the modules around this one.
#[cfg(test)]
pub(crate) mod test_support {
    use super::{ProxyConfig, ProxyServer, ProxyState};
    use crate::http::{self, Request, Response};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    /// The state behind `proxy`, for tests that must hold one of its
    /// locks at a chosen moment.
    pub(crate) fn state_of(proxy: &ProxyServer) -> Arc<ProxyState> {
        Arc::clone(&proxy.state)
    }

    /// One GET through `proxy`.
    pub(crate) fn get(proxy: &ProxyServer, url: &str) -> Response {
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        http::write_request(&mut s, &Request::get(url)).unwrap();
        http::read_response(&mut s).unwrap()
    }

    /// A proxy whose origin refuses connections: its port was bound, then
    /// released.
    pub(crate) fn orphan_proxy(config: ProxyConfig) -> ProxyServer {
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        ProxyServer::start(dead, config, || {
            Box::new(webcache_core::policy::named::size())
        })
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::get;
    use super::*;
    use crate::origin::{DocStore, OriginServer};
    use webcache_core::policy::PitkowRecker;
    use webcache_trace::SECONDS_PER_DAY;

    /// Pitkow/Recker's end-of-day purge runs inside `Cache::advance_time`,
    /// where the proxy never sees a victim list: the bodies must leave
    /// with the entries the purge removes.
    #[test]
    fn periodic_purge_takes_the_bodies_with_it() {
        let store = Arc::new(DocStore::new());
        for i in 0..10 {
            store.put_synthetic(&format!("http://o.test/d{i}.html"), 1000, 10);
        }
        let origin = OriginServer::start(store).unwrap();
        let proxy = ProxyServer::start(origin.addr(), ProxyConfig::new(10_000), || {
            Box::new(PitkowRecker::default())
        })
        .unwrap();
        // Ten requests fill the cache on the last seconds of day 0.
        proxy
            .state
            .now
            .store(SECONDS_PER_DAY - 11, Ordering::SeqCst);
        for i in 0..10 {
            get(&proxy, &format!("http://o.test/d{i}.html"));
        }
        assert_eq!(proxy.cached_bytes(), 10_000);
        // The next one crosses midnight: purge down to the comfort level.
        get(&proxy, "http://o.test/d0.html");
        assert_eq!(proxy.state.now.load(Ordering::SeqCst) / SECONDS_PER_DAY, 1);
        assert!(proxy.state.cache.stats().periodic_evictions > 0);
        assert!(proxy.cached_bytes() < 10_000);
        let held: u64 = (0..proxy.shard_count())
            .map(|s| {
                proxy.state.cache.with_shard(s, |cache, _| {
                    cache
                        .entries()
                        .map(|(_, r)| r.body.len() as u64)
                        .sum::<u64>()
                })
            })
            .sum();
        assert_eq!(held, proxy.cached_bytes());
    }
}
