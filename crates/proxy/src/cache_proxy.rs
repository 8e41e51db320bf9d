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
//! ## Ownership
//!
//! A document's metadata, body and freshness stamp are one cache entry
//! (the `Resident` payload, DESIGN.md D20) in that URL's shard, and so is
//! the id the URL's text has there (`url_table`, D26), so a request
//! visits exactly one shard on the cache path and never across network
//! I/O. One event-loop thread serves every request: it owns every client
//! socket, answers fresh hits inline, and runs every origin and cluster
//! peer exchange itself on non-blocking sockets under `epoll` — connect,
//! send, read, retries after a backoff on its deadline wheel. It also
//! answers inbound peer frames on the node's peer port and the
//! persister's asks for journal records and snapshot captures. So the
//! loop owns the proxy's state by value (the private `ProxyState`: the
//! shards, the logical clock, the circuit breakers) and reaches it
//! through `&mut`, without a lock (DESIGN.md D42, D47). A
//! [`ProxyServer`] keeps only what other threads read: the counter
//! table, the persistence health and the cluster membership. Concurrent
//! exchanges are bounded by file descriptors, as clients are.
//!
//! ## Where things live
//!
//! This module owns the proxy's state (`ProxyState`, the per-document
//! payload, the per-shard URL table and journal slot) and the life cycle
//! of a [`ProxyServer`]. The request logic is in `serve`, the resilient
//! origin fetch in `fetch`, circuit breakers in `breaker`, counters and
//! the admin endpoint in `stats`, the persister thread and recovery in
//! `persister`, tunables in `config`, and client socket multiplexing in
//! `reactor`.

use crate::breaker::Breakers;
use crate::cluster::{self, ClusterConfig, ClusterState};
use crate::iofault::IoFaultInjector;
use crate::persist::{self, JournalOp, PersistConfig, PersistError};
use crate::persister::{self, apply_recovery, install_journals, JournalBuf, LoopEnd};
use crate::reactor::Reactor;
use crate::stats::Counters;
use crate::url_table::UrlTable;
use bytes::Bytes;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use webcache_core::cache::{split_capacity, Cache};
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
    /// entry's slot id says nothing outside its shard, this does.
    pub(crate) url: Arc<str>,
    /// The document body.
    pub(crate) body: Bytes,
    /// Logical time of the fetch or last revalidation (for TTL freshness).
    pub(crate) fetched_at: u64,
}

/// One shard's cache: every entry carries its document's [`Resident`].
pub(crate) type ShardCache = Cache<Resident>;

/// Per-shard proxy state beside the cache, in the same shard.
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

/// The proxy's state: built and recovered before the event loop starts,
/// then owned by it (or by a [`crate::driver::Driver`]). The cache path
/// visits only the owning shard.
pub(crate) struct ProxyState {
    /// The cache's shards, each with the proxy's state beside it, indexed
    /// by [`ProxyState::shard_of`].
    pub(crate) shards: Vec<(ShardCache, ShardExt)>,
    /// The counter table ([`crate::stats`]); the persister and the
    /// cluster layer count into the same one.
    pub(crate) counters: Arc<Counters>,
    /// Logical clock: advances by one per request, so ATIME/ETIME/NREF
    /// behave exactly as in simulation. Wall time is deliberately not
    /// used — tests stay deterministic.
    pub(crate) now: u64,
    /// Circuit breakers, per origin host and per cluster peer.
    pub(crate) breakers: Breakers,
    /// Counter feeding deterministic backoff jitter.
    pub(crate) jitter_seq: u64,
    /// Cluster state when running as a cluster node
    /// ([`ProxyServer::start_clustered`]); `None` single-node.
    pub(crate) cluster: Option<Arc<ClusterState>>,
    /// Persistence health when the proxy persists, set before it starts:
    /// read by the admin stats endpoint on the event loop, by
    /// [`ProxyServer::persist_health`] and by the persister.
    pub(crate) persist_health: Option<Arc<PersistHealthState>>,
}

impl ProxyState {
    /// The shard `target` lives in, from its text alone: the same on
    /// every node and after every restart.
    pub(crate) fn shard_of(&self, target: &str) -> usize {
        (splitmix64(key_hash(target)) & (self.shards.len() as u64 - 1)) as usize
    }

    /// The cache and the proxy's state of the shard `target` lives in.
    pub(crate) fn shard_for(&mut self, target: &str) -> (&mut ShardCache, &mut ShardExt) {
        let s = self.shard_of(target);
        let (cache, ext) = &mut self.shards[s];
        (cache, ext)
    }

    /// Bytes resident, summed over the shards.
    pub(crate) fn cached_bytes(&self) -> u64 {
        self.shards.iter().map(|(cache, _)| cache.used()).sum()
    }
}

/// A running caching proxy: the handles to what its event loop shares
/// with other threads.
pub struct ProxyServer {
    addr: SocketAddr,
    counters: Arc<Counters>,
    persist_health: Option<Arc<PersistHealthState>>,
    cluster: Option<Arc<ClusterState>>,
    shards: usize,
    reactor: Reactor,
    /// Background persister, when started via
    /// [`ProxyServer::start_persistent`]. It makes the final journal
    /// flush and snapshot from the event loop's last captures, once the
    /// reactor has stopped on drop.
    persister: Option<std::thread::JoinHandle<()>>,
    recovered: Option<RecoveryReport>,
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
    /// Panics when `config.shards` is not a nonzero power of two, or when
    /// the per-shard capacity rounds to zero.
    pub fn start(
        origin: SocketAddr,
        config: ProxyConfig,
        policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> std::io::Result<ProxyServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let state = new_state(&config, None, policy);
        ProxyServer::serve(listener, None, origin, config, state, None)
    }

    /// Start a proxy as one node of a cache cluster (design decision
    /// D17). In addition to serving clients, the node binds its peer
    /// port from the seed list and answers ICP-style peer queries from
    /// its local cache, on its event loop; on a local miss for a key
    /// another node owns, it
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
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let cluster = Arc::new(ClusterState::new(cluster_cfg));
        let peer_addr = cluster
            .config()
            .self_addr()
            .expect("ClusterState::new checked the seed list");
        let peers = TcpListener::bind(peer_addr)?;
        let state = new_state(&config, Some(Arc::clone(&cluster)), policy);
        cluster::startup_exchange(&cluster);
        ProxyServer::serve(listener, Some(peers), origin, config, state, None)
    }

    /// Start a proxy with crash-safe persistence: recover the warm cache
    /// from `persist_cfg.dir` (newest valid snapshots plus journal
    /// replay, bodies checksum-verified), then serve while a background
    /// persister journals every cache mutation the event loop hands it
    /// (group-fsynced every
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
        let listener = TcpListener::bind("127.0.0.1:0")?;
        std::fs::create_dir_all(&persist_cfg.dir)?;
        let mut state = new_state(&config, None, policy);
        let nshards = state.shards.len();

        // Recover before serving: the cache is warm by the time the
        // first connection is accepted.
        let rec = persist::recover(&persist_cfg.dir, nshards as u32);
        let report = apply_recovery(&mut state, &rec);

        // Fault-injection hook (tests / chaos runs): threaded through
        // every journal writer and snapshot path below.
        let injector = persist_cfg
            .iofault
            .clone()
            .map(|plan| Arc::new(IoFaultInjector::new(plan)));
        let health = Arc::new(PersistHealthState::new(Arc::clone(&state.counters)));
        state.persist_health = Some(Arc::clone(&health));

        // Install journal buffers and reopen the journals for appending,
        // truncating any torn tail replay ignored.
        install_journals(&mut state, &rec, persist_cfg.journal_buf_records, &health);
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

        let (loop_end, persister_end) = persister::line(&health);
        let mut server = ProxyServer::serve(listener, None, origin, config, state, Some(loop_end))?;
        server.recovered = Some(report);
        server.persister = Some({
            let bell = server.reactor.waker();
            let gen = rec.max_gen + 1;
            std::thread::spawn(move || {
                persister::persister_loop(
                    &persist_cfg,
                    writers,
                    gen,
                    persister_end,
                    bell,
                    &health,
                    injector.as_deref(),
                )
            })
        });
        Ok(server)
    }

    /// Move `state` into a new event loop serving `listener` (and a
    /// cluster node's `peers`), keeping the handles other threads read.
    fn serve(
        listener: TcpListener,
        peers: Option<TcpListener>,
        origin: SocketAddr,
        config: ProxyConfig,
        state: ProxyState,
        persister: Option<LoopEnd>,
    ) -> std::io::Result<ProxyServer> {
        Ok(ProxyServer {
            addr: listener.local_addr()?,
            counters: Arc::clone(&state.counters),
            persist_health: state.persist_health.clone(),
            cluster: state.cluster.clone(),
            shards: state.shards.len(),
            reactor: Reactor::start(listener, peers, origin, config, state, persister)?,
            persister: None,
            recovered: None,
        })
    }

    /// What recovery rebuilt from disk, when started with persistence.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovered
    }

    /// Current persistence health; `None` when started without
    /// persistence.
    pub fn persist_health(&self) -> Option<PersistHealth> {
        self.persist_health.as_ref().map(|h| h.health())
    }

    /// Shared persistence-health handle, for reading health and the
    /// counters ([`PersistHealthState::stats`]) after the server has been
    /// dropped (the final snapshot on drop can still change both). `None`
    /// without persistence.
    pub fn persist_health_state(&self) -> Option<Arc<PersistHealthState>> {
        self.persist_health.clone()
    }

    /// The proxy's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        self.counters.snapshot()
    }

    /// Shared cluster state (ring and membership), when
    /// started via [`ProxyServer::start_clustered`].
    pub fn cluster_state(&self) -> Option<Arc<ClusterState>> {
        self.cluster.clone()
    }

    /// Number of cache shards the proxy is running with.
    pub fn shard_count(&self) -> usize {
        self.shards
    }
}

/// Build the proxy state for a fresh (cold) proxy: `config.capacity`
/// split over `config.shards` shards as [`split_capacity`] splits it, one
/// `policy` each.
pub(crate) fn new_state(
    config: &ProxyConfig,
    cluster: Option<Arc<ClusterState>>,
    mut policy: impl FnMut() -> Box<dyn RemovalPolicy>,
) -> ProxyState {
    ProxyState {
        shards: split_capacity(config.capacity, config.shards)
            .into_iter()
            .map(|cap| (Cache::with_payload(cap, policy()), ShardExt::default()))
            .collect(),
        // A cluster node's table is its cluster state's, built first.
        counters: cluster
            .as_ref()
            .map_or_else(Arc::default, |c| Arc::clone(&c.counters)),
        now: 0,
        breakers: Breakers::default(),
        jitter_seq: 0,
        cluster,
        persist_health: None,
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        // The loop closes every connection and, its last act, captures
        // every shard for the persister, which drains those records,
        // fsyncs and takes a final snapshot before it exits.
        self.reactor.shutdown();
        if let Some(persister) = self.persister.take() {
            let _ = persister.join();
        }
    }
}

/// Helpers shared by the unit tests of the modules around this one.
#[cfg(test)]
pub(crate) mod test_support {
    use super::{ProxyConfig, ProxyServer, ADMIN_STATS_TARGET};
    use crate::http::{self, Request, Response};
    use std::net::{TcpListener, TcpStream};

    /// One GET through `proxy`.
    pub(crate) fn get(proxy: &ProxyServer, url: &str) -> Response {
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        http::write_request(&mut s, &Request::get(url)).unwrap();
        http::read_response(&mut s).unwrap()
    }

    /// The number `proxy`'s admin stats endpoint reports under its
    /// top-level `key`.
    pub(crate) fn stat(proxy: &ProxyServer, key: &str) -> u64 {
        let json = String::from_utf8(get(proxy, ADMIN_STATS_TARGET).body.to_vec()).unwrap();
        let (_, tail) = json.split_once(&format!("\"{key}\":")).unwrap();
        let digits = tail.split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
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
    use super::*;
    use crate::driver::{Driver, Fetched};
    use webcache_core::policy::PitkowRecker;
    use webcache_trace::SECONDS_PER_DAY;

    /// Pitkow/Recker's end-of-day purge runs inside `Cache::advance_time`,
    /// where the proxy never sees a victim list: the bodies must leave
    /// with the entries the purge removes.
    #[test]
    fn periodic_purge_takes_the_bodies_with_it() {
        let mut proxy = Driver::new(
            ProxyConfig::new(10_000),
            || Box::new(PitkowRecker::default()),
            None,
            None,
        );
        let origin = |_| {
            Ok(Fetched {
                status: 200,
                last_modified: None,
                body: Bytes::from(vec![b'x'; 1000]),
            })
        };
        // Ten requests fill the cache on the last seconds of day 0.
        proxy.state.now = SECONDS_PER_DAY - 11;
        for i in 0..10 {
            proxy.request(&format!("http://o.test/d{i}.html"), origin);
        }
        assert_eq!(proxy.state.cached_bytes(), 10_000);
        // The next one crosses midnight: purge down to the comfort level.
        proxy.request("http://o.test/d0.html", origin);
        assert_eq!(proxy.state.now / SECONDS_PER_DAY, 1);
        let shards = proxy.shards();
        assert!(
            shards
                .iter()
                .map(|(_, s)| s.periodic_evictions)
                .sum::<u64>()
                > 0
        );
        assert!(proxy.state.cached_bytes() < 10_000);
        let held: u64 = shards
            .iter()
            .flat_map(|(docs, _)| docs)
            .map(|d| d.body.len() as u64)
            .sum();
        assert_eq!(held, proxy.state.cached_bytes());
    }
}
