//! # webcache-proxy
//!
//! A working HTTP/1.0 caching proxy and synthetic origin server built on
//! `webcache-core` — the deployment context the paper studies ("caching
//! in the network itself through so-called proxy servers").
//!
//! * [`http`] — the minimal HTTP/1.0 message layer (GET, conditional GET,
//!   `Content-Length` framing) over `std::net`, with one parser per
//!   direction: the incremental [`http::RequestParser`] and the resumable
//!   [`http::ResponseReader`], each consuming bytes as they arrive. The
//!   blocking [`http::read_request`] and [`http::read_response`] run
//!   on the same two, not on a second grammar.
//! * [`origin`] — an origin Web server over a mutable document store,
//!   answering conditional GETs with `304 Not Modified`.
//! * [`cache_proxy`] — the proxy: serves fresh copies from cache,
//!   revalidates stale copies with conditional GETs, forwards misses, and
//!   makes room using any [`webcache_core::policy::RemovalPolicy`].
//!   Degrades gracefully when the origin misbehaves: connect/read
//!   timeouts, bounded retries with backoff, a per-origin circuit
//!   breaker, and serve-stale-on-error. One thread serves it: an epoll
//!   event loop owning the cache's shards, its logical clock and its
//!   breakers by value, and every client socket and every origin and peer
//!   socket non-blocking, so slow clients and slow origins pin buffers,
//!   not threads. Its origin connections (the private `upstream`) are a
//!   pool of persistent (`Connection: keep-alive`) sockets, every
//!   response on them read by the same [`http::ResponseReader`]. (The
//!   module's own docs map the private modules the proxy is split into.)
//! * [`persist`] — crash-safe cache persistence: per-shard snapshots +
//!   append-only journals with checksummed frames, giving a SIGKILLed
//!   proxy a warm restart that recovers its working set (quarantining —
//!   never serving — corrupt bodies).
//! * [`fault`] — a deterministic fault-injection shim
//!   ([`fault::FaultyOrigin`]) that sits between proxy and origin and
//!   injects refused connections, delays, stalls, truncations, `5xx`
//!   errors, and sustained-slow bodies according to a seeded
//!   [`fault::FaultPlan`].
//! * [`cluster`] — the cluster layer: several proxies acting as one
//!   logical cache. A deterministic consistent-hash ring (from
//!   [`webcache_core::cluster`]) routes each URL to an owner node;
//!   non-owners answer local misses by asking the owner with a small
//!   ICP-style length-prefixed frame before falling through to the
//!   origin, and membership changes are versioned epoch bumps with
//!   bounded key movement. A dead peer degrades a node to single-node
//!   behaviour — never an error.
//! * [`iofault`] — the same idea aimed at the disk: a seeded
//!   [`iofault::IoFaultPlan`] injects `ENOSPC`/`EIO` failures, short
//!   writes, and slow or failing fsyncs into every persistence write
//!   path, driving the proxy's `PersistHealth` state machine
//!   (`Healthy → Degraded → Disabled`) — a failing disk degrades
//!   persistence loudly, never takes down serving.
//!
//! Integration tests at the workspace root drive generated workload
//! traces through a real proxy/origin pair and check the hit counts match
//! the simulator on the same request sequence; `tests/faults.rs` replays
//! workloads under injected faults and asserts graceful degradation.

#![warn(missing_docs)]

mod breaker;
mod bufpool;
pub mod cache_proxy;
pub mod cluster;
mod config;
mod conn;
#[doc(hidden)]
pub mod driver;
pub mod fault;
mod fetch;
pub mod http;
pub mod iofault;
pub mod origin;
pub mod persist;
mod persister;
mod reactor;
mod serve;
mod stats;
mod upstream;
#[doc(hidden)]
pub mod url_table;

pub use cache_proxy::{
    PersistHealth, PersistHealthState, ProxyConfig, ProxyServer, ProxyStats, RecoveryReport,
};
pub use cluster::{ClusterConfig, ClusterState};
pub use fault::{FaultKind, FaultPlan, FaultyOrigin};
pub use iofault::{IoFaultInjector, IoFaultKind, IoFaultPlan};
pub use origin::{DocStore, OriginServer};
pub use persist::{PersistConfig, PersistError};
