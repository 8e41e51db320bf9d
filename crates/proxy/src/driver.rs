//! The proxy core with no sockets and no threads (DESIGN.md D36), for
//! tests that choose what a running proxy leaves to the clock. Each method
//! is a call the event loop, a worker or `start_persistent` makes on a
//! whole `ProxyState`; the test plays the origin and the persister.

use crate::cache_proxy::{new_state, ProxyState};
use crate::config::ProxyConfig;
use crate::http::Response;
use crate::persist::{self, JournalOp, RecoveredData, SnapshotDoc};
use crate::persister::{apply_recovery, install_journals, take_pending, PersistHealthState};
use crate::serve::{begin_request, lookup, Lookup, Miss, ShardLock, Work};
use crate::stats::ProxyStats;
use std::path::Path;
use std::sync::Arc;
use webcache_core::cache::CacheStats;
use webcache_core::policy::RemovalPolicy;
use webcache_trace::UrlId;

pub use crate::fetch::FetchError;
pub use crate::upstream::Fetched;

/// A proxy core driven by hand.
pub struct Driver {
    config: ProxyConfig,
    pub(crate) state: Arc<ProxyState>,
}

/// A request the event loop began and could not answer from memory: a
/// miss it fetches itself, or work for a worker.
#[derive(Debug)]
pub struct Pending {
    target: String,
    step: Result<Box<Miss>, Work>,
}

impl Driver {
    /// A core for `config`, one `policy` per shard, recovered from
    /// `recover_from` and then journaling into buffers of `journal_records`
    /// records, as `start_persistent` starts one.
    pub fn new(
        config: ProxyConfig,
        policy: impl FnMut() -> Box<dyn RemovalPolicy>,
        journal_records: Option<usize>,
        recover_from: Option<&Path>,
    ) -> Driver {
        let state = new_state(&config, None, policy);
        let shards = state.cache.shard_count() as u32;
        let rec = recover_from.map_or_else(RecoveredData::default, |d| persist::recover(d, shards));
        apply_recovery(&state, &rec);
        if let Some(cap) = journal_records {
            let health = Arc::new(PersistHealthState::new(Arc::clone(&state.counters)));
            install_journals(&state, &rec, cap, &health);
        }
        Driver { config, state }
    }

    /// One request as a worker runs it (`begin_request`, `proxy_get_at`);
    /// `origin` is the origin exchange, given the `If-Modified-Since`.
    pub fn request(
        &self,
        target: &str,
        origin: impl FnOnce(Option<u64>) -> Result<Fetched, FetchError>,
    ) -> Response {
        let now = begin_request(&self.state);
        Work::Request { now }.run(origin, self.config, &self.state, target)
    }

    /// One request as the event loop begins it: `begin_request`, then
    /// `lookup` under `ShardLock::Try`. A fresh hit is served; a miss is
    /// pending, and so, its shard held, is the whole request at this tick.
    pub fn begin(&self, target: &str) -> Result<Response, Pending> {
        let now = begin_request(&self.state);
        let step = match lookup(&self.config, &self.state, target, now, ShardLock::Try) {
            Some(Lookup::Hit {
                body,
                last_modified,
            }) => return Ok(Response::ok(body, last_modified).with_cache_status(true)),
            Some(Lookup::Miss(miss)) => Ok(Box::new(miss)),
            None => Err(Work::Request { now }),
        };
        let target = target.to_string();
        Err(Pending { target, step })
    }

    /// The origin's `answer` to a pending miss, concluded as the loop ends
    /// an inline fetch (`Miss::conclude_inline`); a worker's work stays
    /// pending.
    pub fn conclude(&self, pending: Pending, answer: Fetched) -> Result<Response, Pending> {
        let Pending { target, step } = pending;
        let (config, state) = (&self.config, &self.state);
        let served = step.and_then(|miss| miss.conclude_inline(config, state, &target, answer));
        served.map_err(|work| Pending {
            target,
            step: Err(work),
        })
    }

    /// A worker's run of pending work (`Work::run`). A miss still fetching
    /// is redone from the top, as when the loop abandons an inline fetch.
    pub fn finish(
        &self,
        pending: Pending,
        origin: impl FnOnce(Option<u64>) -> Result<Fetched, FetchError>,
    ) -> Response {
        let work = pending
            .step
            .map_or_else(|work| work, |miss| Work::redo(&miss));
        work.run(origin, self.config, &self.state, &pending.target)
    }

    /// Run `f` while the shard owning `target` is held, as by another
    /// thread: inside `f` a `begin` or `conclude` there is refused, and a
    /// call that waits for it never returns.
    pub fn holding<R>(&self, target: &str, f: impl FnOnce() -> R) -> R {
        let shard = self.state.shard_of(target);
        self.state.cache.with_shard(shard, |_, _| f())
    }

    /// The persister's drain of one shard: its buffered journal records.
    pub fn drain(&self, shard: usize) -> Vec<(u64, JournalOp)> {
        self.state
            .cache
            .with_shard(shard, |_, ext| take_pending(ext))
            .into()
    }

    /// The shard `target` lives in and its slot id there: after a request,
    /// the id the request ran under.
    pub fn placement(&self, target: &str) -> (usize, Option<UrlId>) {
        let shard = self.state.shard_of(target);
        (
            shard,
            self.state
                .cache
                .with_shard(shard, |_, ext| ext.urls.get(target)),
        )
    }

    /// Per shard, its resident documents by URL and its statistics.
    pub fn shards(&self) -> Vec<(Vec<SnapshotDoc>, CacheStats)> {
        let shard = |s| {
            self.state.cache.with_shard(s, |cache, _| {
                let docs = cache.entries().map(|(meta, copy)| SnapshotDoc {
                    meta: *meta,
                    url: copy.url.to_string(),
                    fetched_at: copy.fetched_at,
                    body: copy.body.clone(),
                });
                let mut docs: Vec<SnapshotDoc> = docs.collect();
                docs.sort_by(|a, b| a.url.cmp(&b.url));
                (docs, *cache.stats())
            })
        };
        (0..self.state.cache.shard_count()).map(shard).collect()
    }

    /// The proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        self.state.counters.snapshot()
    }
}
