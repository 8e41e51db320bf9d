//! The proxy core with no sockets and no threads (DESIGN.md D36), for
//! tests that choose what a running proxy leaves to the clock. Each method
//! is a step the event loop or `start_persistent` takes on a whole
//! `ProxyState`; the test plays the origin and the persister.

use crate::cache_proxy::{new_state, ProxyState};
use crate::config::ProxyConfig;
use crate::http::Response;
use crate::persist::{self, JournalOp, RecoveredData, SnapshotDoc};
use crate::persister::{apply_recovery, install_journals, take_pending, PersistHealthState};
use crate::serve::{begin_request, lookup, Lookup, Miss};
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
/// miss waiting for the origin's answer.
#[derive(Debug)]
pub struct Pending {
    target: String,
    miss: Box<Miss>,
}

impl Pending {
    /// The `If-Modified-Since` the origin request carries.
    pub fn if_modified_since(&self) -> Option<u64> {
        self.miss.if_modified_since()
    }
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

    /// One whole request: [`Driver::begin`], then `origin` — the origin
    /// exchange, given the `If-Modified-Since` — for a miss, then
    /// [`Driver::conclude`] or [`Driver::fail`].
    pub fn request(
        &self,
        target: &str,
        origin: impl FnOnce(Option<u64>) -> Result<Fetched, FetchError>,
    ) -> Response {
        match self.begin(target) {
            Ok(hit) => hit,
            Err(pending) => match origin(pending.if_modified_since()) {
                Ok(answer) => self.conclude(pending, answer),
                Err(e) => self.fail(pending, e),
            },
        }
    }

    /// One request as the event loop begins it: `begin_request`, then
    /// `lookup`. A fresh hit is served; a miss is pending.
    pub fn begin(&self, target: &str) -> Result<Response, Pending> {
        let now = begin_request(&self.state);
        match lookup(&self.config, &self.state, target, now) {
            Lookup::Hit {
                body,
                last_modified,
            } => Ok(Response::ok(body, last_modified).with_cache_status(true)),
            Lookup::Miss(miss) => Err(Pending {
                target: target.to_string(),
                miss: Box::new(miss),
            }),
        }
    }

    /// The origin's `answer` to a pending miss, concluded as the loop
    /// concludes a fetch (`Miss::conclude`).
    pub fn conclude(&self, pending: Pending, answer: Fetched) -> Response {
        let Pending { target, miss } = pending;
        miss.conclude(&self.config, &self.state, &target, Ok(answer))
    }

    /// A pending miss whose fetch failed, concluded as the loop concludes
    /// one without an answer: serve-stale or the failure's status.
    pub fn fail(&self, pending: Pending, e: FetchError) -> Response {
        let Pending { target, miss } = pending;
        miss.conclude(&self.config, &self.state, &target, Err(e))
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
