//! The proxy core with no sockets and no threads (DESIGN.md D36), for
//! tests that choose what a running proxy leaves to the clock. Each method
//! is a step the event loop or `start_persistent` takes on a whole
//! `ProxyState`; the test plays the origin and the persister.

use crate::cache_proxy::{new_state, ProxyState};
use crate::config::ProxyConfig;
use crate::http::Response;
use crate::persist::{self, JournalOp, RecoveredData, SnapshotDoc};
use crate::persister::{apply_recovery, install_journals, take_pending, PersistHealthState};
use crate::serve::{begin_request, lookup, Answer, Lookup, Miss, Parked};
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
/// miss waiting for the origin's answer, or a step parked on a held
/// shard.
#[derive(Debug)]
pub struct Pending {
    target: String,
    step: Result<Box<Miss>, Parked>,
}

impl Pending {
    /// The `If-Modified-Since` the origin request carries, for a miss.
    pub fn if_modified_since(&self) -> Option<u64> {
        self.step
            .as_ref()
            .ok()
            .and_then(|miss| miss.if_modified_since())
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

    /// One whole request with no shard held: [`Driver::begin`], then
    /// `origin` — the origin exchange, given the `If-Modified-Since` —
    /// for a miss, then [`Driver::conclude`] or [`Driver::fail`].
    pub fn request(
        &self,
        target: &str,
        origin: impl FnOnce(Option<u64>) -> Result<Fetched, FetchError>,
    ) -> Response {
        let pending = match self.begin(target) {
            Ok(hit) => return hit,
            Err(pending) => pending,
        };
        let served = match origin(pending.if_modified_since()) {
            Ok(answer) => self.conclude(pending, answer),
            Err(e) => self.fail(pending, e),
        };
        served.expect("no shard is held")
    }

    /// One request as the event loop begins it: `begin_request`, then
    /// `lookup`. A fresh hit is served; a miss is pending, and so, its
    /// shard held, is the lookup, parked at this tick.
    pub fn begin(&self, target: &str) -> Result<Response, Pending> {
        let now = begin_request(&self.state);
        self.look_up(target.to_string(), now)
    }

    fn look_up(&self, target: String, now: u64) -> Result<Response, Pending> {
        let step = match lookup(&self.config, &self.state, &target, now) {
            Some(Lookup::Hit {
                body,
                last_modified,
            }) => return Ok(Response::ok(body, last_modified).with_cache_status(true)),
            Some(Lookup::Miss(miss)) => Ok(Box::new(miss)),
            None => Err(Parked::Lookup { now }),
        };
        Err(Pending { target, step })
    }

    /// The origin's `answer` to a pending miss, concluded as the loop
    /// concludes a fetch (`Miss::conclude`); its shard held, the
    /// conclusion is parked with the answer.
    ///
    /// # Panics
    ///
    /// When `pending` is parked rather than waiting for the origin.
    pub fn conclude(&self, pending: Pending, answer: Fetched) -> Result<Response, Pending> {
        self.answer(pending, Ok(answer))
    }

    /// A pending miss whose fetch failed, concluded as the loop concludes
    /// one without an answer: serve-stale or the failure's status.
    ///
    /// # Panics
    ///
    /// As [`Driver::conclude`].
    pub fn fail(&self, pending: Pending, e: FetchError) -> Result<Response, Pending> {
        self.answer(pending, Err(e))
    }

    fn answer(&self, pending: Pending, answer: Answer) -> Result<Response, Pending> {
        let Pending { target, step } = pending;
        let Ok(miss) = step else {
            panic!("a parked step is retried, not answered")
        };
        miss.conclude(&self.config, &self.state, &target, answer)
            .map_err(|step| Pending {
                target,
                step: Err(Parked::Conclude(step)),
            })
    }

    /// Try a parked step again, as the loop does after its next wait: a
    /// lookup serves a hit or becomes a pending miss, a conclusion
    /// concludes with the answer it holds; a held shard parks it again. A
    /// miss waiting for the origin is returned as it is.
    pub fn retry(&self, pending: Pending) -> Result<Response, Pending> {
        let Pending { target, step } = pending;
        match step {
            Err(Parked::Lookup { now }) => self.look_up(target, now),
            Err(Parked::Conclude(step)) => {
                let (miss, answer) = *step;
                let step = Ok(Box::new(miss));
                self.answer(Pending { target, step }, answer)
            }
            step => Err(Pending { target, step }),
        }
    }

    /// Run `f` while the shard owning `target` is held, as by another
    /// thread: inside `f` every step there parks, and a call that waits
    /// for the lock (`drain`) never returns.
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
