//! Trace-driven simulation: the reproduction of the paper's PERL
//! discrete-event simulator (Appendix A).
//!
//! "All experiments are initiated with an empty cache and run for the full
//! duration of the workload. The simulation reports WHR and HR for each day
//! separately." (section 3.2). This module drives a [`Trace`] through any
//! [`CacheSystem`] and collects per-day counter deltas for each metric
//! stream the system exposes (one stream for a plain cache; L1 and L2
//! streams for a hierarchy; per-partition streams for a partitioned cache).

pub mod instrument;
pub mod multi;

pub use multi::{run_lanes, Lane, MultiSim};

use crate::cache::multilevel::TwoLevelCache;
use crate::cache::partitioned::PartitionedCache;
use crate::cache::{Cache, Counts};
use crate::policy::{NeverEvict, RemovalPolicy};
use serde::{Deserialize, Serialize};
use webcache_trace::{Request, Trace};

/// Anything the simulator can drive a trace through.
pub trait CacheSystem {
    /// Handle one request.
    fn handle(&mut self, r: &Request);

    /// Names of the cumulative counter streams the simulator snapshots
    /// each day, in the order [`CacheSystem::snapshot`] writes them.
    fn stream_names(&self) -> Vec<String>;

    /// Write each stream's cumulative counters into `out`, which has one
    /// slot per name of [`CacheSystem::stream_names`]. Called once a day
    /// per lane, so it allocates nothing.
    fn snapshot(&self, out: &mut [Counts]);

    /// Named gauges reported at the end of simulation (e.g. `max_used`,
    /// the paper's *MaxNeeded* when the cache is infinite).
    fn gauges(&self) -> Vec<(String, u64)>;

    /// Size every table the system indexes by URL id for ids below
    /// `urls`, so that no request grows one: the replay of a trace calls
    /// it with the trace's URL count before its first request. A total,
    /// as for [`Cache::reserve_urls`]. A system that holds caches passes
    /// it to each; the default does nothing, which is only slower.
    fn reserve_urls(&mut self, _urls: usize) {}

    /// The day loop every simulation runs: feed each day's requests to
    /// [`handle`](CacheSystem::handle), then record the day's delta of
    /// every stream. The names are read once and every buffer is sized up
    /// front, the system's per-URL tables included
    /// ([`reserve_urls`](CacheSystem::reserve_urls)), so a day allocates
    /// nothing and a cold replay copies no slab as it fills (DESIGN.md
    /// D44). Each implementation gets its own copy of this loop with
    /// `handle` called directly, so a boxed system pays one virtual call
    /// per trace, not one per request.
    fn replay_days(&mut self, trace: &Trace) -> Vec<StreamResult> {
        self.reserve_urls(trace.interner.url_count());
        let names = self.stream_names();
        let days = trace.duration_days() as usize;
        let mut prev = vec![Counts::default(); names.len()];
        let mut now = prev.clone();
        let mut daily: Vec<Vec<Counts>> = names.iter().map(|_| Vec::with_capacity(days)).collect();
        for (_day, requests) in trace.days() {
            for r in requests {
                self.handle(r);
            }
            self.snapshot(&mut now);
            for ((daily, now), prev) in daily.iter_mut().zip(&now).zip(&mut prev) {
                daily.push(now.delta(prev));
                *prev = *now;
            }
        }
        self.snapshot(&mut now);
        names
            .into_iter()
            .zip(daily)
            .zip(now)
            .map(|((name, daily), total)| StreamResult { name, daily, total })
            .collect()
    }
}

impl CacheSystem for Cache {
    // Inlined into the day loop wherever that is compiled: without it a
    // hit costs ~1 ns more (DESIGN.md D43).
    #[inline]
    fn handle(&mut self, r: &Request) {
        self.request_hit(r);
    }

    fn reserve_urls(&mut self, urls: usize) {
        Cache::reserve_urls(self, urls);
    }

    fn stream_names(&self) -> Vec<String> {
        vec!["cache".to_string()]
    }

    fn snapshot(&self, out: &mut [Counts]) {
        out.copy_from_slice(&[self.counts()]);
    }

    fn gauges(&self) -> Vec<(String, u64)> {
        vec![
            ("max_used".to_string(), self.stats().max_used),
            ("evictions".to_string(), self.stats().evictions),
            (
                "periodic_evictions".to_string(),
                self.stats().periodic_evictions,
            ),
        ]
    }
}

impl CacheSystem for TwoLevelCache {
    fn handle(&mut self, r: &Request) {
        let _ = self.request(r);
    }

    fn reserve_urls(&mut self, urls: usize) {
        TwoLevelCache::reserve_urls(self, urls);
    }

    /// `l1` and `l2`, or `l1_0`, `l1_1`, … and `l2`.
    fn stream_names(&self) -> Vec<String> {
        let n = self.l1s().len();
        let l1s = (0..n).map(|i| match n {
            1 => "l1".to_string(),
            _ => format!("l1_{i}"),
        });
        l1s.chain(std::iter::once("l2".to_string())).collect()
    }

    fn snapshot(&self, out: &mut [Counts]) {
        let (l2, l1s) = out.split_last_mut().expect("an l2 stream");
        for (out, c) in l1s.iter_mut().zip(self.l1s()) {
            *out = c.counts();
        }
        *l2 = self.l2_counts_over_all_requests();
    }

    /// Each level's `max_used`, named after its stream.
    fn gauges(&self) -> Vec<(String, u64)> {
        let caches = self.l1s().iter().chain(std::iter::once(self.l2()));
        (self.stream_names().into_iter().zip(caches))
            .map(|(name, c)| (format!("{name}_max_used"), c.stats().max_used))
            .collect()
    }
}

impl CacheSystem for PartitionedCache {
    fn handle(&mut self, r: &Request) {
        self.request(r);
    }

    fn reserve_urls(&mut self, urls: usize) {
        PartitionedCache::reserve_urls(self, urls);
    }

    fn stream_names(&self) -> Vec<String> {
        let partitions = self.partitions().iter().map(|p| p.name.clone());
        std::iter::once("total".to_string())
            .chain(partitions)
            .collect()
    }

    fn snapshot(&self, out: &mut [Counts]) {
        let (total, partitions) = out.split_first_mut().expect("a total stream");
        *total = self.total_counts();
        for (out, p) in partitions.iter_mut().zip(self.partitions()) {
            *out = self
                .counts_over_all_requests(&p.name)
                .expect("partition names its own stream");
        }
    }

    fn gauges(&self) -> Vec<(String, u64)> {
        self.partitions()
            .iter()
            .map(|p| (format!("{}_max_used", p.name), p.cache.stats().max_used))
            .collect()
    }
}

/// Per-day counter deltas for one metric stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamResult {
    /// Stream name (`"cache"`, `"l1"`, `"l2"`, `"audio"`, …).
    pub name: String,
    /// One counter delta per day of the trace (including empty days).
    pub daily: Vec<Counts>,
    /// Totals over the whole trace.
    pub total: Counts,
}

impl StreamResult {
    /// Daily hit rates as fractions. Days with no requests yield `None`,
    /// matching the paper's practice of not plotting idle days.
    pub fn daily_hr(&self) -> Vec<Option<f64>> {
        self.daily
            .iter()
            .map(|c| (c.requests > 0).then(|| c.hit_rate()))
            .collect()
    }

    /// Daily weighted hit rates as fractions.
    pub fn daily_whr(&self) -> Vec<Option<f64>> {
        self.daily
            .iter()
            .map(|c| (c.requests > 0).then(|| c.weighted_hit_rate()))
            .collect()
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// What was simulated (policy / configuration description).
    pub system: String,
    /// Per-stream daily results.
    pub streams: Vec<StreamResult>,
    /// Final gauges (e.g. `max_used` = MaxNeeded for an infinite cache).
    pub gauges: Vec<(String, u64)>,
}

impl SimResult {
    /// A stream by name.
    pub fn stream(&self, name: &str) -> Option<&StreamResult> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// A gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Drive `trace` through `system` on the calling thread, collecting
/// per-day deltas of every stream ([`CacheSystem::replay_days`]) and the
/// system's final gauges, under the label `label`: what a lane of
/// [`run_lanes`] hands its `finish`, with the system to read back (an
/// [`InstrumentedCache`](instrument::InstrumentedCache)'s report).
pub fn simulate<S: CacheSystem + ?Sized>(trace: &Trace, system: &mut S, label: &str) -> SimResult {
    let streams = system.replay_days(trace);
    SimResult {
        workload: trace.name.clone(),
        system: label.to_string(),
        streams,
        gauges: system.gauges(),
    }
}

/// Experiment 1: simulate an infinite cache. The result's `max_used` gauge
/// is the paper's *MaxNeeded* — "the size needed for no document
/// replacements to occur".
pub fn simulate_infinite(trace: &Trace) -> SimResult {
    let mut cache = Cache::infinite(Box::new(NeverEvict::new()));
    simulate(trace, &mut cache, "infinite")
}

/// MaxNeeded of a workload (byte size of an infinite cache at trace end's
/// high-water mark).
pub fn max_needed(trace: &Trace) -> u64 {
    simulate_infinite(trace)
        .gauge("max_used")
        .expect("infinite cache reports max_used")
}

/// Simulate a finite single-level cache under the given policy.
pub fn simulate_policy(trace: &Trace, capacity: u64, policy: Box<dyn RemovalPolicy>) -> SimResult {
    let label = policy.name();
    let mut cache = Cache::new(capacity, policy);
    simulate(trace, &mut cache, &label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use webcache_trace::RawRequest;

    fn raw(time: u64, url: &str, size: u64) -> RawRequest {
        RawRequest {
            time,
            client: "c".into(),
            url: url.into(),
            status: 200,
            size,
            last_modified: None,
        }
    }

    fn small_trace() -> Trace {
        let day = webcache_trace::SECONDS_PER_DAY;
        Trace::from_raw(
            "T",
            &[
                raw(0, "http://s/a.html", 100),
                raw(10, "http://s/a.html", 100), // hit
                raw(20, "http://s/b.html", 200),
                // day 1: empty
                raw(2 * day + 5, "http://s/a.html", 100), // hit
                raw(2 * day + 6, "http://s/c.html", 300),
            ],
        )
    }

    #[test]
    fn infinite_sim_computes_max_needed_and_daily_series() {
        let t = small_trace();
        let res = simulate_infinite(&t);
        assert_eq!(max_needed(&t), 600);
        let s = res.stream("cache").unwrap();
        assert_eq!(s.daily.len(), 3);
        assert_eq!(s.daily[0].requests, 3);
        assert_eq!(s.daily[0].hits, 1);
        assert_eq!(s.daily[1].requests, 0);
        assert_eq!(s.daily[2].requests, 2);
        assert_eq!(s.daily[2].hits, 1);
        assert_eq!(s.total.requests, 5);
        assert_eq!(s.total.hits, 2);
        // Day with no requests yields None in the rate series.
        assert_eq!(s.daily_hr()[1], None);
        assert!((s.daily_hr()[0].unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn daily_deltas_sum_to_total() {
        let t = small_trace();
        let res = simulate_policy(&t, 250, Box::new(named::size()));
        let s = res.stream(&res.streams[0].name.clone()).unwrap();
        let sum_req: u64 = s.daily.iter().map(|c| c.requests).sum();
        let sum_hits: u64 = s.daily.iter().map(|c| c.hits).sum();
        assert_eq!(sum_req, s.total.requests);
        assert_eq!(sum_hits, s.total.hits);
    }

    #[test]
    fn finite_cache_has_lower_or_equal_hits_than_infinite() {
        let t = small_trace();
        let inf = simulate_infinite(&t).stream("cache").unwrap().total;
        let fin = simulate_policy(&t, 150, Box::new(named::lru()))
            .stream("cache")
            .unwrap()
            .total;
        assert!(fin.hits <= inf.hits);
    }

    #[test]
    fn two_level_streams_via_trait() {
        let t = small_trace();
        let mut h = TwoLevelCache::new(
            Cache::new(150, Box::new(named::size())),
            Cache::infinite(Box::new(named::lru())),
        );
        let res = simulate(&t, &mut h, "two-level");
        assert!(res.stream("l1").is_some());
        assert!(res.stream("l2").is_some());
        let l1 = res.stream("l1").unwrap().total;
        let l2 = res.stream("l2").unwrap().total;
        assert_eq!(l2.requests, l1.requests, "L2 stream is over all requests");
    }
}
