//! The simulation engine: every experiment's cache systems, driven as
//! *lanes* in parallel.
//!
//! A [`Lane`] is a label, the [`&Trace`](Trace) it replays and a
//! constructor of its [`CacheSystem`], which carries its own capacity: a
//! [`Cache`] under one policy (Experiment 2 runs 36 per workload), a
//! two-level or partitioned cache (Experiments 3 and 4), a wrapped cache
//! that measures more (Experiment 5, Appendix A). [`run_lanes`] hands the
//! lanes to the worker threads one at a time; a worker builds the system,
//! replays the whole trace into it with one call of
//! [`CacheSystem::replay_days`], hands the result and the system to the
//! lane's `finish` and drops the system, so a thread holds one resident
//! set at a time (DESIGN.md D8) and lanes of unequal cost balance across
//! the cores (D23). A lane that panics reports its message; every other
//! lane's result is kept. Lanes share no mutable state, so the result each
//! `finish` gets is **bit-identical to [`simulate`] on that lane's
//! system** — `tests/sweep_identity.rs` and the tests below hold the
//! engine to that, stream by stream, gauge by gauge.
//!
//! [`MultiSim`] is the shorthand for a policy sweep: one [`Cache`] lane
//! per policy, at one capacity. Its lanes are built in this crate, so a
//! `Cache` lane's day loop is compiled here whoever calls it (D43).

use crate::cache::Cache;
use crate::policy::RemovalPolicy;
use crate::sim::{simulate, CacheSystem, SimResult};
use rayon::prelude::*;
use std::panic::AssertUnwindSafe;
use webcache_trace::Trace;

/// One simulation lane, handing back an `R`.
pub struct Lane<'t, R = SimResult> {
    label: String,
    run: Box<dyn FnOnce(&str) -> R + Send + 't>,
}

impl<'t, R> Lane<'t, R> {
    /// A lane labelled `label` (its result's [`SimResult::system`]) that
    /// replays `trace` through the system `build` returns, then hands
    /// back what `finish` makes of the result and the system. Both run
    /// on the worker thread that drives the lane, so the system need not
    /// be `Send`, and it is dropped there as `finish` returns.
    pub fn with<S: CacheSystem>(
        label: impl Into<String>,
        trace: &'t Trace,
        build: impl FnOnce() -> S + Send + 't,
        finish: impl FnOnce(SimResult, S) -> R + Send + 't,
    ) -> Lane<'t, R> {
        Lane {
            label: label.into(),
            run: Box::new(move |label| {
                let mut system = build();
                // Through `dyn`: one virtual call per lane (D43).
                let result = simulate(trace, &mut system as &mut dyn CacheSystem, label);
                finish(result, system)
            }),
        }
    }
}

impl<'t> Lane<'t> {
    /// A lane that hands back its [`SimResult`] alone.
    pub fn new<S: CacheSystem>(
        label: impl Into<String>,
        trace: &'t Trace,
        build: impl FnOnce() -> S + Send + 't,
    ) -> Lane<'t> {
        Lane::with(label, trace, build, |result, _| result)
    }
}

/// Drive every lane, in parallel. Output order is input order; each `Ok`
/// is the lane's `finish` of what [`simulate`] returns for its trace,
/// system and label, and a lane that panics reports the panic's message
/// instead while every other lane's result is kept.
pub fn run_lanes<R: Send>(lanes: Vec<Lane<'_, R>>) -> Vec<(String, Result<R, String>)> {
    lanes
        .into_par_iter()
        .map(|Lane { label, run }| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| run(&label)));
            (label, result.map_err(panic_message))
        })
        .collect()
}

/// Render a caught panic's payload as a one-line message.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Policy sweeps: one [`Cache`] lane per policy, every lane over one
/// trace at one capacity.
pub struct MultiSim<'t> {
    trace: &'t Trace,
    capacity: u64,
}

impl<'t> MultiSim<'t> {
    /// An engine over `trace` giving every lane `capacity` bytes.
    pub fn new(trace: &'t Trace, capacity: u64) -> MultiSim<'t> {
        MultiSim { trace, capacity }
    }

    /// Simulate every `(label, policy)` lane. Output order matches input
    /// order, and each [`SimResult`] is identical to what
    /// `simulate_policy(trace, capacity, policy)` returns for that policy.
    /// A lane that panics panics the call, once every lane has run.
    pub fn run(&self, policies: Vec<(String, Box<dyn RemovalPolicy>)>) -> Vec<(String, SimResult)> {
        self.run_checked(policies)
            .into_iter()
            .map(|(label, result)| match result {
                Ok(result) => (label, result),
                Err(e) => panic!("lane {label} panicked: {e}"),
            })
            .collect()
    }

    /// Like [`run`](MultiSim::run), but a lane that panics reports
    /// `Err(panic message)` while every other lane's result is kept.
    pub fn run_checked(
        &self,
        policies: Vec<(String, Box<dyn RemovalPolicy>)>,
    ) -> Vec<(String, Result<SimResult, String>)> {
        let capacity = self.capacity;
        let lanes = (policies.into_iter())
            .map(|(label, policy)| {
                // The caller's label, and a result named after the policy.
                let system = policy.name();
                let cache = move || Cache::new(capacity, policy);
                let named = |result, _| SimResult { system, ..result };
                Lane::with(label, self.trace, cache, named)
            })
            .collect();
        run_lanes(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::multilevel::TwoLevelCache;
    use crate::cache::partitioned::PartitionedCache;
    use crate::policy::named;
    use crate::sim::instrument::InstrumentedCache;
    use crate::sim::simulate_policy;
    use webcache_trace::RawRequest;

    /// Three clients, and every third document audio.
    fn trace() -> Trace {
        let day = webcache_trace::SECONDS_PER_DAY;
        let raws: Vec<RawRequest> = (0..600u64)
            .map(|i| {
                let doc = (i * 7) % 29;
                let ext = if doc % 3 == 0 { "au" } else { "html" };
                RawRequest {
                    time: i * day / 90,
                    client: format!("c{}", i % 3),
                    url: format!("http://s/{doc}.{ext}"),
                    status: 200,
                    size: 100 + (doc % 11) * 150,
                    last_modified: None,
                }
            })
            .collect();
        Trace::from_raw("T", &raws)
    }

    fn assert_same(a: &SimResult, b: &SimResult) {
        assert_eq!(a.system, b.system);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.streams.len(), b.streams.len());
        for (sa, sb) in a.streams.iter().zip(&b.streams) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.total, sb.total);
            assert_eq!(sa.daily, sb.daily);
        }
    }

    #[test]
    fn lanes_match_serial_simulate_policy() {
        let t = trace();
        let makes: [fn() -> Box<dyn RemovalPolicy>; 3] = [
            || Box::new(named::size()),
            || Box::new(named::lru()),
            || Box::new(named::fifo()),
        ];
        let lanes = makes.iter().map(|make| (make().name(), make())).collect();
        let out = MultiSim::new(&t, 2_000).run(lanes);
        assert_eq!(out.len(), 3);
        for ((label, got), make) in out.iter().zip(makes) {
            let want = simulate_policy(&t, 2_000, make());
            assert_eq!(label, &want.system);
            assert_same(got, &want);
        }
    }

    /// A lane of `build`'s system, and `simulate`'s result for another.
    fn lane<'t, S: CacheSystem + 'static>(
        t: &'t Trace,
        label: &str,
        build: fn() -> S,
    ) -> (Lane<'t>, SimResult) {
        (Lane::new(label, t, build), simulate(t, &mut build(), label))
    }

    #[test]
    fn lanes_of_every_system_match_simulate() {
        let t = trace();
        let (lanes, want): (Vec<_>, Vec<_>) = [
            lane(&t, "cache", || Cache::new(8_000, Box::new(named::size()))),
            lane(&t, "two-level", || {
                TwoLevelCache::new(
                    Cache::new(6_000, Box::new(named::size())),
                    Cache::infinite(Box::new(named::lru())),
                )
            }),
            lane(&t, "shared L2", || {
                let l1 = || Cache::new(5_000, Box::new(named::size()));
                TwoLevelCache::shared(vec![l1(), l1()], Cache::new(12_000, Box::new(named::lru())))
            }),
            lane(&t, "partitioned", || {
                PartitionedCache::audio_split(12_000, 0.5, || Box::new(named::size()))
            }),
        ]
        .into_iter()
        .unzip();
        let out = run_lanes(lanes);
        assert_eq!(out.len(), want.len());
        for ((label, got), want) in out.iter().zip(&want) {
            assert_eq!(label, &want.system, "output order is input order");
            assert_same(got.as_ref().expect("no lane panics"), want);
            assert!(want.streams.iter().all(|s| s.total.hits > 0), "{label}");
        }
        assert_eq!(want[2].streams.len(), 3, "l1_0, l1_1 and l2");
        // A lane hands back what its system measured beyond the result.
        let build = || InstrumentedCache::new(Cache::new(10_000, Box::new(named::size())), 7);
        let mut twin = build();
        let want = simulate(&t, &mut twin, "instrumented");
        let lane = Lane::with("instrumented", &t, build, |r, ic| (r, ic.into_report()));
        let (got, report) = run_lanes(vec![lane]).remove(0).1.expect("no lane panics");
        assert_same(&got, &want);
        assert!(report.hit_position_log2.iter().sum::<u64>() > 0);
        assert_eq!(&report, twin.report());
    }

    /// A policy that panics after a fixed number of insertions, for
    /// exercising the salvage path.
    struct PanicAfter {
        inner: Box<dyn RemovalPolicy>,
        inserts_left: u32,
    }

    impl RemovalPolicy for PanicAfter {
        fn name(&self) -> String {
            "PANIC-AFTER".to_string()
        }
        fn on_insert(&mut self, meta: &crate::cache::DocMeta) {
            if self.inserts_left == 0 {
                panic!("synthetic lane failure");
            }
            self.inserts_left -= 1;
            self.inner.on_insert(meta);
        }
        fn on_access(&mut self, meta: &crate::cache::DocMeta) {
            self.inner.on_access(meta);
        }
        fn observes_hits(&self) -> bool {
            self.inner.observes_hits()
        }
        fn on_remove(&mut self, url: webcache_trace::UrlId) {
            self.inner.on_remove(url);
        }
        fn victim(
            &mut self,
            now: webcache_trace::Timestamp,
            incoming_size: u64,
            docs: &dyn crate::policy::ResidentMeta,
        ) -> Option<webcache_trace::UrlId> {
            self.inner.victim(now, incoming_size, docs)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn run_checked_salvages_healthy_lanes() {
        let t = trace();
        let cap = 2_000;
        let broken = || -> Box<dyn RemovalPolicy> {
            Box::new(PanicAfter {
                inner: Box::new(named::lru()),
                inserts_left: 5,
            })
        };
        let out = MultiSim::new(&t, cap).run_checked(vec![
            ("LRU".into(), Box::new(named::lru())),
            ("BROKEN".into(), broken()),
            ("SIZE".into(), Box::new(named::size())),
        ]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, "LRU");
        assert_eq!(out[2].0, "SIZE");
        let err = out[1].1.as_ref().unwrap_err();
        assert!(err.contains("synthetic lane failure"), "got: {err}");
        // Healthy lanes still match serial simulation exactly.
        let want = simulate_policy(&t, cap, Box::new(named::lru()));
        assert_same(out[0].1.as_ref().unwrap(), &want);
        // A lane's `finish` runs only once its replay has returned.
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let finish = |result: SimResult, _: Cache| {
            finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            result
        };
        let lru = || Cache::new(cap, Box::new(named::lru()));
        let out = run_lanes(vec![
            Lane::with("BROKEN", &t, move || Cache::new(cap, broken()), finish),
            Lane::with("LRU", &t, lru, finish),
        ]);
        assert_eq!(finished.into_inner(), 1, "a broken lane never finishes");
        assert!(out[0].1.is_err());
        assert_same(out[1].1.as_ref().unwrap(), &want);
    }

    #[test]
    #[should_panic(expected = "synthetic lane failure")]
    fn run_propagates_a_lane_panic() {
        let t = trace();
        MultiSim::new(&t, 2_000).run(vec![
            ("LRU".into(), Box::new(named::lru())),
            (
                "BROKEN".into(),
                Box::new(PanicAfter {
                    inner: Box::new(named::lru()),
                    inserts_left: 5,
                }),
            ),
        ]);
    }

    #[test]
    fn empty_lane_set_is_fine() {
        let t = trace();
        assert!(MultiSim::new(&t, 1_000).run(Vec::new()).is_empty());
    }
}
