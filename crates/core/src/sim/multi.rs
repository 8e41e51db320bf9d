//! [`MultiSim`]: the multi-policy simulation engine.
//!
//! A policy sweep (Experiment 2 runs 36 policies per workload) used to
//! hand-roll a [`simulate_policy`](crate::sim::simulate_policy) loop per
//! caller, re-implementing day-boundary bookkeeping and per-day stream
//! snapshots each time. `MultiSim` drives N independent [`Cache`] *lanes*
//! over one shared borrowed [`&Trace`](Trace) behind a single API. Each
//! worker thread claims the next undriven lane, builds its cache, replays
//! the whole day-ordered trace into it and drops the cache again, so a
//! thread holds one resident set at a time (interleaving many resident
//! sets, or keeping them all allocated at once, costs far more than
//! re-iterating the borrowed trace — DESIGN.md D8) and lanes of unequal
//! cost balance across the cores (D23).
//!
//! Because lanes never share mutable state and results are stored by lane
//! index, the output is **bit-identical to running [`simulate_policy`]
//! serially per policy** — `tests/sweep_identity.rs` and the determinism
//! tests in `webcache-experiments` assert exactly this, stream by stream
//! and gauge by gauge.
//!
//! [`simulate_policy`]: crate::sim::simulate_policy

use crate::cache::{Cache, MetaDecorator};
use crate::policy::RemovalPolicy;
use crate::sim::{panic_message, replay_days, CacheSystem, SimResult};
use rayon::prelude::*;
use webcache_trace::{Request, Trace};

/// One simulation lane: a policy plus optional per-lane configuration.
pub struct LaneSpec {
    /// Caller's label for this lane, returned alongside its result (it
    /// need not match the policy's display name).
    pub label: String,
    /// The removal policy driving this lane's cache.
    pub policy: Box<dyn RemovalPolicy>,
    /// Optional metadata decorator (Experiment 5 attaches latency/expiry
    /// models here).
    pub decorator: Option<MetaDecorator>,
}

impl LaneSpec {
    /// A plain lane with no decorator.
    pub fn new(label: impl Into<String>, policy: Box<dyn RemovalPolicy>) -> LaneSpec {
        LaneSpec {
            label: label.into(),
            policy,
            decorator: None,
        }
    }

    /// Attach a metadata decorator to this lane's cache.
    pub fn with_decorator(mut self, d: MetaDecorator) -> LaneSpec {
        self.decorator = Some(d);
        self
    }
}

/// The single-pass engine. Construct with a shared trace and a per-lane
/// capacity, then [`run`](MultiSim::run) a set of policies.
pub struct MultiSim<'t> {
    trace: &'t Trace,
    capacity: u64,
}

impl<'t> MultiSim<'t> {
    /// An engine over `trace` giving every lane `capacity` bytes.
    pub fn new(trace: &'t Trace, capacity: u64) -> MultiSim<'t> {
        MultiSim { trace, capacity }
    }

    /// Simulate every `(label, policy)` lane in one pass. Output order
    /// matches input order, and each [`SimResult`] is identical to what
    /// `simulate_policy(trace, capacity, policy)` returns for that policy.
    pub fn run(&self, policies: Vec<(String, Box<dyn RemovalPolicy>)>) -> Vec<(String, SimResult)> {
        let lanes = policies
            .into_iter()
            .map(|(label, policy)| LaneSpec::new(label, policy))
            .collect();
        self.run_observed(lanes, || (), |_, _, _| ())
            .into_iter()
            .map(|(label, result, ())| (label, result))
            .collect()
    }

    /// Like [`run`](MultiSim::run), but a panicking lane no longer takes
    /// the whole sweep down: each lane is driven under
    /// [`catch_unwind`](std::panic::catch_unwind) and reports
    /// `Err(panic message)` while every other lane's result is salvaged.
    /// Output order still matches input order, and `Ok` results are still
    /// bit-identical to serial [`simulate_policy`].
    pub fn run_checked(
        &self,
        policies: Vec<(String, Box<dyn RemovalPolicy>)>,
    ) -> Vec<(String, Result<SimResult, String>)> {
        let (trace, capacity) = (self.trace, self.capacity);
        policies
            .into_par_iter()
            .map(|(label, policy)| {
                let spec = LaneSpec::new(label.clone(), policy);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    drive(trace, capacity, spec, (), &|_: &mut (), _: &Request, _| ()).1
                }))
                .map_err(panic_message);
                (label, result)
            })
            .collect()
    }

    /// Like [`run`](MultiSim::run), but every lane also feeds each
    /// request and whether it hit into a per-lane observer state built by
    /// `init` — how Experiment 5 computes text-only hit rates and latency
    /// totals without a second pass.
    pub fn run_observed<O, F>(
        &self,
        specs: Vec<LaneSpec>,
        init: impl Fn() -> O,
        observe: F,
    ) -> Vec<(String, SimResult, O)>
    where
        O: Send,
        F: Fn(&mut O, &Request, bool) + Sync,
    {
        let (trace, capacity) = (self.trace, self.capacity);
        let lanes: Vec<(LaneSpec, O)> = specs.into_iter().map(|spec| (spec, init())).collect();
        lanes
            .into_par_iter()
            .map(|(spec, observer)| drive(trace, capacity, spec, observer, &observe))
            .collect()
    }
}

/// Drive one lane through the whole trace in the day loop `simulate()`
/// runs, telling the observer of each request whether it hit. The cache
/// is built here and dropped here, so a thread holds one resident set at
/// a time.
fn drive<O, F>(
    trace: &Trace,
    capacity: u64,
    spec: LaneSpec,
    mut observer: O,
    observe: &F,
) -> (String, SimResult, O)
where
    F: Fn(&mut O, &Request, bool) + Sync,
{
    let mut cache = Cache::new(capacity, spec.policy);
    if let Some(d) = spec.decorator {
        cache = cache.with_decorator(d);
    }
    let streams = replay_days(trace, &mut cache, |cache, r| {
        let hit = cache.request_hit(r);
        observe(&mut observer, r, hit);
    });
    let result = SimResult {
        workload: trace.name.clone(),
        system: cache.policy_name(),
        streams,
        gauges: cache.gauges(),
    };
    (spec.label, result, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use crate::sim::simulate_policy;
    use webcache_trace::RawRequest;

    fn trace() -> Trace {
        let day = webcache_trace::SECONDS_PER_DAY;
        let raws: Vec<RawRequest> = (0..400u64)
            .map(|i| RawRequest {
                time: i * day / 80,
                client: "c".into(),
                url: format!("http://s/{}.html", (i * 7) % 23),
                status: 200,
                size: 100 + (i % 11) * 150,
                last_modified: None,
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
        let cap = 2_000;
        let out = MultiSim::new(&t, cap).run(vec![
            ("SIZE".into(), Box::new(named::size())),
            ("LRU".into(), Box::new(named::lru())),
            ("FIFO".into(), Box::new(named::fifo())),
        ]);
        assert_eq!(out.len(), 3);
        for ((label, got), make) in out.iter().zip([
            &|| Box::new(named::size()) as Box<dyn RemovalPolicy>,
            &|| Box::new(named::lru()) as Box<dyn RemovalPolicy>,
            &|| Box::new(named::fifo()) as Box<dyn RemovalPolicy>,
        ]
            as [&dyn Fn() -> Box<dyn RemovalPolicy>; 3])
        {
            let want = simulate_policy(&t, cap, make());
            assert_eq!(label, &want.system);
            assert_same(got, &want);
        }
    }

    #[test]
    fn observer_sees_every_request_once_per_lane() {
        let t = trace();
        let out = MultiSim::new(&t, 5_000).run_observed(
            vec![
                LaneSpec::new("a", Box::new(named::lru())),
                LaneSpec::new("b", Box::new(named::size())),
            ],
            || (0u64, 0u64),
            |acc, r, hit| {
                acc.0 += 1;
                if hit {
                    acc.1 += r.size;
                }
            },
        );
        for (_, result, (seen, hit_bytes)) in &out {
            let total = result.stream("cache").unwrap().total;
            assert_eq!(*seen, total.requests);
            assert_eq!(*hit_bytes, total.bytes_hit);
        }
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
        let out = MultiSim::new(&t, cap).run_checked(vec![
            ("LRU".into(), Box::new(named::lru())),
            (
                "BROKEN".into(),
                Box::new(PanicAfter {
                    inner: Box::new(named::lru()),
                    inserts_left: 5,
                }),
            ),
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
    }

    #[test]
    fn empty_lane_set_is_fine() {
        let t = trace();
        assert!(MultiSim::new(&t, 1_000).run(Vec::new()).is_empty());
    }
}
