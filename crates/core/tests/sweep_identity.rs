//! What the sweep engine may and may not change (DESIGN.md D23).
//!
//! * **Bit-identity.** `MultiSim::run` over the paper's 36 policies equals
//!   `simulate_policy` lane by lane — totals, gauges and every per-day
//!   count — with more lanes than worker threads (lanes are claimed one at
//!   a time, so which thread drives which lane differs from run to run)
//!   and with a single lane (no thread at all).
//! * **Allocations.** The simulator's request path hands evicted documents
//!   to a sink that drops them. Replaying a trace through a warmed cache
//!   allocates only when a container grows — O(log n) times in total —
//!   while `Cache::request` still returns the exact eviction list; and the
//!   day loop around it snapshots each day's counters into buffers it
//!   made once, so a multi-day replay adds nothing per day.
//! * **No growth of a per-URL table.** A replay sizes every slab indexed
//!   by URL id from its trace before the first request (DESIGN.md D44),
//!   so even a cold cache re-copies none of them as it fills: only the
//!   policies' queues, a few entries per resident document, grow.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) reads the
//! allocation test's own thread, so the identity test's worker threads do
//! not disturb it.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_during, reallocated_during};
use webcache_core::cache::multilevel::TwoLevelCache;
use webcache_core::cache::partitioned::PartitionedCache;
use webcache_core::cache::{Cache, DocMeta, Outcome};
use webcache_core::policy::{named, KeySpec, NeverEvict, RemovalPolicy, SortedPolicy};
use webcache_core::sim::instrument::InstrumentedCache;
use webcache_core::sim::{max_needed, simulate, simulate_policy, CacheSystem, MultiSim, SimResult};
use webcache_trace::{Request, Trace};
use webcache_workload::{generate, profiles};

/// The paper's Undergrad workload at 5 %: 8.7 k requests over its 190
/// days, and its capacity in the Experiment 2 regime.
fn u_trace(seed: u64) -> (Trace, u64) {
    let trace = generate(&profiles::u().scaled(0.05), seed);
    let capacity = (max_needed(&trace) / 10).max(1);
    (trace, capacity)
}

fn lanes(specs: &[KeySpec]) -> Vec<(String, Box<dyn RemovalPolicy>)> {
    specs
        .iter()
        .map(|&spec| {
            let policy = Box::new(SortedPolicy::new(spec)) as Box<dyn RemovalPolicy>;
            (spec.name(), policy)
        })
        .collect()
}

fn assert_same(label: &str, got: &SimResult, want: &SimResult) {
    assert_eq!(got.system, want.system, "{label}");
    assert_eq!(got.workload, want.workload, "{label}");
    assert_eq!(got.gauges, want.gauges, "{label}: gauges");
    assert_eq!(got.streams.len(), want.streams.len(), "{label}");
    for (a, b) in got.streams.iter().zip(&want.streams) {
        assert_eq!(a.name, b.name, "{label}");
        assert_eq!(a.total, b.total, "{label}: totals");
        assert_eq!(a.daily, b.daily, "{label}: per-day counts");
    }
}

#[test]
fn multisim_equals_simulate_policy_lane_by_lane() {
    let (trace, capacity) = u_trace(11);
    let specs = KeySpec::all36(0);
    let sim = MultiSim::new(&trace, capacity);

    let swept = sim.run(lanes(&specs));
    assert_eq!(swept.len(), specs.len());
    for ((label, got), &spec) in swept.iter().zip(&specs) {
        assert_eq!(label, &spec.name(), "output order is input order");
        let want = simulate_policy(&trace, capacity, Box::new(SortedPolicy::new(spec)));
        assert_same(label, got, &want);
        let evictions = got.gauge("evictions").expect("gauge");
        assert!(evictions > 0, "{label}: the trace must make the lane evict");
    }

    // One lane runs on the calling thread.
    for &spec in &[specs[0], specs[21]] {
        let alone = sim.run(lanes(&[spec]));
        let want = simulate_policy(&trace, capacity, Box::new(SortedPolicy::new(spec)));
        assert_eq!(alone.len(), 1);
        assert_same(&alone[0].0, &alone[0].1, &want);
    }
}

#[test]
fn a_warmed_cache_replays_a_trace_without_allocating_per_miss() {
    let (trace, capacity) = u_trace(12);
    // The same requests again, a trace-length later.
    let span = trace.requests.last().expect("non-empty trace").time + 1;
    let again: Vec<Request> = (trace.requests.iter())
        .map(|r| Request {
            time: r.time + span,
            ..*r
        })
        .collect();
    for policy in [named::lru as fn() -> SortedPolicy, named::size, named::lfu] {
        // Warm-up: one full pass sizes the slabs and brings the cache to
        // capacity. The second pass then hits, misses and evicts all day.
        let mut cache = Cache::new(capacity, Box::new(policy()));
        let name = cache.policy_name();
        for r in &trace.requests {
            cache.handle(r);
        }
        let warm = *cache.stats();
        let allocations = allocations_during(|| {
            for r in &again {
                cache.handle(r);
            }
        });
        let evictions = cache.stats().evictions - warm.evictions;
        assert!(
            evictions > 1_000,
            "{name}: only {evictions} evictions in the measured pass"
        );
        // Growth of the policy's queues by doubling, nothing per request.
        assert!(
            allocations <= 2 * again.len().ilog2() as u64,
            "{name}: {allocations} allocations over {} requests, {evictions} evictions",
            again.len()
        );

        // The collecting path is the same routine: it evicts the same
        // documents, and says which.
        let mut listing = Cache::new(capacity, Box::new(policy()));
        let mut listed = 0;
        for r in trace.requests.iter().chain(&again) {
            if let Outcome::Miss { evicted } | Outcome::MissModified { evicted } =
                listing.request(r)
            {
                listed += evicted.len() as u64;
                assert!(evicted.iter().all(|m| !listing.contains(m.url)));
            }
        }
        assert_eq!(listed, cache.stats().evictions, "{name}");
        assert_eq!(listing.stats(), cache.stats(), "{name}");
    }
}

#[test]
fn a_warmed_lane_replays_its_days_without_allocating_per_day() {
    let (trace, capacity) = u_trace(13);
    // The same requests again, a trace-length later: the days before the
    // first of them are empty, then every day of the trace recurs.
    let span = trace.requests.last().expect("non-empty trace").time + 1;
    let again = Trace {
        requests: (trace.requests.iter())
            .map(|r| Request {
                time: r.time + span,
                ..*r
            })
            .collect(),
        ..trace.clone()
    };
    let days = again.duration_days() as usize;
    assert!(days > 300, "{days} days");
    for policy in [named::lru as fn() -> SortedPolicy, named::size, named::lfu] {
        let mut cache = Cache::new(capacity, Box::new(policy()));
        let name = cache.policy_name();
        for r in &trace.requests {
            cache.handle(r);
        }
        let mut replayed = None;
        let allocations = allocations_during(|| replayed = Some(simulate(&again, &mut cache, "")));
        let replayed = replayed.expect("ran");
        assert_eq!(replayed.streams[0].daily.len(), days, "{name}");
        // The result's names, buffers and gauges, and the policy's
        // queues growing by doubling: nothing per day or per request.
        assert!(
            allocations <= 2 * again.len().ilog2() as u64,
            "{name}: {allocations} allocations over {} requests and {days} days",
            again.len()
        );
    }
}

#[test]
fn a_cold_replay_grows_no_per_url_table() {
    let (trace, capacity) = u_trace(14);
    let urls = trace.interner.url_count();
    // A slab that grew by doubling as ids arrived would have re-copied
    // about its own final size: more than this for the docs slab alone.
    let bound = (urls * std::mem::size_of::<DocMeta>()) as u64;
    let lru = || Cache::new(capacity, Box::new(named::lru()));
    let size = || Cache::new(capacity, Box::new(named::size()));
    let systems: Vec<(&str, Box<dyn CacheSystem>)> = vec![
        ("LRU", Box::new(lru())),
        ("SIZE", Box::new(size())),
        // A wrapper passes the count on to every cache it holds.
        (
            "two levels",
            Box::new(TwoLevelCache::shared(
                vec![lru(), size()],
                Cache::infinite(Box::new(NeverEvict::new())),
            )),
        ),
        (
            "partitions",
            Box::new(PartitionedCache::audio_split(capacity, 0.5, || {
                Box::new(named::size())
            })),
        ),
        // Appendix A's lane: its per-URL access records too, and no
        // eviction list built per miss.
        (
            "instrumented",
            Box::new(InstrumentedCache::new(lru(), 1000)),
        ),
    ];
    for (name, mut system) in systems {
        let mut result = None;
        let reallocated =
            reallocated_during(|| result = Some(simulate(&trace, &mut *system, name)));
        let result = result.expect("ran");
        // A plain lane fills and then evicts, so its queues grow too.
        if let Some(evictions) = result.gauge("evictions") {
            assert!(evictions > 1_000, "{name}: only {evictions} evictions");
        }
        assert!(
            reallocated < bound,
            "{name}: {reallocated} bytes re-copied by growth, for {urls} URLs (bound {bound})"
        );
    }
}
