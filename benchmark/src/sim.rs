//! The simulator beside the proxy: the paper's own use of `core::cache`
//! and `core::policy`, single-threaded per lane, no sockets and no
//! locks. A cache layout that helps the locked, sharded proxy path but
//! slows the simulator shows here and nowhere else.

use std::time::{Duration, Instant};

use webcache_core::policy::{named, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_core::sim::{simulate_policy, MultiSim, SimResult};
use webcache_trace::Trace;

use crate::stats::median;

/// Lanes of one sweep: the paper's full 36-policy design.
pub const LANES: usize = 36;

fn lanes() -> Vec<(String, Box<dyn RemovalPolicy>)> {
    KeySpec::all36(0)
        .into_iter()
        .map(|spec| {
            (
                spec.name(),
                Box::new(SortedPolicy::new(spec)) as Box<dyn RemovalPolicy>,
            )
        })
        .collect()
}

/// Iterations of the spin kernel per thread and repetition: some 15 ms
/// of integer work that touches no memory.
const SPIN_ITERATIONS: u64 = 12_000_000;

/// Spin-kernel iterations per second, on as many threads as `MultiSim`
/// spreads its lanes over: how fast the host computes right now.
fn spin_rate() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            scope.spawn(move || {
                let mut x = t;
                for i in 0..SPIN_ITERATIONS {
                    x = x.wrapping_add(i.wrapping_mul(i) ^ (x >> 3));
                }
                std::hint::black_box(x);
            });
        }
    });
    (threads as u64 * SPIN_ITERATIONS) as f64 / t0.elapsed().as_secs_f64()
}

/// How fast the simulator ran, alone and against the spin kernel.
pub struct SweepRate {
    /// Σ(requests × 36 lanes) over the median sweep wall time.
    pub lane_requests_per_s: f64,
    pub spin_per_s: f64,
    /// Median over repetitions of lane-requests per spin iteration, the
    /// kernel timed right after each sweep: the host's pace cancels.
    pub vs_spin: f64,
}

/// `MultiSim` over all 36 policies on every `(trace, capacity)`,
/// repeated until `budget` is spent and at least `min_reps` times.
pub fn sweep_rate(inputs: &[(&Trace, u64)], budget: Duration, min_reps: usize) -> SweepRate {
    let lane_requests: usize = inputs.iter().map(|(t, _)| t.len() * LANES).sum();
    let started = Instant::now();
    let (mut rates, mut spins, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    while rates.len() < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        for &(trace, capacity) in inputs {
            std::hint::black_box(MultiSim::new(trace, capacity).run(lanes()));
        }
        let rate = lane_requests as f64 / t0.elapsed().as_secs_f64();
        let spin = spin_rate();
        rates.push(rate);
        spins.push(spin);
        ratios.push(rate / spin);
    }
    SweepRate {
        lane_requests_per_s: median(&rates),
        spin_per_s: median(&spins),
        vs_spin: median(&ratios),
    }
}

fn totals(r: &SimResult) -> (u64, u64) {
    let c = r.stream("cache").expect("single-level result").total;
    (c.requests, c.hits)
}

/// Hit rate of SIZE on `trace` at `capacity`, after checking what the
/// simulator promises: SIZE's hit rate is no lower than LRU's (the
/// paper's headline, asserted when `size_beats_lru`), and two `MultiSim`
/// lanes picked by `seed` equal `simulate_policy` for the same policy.
pub fn checked_size_hit_rate(
    trace: &Trace,
    capacity: u64,
    seed: u64,
    size_beats_lru: bool,
    problems: &mut Vec<String>,
) -> f64 {
    let rate = |r: &SimResult| {
        let (requests, hits) = totals(r);
        hits as f64 / requests.max(1) as f64
    };
    let size = rate(&simulate_policy(trace, capacity, Box::new(named::size())));
    let lru = rate(&simulate_policy(trace, capacity, Box::new(named::lru())));
    if size_beats_lru && size < lru {
        problems.push(format!(
            "{}: SIZE hit rate {size:.4} is below LRU's {lru:.4}",
            trace.name
        ));
    }
    let multi = MultiSim::new(trace, capacity).run(lanes());
    let specs = KeySpec::all36(0);
    for pick in [seed as usize % LANES, (seed as usize * 7 + 13) % LANES] {
        let alone = simulate_policy(trace, capacity, Box::new(SortedPolicy::new(specs[pick])));
        let (label, lane) = &multi[pick];
        if totals(lane) != totals(&alone) || lane.gauges != alone.gauges {
            problems.push(format!(
                "{}: MultiSim lane {label} differs from simulate_policy",
                trace.name
            ));
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::paper_mix_trace;
    use webcache_core::sim::max_needed;

    #[test]
    fn sweep_rate_counts_every_lane_and_checks_pass_on_u() {
        let trace = paper_mix_trace(1, 0.01);
        let capacity = max_needed(&trace) / 10;
        let rate = sweep_rate(&[(&trace, capacity)], Duration::ZERO, 2);
        assert!(rate.lane_requests_per_s > 1000.0 && rate.spin_per_s > 1000.0);
        assert!((rate.vs_spin / (rate.lane_requests_per_s / rate.spin_per_s) - 1.0).abs() < 0.5);
        let mut problems = Vec::new();
        let hr = checked_size_hit_rate(&trace, capacity, 1, true, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(hr > 0.0 && hr < 1.0);
    }
}
