//! The single-pass engine must be *bit-identical* to the serial
//! simulator: same daily counters, same totals, same gauges, for every
//! policy lane. This is the contract that lets the experiment drivers
//! call [`MultiSim`]'s `run` and `run_checked` in place of
//! `simulate_policy` loops without touching any published number.

use webcache_core::policy::{named, GreedyDualSize, LruMin, PitkowRecker, RemovalPolicy};
use webcache_core::sim::{max_needed, simulate_policy, MultiSim, SimResult};
use webcache_experiments::Ctx;

fn assert_same(got: &SimResult, want: &SimResult) {
    assert_eq!(got.system, want.system);
    assert_eq!(got.workload, want.workload);
    assert_eq!(got.gauges, want.gauges);
    assert_eq!(got.streams.len(), want.streams.len());
    for (g, w) in got.streams.iter().zip(&want.streams) {
        assert_eq!(g.name, w.name);
        assert_eq!(g.total, w.total);
        assert_eq!(g.daily, w.daily);
    }
}

type PolicyCtor = fn() -> Box<dyn RemovalPolicy>;

/// Every policy type the engine can drive, one builder per lane.
fn builders() -> Vec<(&'static str, PolicyCtor)> {
    vec![
        ("SIZE", || Box::new(named::size())),
        ("LRU", || Box::new(named::lru())),
        ("FIFO", || Box::new(named::fifo())),
        ("LFU", || Box::new(named::lfu())),
        ("HYPER-G", || Box::new(named::hyper_g())),
        ("LRU-MIN", || Box::new(LruMin::new())),
        ("GD-SIZE", || Box::new(GreedyDualSize::new())),
        ("PITKOW-RECKER", || {
            Box::new(PitkowRecker::new(Some(0.5), 0))
        }),
    ]
}

#[test]
fn multisim_is_bit_identical_to_serial_simulation() {
    let ctx = Ctx::with_scale(0.02, 7);
    for workload in ["G", "BL"] {
        let trace = ctx.trace(workload);
        let capacity = (max_needed(&trace) / 10).max(1);

        let lanes = builders()
            .iter()
            .map(|&(label, make)| (label.to_string(), make()))
            .collect();
        let multi = MultiSim::new(&trace, capacity).run(lanes);

        assert_eq!(multi.len(), builders().len());
        for ((label, got), (want_label, make)) in multi.iter().zip(builders()) {
            assert_eq!(label, want_label);
            let want = simulate_policy(&trace, capacity, make());
            assert_same(got, &want);
        }
    }
}

/// Running the same lane set twice yields the same bytes: the engine has
/// no hidden iteration-order or thread-count dependence.
#[test]
fn multisim_is_self_deterministic() {
    let ctx = Ctx::with_scale(0.02, 7);
    let trace = ctx.trace("C");
    let capacity = (max_needed(&trace) / 10).max(1);
    let run = || {
        MultiSim::new(&trace, capacity).run(
            builders()
                .iter()
                .map(|&(label, make)| (label.to_string(), make()))
                .collect(),
        )
    };
    let a = run();
    let b = run();
    for ((la, ra), (lb, rb)) in a.iter().zip(&b) {
        assert_eq!(la, lb);
        assert_same(ra, rb);
    }
}
