//! Golden fingerprints of Appendix A's hit positions.
//!
//! `InstrumentedCache` switches position tracking on and asks the policy
//! where each hit document sat in the removal order before the hit moved
//! it. That tracked path is one no sweep runs, so neither
//! `golden_sweeps.rs` nor `sweep_identity.rs` can see it move. These
//! fingerprints can: they were taken before a hit stopped re-ranking an
//! untracked sorted list (DESIGN D39), and every case must still produce
//! them.
//!
//! A case is one workload at scale 0.02, seed 1, and one policy in a cache
//! of a tenth of the trace's MaxNeeded, the capacity `experiments hitpos`
//! gives it. Its fingerprint is FNV-1a over the report's hit-position
//! histogram and its count of hits at an unknown position. On a mismatch
//! the test prints every case's value in the table's own syntax.

use webcache_core::cache::Cache;
use webcache_core::policy::{named, RemovalPolicy, SortedPolicy};
use webcache_core::sim::instrument::{InstrumentReport, InstrumentedCache};
use webcache_core::sim::{max_needed, simulate};
use webcache_workload::{generate, profiles};

const SCALE: f64 = 0.02;
const SEED: u64 = 1;

/// `(workload, policy, fingerprint)`.
const GOLDEN: [(&str, &str, u64); 10] = [
    ("U", "LRU", 0x46c8eeac779f95eb),
    ("U", "LFU", 0xb3caf87413f4af08),
    ("U", "HYPER-G", 0x0c80ffcde0b01438),
    ("U", "SIZE", 0x72c1eedd01cdf7f6),
    ("U", "LOG2SIZE-LRU", 0x8ea4d561dbfd1033),
    ("BL", "LRU", 0xbb8611953f0d5238),
    ("BL", "LFU", 0xceda38195b37ab5f),
    ("BL", "HYPER-G", 0x74bb11c5d7f83a4e),
    ("BL", "SIZE", 0x6f08bae0c07ae3ce),
    ("BL", "LOG2SIZE-LRU", 0x1a3c158a59213615),
];

fn policy(name: &str) -> SortedPolicy {
    match name {
        "LRU" => named::lru(),
        "LFU" => named::lfu(),
        "HYPER-G" => named::hyper_g(),
        "SIZE" => named::size(),
        "LOG2SIZE-LRU" => named::log2size_lru(),
        other => panic!("unknown policy {other}"),
    }
}

fn fingerprint(report: &InstrumentReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = report.hit_position_log2.iter().copied();
    for v in [report.hit_position_log2.len() as u64]
        .into_iter()
        .chain(words)
        .chain([report.hit_position_unknown])
    {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn hit_positions_match_their_golden_fingerprints() {
    let mut got = Vec::with_capacity(GOLDEN.len());
    for workload in ["U", "BL"] {
        let profile = profiles::by_name(workload).expect("a paper workload");
        let trace = generate(&profile.scaled(SCALE), SEED);
        let capacity = max_needed(&trace) / 10;
        for &(w, name, _) in GOLDEN.iter().filter(|g| g.0 == workload) {
            let policy = policy(name);
            assert_eq!(policy.name(), name);
            let mut ic = InstrumentedCache::new(Cache::new(capacity, Box::new(policy)), 1000);
            simulate(&trace, &mut ic, name);
            let report = ic.report();
            assert!(
                report.hit_position_log2.iter().sum::<u64>() > 0,
                "{w} {name}: no hit had a position"
            );
            got.push((w, name, fingerprint(report)));
        }
    }
    if got != GOLDEN {
        let table: Vec<String> = (got.iter())
            .map(|(w, name, f)| format!("    ({w:?}, {name:?}, {f:#018x}),"))
            .collect();
        panic!("hit-position fingerprints moved:\n{}", table.join("\n"));
    }
}
