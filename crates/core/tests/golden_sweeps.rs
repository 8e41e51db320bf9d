//! Golden fingerprints of Experiment 2 sweeps.
//!
//! A change to the sorted list, a policy or the sweep engine must leave
//! every victim where it was, so every `SimResult` of a sweep must come
//! out the same. `sorted_model.rs` holds the list to a sort of its slab
//! and `sweep_identity.rs` holds `MultiSim` to `simulate_policy`; neither
//! can see a change that moves both sides at once. These fingerprints
//! can: they were taken before lower-bound entries were added to the
//! sorted list (DESIGN D37), from the commit that preceded them, and every
//! case must still produce them.
//!
//! A case is one workload at scale 0.02, seed 1, and one policy set at a
//! fraction of the trace's MaxNeeded, the capacity `exp2` gives it: the 36
//! key pairs (salt 0, as `exp2 W FRAC all36` runs them) at 10 % and at
//! 50 % — the hit-heavy regime — and `named::all_named()` at 10 %. Its
//! fingerprint is FNV-1a over every lane's label, workload and system
//! names, gauges, and each stream's name, totals and per-day counts, in
//! lane order. On a mismatch the test prints every case's value in the
//! table's own syntax.

use webcache_core::cache::Counts;
use webcache_core::policy::{named, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_core::sim::{max_needed, MultiSim, SimResult};
use webcache_workload::{generate, profiles};

const SCALE: f64 = 0.02;
const SEED: u64 = 1;

/// `(workload, policy set, fraction of MaxNeeded, fingerprint)`.
const GOLDEN: [(&str, &str, f64, u64); 15] = [
    ("U", "all36", 0.1, 0x72ee7a6edfbcc7a9),
    ("U", "all36", 0.5, 0x87f2f009801c4d0b),
    ("U", "named", 0.1, 0xad302462c6189883),
    ("G", "all36", 0.1, 0x7b116fb9012a90ec),
    ("G", "all36", 0.5, 0x7d0df9ea78212747),
    ("G", "named", 0.1, 0x568cd0767261bed4),
    ("C", "all36", 0.1, 0x5b22d82d56a5772f),
    ("C", "all36", 0.5, 0xc97da91a6f422851),
    ("C", "named", 0.1, 0x7965268d33fe4ff7),
    ("BR", "all36", 0.1, 0xbc372e9e4cb18cdd),
    ("BR", "all36", 0.5, 0x92cea7ca1ea4bf49),
    ("BR", "named", 0.1, 0xdd24dd1412aa931f),
    ("BL", "all36", 0.1, 0xb98985b5dbfe2101),
    ("BL", "all36", 0.5, 0x20310563ff34d9ed),
    ("BL", "named", 0.1, 0x61a6a3bd038e3b37),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A text and a terminator no UTF-8 text contains.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn counts(&mut self, c: &Counts) {
        for v in [c.requests, c.hits, c.bytes_requested, c.bytes_hit] {
            self.u64(v);
        }
    }
}

fn fingerprint(lanes: &[(String, SimResult)]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(lanes.len() as u64);
    for (label, res) in lanes {
        h.text(label);
        h.text(&res.workload);
        h.text(&res.system);
        h.u64(res.gauges.len() as u64);
        for (name, v) in &res.gauges {
            h.text(name);
            h.u64(*v);
        }
        h.u64(res.streams.len() as u64);
        for s in &res.streams {
            h.text(&s.name);
            h.counts(&s.total);
            h.u64(s.daily.len() as u64);
            for day in &s.daily {
                h.counts(day);
            }
        }
    }
    h.0
}

/// The lanes `exp2 W FRAC SET` sweeps.
fn policies(set: &str) -> Vec<(String, Box<dyn RemovalPolicy>)> {
    match set {
        "all36" => KeySpec::all36(0)
            .into_iter()
            .map(|spec| {
                let policy = Box::new(SortedPolicy::new(spec)) as Box<dyn RemovalPolicy>;
                (spec.name(), policy)
            })
            .collect(),
        "named" => named::all_named()
            .into_iter()
            .map(|p| (p.name(), p))
            .collect(),
        other => panic!("unknown policy set {other}"),
    }
}

#[test]
fn sweeps_match_their_golden_fingerprints() {
    let mut got = Vec::with_capacity(GOLDEN.len());
    for workload in ["U", "G", "C", "BR", "BL"] {
        let profile = profiles::by_name(workload).expect("a paper workload");
        let trace = generate(&profile.scaled(SCALE), SEED);
        let needed = max_needed(&trace);
        for &(w, set, frac, _) in GOLDEN.iter().filter(|g| g.0 == workload) {
            let capacity = ((needed as f64 * frac) as u64).max(1);
            let lanes = MultiSim::new(&trace, capacity).run(policies(set));
            got.push((w, set, frac, fingerprint(&lanes)));
        }
    }
    if got != GOLDEN {
        let table: Vec<String> = (got.iter())
            .map(|(w, set, frac, f)| format!("    ({w:?}, {set:?}, {frac:?}, {f:#018x}),"))
            .collect();
        panic!("sweep fingerprints moved:\n{}", table.join("\n"));
    }
}
