//! # webcache-bench
//!
//! Criterion benchmarks for the reproduction, one target per paper
//! artifact (see DESIGN.md's per-experiment index), plus the ablation
//! baseline the design decisions call for. End-to-end and per-layer
//! timings live in `benchmark/` at the repository root.
//!
//! This library crate holds the shared fixtures and the *ablation
//! baseline* — a deliberately worse implementation used as a comparison
//! point:
//!
//! * [`ResortPolicy`] — ablation D1: instead of incrementally maintaining
//!   a sorted structure (the paper's "if the list is kept sorted as the
//!   proxy operates, then the removal policy merely removes the head"),
//!   re-sort all resident documents on every victim selection.

#![warn(missing_docs)]

use webcache_core::cache::DocMeta;
use webcache_core::policy::{KeySpec, RemovalPolicy};
use webcache_trace::{Timestamp, Trace, UrlId};

/// Ablation D1 baseline: full re-sort at each victim selection, `O(n log
/// n)` per eviction instead of `O(log n)` per update.
#[derive(Debug, Clone)]
pub struct ResortPolicy {
    spec: KeySpec,
    docs: std::collections::HashMap<UrlId, DocMeta>,
}

impl ResortPolicy {
    /// Create the baseline with the same key semantics as
    /// [`webcache_core::policy::SortedPolicy`].
    pub fn new(spec: KeySpec) -> ResortPolicy {
        ResortPolicy {
            spec,
            docs: std::collections::HashMap::new(),
        }
    }
}

impl RemovalPolicy for ResortPolicy {
    fn name(&self) -> String {
        format!("RESORT:{}", self.spec.name())
    }

    fn on_insert(&mut self, meta: &DocMeta) {
        self.docs.insert(meta.url, *meta);
    }

    fn on_access(&mut self, meta: &DocMeta) {
        self.docs.insert(meta.url, *meta);
    }

    fn on_remove(&mut self, url: UrlId) {
        self.docs.remove(&url);
    }

    fn victim(&mut self, _now: Timestamp, _incoming_size: u64) -> Option<UrlId> {
        self.docs
            .values()
            .min_by_key(|m| (self.spec.rank(m), m.url))
            .map(|m| m.url)
    }

    fn len(&self) -> usize {
        self.docs.len()
    }
}

/// A deterministic benchmark trace: `workload` at `scale`, fixed seed.
pub fn bench_trace(workload: &str, scale: f64) -> Trace {
    let profile = webcache_workload::profiles::by_name(workload)
        .expect("known workload")
        .scaled(scale);
    webcache_workload::generate(&profile, 2024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::policy::{Key, SortedPolicy};
    use webcache_core::sim::simulate_policy;

    /// The ablation baseline must be *behaviourally identical* to the
    /// incremental policy — same victims, same hit counts — or the bench
    /// comparison is meaningless.
    #[test]
    fn resort_baseline_matches_sorted_policy() {
        let trace = bench_trace("G", 0.01);
        let cap = webcache_core::sim::max_needed(&trace) / 10;
        for key in [Key::Size, Key::EntryTime, Key::NRef] {
            let spec = KeySpec::primary(key);
            let a = simulate_policy(&trace, cap, Box::new(SortedPolicy::new(spec)));
            let b = simulate_policy(&trace, cap, Box::new(ResortPolicy::new(spec)));
            assert_eq!(
                a.stream("cache").unwrap().total,
                b.stream("cache").unwrap().total,
                "{key:?}: baselines diverge"
            );
        }
    }

    #[test]
    fn bench_trace_is_deterministic() {
        let a = bench_trace("BL", 0.005);
        let b = bench_trace("BL", 0.005);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_bytes(), b.total_bytes());
    }
}
