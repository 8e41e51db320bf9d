//! `calibrate_universe` against the search it replaced (DESIGN D32).
//!
//! The generator's calibration decides each probe of its search — is the
//! expected-distinct sum at this universe size below the target? — from
//! a bracket around the sum, and computes the sum itself only when the
//! bracket cannot tell. `naive` below is the search as it was before,
//! copied verbatim: every probe a full sequential pass. The two must
//! return the same universe size for the same inputs, on arbitrary
//! inputs and on exactly the ones `generate` poses for every profile.

use proptest::prelude::*;
use webcache_workload::dist::calibrate_universe;
use webcache_workload::generator::calibration_inputs;
use webcache_workload::profiles;

/// The calibration search as it was before the bracket: a full
/// sequential pass at every probe.
mod naive {
    /// Lazily extended table of Zipf rank weights `i^-alpha` with prefix sums.
    ///
    /// [`calibrate_universe`]'s search evaluates the expected-distinct sum at
    /// dozens of universe sizes; recomputing `powf` for every rank at every
    /// probe made calibration the dominant fixed cost of workload generation.
    /// The table computes each rank's weight exactly once across the whole
    /// search.
    struct ZipfTable {
        alpha: f64,
        weights: Vec<f64>,
        prefix: Vec<f64>,
    }

    impl ZipfTable {
        fn new(alpha: f64) -> ZipfTable {
            ZipfTable {
                alpha,
                weights: Vec::new(),
                prefix: Vec::new(),
            }
        }

        fn ensure(&mut self, k: usize) {
            self.weights.reserve(k.saturating_sub(self.weights.len()));
            while self.weights.len() < k {
                let i = self.weights.len() + 1;
                let w = (i as f64).powf(-self.alpha);
                let p = self.prefix.last().copied().unwrap_or(0.0) + w;
                self.weights.push(w);
                self.prefix.push(p);
            }
        }

        /// `Σ_{i≤universe} 1 - (1 - p_i)^N`, branching per rank on the
        /// magnitude of `N·p_i`: head ranks saturate to 1, the long tail is
        /// linear (`1 - e^-x → x`), and only the narrow middle band pays for
        /// `ln`/`exp`. Every branch agrees with the exact form to well below
        /// the search's ~1% tolerance.
        fn expected_distinct(&mut self, universe: usize, n_draws: u64) -> f64 {
            if universe == 0 || n_draws == 0 {
                return 0.0;
            }
            self.ensure(universe);
            let h = self.prefix[universe - 1];
            let n = n_draws as f64;
            self.weights[..universe]
                .iter()
                .map(|&w| {
                    let p = w / h;
                    // x = -N·ln(1-p); for tiny p, ln(1-p) ≈ -p exactly enough.
                    let x = if p < 1e-9 { n * p } else { -n * (-p).ln_1p() };
                    if x < 1e-4 {
                        x
                    } else if x > 36.0 {
                        1.0
                    } else {
                        1.0 - (-x).exp()
                    }
                })
                .sum()
        }
    }

    /// Expected number of distinct ranks seen in `n_draws` i.i.d. Zipf draws
    /// over a universe of `universe` ranks: `Σ_i 1 - (1 - p_i)^N`.
    pub fn expected_distinct(universe: usize, alpha: f64, n_draws: u64) -> f64 {
        ZipfTable::new(alpha).expected_distinct(universe, n_draws)
    }

    /// Find the universe size for which `n_draws` Zipf(`alpha`) draws are
    /// expected to touch about `target_distinct` distinct ranks. This is how
    /// each workload profile is calibrated to its published unique-URL count
    /// (BL: 36,771 uniques in 53,881 requests) and MaxNeeded. Returns at least
    /// `target_distinct`.
    pub fn calibrate_universe(alpha: f64, n_draws: u64, target_distinct: u64) -> usize {
        assert!(
            target_distinct <= n_draws,
            "cannot see more uniques than draws"
        );
        let target = target_distinct as f64;
        let mut table = ZipfTable::new(alpha);
        let mut lo = target_distinct as usize;
        let mut hi = lo.max(16);
        // Grow until the expectation overshoots (or the universe is absurdly
        // larger than the draw count — the distinct count then saturates).
        while table.expected_distinct(hi, n_draws) < target {
            if hi as u64 > n_draws * 64 {
                return hi;
            }
            hi *= 2;
        }
        while hi - lo > lo / 128 + 1 {
            let mid = lo + (hi - lo) / 2;
            if table.expected_distinct(mid, n_draws) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_search_returns_the_naive_size(
        alpha_micro in 0u64..=1_500_000,
        draws in 1u64..=5_000,
        target_ppm in 0u64..=1_000_000,
    ) {
        let alpha = alpha_micro as f64 / 1e6;
        let target = draws * target_ppm / 1_000_000;
        prop_assert_eq!(
            calibrate_universe(alpha, draws, target),
            naive::calibrate_universe(alpha, draws, target)
        );
    }

    /// Targets at the integer just below the sum at some universe size,
    /// so that probes land near the target.
    #[test]
    fn targets_near_a_probe_return_the_naive_size(
        alpha_micro in 0u64..=1_500_000,
        draws in 1u64..=5_000,
        universe in 1usize..=20_000,
    ) {
        let alpha = alpha_micro as f64 / 1e6;
        let target = (naive::expected_distinct(universe, alpha, draws) as u64).min(draws);
        prop_assert_eq!(
            calibrate_universe(alpha, draws, target),
            naive::calibrate_universe(alpha, draws, target)
        );
    }
}

/// The scale `benchmark/`'s `paper_mix` generates U at.
const PAPER_MIX: f64 = 4000.0 * 15.0 / 173_384.0;

/// Every profile's base and fresh calibration at `scales`.
fn profile_inputs_match(scales: &[f64]) {
    for &scale in scales {
        for p in profiles::all() {
            let p = p.scaled(scale);
            for (draws, target) in calibration_inputs(&p).into_iter().flatten() {
                assert_eq!(
                    calibrate_universe(p.zipf_alpha, draws, target),
                    naive::calibrate_universe(p.zipf_alpha, draws, target),
                    "{}: {draws} draws, {target} distinct",
                    p.name
                );
            }
        }
    }
}

#[test]
fn every_profile_at_small_scales() {
    profile_inputs_match(&[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2]);
}

#[test]
fn every_profile_at_large_scales() {
    profile_inputs_match(&[PAPER_MIX, 0.5, 0.75, 1.0]);
}
