//! Sampling distributions underlying the synthetic workloads:
//! Zipf popularity (Figs. 1-2: "the number of requests to each server in
//! workload BL follows a Zipf distribution"), lognormal document sizes
//! (heavy-tailed, mass below ~1 kB as in Fig. 13), a diurnal time-of-day
//! profile, and the universe-size calibration used to hit each trace's
//! published unique-URL / MaxNeeded figures.

use rand::Rng;
use rayon::prelude::*;

/// Values per parallel chunk when a weight table is filled.
const FILL_CHUNK: usize = 1 << 16;

/// Replace every value `x` of `values` by `f(x)`, chunks spread across
/// threads. Each value depends on itself alone, so the result does not
/// depend on how the chunks are scheduled.
fn map_in_place(values: &mut [f64], f: impl Fn(f64) -> f64 + Sync) {
    values.par_chunks_mut(FILL_CHUNK).for_each(|chunk| {
        for v in chunk {
            *v = f(*v);
        }
    });
}

/// Zipf sampler over ranks `0..n` with `P(rank=i) ∝ 1/(i+1)^alpha`,
/// implemented by binary search over precomputed cumulative weights.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with exponent `alpha` (> 0 skews to
    /// the head; 0 is uniform). The weights are computed in parallel; the
    /// running sum over them is sequential.
    pub fn new(n: usize, alpha: f64) -> ZipfSampler {
        assert!(n > 0, "empty universe");
        assert!(alpha >= 0.0 && alpha.is_finite());
        let mut cumulative: Vec<f64> = (1..=n).map(|r| r as f64).collect();
        map_in_place(&mut cumulative, |r| 1.0 / r.powf(alpha));
        let mut acc = 0.0;
        for c in &mut cumulative {
            acc += *c;
            *c = acc;
        }
        ZipfSampler { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the sampler covers no ranks (never: `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }

    /// Probability of rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let lo = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - lo) / total
    }
}

/// Term of rank `i` in the expected-distinct sum `Σ_i 1 - (1 - p_i)^N`,
/// for weight `w = i^-alpha`, weight total `h` and `n = N` draws.
///
/// It branches on the magnitude of `x = N·p`: head ranks saturate to 1,
/// the long tail is linear (`1 - e^-x → x`), and only the middle band
/// pays for `ln`/`exp`. Every branch agrees with the exact form to well
/// below the search's ~1% tolerance.
///
/// As a function of `w` the term is non-decreasing except at three
/// places, each bounded: as `x` grows through `1e-4` the switch from `x`
/// to `1 - e^-x` drops it by `x²/2 ≤ 5·10⁻⁹`; at `p = 1e-9` the switch of
/// `x`'s formula moves `x` by `≤ N·p²/2 = N·5·10⁻¹⁹`; and `powf`, `ln_1p`
/// and `exp` may each be off by an ulp. [`ZipfWeights::distinct_below`]
/// allows for all three.
#[inline]
fn distinct_term(w: f64, h: f64, n: f64) -> f64 {
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
}

/// How far any term may exceed an earlier one (or fall below a later
/// one) for `n` draws: twice each step [`distinct_term`] names, which
/// also covers its ulps (terms are at most 1).
fn term_slack(n: f64) -> f64 {
    1e-8 + n * 1e-18
}

/// `γ_k = k·u / (1 - k·u)`, the relative error bound of a `k`-term
/// floating-point sum of non-negative values (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §4.2).
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
}

/// Ranks per block when a bracket is first tried; each refinement takes
/// ten times as many.
const COARSE_BLOCKS: usize = 64;

/// Lower and upper bounds on `Σ_{i<k} distinct_term(w[i], h, n)` from the
/// terms at block ends alone. The block opening at 1-based rank `r` holds
/// `max(1, r / per_block)` ranks, so the blocks grow geometrically and
/// there are about `per_block · (1 + ln(k / per_block))` of them. As the
/// terms do not increase with rank (up to [`term_slack`]), a block of `m`
/// ranks sums to at most `m` times its first term and at least `m` times
/// the next block's first (its own last, at the end).
fn bracket(w: &[f64], h: f64, n: f64, per_block: usize) -> (f64, f64) {
    let k = w.len();
    let (mut lo, mut hi) = (0.0, 0.0);
    let mut start = 0;
    let mut first = distinct_term(w[0], h, n);
    while start < k {
        let m = ((start + 1) / per_block).clamp(1, k - start);
        let end = start + m;
        let next = distinct_term(w[end.min(k - 1)], h, n);
        hi += m as f64 * first;
        lo += m as f64 * if m == 1 { first } else { next };
        first = next;
        start = end;
    }
    (lo, hi)
}

#[cfg(test)]
thread_local! {
    /// Probes on this thread that [`ZipfWeights::distinct_below`] had to
    /// answer with the full sequential pass.
    pub(crate) static FULL_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Zipf rank weights `w_i = i^-alpha` for ranks `i = 1, 2, …`, with their
/// running sums, extended on demand.
///
/// [`crate::generate`] builds one per trace: both universes'
/// calibrations and both phases of the size rescale in
/// [`crate::Universe::build_calibrated`] read the same weights, so each
/// rank's `powf` is computed once. The weights are computed in parallel;
/// the running sum is sequential, so `total(k)` is the sum of the first
/// `k` weights added in rank order.
#[derive(Debug, Clone)]
pub(crate) struct ZipfWeights {
    alpha: f64,
    weights: Vec<f64>,
    prefix: Vec<f64>,
}

impl ZipfWeights {
    /// An empty table for exponent `alpha`.
    pub(crate) fn new(alpha: f64) -> ZipfWeights {
        ZipfWeights {
            alpha,
            weights: Vec::new(),
            prefix: Vec::new(),
        }
    }

    /// The exponent the weights are computed with.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Extend the table to cover ranks `1..=len`.
    pub(crate) fn ensure(&mut self, len: usize) {
        let from = self.weights.len();
        if len <= from {
            return;
        }
        self.weights.extend((from + 1..=len).map(|r| r as f64));
        let alpha = self.alpha;
        map_in_place(&mut self.weights[from..], |r| r.powf(-alpha));
        self.prefix.reserve(len - from);
        let mut acc = self.prefix.last().copied().unwrap_or(0.0);
        for &w in &self.weights[from..] {
            acc += w;
            self.prefix.push(acc);
        }
    }

    /// Weights of ranks `1..=len`; the table must cover them.
    pub(crate) fn weights(&self, len: usize) -> &[f64] {
        &self.weights[..len]
    }

    /// Sum of the weights of ranks `1..=len` (`len ≥ 1`), added in rank
    /// order; the table must cover them.
    pub(crate) fn total(&self, len: usize) -> f64 {
        self.prefix[len - 1]
    }

    /// `Σ_{i≤universe} 1 - (1 - p_i)^N` over `n_draws` draws, summed
    /// sequentially in rank order.
    pub(crate) fn expected_distinct(&mut self, universe: usize, n_draws: u64) -> f64 {
        if universe == 0 || n_draws == 0 {
            return 0.0;
        }
        self.ensure(universe);
        let h = self.total(universe);
        let n = n_draws as f64;
        self.weights(universe)
            .iter()
            .map(|&w| distinct_term(w, h, n))
            .sum()
    }

    /// Whether `expected_distinct(k, n_draws) < target` — the answer the
    /// sequential sum would give, mostly without computing it.
    ///
    /// [`bracket`] bounds the exact sum of the terms the sequential pass
    /// adds. Widened by `k · term_slack(n)` for the terms that break
    /// monotonicity, and by `4·γ_k` of the upper bound for the rounding of
    /// both the sequential sum (`γ_{k-1}`) and the bracket's own sums, it
    /// holds the sequential pass's result. When `target` lies outside the
    /// widened bracket, the bracket is the answer; otherwise the blocks
    /// are refined tenfold, for as long as a bracket costs fewer terms
    /// than the pass (`per_block < k`). Only then does the pass run.
    fn distinct_below(&mut self, k: usize, n_draws: u64, target: f64) -> bool {
        if k == 0 || n_draws == 0 {
            return 0.0 < target;
        }
        self.ensure(k);
        let (w, h, n) = (self.weights(k), self.total(k), n_draws as f64);
        let mut per_block = COARSE_BLOCKS;
        while per_block < k {
            let (lo, hi) = bracket(w, h, n, per_block);
            let slack = k as f64 * term_slack(n) + 4.0 * gamma(k) * hi;
            if hi + slack < target {
                return true;
            }
            if lo - slack >= target {
                return false;
            }
            per_block *= 10;
        }
        #[cfg(test)]
        FULL_PASSES.with(|c| c.set(c.get() + 1));
        self.expected_distinct(k, n_draws) < target
    }

    /// Find the universe size for which `n_draws` Zipf draws are expected
    /// to touch about `target_distinct` distinct ranks; see
    /// [`calibrate_universe`]. Every probe of the search is
    /// [`distinct_below`](ZipfWeights::distinct_below), so the sequence
    /// of decisions, and the size returned, are the sequential sum's.
    pub(crate) fn calibrate(&mut self, n_draws: u64, target_distinct: u64) -> usize {
        assert!(
            target_distinct <= n_draws,
            "cannot see more uniques than draws"
        );
        let target = target_distinct as f64;
        let mut lo = target_distinct as usize;
        let mut hi = lo.max(16);
        // Grow until the expectation overshoots (or the universe is absurdly
        // larger than the draw count — the distinct count then saturates).
        while self.distinct_below(hi, n_draws, target) {
            if hi as u64 > n_draws * 64 {
                return hi;
            }
            hi *= 2;
        }
        while hi - lo > lo / 128 + 1 {
            let mid = lo + (hi - lo) / 2;
            if self.distinct_below(mid, n_draws, target) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// Expected number of distinct ranks seen in `n_draws` i.i.d. Zipf draws
/// over a universe of `universe` ranks: `Σ_i 1 - (1 - p_i)^N`.
pub fn expected_distinct(universe: usize, alpha: f64, n_draws: u64) -> f64 {
    ZipfWeights::new(alpha).expected_distinct(universe, n_draws)
}

/// Find the universe size for which `n_draws` Zipf(`alpha`) draws are
/// expected to touch about `target_distinct` distinct ranks. This is how
/// each workload profile is calibrated to its published unique-URL count
/// (BL: 36,771 uniques in 53,881 requests) and MaxNeeded. Returns at least
/// `target_distinct`.
pub fn calibrate_universe(alpha: f64, n_draws: u64, target_distinct: u64) -> usize {
    ZipfWeights::new(alpha).calibrate(n_draws, target_distinct)
}

/// Lognormal document-size distribution with a target *mean* (matching a
/// Table 4 bytes-per-reference quotient) and a shape `sigma`; values are
/// clamped to `[min, max]`.
#[derive(Debug, Clone, Copy)]
pub struct SizeDist {
    mu: f64,
    sigma: f64,
    min: u64,
    max: u64,
}

impl SizeDist {
    /// Create a distribution with mean `mean_bytes` and log-space standard
    /// deviation `sigma`. Larger `sigma` concentrates the median far below
    /// the mean — the Fig. 13 shape where most requests are small but the
    /// mean is pulled up by a heavy tail.
    pub fn with_mean(mean_bytes: f64, sigma: f64) -> SizeDist {
        assert!(mean_bytes >= 1.0 && sigma >= 0.0);
        // E[LogNormal(mu, sigma)] = exp(mu + sigma^2/2)
        let mu = mean_bytes.ln() - sigma * sigma / 2.0;
        SizeDist {
            mu,
            sigma,
            min: 32,
            max: (mean_bytes * 400.0) as u64,
        }
    }

    /// Replace the clamp bounds.
    pub fn clamp(mut self, min: u64, max: u64) -> SizeDist {
        assert!(min >= 1 && max >= min);
        self.min = min;
        self.max = max;
        self
    }

    /// Draw a size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // LogNormal::new only rejects a non-finite or negative sigma,
        // which the constructors never produce; degrade to the median
        // rather than panicking if a hand-built SizeDist slips one in.
        let v = match rand_distr::LogNormal::new(self.mu, self.sigma) {
            Ok(dist) => rand::distributions::Distribution::sample(&dist, rng),
            Err(_) => self.median(),
        };
        (v as u64).clamp(self.min, self.max)
    }

    /// The distribution's median (`exp(mu)`), before clamping.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

/// Hourly request weights of a campus workday: quiet at night, ramping
/// through the morning, peaking in the afternoon, tapering in the evening.
const HOUR_WEIGHTS: [f64; 24] = [
    0.4, 0.3, 0.2, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 3.5, 3.5, 3.0, 3.5, 4.0, 4.0, 3.5, 3.0, 2.5,
    2.5, 2.0, 1.5, 1.0, 0.6,
];

/// Draw a second-of-day following the diurnal profile.
pub fn diurnal_second<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    let total: f64 = HOUR_WEIGHTS.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (h, w) in HOUR_WEIGHTS.iter().enumerate() {
        if x < *w {
            return h as u64 * 3600 + rng.gen_range(0..3600);
        }
        x -= w;
    }
    23 * 3600 + rng.gen_range(0..3600)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0;
        let mut tail = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            if r < 10 {
                head += 1;
            }
            if r >= 500 {
                tail += 1;
            }
        }
        assert!(head > tail * 2, "head {head} tail {tail}");
        assert!(z.probability(0) > z.probability(999));
        let psum: f64 = (0..1000).map(|i| z.probability(i)).sum();
        assert!((psum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        assert!((z.probability(0) - 0.01).abs() < 1e-12);
        assert!((z.probability(99) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn expected_distinct_bounds() {
        // Can't see more distinct than draws or universe.
        assert!(expected_distinct(100, 1.0, 50) <= 50.0 + 1e-9);
        assert!(expected_distinct(10, 1.0, 10_000) <= 10.0 + 1e-9);
        // Huge universe, few draws: nearly all draws distinct.
        let d = expected_distinct(1_000_000, 0.5, 100);
        assert!(d > 98.0);
        assert_eq!(expected_distinct(0, 1.0, 5), 0.0);
        assert_eq!(expected_distinct(5, 1.0, 0), 0.0);
    }

    #[test]
    fn calibration_hits_the_target_distinct_count() {
        let n_draws = 50_000u64;
        let target = 20_000u64;
        let u = calibrate_universe(0.8, n_draws, target);
        let got = expected_distinct(u, 0.8, n_draws);
        assert!(
            (got - target as f64).abs() / (target as f64) < 0.03,
            "universe {u} gives {got} distinct, wanted {target}"
        );
    }

    #[test]
    fn the_widened_bracket_holds_the_sequential_sum() {
        for alpha in [0.0, 0.5, 0.75, 1.05, 1.5] {
            let mut table = ZipfWeights::new(alpha);
            for n_draws in [1u64, 37, 1_000, 100_000, 10_000_000] {
                for k in [1usize, 2, 17, 1_000, 60_000] {
                    let sum = table.expected_distinct(k, n_draws);
                    let (w, h, n) = (table.weights(k), table.total(k), n_draws as f64);
                    for per_block in [1, 2, COARSE_BLOCKS, 10 * COARSE_BLOCKS] {
                        let (lo, hi) = bracket(w, h, n, per_block);
                        let slack = k as f64 * term_slack(n) + 4.0 * gamma(k) * hi;
                        assert!(
                            lo - slack <= sum && sum <= hi + slack,
                            "alpha {alpha}, {n_draws} draws, {k} ranks, {per_block}: \
                             {sum} outside [{lo}, {hi}] ± {slack}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_probe_at_full_scale_needs_the_full_pass() {
        for p in crate::profiles::all() {
            let mut table = ZipfWeights::new(p.zipf_alpha);
            for (draws, target) in crate::generator::calibration_inputs(&p)
                .into_iter()
                .flatten()
            {
                let before = FULL_PASSES.with(std::cell::Cell::get);
                table.calibrate(draws, target);
                let passes = FULL_PASSES.with(std::cell::Cell::get) - before;
                assert_eq!(passes, 0, "{}: {draws} draws, {target} distinct", p.name);
            }
        }
    }

    #[test]
    fn calibration_matches_empirical_sampling() {
        let n_draws = 20_000u64;
        let target = 8_000u64;
        let u = calibrate_universe(0.8, n_draws, target);
        let z = ZipfSampler::new(u, 0.8);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n_draws {
            seen.insert(z.sample(&mut rng));
        }
        let got = seen.len() as f64;
        assert!(
            (got - target as f64).abs() / (target as f64) < 0.05,
            "sampled {got} distinct, wanted {target}"
        );
    }

    #[test]
    fn size_dist_mean_and_median_shape() {
        let d = SizeDist::with_mean(12_000.0, 1.8);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!(
            (mean - 12_000.0).abs() / 12_000.0 < 0.15,
            "mean came out {mean}"
        );
        // Heavy tail: median far below mean (Fig. 13 shape).
        let mut s = samples.clone();
        s.sort_unstable();
        let median = s[s.len() / 2] as f64;
        assert!(median < 4_000.0, "median {median}");
        assert!(d.median() < 3_000.0);
    }

    #[test]
    fn size_dist_respects_clamps() {
        let d = SizeDist::with_mean(100.0, 2.0).clamp(64, 1000);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((64..=1000).contains(&v));
        }
    }

    #[test]
    fn diurnal_seconds_are_daytime_heavy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut day = 0;
        let mut night = 0;
        for _ in 0..10_000 {
            let s = diurnal_second(&mut rng);
            assert!(s < 86_400);
            let h = s / 3600;
            if (9..=17).contains(&h) {
                day += 1;
            }
            if h < 6 {
                night += 1;
            }
        }
        assert!(day > night * 3);
    }
}
