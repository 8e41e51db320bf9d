//! Order statistics the benchmark reports: interpolated percentiles,
//! the median over segments, and the quartiles used for run-to-run spread.

/// Percentile `p` in `[0, 1]` of an ascending slice, linearly
/// interpolated between the two closest ranks so that a timing keeps
/// sub-sample digits. Empty input yields 0.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let a = sorted[lo] as f64;
    let b = sorted.get(lo + 1).copied().unwrap_or(last) as f64;
    a + (b - a) * frac
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones the acceptance rule is stated in. Fewer than two values collapse
/// onto the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based; the rank is clamped to the data
        // but the fraction is not, exactly as Python extrapolates.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert!((percentile(&v, 0.9) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_of_segments_ignores_a_stall_confined_to_one() {
        // Three segments of 1000 samples at 100 ns; the second carries a
        // stall that lifts its whole tail. Per-segment p99, then median.
        let segment = |stalled: bool| {
            let mut v: Vec<u64> = (0..1000)
                .map(|i| if stalled && i < 100 { 50_000 } else { 100 })
                .collect();
            v.sort_unstable();
            percentile(&v, 0.99)
        };
        let tails = [segment(false), segment(true), segment(false)];
        assert_eq!(tails[1], 50_000.0);
        assert_eq!(median(&tails), 100.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
