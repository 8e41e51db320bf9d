//! Daily time series and the paper's 7-day moving average.
//!
//! "There is great variation in daily hit rates … Therefore we apply a
//! 7-day moving average to the daily hit rates before plotting. … each
//! plotted point in a hit rate graph represents the average of the daily
//! hit rates for that day and the six preceding days. No point is plotted
//! for days zero to five." (section 3.2)
//!
//! Workload C adds a wrinkle: class met only four days a week, so idle
//! days produce no data point — "Every plotted point is the average of hit
//! rates for the previous seven *recorded* days, no matter what amount of
//! time has elapsed" (Fig. 5 caption). [`DailySeries::moving_average_recorded`]
//! implements that variant.

use serde::{Deserialize, Serialize};

/// A daily series; `None` marks days with no recorded data (idle days).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailySeries {
    /// One optional observation per day, starting at day 0.
    pub values: Vec<Option<f64>>,
}

impl DailySeries {
    /// Wrap raw daily observations.
    pub fn new(values: Vec<Option<f64>>) -> DailySeries {
        DailySeries { values }
    }

    /// Build from plain values (every day recorded).
    pub fn dense(values: Vec<f64>) -> DailySeries {
        DailySeries {
            values: values.into_iter().map(Some).collect(),
        }
    }

    /// Number of days covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no days.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean over recorded days (the paper's "averaged over all days in the
    /// trace" summary numbers).
    pub fn mean(&self) -> f64 {
        let recorded: Vec<f64> = self.values.iter().copied().flatten().collect();
        if recorded.is_empty() {
            0.0
        } else {
            recorded.iter().sum::<f64>() / recorded.len() as f64
        }
    }

    /// Calendar 7-day moving average: point `d` is the mean of recorded
    /// values among days `d-6..=d`; `None` for days 0..=5 and for windows
    /// containing no recorded day. This is the transform applied to
    /// Figs. 3-12 and 15-20.
    pub fn moving_average(&self, window: usize) -> DailySeries {
        assert!(window >= 1);
        let mut out = Vec::with_capacity(self.values.len());
        for d in 0..self.values.len() {
            if d + 1 < window {
                out.push(None);
                continue;
            }
            let slice = &self.values[d + 1 - window..=d];
            let vals: Vec<f64> = slice.iter().copied().flatten().collect();
            out.push(if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            });
        }
        DailySeries { values: out }
    }

    /// Recorded-days moving average (Fig. 5 variant): point `d` is the
    /// mean of the last `window` *recorded* values up to and including day
    /// `d`; `None` until `window` recorded days exist or on unrecorded
    /// days.
    pub fn moving_average_recorded(&self, window: usize) -> DailySeries {
        assert!(window >= 1);
        let mut recent: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        let mut out = Vec::with_capacity(self.values.len());
        for v in &self.values {
            match v {
                Some(x) => {
                    recent.push_back(*x);
                    if recent.len() > window {
                        recent.pop_front();
                    }
                    out.push(if recent.len() == window {
                        Some(recent.iter().sum::<f64>() / window as f64)
                    } else {
                        None
                    });
                }
                None => out.push(None),
            }
        }
        DailySeries { values: out }
    }

    /// `(day, value)` pairs for recorded days — plot-ready.
    pub fn points(&self) -> Vec<(usize, f64)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(d, v)| v.map(|x| (d, x)))
            .collect()
    }

    /// Minimum and maximum recorded values, if any.
    pub fn range(&self) -> Option<(f64, f64)> {
        let mut it = self.values.iter().copied().flatten();
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }
}

/// Element-wise ratio of two series as percentages (`100 * a / b`),
/// recorded only where both are recorded and the denominator is non-zero.
/// This is how Figs. 8-12 (percent of infinite-cache HR) and Fig. 15
/// (percent of random-secondary WHR) are computed.
pub fn ratio_percent(numerator: &DailySeries, denominator: &DailySeries) -> DailySeries {
    let n = numerator.values.len().max(denominator.values.len());
    let get = |s: &DailySeries, i: usize| s.values.get(i).copied().flatten();
    let values = (0..n)
        .map(|i| match (get(numerator, i), get(denominator, i)) {
            (Some(a), Some(b)) if b != 0.0 => Some(100.0 * a / b),
            _ => None,
        })
        .collect();
    DailySeries { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_matches_paper_definition() {
        let s = DailySeries::dense((0..10).map(|d| d as f64).collect());
        let ma = s.moving_average(7);
        // Days 0..=5: no point plotted.
        assert!(ma.values[..6].iter().all(|v| v.is_none()));
        // Day 6 = mean of 0..=6 = 3.0; day 9 = mean of 3..=9 = 6.0.
        assert_eq!(ma.values[6], Some(3.0));
        assert_eq!(ma.values[9], Some(6.0));
    }

    #[test]
    fn moving_average_skips_unrecorded_days_in_window() {
        let s = DailySeries::new(vec![
            Some(1.0),
            None,
            Some(3.0),
            None,
            Some(5.0),
            None,
            Some(7.0),
        ]);
        let ma = s.moving_average(7);
        // Window over days 0..=6 has 4 recorded values.
        assert_eq!(ma.values[6], Some(4.0));
    }

    #[test]
    fn recorded_window_variant_ignores_calendar_gaps() {
        // Class meets Mon-Thu: 4 recorded days then 3 idle, repeated.
        let mut vals = Vec::new();
        for week in 0..4 {
            for d in 0..4 {
                vals.push(Some((week * 4 + d) as f64));
            }
            vals.extend([None, None, None]);
        }
        let s = DailySeries::new(vals);
        let ma = s.moving_average_recorded(7);
        // First point appears on the 7th recorded day: week 1's 3rd class
        // day, which is calendar day 9 (days 0-3 and 7-9 are recorded).
        let first = ma.values.iter().position(|v| v.is_some()).unwrap();
        assert_eq!(first, 9);
        assert_eq!(ma.values[9], Some(3.0)); // mean of values 0..=6
                                             // Idle days stay unrecorded.
        assert!(ma.values[4].is_none() && ma.values[5].is_none());
    }

    #[test]
    fn mean_ignores_unrecorded_days() {
        let s = DailySeries::new(vec![Some(2.0), None, Some(4.0)]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(DailySeries::new(vec![None]).mean(), 0.0);
    }

    #[test]
    fn ratio_percent_handles_gaps_and_zero_denominator() {
        let a = DailySeries::new(vec![Some(1.0), Some(2.0), None, Some(3.0)]);
        let b = DailySeries::new(vec![Some(2.0), Some(0.0), Some(4.0), Some(6.0)]);
        let r = ratio_percent(&a, &b);
        assert_eq!(r.values, vec![Some(50.0), None, None, Some(50.0)]);
    }

    #[test]
    fn points_and_range() {
        let s = DailySeries::new(vec![None, Some(5.0), Some(1.0), None]);
        assert_eq!(s.points(), vec![(1, 5.0), (2, 1.0)]);
        assert_eq!(s.range(), Some((1.0, 5.0)));
        assert_eq!(DailySeries::new(vec![None]).range(), None);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn window_one_is_identity_on_recorded_days() {
        let s = DailySeries::new(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(s.moving_average(1).values, s.values);
    }
}
