//! Experiment 2: removal-policy comparison at finite cache sizes.
//!
//! Reproduces Figs. 8-12 (ratio of HR to the infinite-cache HR for primary
//! keys SIZE/ETIME/ATIME/NREF at 10% of MaxNeeded), the section 4.4 WHR
//! comparison, the full 36-combination sweep of the paper's experiment
//! design (Table 5), and the Fig. 15 secondary-key study.

use crate::runner::Ctx;
use serde::{Deserialize, Serialize};
use webcache_core::policy::{named, Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_core::sim::{MultiSim, SimResult};
use webcache_stats::series::{ratio_percent, DailySeries};
use webcache_stats::{report, Table};

/// Result of one policy run against one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRun {
    /// Policy display name (`"SIZE/RANDOM"`, `"LRU-MIN"`, …).
    pub policy: String,
    /// Overall hit rate.
    pub total_hr: f64,
    /// Overall weighted hit rate.
    pub total_whr: f64,
    /// Daily HR as a percentage of the infinite cache's daily HR, 7-day
    /// moving average — one curve of Figs. 8-12.
    pub hr_pct_of_infinite_ma: DailySeries,
    /// Same for WHR (the section 4.4 comparison).
    pub whr_pct_of_infinite_ma: DailySeries,
    /// Mean of the HR ratio curve.
    pub mean_hr_pct: f64,
    /// Mean of the WHR ratio curve.
    pub mean_whr_pct: f64,
}

/// Experiment 2 results for one workload at one cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp2Workload {
    /// Workload name.
    pub workload: String,
    /// Cache size as a fraction of MaxNeeded (0.1 or 0.5 in Table 5).
    pub cache_fraction: f64,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Infinite-cache totals for reference.
    pub infinite_hr: f64,
    /// Infinite-cache WHR.
    pub infinite_whr: f64,
    /// One entry per policy.
    pub runs: Vec<PolicyRun>,
    /// True when at least one policy lane failed and `runs` is
    /// incomplete: the healthy lanes were salvaged instead of dropping the
    /// whole sweep.
    pub partial: bool,
    /// `(policy, error)` for each failed lane.
    pub failed: Vec<(String, String)>,
}

/// Which policy set to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySet {
    /// The four primary keys plotted in Figs. 8-12 (random secondary).
    Figures,
    /// All six Table 1 primaries with random secondary.
    Primaries,
    /// The full 36-combination design of Table 5.
    All36,
    /// Every policy of [`named::all_named`]: the literature policies (FIFO,
    /// LRU, LFU, Hyper-G, LRU-MIN, Pitkow/Recker) plus SIZE, LOG2SIZE-LRU
    /// and GreedyDual-Size.
    Named,
}

/// The `(label, policy)` instances of a [`PolicySet`], in sweep order.
/// Public so benchmarks can replay the exact Experiment 2 sweep.
pub fn policies(set: PolicySet) -> Vec<(String, Box<dyn RemovalPolicy>)> {
    match set {
        PolicySet::Figures => [Key::Size, Key::EntryTime, Key::AccessTime, Key::NRef]
            .iter()
            .map(|&k| spec_policy(KeySpec::primary(k)))
            .collect(),
        PolicySet::Primaries => Key::TABLE1
            .iter()
            .map(|&k| spec_policy(KeySpec::primary(k)))
            .collect(),
        PolicySet::All36 => KeySpec::all36(0).into_iter().map(spec_policy).collect(),
        PolicySet::Named => named::all_named()
            .into_iter()
            .map(|p| (p.name(), p))
            .collect(),
    }
}

fn spec_policy(spec: KeySpec) -> (String, Box<dyn RemovalPolicy>) {
    (spec.name(), Box::new(SortedPolicy::new(spec)))
}

/// The 7-day moving averages of a result's daily HR and WHR.
fn moving_averages(res: &SimResult) -> (DailySeries, DailySeries) {
    let s = res.stream("cache").expect("cache stream");
    let hr_ma = DailySeries::new(s.daily_hr()).moving_average(7);
    (hr_ma, DailySeries::new(s.daily_whr()).moving_average(7))
}

/// Derive one policy's Figs. 8-12 row from its simulation result and the
/// infinite cache's moving averages.
fn policy_run(policy: String, res: &SimResult, inf: &(DailySeries, DailySeries)) -> PolicyRun {
    let s = res.stream("cache").expect("cache stream");
    let (hr_ma, whr_ma) = moving_averages(res);
    let hr_ratio = ratio_percent(&hr_ma, &inf.0);
    let whr_ratio = ratio_percent(&whr_ma, &inf.1);
    PolicyRun {
        policy,
        total_hr: s.total.hit_rate(),
        total_whr: s.total.weighted_hit_rate(),
        mean_hr_pct: hr_ratio.mean(),
        mean_whr_pct: whr_ratio.mean(),
        hr_pct_of_infinite_ma: hr_ratio,
        whr_pct_of_infinite_ma: whr_ratio,
    }
}

/// Run Experiment 2 for one workload at `cache_fraction` of MaxNeeded.
/// A policy lane that panics is reported in
/// [`failed`](Exp2Workload::failed) (with `partial: true`) while every
/// healthy lane's result is kept.
pub fn run_one(ctx: &Ctx, workload: &str, cache_fraction: f64, set: PolicySet) -> Exp2Workload {
    let trace = ctx.trace(workload);
    let capacity = ctx.capacity(workload, cache_fraction);
    let inf = ctx.infinite(workload);
    let inf_ma = moving_averages(&inf);
    let results = MultiSim::new(&trace, capacity).run_checked(policies(set));
    let mut runs = Vec::with_capacity(results.len());
    let mut failed = Vec::new();
    for (policy, res) in results {
        match res {
            Ok(res) => runs.push(policy_run(policy, &res, &inf_ma)),
            Err(e) => failed.push((policy, e)),
        }
    }
    let inf = inf.stream("cache").expect("cache stream").total;
    Exp2Workload {
        workload: workload.to_string(),
        cache_fraction,
        capacity,
        infinite_hr: inf.hit_rate(),
        infinite_whr: inf.weighted_hit_rate(),
        runs,
        partial: !failed.is_empty(),
        failed,
    }
}

impl Exp2Workload {
    /// A run by policy name.
    pub fn run(&self, policy: &str) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| r.policy == policy)
    }

    /// Runs ranked by total HR, best first.
    pub fn ranked_by_hr(&self) -> Vec<&PolicyRun> {
        let mut v: Vec<&PolicyRun> = self.runs.iter().collect();
        v.sort_by(|a, b| b.total_hr.total_cmp(&a.total_hr));
        v
    }

    /// Runs ranked by total WHR, best first.
    pub fn ranked_by_whr(&self) -> Vec<&PolicyRun> {
        let mut v: Vec<&PolicyRun> = self.runs.iter().collect();
        v.sort_by(|a, b| b.total_whr.total_cmp(&a.total_whr));
        v
    }

    /// Render the ranking table.
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "Policy",
            "HR %",
            "WHR %",
            "HR % of inf",
            "WHR % of inf",
        ]);
        for r in self.ranked_by_hr() {
            t.row(vec![
                r.policy.clone(),
                report::pct(r.total_hr),
                report::pct(r.total_whr),
                format!("{:.1}", r.mean_hr_pct),
                format!("{:.1}", r.mean_whr_pct),
            ]);
        }
        format!(
            "Workload {} | cache = {:.0}% of MaxNeeded ({} bytes) | infinite HR {} WHR {}\n{}",
            self.workload,
            self.cache_fraction * 100.0,
            self.capacity,
            report::pct(self.infinite_hr),
            report::pct(self.infinite_whr),
            t.render()
        )
    }

    /// ASCII rendering of the Figs. 8-12 curves (HR % of infinite).
    pub fn figure(&self) -> String {
        let series: Vec<(&str, &DailySeries)> = self
            .runs
            .iter()
            .map(|r| (r.policy.as_str(), &r.hr_pct_of_infinite_ma))
            .collect();
        format!(
            "Primary-key HR as % of infinite-cache HR, workload {} ({:.0}% cache)\n{}",
            self.workload,
            self.cache_fraction * 100.0,
            report::ascii_plot(&series, 16, 0.0, 105.0)
        )
    }
}

/// The Fig. 15 secondary-key study: primary ⌊log₂ SIZE⌋ on workload G,
/// each Table 1 secondary key's WHR as a percentage of the WHR obtained
/// with a random secondary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SecondaryStudy {
    /// Workload name (the paper uses G).
    pub workload: String,
    /// Per-secondary results: `(key label, WHR % of random MA, overall %)`.
    pub series: Vec<(String, DailySeries, f64)>,
    /// Same for HR (the paper reports NREF peaking at 100.8%).
    pub hr_series: Vec<(String, DailySeries, f64)>,
}

/// Run the secondary-key study.
pub fn run_secondary(ctx: &Ctx, workload: &str, cache_fraction: f64) -> SecondaryStudy {
    let trace = ctx.trace(workload);
    let capacity = ctx.capacity(workload, cache_fraction);

    let secondaries = [
        Key::Random,
        Key::Size,
        Key::AccessTime,
        Key::EntryTime,
        Key::NRef,
        Key::DayOfAccess,
    ];
    let jobs = secondaries
        .iter()
        .map(|&s| spec_policy(KeySpec::pair(Key::Log2Size, s)))
        .collect();
    let results = MultiSim::new(&trace, capacity).run(jobs);

    let (rand_hr, rand_whr) = moving_averages(&results[0].1);
    let mut series = Vec::new();
    let mut hr_series = Vec::new();
    for ((_, res), &key) in results.iter().zip(&secondaries).skip(1) {
        let (hr_ma, whr_ma) = moving_averages(res);
        let whr_ratio = ratio_percent(&whr_ma, &rand_whr);
        let hr_ratio = ratio_percent(&hr_ma, &rand_hr);
        let whr_overall = whr_ratio.mean();
        let hr_overall = hr_ratio.mean();
        series.push((key.label().to_string(), whr_ratio, whr_overall));
        hr_series.push((key.label().to_string(), hr_ratio, hr_overall));
    }
    SecondaryStudy {
        workload: workload.to_string(),
        series,
        hr_series,
    }
}

impl SecondaryStudy {
    /// Render the Fig. 15 summary.
    pub fn table(&self) -> String {
        let mut t = Table::new(vec!["Secondary key", "WHR % of random", "HR % of random"]);
        for ((k, _, whr), (_, _, hr)) in self.series.iter().zip(&self.hr_series) {
            t.row(vec![k.clone(), format!("{whr:.2}"), format!("{hr:.2}")]);
        }
        format!(
            "Secondary keys under primary LOG2(SIZE), workload {} (Fig. 15)\n{}",
            self.workload,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_beats_lru_and_fifo_on_hit_rate() {
        let ctx = Ctx::with_scale(0.03, 9);
        for workload in ["G", "BL"] {
            let e = run_one(&ctx, workload, 0.1, PolicySet::Figures);
            let size = e.run("SIZE/RANDOM").unwrap().total_hr;
            let lru = e.run("ATIME/RANDOM").unwrap().total_hr;
            let fifo = e.run("ETIME/RANDOM").unwrap().total_hr;
            assert!(
                size > lru && size > fifo,
                "{workload}: SIZE {size} LRU {lru} FIFO {fifo}"
            );
        }
    }

    #[test]
    fn size_is_worst_on_whr() {
        // Section 4.4: "Instead of SIZE being the best performer, as it
        // was with HR, it is clearly the worst" (on WHR).
        let ctx = Ctx::with_scale(0.03, 9);
        let e = run_one(&ctx, "BL", 0.1, PolicySet::Figures);
        let size = e.run("SIZE/RANDOM").unwrap().total_whr;
        let others: Vec<f64> = e
            .runs
            .iter()
            .filter(|r| r.policy != "SIZE/RANDOM")
            .map(|r| r.total_whr)
            .collect();
        let beat = others.iter().filter(|&&w| w > size).count();
        assert!(beat >= 2, "SIZE WHR {size} should trail most of {others:?}");
    }

    #[test]
    fn bigger_cache_never_hurts() {
        let ctx = Ctx::with_scale(0.03, 9);
        let small = run_one(&ctx, "G", 0.1, PolicySet::Figures);
        let large = run_one(&ctx, "G", 0.5, PolicySet::Figures);
        for r in &small.runs {
            let big = large.run(&r.policy).unwrap();
            assert!(
                big.total_hr >= r.total_hr - 0.02,
                "{}: 50% cache HR {} < 10% cache HR {}",
                r.policy,
                big.total_hr,
                r.total_hr
            );
        }
    }

    #[test]
    fn secondary_keys_barely_matter() {
        let ctx = Ctx::with_scale(0.03, 9);
        let s = run_secondary(&ctx, "G", 0.1);
        for (key, _, overall) in &s.series {
            // The paper finds secondaries within ~1% of random; our
            // synthetic traces carry a stronger frequency signal, so the
            // effect is larger (up to ~10% at full scale, noisier when
            // scaled down) but still second-order next to the primary-key
            // spread. EXPERIMENTS.md discusses the difference.
            assert!(
                (*overall - 100.0).abs() < 25.0,
                "secondary {key} deviates: {overall}%"
            );
        }
        assert!(s.table().contains("LOG2(SIZE)"));
    }

    #[test]
    fn tables_and_figures_render() {
        let ctx = Ctx::with_scale(0.02, 9);
        let e = run_one(&ctx, "BR", 0.1, PolicySet::Figures);
        assert!(e.table().contains("SIZE/RANDOM"));
        assert!(e.figure().contains("workload BR"));
        assert_eq!(e.ranked_by_hr().len(), 4);
        assert_eq!(e.ranked_by_whr().len(), 4);
    }
}
