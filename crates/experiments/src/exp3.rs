//! Experiment 3: effectiveness of a second-level cache (Figs. 16-18).
//!
//! "Experiment 3 uses the HR best policy from Experiment 2 (SIZE) for the
//! primary key and random as the secondary key. The primary cache is set
//! to 10% of MaxNeeded, and the second level cache has infinite size."
//! Also implements the section 5 open-problem extension: several primary
//! caches sharing one second-level cache.

use crate::runner::Ctx;
use serde::{Deserialize, Serialize};
use webcache_core::cache::multilevel::TwoLevelCache;
use webcache_core::cache::Cache;
use webcache_core::policy::{named, NeverEvict};
use webcache_core::sim::{run_lanes, Lane, SimResult};
use webcache_stats::series::DailySeries;
use webcache_stats::{report, Table};

/// Experiment 3 results for one workload: one of Figs. 16-18.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp3Workload {
    /// Workload name.
    pub workload: String,
    /// L1 capacity in bytes (10% of MaxNeeded).
    pub l1_capacity: u64,
    /// Daily L2 HR over all requests, 7-day MA (the plotted curve).
    pub l2_hr_ma: DailySeries,
    /// Daily L2 WHR over all requests, 7-day MA.
    pub l2_whr_ma: DailySeries,
    /// Totals.
    pub l1_hr: f64,
    /// L1 weighted hit rate.
    pub l1_whr: f64,
    /// L2 hit rate over all client requests.
    pub l2_hr: f64,
    /// L2 weighted hit rate over all client requests.
    pub l2_whr: f64,
}

/// Experiment 3's hierarchy: `l1s` SIZE caches of `l1_capacity` bytes
/// each, sharing an infinite L2.
fn hierarchy(l1s: usize, l1_capacity: u64) -> TwoLevelCache {
    let l1s = (0..l1s)
        .map(|_| Cache::new(l1_capacity, Box::new(named::size())))
        .collect();
    TwoLevelCache::shared(l1s, Cache::infinite(Box::new(NeverEvict::new())))
}

/// One workload's row from its simulation result.
fn row(workload: &str, l1_capacity: u64, res: &SimResult) -> Exp3Workload {
    let l1 = res.stream("l1").expect("l1 stream");
    let l2 = res.stream("l2").expect("l2 stream");
    Exp3Workload {
        workload: workload.to_string(),
        l1_capacity,
        l2_hr_ma: DailySeries::new(l2.daily_hr()).moving_average(7),
        l2_whr_ma: DailySeries::new(l2.daily_whr()).moving_average(7),
        l1_hr: l1.total.hit_rate(),
        l1_whr: l1.total.weighted_hit_rate(),
        l2_hr: l2.total.hit_rate(),
        l2_whr: l2.total.weighted_hit_rate(),
    }
}

/// Experiment 3 output across workloads, with per-workload salvage: a
/// workload whose simulation panics is reported in `failed` instead of
/// discarding every other workload's completed rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp3Output {
    /// Completed workload rows, in the paper's workload order.
    pub rows: Vec<Exp3Workload>,
    /// True when at least one workload failed and `rows` is incomplete.
    pub partial: bool,
    /// `(workload, error)` for each failed workload.
    pub failed: Vec<(String, String)>,
}

/// Run Experiment 3 on each of `workloads`, one lane per workload (the
/// paper plots BR, C and G; `experiments exp3` runs all five). Output
/// keeps the given order; a failing workload is salvaged into
/// [`failed`](Exp3Output::failed) rather than dropping the whole sweep.
pub fn run(ctx: &Ctx, workloads: &[&str], cache_fraction: f64) -> Exp3Output {
    let inputs: Vec<_> = (workloads.iter())
        .map(|&w| (w, ctx.trace(w), ctx.capacity(w, cache_fraction)))
        .collect();
    let lanes = (inputs.iter())
        .map(|&(w, ref trace, l1_capacity)| {
            let hierarchy = move || hierarchy(1, l1_capacity);
            let row = move |res, _| row(w, l1_capacity, &res);
            Lane::with("SIZE L1 + infinite L2", trace, hierarchy, row)
        })
        .collect();
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for (&(w, ..), (_, row)) in inputs.iter().zip(run_lanes(lanes)) {
        match row {
            Ok(row) => rows.push(row),
            Err(e) => failed.push((w.to_string(), e)),
        }
    }
    Exp3Output {
        rows,
        partial: !failed.is_empty(),
        failed,
    }
}

/// Render the Experiment 3 summary table.
pub fn table(results: &[Exp3Workload]) -> String {
    let mut t = Table::new(vec![
        "Workload", "L1 HR %", "L1 WHR %", "L2 HR %", "L2 WHR %",
    ]);
    for r in results {
        t.row(vec![
            r.workload.clone(),
            report::pct(r.l1_hr),
            report::pct(r.l1_whr),
            report::pct(r.l2_hr),
            report::pct(r.l2_whr),
        ]);
    }
    t.render()
}

/// Extension (section 5, open problem 3): `groups` primary caches, each
/// 10% of MaxNeeded / groups, sharing one infinite L2. Returns
/// `(per-L1 hit rates, shared L2 HR, shared L2 WHR)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp3Shared {
    /// Workload name.
    pub workload: String,
    /// Number of first-level caches.
    pub groups: usize,
    /// Hit rate of each L1 over its own requests.
    pub l1_hrs: Vec<f64>,
    /// Shared-L2 hit rate over all requests.
    pub l2_hr: f64,
    /// Shared-L2 weighted hit rate over all requests.
    pub l2_whr: f64,
}

/// Run the shared-L2 extension.
pub fn run_shared(ctx: &Ctx, workload: &str, cache_fraction: f64, groups: usize) -> Exp3Shared {
    let trace = ctx.trace(workload);
    let per_l1 = ((ctx.max_needed(workload) as f64 * cache_fraction / groups as f64) as u64).max(1);
    let lane = Lane::new("shared L2", &trace, move || hierarchy(groups, per_l1));
    let (_, res) = run_lanes(vec![lane]).remove(0);
    let res = res.expect("the shared-L2 lane");
    let l1_hrs = (res.streams.iter())
        .filter(|s| s.name != "l2")
        .map(|s| s.total.hit_rate())
        .collect();
    let l2 = res.stream("l2").expect("l2 stream");
    Exp3Shared {
        workload: workload.to_string(),
        groups,
        l1_hrs,
        l2_hr: l2.total.hit_rate(),
        l2_whr: l2.total.weighted_hit_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_whr_exceeds_l2_hr() {
        // The paper's reading of Figs. 16-18: "This explains why WHR is
        // larger than HR — primary cache misses that are hits in the
        // secondary cache are for large files."
        let ctx = Ctx::with_scale(0.03, 13);
        for w in ["BR", "G", "BL"] {
            let r = &run(&ctx, &[w], 0.1).rows[0];
            assert!(
                r.l2_whr > r.l2_hr,
                "{w}: L2 WHR {} should exceed L2 HR {}",
                r.l2_whr,
                r.l2_hr
            );
        }
    }

    #[test]
    fn l2_plays_extended_memory_role() {
        // "a memory-starved primary cache … the second level cache reaches
        // a maximum 1.2-8% HR, and a 15-70% WHR".
        let ctx = Ctx::with_scale(0.03, 13);
        let r = &run(&ctx, &["G"], 0.1).rows[0];
        assert!(r.l2_hr > 0.005, "L2 HR {}", r.l2_hr);
        assert!(r.l2_whr > 0.05, "L2 WHR {}", r.l2_whr);
    }

    #[test]
    fn shared_l2_absorbs_cross_group_traffic() {
        let ctx = Ctx::with_scale(0.03, 13);
        let r = run_shared(&ctx, "BL", 0.1, 4);
        assert_eq!(r.l1_hrs.len(), 4);
        // Splitting L1 four ways starves each shard; the shared L2 must
        // pick up more than the single-L1 configuration's L2 does.
        let single = &run(&ctx, &["BL"], 0.1).rows[0];
        assert!(
            r.l2_hr >= single.l2_hr,
            "shared L2 HR {} vs single {}",
            r.l2_hr,
            single.l2_hr
        );
    }

    #[test]
    fn run_covers_all_workloads_with_no_failures() {
        let ctx = Ctx::with_scale(0.01, 13);
        let out = run(&ctx, &crate::runner::WORKLOADS, 0.1);
        assert_eq!(out.rows.len(), crate::runner::WORKLOADS.len());
        assert!(!out.partial);
        assert!(out.failed.is_empty());
        // Paper's order preserved for the salvaged rows.
        let names: Vec<&str> = out.rows.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, crate::runner::WORKLOADS.to_vec());
    }

    #[test]
    fn summary_table_renders() {
        let ctx = Ctx::with_scale(0.02, 13);
        let t = table(&run(&ctx, &["BR"], 0.1).rows);
        assert!(t.contains("BR"));
        assert!(t.contains("L2 WHR"));
    }
}
