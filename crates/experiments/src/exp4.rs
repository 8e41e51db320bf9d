//! Experiment 4: partitioned caches (Figs. 19-20).
//!
//! "In Experiment 4, a one-level cache with SIZE as the primary key and
//! random as the secondary key was used with three partition sizes:
//! dedicate 1/4, 1/2, or 3/4 of the cache to audio; the rest is dedicated
//! to non-audio documents." Workload BR; total cache 10% of MaxNeeded.
//! The reported WHRs are over *all* requests.

use crate::runner::Ctx;
use serde::{Deserialize, Serialize};
use webcache_core::cache::partitioned::PartitionedCache;
use webcache_core::policy::named;
use webcache_core::sim::{run_lanes, Lane, SimResult};
use webcache_stats::series::DailySeries;
use webcache_stats::{report, Table};

/// One partition configuration's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionRun {
    /// Fraction of the cache dedicated to audio.
    pub audio_fraction: f64,
    /// Audio WHR over all requests, 7-day MA (a Fig. 19 curve).
    pub audio_whr_ma: DailySeries,
    /// Non-audio WHR over all requests, 7-day MA (a Fig. 20 curve).
    pub non_audio_whr_ma: DailySeries,
    /// Totals over the trace.
    pub audio_whr: f64,
    /// Non-audio WHR over all requests.
    pub non_audio_whr: f64,
    /// Overall WHR of the partitioned cache.
    pub total_whr: f64,
}

/// Experiment 4 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp4 {
    /// Workload (BR in the paper).
    pub workload: String,
    /// Total cache size in bytes.
    pub capacity: u64,
    /// Infinite-cache audio WHR over all requests (the reference curve of
    /// Fig. 19).
    pub infinite_audio_whr: f64,
    /// Infinite-cache non-audio WHR over all requests (Fig. 20 reference).
    pub infinite_non_audio_whr: f64,
    /// Runs for audio fractions 1/4, 1/2, 3/4.
    pub runs: Vec<PartitionRun>,
    /// True when at least one partition configuration failed and `runs` is
    /// incomplete.
    pub partial: bool,
    /// `(audio fraction, error)` for each failed configuration.
    pub failed: Vec<(String, String)>,
}

/// The audio shares of Experiment 4's three partitioned caches.
const AUDIO_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.75];

/// One partition configuration's row from its simulation result.
fn partition_run(audio_fraction: f64, res: &SimResult) -> PartitionRun {
    let audio = res.stream("audio").expect("audio stream");
    let non = res.stream("non-audio").expect("non-audio stream");
    let total = res.stream("total").expect("total stream");
    PartitionRun {
        audio_fraction,
        audio_whr_ma: DailySeries::new(audio.daily_whr()).moving_average(7),
        non_audio_whr_ma: DailySeries::new(non.daily_whr()).moving_average(7),
        audio_whr: audio.total.weighted_hit_rate(),
        non_audio_whr: non.total.weighted_hit_rate(),
        total_whr: total.total.weighted_hit_rate(),
    }
}

/// Run Experiment 4, one lane per partition configuration; a failing one
/// is salvaged into [`failed`](Exp4::failed).
pub fn run(ctx: &Ctx, workload: &str, cache_fraction: f64) -> Exp4 {
    let trace = ctx.trace(workload);
    let capacity = ctx.capacity(workload, cache_fraction).max(4);
    let split = |capacity, audio_fraction| {
        move || PartitionedCache::audio_split(capacity, audio_fraction, || Box::new(named::size()))
    };
    // Partitions of about 2^63 bytes never evict: the infinite cache.
    let mut lanes = vec![Lane::new(
        "infinite partitioned",
        &trace,
        split(u64::MAX, 0.5),
    )];
    lanes.extend(AUDIO_FRACTIONS.map(|f| Lane::new("partitioned", &trace, split(capacity, f))));
    let mut results = run_lanes(lanes).into_iter().map(|(_, res)| res);
    let infinite = (results.next().expect("the infinite lane"))
        .unwrap_or_else(|e| panic!("infinite partitioned cache: {e}"));
    let whr = |name| {
        let stream = infinite.stream(name).expect("partition stream");
        stream.total.weighted_hit_rate()
    };
    let mut runs = Vec::new();
    let mut failed = Vec::new();
    for (audio_fraction, res) in AUDIO_FRACTIONS.into_iter().zip(results) {
        match res {
            Ok(res) => runs.push(partition_run(audio_fraction, &res)),
            Err(e) => failed.push((format!("{audio_fraction}"), e)),
        }
    }
    Exp4 {
        workload: workload.to_string(),
        capacity,
        infinite_audio_whr: whr("audio"),
        infinite_non_audio_whr: whr("non-audio"),
        runs,
        partial: !failed.is_empty(),
        failed,
    }
}

impl Exp4 {
    /// Render the summary table for Figs. 19-20.
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "Audio share",
            "Audio WHR %",
            "Non-audio WHR %",
            "Overall WHR %",
        ]);
        for r in &self.runs {
            t.row(vec![
                format!("{:.0}%", r.audio_fraction * 100.0),
                report::pct(r.audio_whr),
                report::pct(r.non_audio_whr),
                report::pct(r.total_whr),
            ]);
        }
        t.row(vec![
            "infinite".to_string(),
            report::pct(self.infinite_audio_whr),
            report::pct(self.infinite_non_audio_whr),
            report::pct(self.infinite_audio_whr + self.infinite_non_audio_whr),
        ]);
        format!(
            "Partitioned cache, workload {} (total {} bytes; WHR over ALL requests)\n{}",
            self.workload,
            self.capacity,
            t.render()
        )
    }

    /// The run with the best overall WHR ("splitting the cache into two
    /// partitions of equal size would maximize the overall WHR").
    pub fn best_overall(&self) -> &PartitionRun {
        self.runs
            .iter()
            .max_by(|a, b| a.total_whr.total_cmp(&b.total_whr))
            .expect("at least one completed run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> Exp4 {
        let ctx = Ctx::with_scale(0.05, 17);
        run(&ctx, "BR", 0.1)
    }

    #[test]
    fn more_audio_space_helps_audio_and_hurts_non_audio() {
        let e = exp();
        let audio: Vec<f64> = e.runs.iter().map(|r| r.audio_whr).collect();
        let non: Vec<f64> = e.runs.iter().map(|r| r.non_audio_whr).collect();
        assert!(
            audio[0] <= audio[1] && audio[1] <= audio[2],
            "audio WHR not monotone in audio share: {audio:?}"
        );
        assert!(
            non[0] >= non[2],
            "non-audio WHR should shrink as its share shrinks: {non:?}"
        );
    }

    #[test]
    fn heavy_audio_overwhelms_even_three_quarters() {
        // "heavy audio use overwhelm[s] even a 3/4 audio partition with a
        // 10% cache size": the partitioned audio WHR stays well below the
        // infinite cache's audio WHR.
        let e = exp();
        let best_audio = e.runs.last().unwrap().audio_whr;
        assert!(
            best_audio < e.infinite_audio_whr * 0.9,
            "audio WHR {} vs infinite {}",
            best_audio,
            e.infinite_audio_whr
        );
    }

    #[test]
    fn table_renders_and_best_overall_exists() {
        let e = exp();
        let t = e.table();
        assert!(t.contains("Audio share"));
        assert!(t.contains("infinite"));
        let b = e.best_overall();
        assert!(b.audio_fraction > 0.0);
    }
}
