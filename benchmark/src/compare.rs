//! Judging one result file against another, and folding repeated runs
//! into medians and quartiles.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Listed, Metric, METRICS};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the runs cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the value and, when the file holds
/// repeated runs, the spread between its quartiles as a share of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: Option<f64>,
}

fn side(entry: &Json) -> Option<Side> {
    let value = entry.num("value")?;
    let spread = match (entry.num("q1"), entry.num("q3")) {
        (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
        _ => None,
    };
    Some(Side { value, spread })
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction; negative when it got better.
pub fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 {
        if b == a {
            0.0
        } else {
            (b - a).signum() * f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    };
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(m: &Metric, a: Side, b: Side) -> Verdict {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let too_wide = |s: Side| s.spread.is_some_and(|w| w > bound);
    if bound > 0.0 && (too_wide(a) || too_wide(b)) {
        Verdict::Unresolved
    } else if worsening(m, a.value, b.value) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_entry<'a>(file: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

/// Print, per workload and end-to-end metric, both values, the relative
/// change and the verdict against the metric's bound. `Ok(false)` when a
/// metric the driver gates, or `error_frac`, regressed; the raw timings
/// are judged by the bounds the issue set, which this host's noise
/// exceeds between single runs, so they are marked and do not fail the
/// comparison.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        let stamp = file.get("stamp").map_or_else(String::new, Json::compact);
        println!("{label}: {stamp}");
    }
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut clean = true;
    let workloads = a.get("workloads").map_or(&[][..], Json::as_obj);
    for (workload, _) in workloads {
        for m in METRICS.iter().filter(|m| m.bound.is_some()) {
            let (Some(sa), Some(sb)) = (
                metric_entry(&a, workload, m.name).and_then(side),
                metric_entry(&b, workload, m.name).and_then(side),
            ) else {
                continue;
            };
            let verdict = judge(m, sa, sb);
            let gated = m.listed == Listed::EndToEnd || m.bound == Some(0.0);
            clean &= !(gated && verdict == Verdict::Regressed);
            let change = if sa.value == 0.0 {
                sb.value - sa.value
            } else {
                (sb.value - sa.value) / sa.value.abs()
            };
            println!(
                "{workload:<18} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}{}",
                m.name,
                sa.value,
                sb.value,
                change * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str(),
                if gated { "" } else { " (recorded, not gated)" }
            );
        }
    }
    Ok(clean)
}

/// Fold result files of repeated runs into one of the same shape whose
/// metrics carry the median as `value`, plus `q1`, `q3` and `n`.
pub fn summarise(runs: &[Json]) -> Json {
    let Some(first) = runs.first() else {
        return Json::Null;
    };
    let mut workloads = Vec::new();
    for (workload, entry) in first.get("workloads").map_or(&[][..], Json::as_obj) {
        let mut metrics = Vec::new();
        for (name, m) in entry.get("metrics").map_or(&[][..], Json::as_obj) {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_entry(r, workload, name)?.num("value"))
                .collect();
            let (q1, med, q3) = quartiles(&values);
            metrics.push((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(med)),
                    ("unit".into(), m.get("unit").cloned().unwrap_or(Json::Null)),
                    ("q1".into(), Json::Num(q1)),
                    ("q3".into(), Json::Num(q3)),
                    ("n".into(), Json::Num(values.len() as f64)),
                ]),
            ));
        }
        let all = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get("workloads")?.get(workload)?.get(key))
                .all(|v| *v == Json::Bool(true))
        };
        workloads.push((
            workload.clone(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(all("correct"))),
                ("metrics".into(), Json::Obj(metrics)),
            ]),
        ));
    }
    Json::Obj(vec![
        (
            "stamp".into(),
            first.get("stamp").cloned().unwrap_or(Json::Null),
        ),
        ("runs".into(), Json::Num(runs.len() as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// Median and quartiles of every metric of a summary, with the spread
/// the acceptance rule looks at.
pub fn print_summary(summary: &Json) {
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for (workload, entry) in summary.get("workloads").map_or(&[][..], Json::as_obj) {
        for (name, m) in entry.get("metrics").map_or(&[][..], Json::as_obj) {
            let get = |k: &str| m.num(k).unwrap_or(0.0);
            let spread = side(m).and_then(|s| s.spread).unwrap_or(0.0);
            println!(
                "{workload:<18} {name:<34} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%",
                get("q1"),
                get("value"),
                get("q3"),
                spread * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metric;

    fn single(value: f64) -> Side {
        Side {
            value,
            spread: None,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ok_per_s = metric("ok_per_s").unwrap(); // higher is better, 10%
        assert_eq!(judge(ok_per_s, single(1000.0), single(950.0)), Verdict::Ok);
        assert_eq!(
            judge(ok_per_s, single(1000.0), single(880.0)),
            Verdict::Regressed
        );
        assert_eq!(judge(ok_per_s, single(1000.0), single(2000.0)), Verdict::Ok);
        let p50 = metric("p50_us").unwrap(); // lower is better, 10%
        assert_eq!(judge(p50, single(200.0), single(215.0)), Verdict::Ok);
        assert_eq!(judge(p50, single(200.0), single(230.0)), Verdict::Regressed);
        assert!((worsening(p50, 200.0, 230.0) - 0.15).abs() < 1e-12);
        assert!((worsening(ok_per_s, 1000.0, 880.0) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p50 = metric("p50_us").unwrap();
        let noisy = Side {
            value: 200.0,
            spread: Some(0.3),
        };
        assert_eq!(judge(p50, noisy, single(400.0)), Verdict::Unresolved);
        assert_eq!(judge(p50, single(200.0), noisy), Verdict::Unresolved);
        let steady = Side {
            value: 200.0,
            spread: Some(0.02),
        };
        assert_eq!(judge(p50, steady, single(400.0)), Verdict::Regressed);
    }

    #[test]
    fn error_frac_is_judged_absolutely() {
        let e = metric("error_frac").unwrap();
        assert_eq!(judge(e, single(0.0), single(0.0)), Verdict::Ok);
        assert_eq!(judge(e, single(0.0), single(0.001)), Verdict::Regressed);
        assert_eq!(judge(e, single(0.01), single(0.0)), Verdict::Ok);
    }

    #[test]
    fn summarise_takes_medians_and_quartiles_per_metric() {
        let run = |v: f64| {
            Json::parse(&format!(
                r#"{{"stamp":{{"seed":1}},"workloads":{{"hot_small":{{"correct":true,
                "metrics":{{"ok_per_s":{{"value":{v},"unit":"1/s"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let summary = summarise(&[run(100.0), run(300.0), run(200.0)]);
        let m = metric_entry(&summary, "hot_small", "ok_per_s").unwrap();
        assert_eq!(m.num("value"), Some(200.0));
        assert_eq!((m.num("q1"), m.num("q3")), (Some(100.0), Some(300.0)));
        assert_eq!(m.num("n"), Some(3.0));
        assert_eq!(side(m).unwrap().spread, Some(1.0));
        assert_eq!(summary.num("runs"), Some(3.0));
    }
}
