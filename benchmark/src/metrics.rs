//! Every metric the benchmark reports: name, unit, direction, the bound
//! `--compare` judges it by, the workloads that report it, and where
//! `BENCHMARK.json` lists it. `BENCHMARK.json` is written from this
//! table and a test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where `BENCHMARK.json` lists a metric. The file's format makes every
/// workload report every listed metric, so a metric only some workloads
/// have cannot be listed `EndToEnd`; one that is a count or a ratio is
/// listed `PerLayer` and reads 0 where it does not apply, and a timing
/// is left out (a time that never changes is refused) and reported by
/// `wcbench` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listed {
    EndToEnd,
    PerLayer,
    No,
}

pub const HOT_SMALL: &str = "hot_small";
pub const PAPER_MIX: &str = "paper_mix";
pub const PAPER_MIX_PERSIST: &str = "paper_mix_persist";
pub const SIM_SWEEP: &str = "sim_sweep";

/// The workloads of `BENCHMARK.json`, each with the proxy in it.
pub const PROXY: &[&str] = &[HOT_SMALL, PAPER_MIX, PAPER_MIX_PERSIST];
const PAPER: &[&str] = &[PAPER_MIX, PAPER_MIX_PERSIST];
const PERSIST: &[&str] = &[PAPER_MIX_PERSIST];
const ALL: &[&str] = &[HOT_SMALL, PAPER_MIX, PAPER_MIX_PERSIST, SIM_SWEEP];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        HOT_SMALL,
        "4096 one-KiB documents, Zipf 0.9, all cached: ~100% hits at the smallest body, so per-request \
         hot-path cost is undiluted; origin, eviction and persistence do nothing",
    ),
    (
        PAPER_MIX,
        "the paper's Undergrad trace at 10% of MaxNeeded, cold start: ~70% misses, so origin fetch, \
         insert and eviction of large bodies dominate; HR and WHR as the paper defines them",
    ),
    (
        PAPER_MIX_PERSIST,
        "paper_mix with --persist-dir, then SIGKILL and a warm restart: the same layers with journal \
         and snapshots writing beside them; its difference to paper_mix is the persist layer's cost",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `--compare` calls it regressed; `Some(0.0)` means any worsening.
    /// `None` for per-layer metrics, which are recorded, not judged.
    pub bound: Option<f64>,
    /// Workloads that report it.
    pub on: &'static [&'static str],
    pub listed: Listed,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
    listed: Listed,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on,
        listed,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on,
        listed: Listed::PerLayer,
    }
}

use Better::{Higher, Lower};
use Listed::{EndToEnd, No, PerLayer};

pub const METRICS: &[Metric] = &[
    // End to end and gated by the driver. The host this runs on changes
    // pace by a quarter from minute to minute, and a bare loopback
    // responder changes with it, so the gated timings are ratios to that
    // responder (or, for the simulator, to a spin kernel) measured in
    // the same seconds; the raw timings follow below.
    e2e("setup_s", "s", Lower, 0.25, ALL, EndToEnd),
    e2e("ok_vs_loopback", "ratio", Higher, 0.25, PROXY, EndToEnd),
    e2e("cpu_vs_loopback", "ratio", Lower, 0.25, PROXY, EndToEnd),
    e2e("p50_vs_loopback", "ratio", Lower, 0.25, PROXY, EndToEnd),
    e2e("hit_p50_vs_loopback", "ratio", Lower, 0.25, PROXY, EndToEnd),
    e2e("hit_rate", "ratio", Higher, 0.08, PROXY, EndToEnd),
    e2e("byte_hit_rate", "ratio", Higher, 0.25, PROXY, EndToEnd),
    e2e("sim_vs_spin", "ratio", Higher, 0.25, ALL, EndToEnd),
    // End to end as a user reads them, in real units. `--compare` judges
    // them by these bounds and says `unresolved` where the host's noise
    // is wider; BENCHMARK.json lists them per layer.
    e2e("ok_per_s", "1/s", Higher, 0.10, PROXY, PerLayer),
    e2e("proxy_cpu_us_per_req", "us", Lower, 0.08, PROXY, PerLayer),
    e2e("proxy_rss_mb", "MiB", Lower, 0.10, PROXY, PerLayer),
    e2e("p50_us", "us", Lower, 0.10, PROXY, PerLayer),
    e2e("p99_us", "us", Lower, 0.25, PROXY, PerLayer),
    e2e("hit_p50_us", "us", Lower, 0.10, PROXY, PerLayer),
    e2e("sim_req_per_s", "1/s", Higher, 0.05, ALL, PerLayer),
    e2e("miss_p50_us", "us", Lower, 0.10, PAPER, No),
    e2e("warm_restart_s", "s", Lower, 0.25, PERSIST, No),
    e2e("warm_hit_ratio", "ratio", Higher, 0.02, PERSIST, PerLayer),
    e2e("error_frac", "ratio", Lower, 0.0, PROXY, PerLayer),
    layer("proxy.rss_peak_mb", "MiB", Lower, PROXY),
    layer("net.loopback_per_s", "1/s", Higher, PROXY),
    layer("sim.spin_per_s", "1/s", Higher, ALL),
    // Stage timers: each layer's public functions called on the
    // workload's own first requests, median time per operation.
    layer("proxy.http.parse_ns", "ns", Lower, PROXY),
    layer("trace.intern_ns", "ns", Lower, PROXY),
    layer("core.cache.hit_ns.size", "ns", Lower, PROXY),
    layer("core.cache.hit_ns.lru", "ns", Lower, PROXY),
    layer("core.cache.miss_evict_ns.size", "ns", Lower, PROXY),
    layer("core.cache.miss_evict_ns.lru", "ns", Lower, PROXY),
    layer("proxy.http.encode_head_ns", "ns", Lower, PROXY),
    layer("proxy.persist.append_ns", "ns", Lower, PROXY),
    layer("proxy.persist.sync_us", "us", Lower, PROXY),
    layer("proxy.persist.snapshot_ms", "ms", Lower, PROXY),
    layer("proxy.persist.recover_ms", "ms", Lower, PROXY),
    layer("core.cluster.owner_ns", "ns", Lower, PROXY),
    layer("core.sim.lane_req_ns", "ns", Lower, PROXY),
    layer("trace.binfmt.load_ms", "ms", Lower, PROXY),
    layer("workload.generate_ms", "ms", Lower, PROXY),
    layer("net.baseline_rtt_us", "us", Lower, PROXY),
    layer("proxy.loopback_hit_us", "us", Lower, PROXY),
    layer("proxy.overhead_us", "us", Lower, PROXY),
    layer("proxy.stage_sum_us", "us", Lower, PROXY),
    layer("proxy.reactor.gap_us", "us", Lower, PROXY),
    // Client spans of the traced pass, median of each.
    layer("client.connect_us", "us", Lower, PROXY),
    layer("client.ttfb_us.hit", "us", Lower, PROXY),
    Metric {
        listed: No,
        ..layer("client.ttfb_us.miss", "us", Lower, PAPER)
    },
    layer("client.body_us", "us", Lower, PROXY),
    // Counters read from outside the proxy at phase boundaries.
    layer("proxy.user_us_per_req", "us", Lower, PROXY),
    layer("proxy.sys_us_per_req", "us", Lower, PROXY),
    layer("proxy.ctx_switches_per_req", "count", Lower, PROXY),
    layer("proxy.threads", "count", Lower, PROXY),
    layer("proxy.requests", "count", Higher, PROXY),
    layer("proxy.hits", "count", Higher, PROXY),
    layer("proxy.misses", "count", Lower, PROXY),
    layer("proxy.bytes_from_cache", "count", Higher, PROXY),
    layer("proxy.bytes_from_origin", "count", Lower, PROXY),
    layer("proxy.cached_bytes", "count", Higher, PROXY),
    layer("proxy.rejected", "count", Lower, PROXY),
    layer("proxy.origin_failures", "count", Lower, PROXY),
    layer("origin.requests", "count", Lower, PROXY),
    layer("proxy.double_miss_frac", "ratio", Lower, PROXY),
    layer("core.sim.hit_rate_gap", "ratio", Higher, PROXY),
    layer("persist.journal_dropped", "count", Lower, PERSIST),
    layer("persist.journal_lost_records", "count", Lower, PERSIST),
    layer("persist.bytes_per_cached_byte", "ratio", Lower, PERSIST),
    // Validity guards of the open loop and of tracing itself.
    layer("loadgen.late_frac", "ratio", Lower, PROXY),
    layer("loadgen.late_p99_us", "us", Lower, PROXY),
    layer("loadgen.within_5ms_frac", "ratio", Higher, PROXY),
    layer("loadgen.p999_us", "us", Lower, PROXY),
    layer("loadgen.p99_samples_beyond", "count", Higher, PROXY),
    layer("loadgen.trace_overhead_frac", "ratio", Lower, PROXY),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` this table and `run_seconds` describe.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let listed = |l: Listed| METRICS.iter().filter(move |m| m.listed == l);
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(run_seconds as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                listed(EndToEnd)
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound.unwrap_or(0.25))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                listed(PerLayer)
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_benchmark_json_limits() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "metric names are used once");
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
            if m.listed == EndToEnd {
                let b = m.bound.expect("end-to-end metrics have a bound");
                assert!(b > 0.0 && b <= 0.25, "{}", m.name);
                // Every listed workload must report it.
                assert!(PROXY.iter().all(|w| m.on.contains(w)), "{}", m.name);
            }
        }
        let e2e = METRICS.iter().filter(|m| m.listed == EndToEnd).count();
        let per = METRICS.iter().filter(|m| m.listed == PerLayer).count();
        assert!((1..=16).contains(&e2e) && (1..=128).contains(&per));
        assert!(metric("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
        for (name, why) in WORKLOADS {
            assert!(
                valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = committed.num("run_seconds").expect("run_seconds") as u64;
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(
            committed,
            benchmark_json(run_seconds),
            "regenerate with `wcbench --print-benchmark-json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
