//! Experiment 5 (extension, not in the paper): the section 5 "open
//! problem" sorting keys — document type and refetch latency — plus the
//! Harvest-style expiry key, evaluated head-to-head against SIZE; and a
//! multi-seed replication harness quantifying how stable every headline
//! number is across trace realisations (the paper had one trace per
//! workload and could not do this).

use crate::runner::Ctx;
use serde::{Deserialize, Serialize};
use webcache_core::cache::{Cache, Counts, DocMeta};
use webcache_core::policy::{Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_core::sim::{run_lanes, CacheSystem, Lane, MultiSim};
use webcache_stats::{report, Table};
use webcache_trace::{DocType, Request, ServerId};

/// Modelled refetch latency of a server: deterministic, 20-1000 ms, heavy
/// at the tail ("transatlantic" servers).
fn server_latency_ms(server: ServerId) -> u64 {
    let h = (server.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    20 + h % 7 * 160 // 20, 180, …, 980 ms
}

/// Synthetic refetch-latency model decorator.
pub fn latency_model(r: &Request, m: &mut DocMeta) {
    m.refetch_latency_ms = server_latency_ms(r.server);
}

/// Synthetic expiry model: text/CGI documents expire two hours after
/// entry, everything else after a week.
pub fn expiry_model(r: &Request, m: &mut DocMeta) {
    let ttl = match r.doc_type {
        DocType::Text | DocType::Cgi => 2 * 3600,
        _ => 7 * 86_400,
    };
    m.expires = Some(m.entry_time + ttl);
}

/// Result of one extension-policy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtensionRun {
    /// Policy description.
    pub policy: String,
    /// Overall hit rate.
    pub hr: f64,
    /// Overall weighted hit rate.
    pub whr: f64,
    /// Hit rate over text documents only (the DOCTYPE key's objective).
    pub text_hr: f64,
    /// Mean refetch latency per request in ms, assuming hits cost 0 and
    /// misses cost the document's modelled refetch latency (the LATENCY
    /// key's objective).
    pub mean_latency_ms: f64,
}

/// Apply both extension models at insert time.
fn combined_model(r: &Request, m: &mut DocMeta) {
    latency_model(r, m);
    expiry_model(r, m);
}

/// A lane's cache, counting what the extension keys aim at: text
/// requests and hits, and `refetch_ms`, the modelled refetch latency of
/// every miss (hits cost nothing).
struct Observed {
    cache: Cache,
    text_requests: u64,
    text_hits: u64,
    refetch_ms: u64,
}

impl CacheSystem for Observed {
    fn handle(&mut self, r: &Request) {
        let hit = self.cache.request_hit(r);
        if r.doc_type == DocType::Text {
            self.text_requests += 1;
            self.text_hits += u64::from(hit);
        }
        if !hit {
            self.refetch_ms += server_latency_ms(r.server);
        }
    }

    fn reserve_urls(&mut self, urls: usize) {
        self.cache.reserve_urls(urls);
    }

    fn stream_names(&self) -> Vec<String> {
        self.cache.stream_names()
    }

    fn snapshot(&self, out: &mut [Counts]) {
        self.cache.snapshot(out);
    }

    fn gauges(&self) -> Vec<(String, u64)> {
        self.cache.gauges()
    }
}

/// Run the extension-key comparison on one workload: all five policies as
/// lanes over one trace, each cache with the extension decorators.
pub fn run(ctx: &Ctx, workload: &str, cache_fraction: f64) -> Vec<ExtensionRun> {
    let trace = ctx.trace(workload);
    let capacity = ctx.capacity(workload, cache_fraction);
    let lane = |label: &str, spec: KeySpec| {
        let observed = move || Observed {
            cache: Cache::new(capacity, Box::new(SortedPolicy::new(spec)))
                .with_decorator(combined_model),
            text_requests: 0,
            text_hits: 0,
            refetch_ms: 0,
        };
        Lane::with(label, &trace, observed, |result, o| {
            let c = result.stream("cache").expect("cache stream").total;
            ExtensionRun {
                policy: result.system,
                hr: c.hit_rate(),
                whr: c.weighted_hit_rate(),
                text_hr: o.text_hits as f64 / o.text_requests.max(1) as f64,
                mean_latency_ms: o.refetch_ms as f64 / c.requests.max(1) as f64,
            }
        })
    };
    let lanes = vec![
        lane("SIZE", KeySpec::primary(Key::Size)),
        lane(
            "DOCTYPE+SIZE",
            KeySpec::pair(Key::DocTypePriority, Key::Size),
        ),
        lane("LATENCY+SIZE", KeySpec::pair(Key::Latency, Key::Size)),
        lane("EXPIRY+SIZE", KeySpec::pair(Key::Expiry, Key::Size)),
        lane("LRU", KeySpec::primary(Key::AccessTime)),
    ];
    run_lanes(lanes)
        .into_iter()
        .map(|(label, run)| run.unwrap_or_else(|e| panic!("lane {label} panicked: {e}")))
        .collect()
}

/// Render the extension comparison.
pub fn table(workload: &str, runs: &[ExtensionRun]) -> String {
    let mut t = Table::new(vec![
        "Policy",
        "HR %",
        "WHR %",
        "Text HR %",
        "Mean refetch ms/req",
    ]);
    for r in runs {
        t.row(vec![
            r.policy.clone(),
            report::pct(r.hr),
            report::pct(r.whr),
            report::pct(r.text_hr),
            format!("{:.1}", r.mean_latency_ms),
        ]);
    }
    format!(
        "Extension keys (section 5 open problems), workload {workload}\n{}",
        t.render()
    )
}

/// Mean and sample standard deviation of a metric across seeds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Replicated {
    /// Mean across seeds.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Number of seeds.
    pub n: usize,
}

impl Replicated {
    fn of(values: &[f64]) -> Replicated {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Replicated {
            mean,
            stddev: var.sqrt(),
            n,
        }
    }
}

/// Replicate the headline SIZE-vs-LRU comparison over `seeds` independent
/// trace realisations of one workload. Returns
/// `(SIZE HR, LRU HR, SIZE WHR, LRU WHR)` statistics.
pub fn replicate(
    workload: &str,
    scale: f64,
    cache_fraction: f64,
    seeds: std::ops::Range<u64>,
) -> (Replicated, Replicated, Replicated, Replicated) {
    let mut size_hr = Vec::new();
    let mut lru_hr = Vec::new();
    let mut size_whr = Vec::new();
    let mut lru_whr = Vec::new();
    for seed in seeds {
        let ctx = Ctx::with_scale(scale, seed);
        let trace = ctx.trace(workload);
        let capacity = ctx.capacity(workload, cache_fraction);
        let make =
            |key| Box::new(SortedPolicy::new(KeySpec::primary(key))) as Box<dyn RemovalPolicy>;
        let out = MultiSim::new(&trace, capacity).run(vec![
            ("SIZE".to_string(), make(Key::Size)),
            ("LRU".to_string(), make(Key::AccessTime)),
        ]);
        let totals: Vec<_> = out
            .iter()
            .map(|(_, res)| res.stream("cache").expect("stream").total)
            .collect();
        size_hr.push(totals[0].hit_rate());
        size_whr.push(totals[0].weighted_hit_rate());
        lru_hr.push(totals[1].hit_rate());
        lru_whr.push(totals[1].weighted_hit_rate());
    }
    (
        Replicated::of(&size_hr),
        Replicated::of(&lru_hr),
        Replicated::of(&size_whr),
        Replicated::of(&lru_whr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_key_reduces_refetch_latency() {
        let ctx = Ctx::with_scale(0.03, 31);
        let runs = run(&ctx, "BL", 0.1);
        let get = |name: &str| runs.iter().find(|r| r.policy == name).unwrap();
        let latency = get("LATENCY+SIZE");
        let lru = get("LRU");
        assert!(
            latency.mean_latency_ms < lru.mean_latency_ms,
            "LATENCY+SIZE {:.1} ms should beat LRU {:.1} ms",
            latency.mean_latency_ms,
            lru.mean_latency_ms
        );
    }

    #[test]
    fn doctype_key_maximises_text_hit_rate() {
        let ctx = Ctx::with_scale(0.03, 31);
        let runs = run(&ctx, "BL", 0.1);
        let get = |name: &str| runs.iter().find(|r| r.policy == name).unwrap();
        let doctype = get("DOCTYPE+SIZE");
        let lru = get("LRU");
        assert!(
            doctype.text_hr >= lru.text_hr,
            "DOCTYPE text HR {} below LRU {}",
            doctype.text_hr,
            lru.text_hr
        );
        assert!(table("BL", &runs).contains("DOCTYPE+SIZE"));
    }

    #[test]
    fn replication_is_tight_and_preserves_the_ranking() {
        let (size_hr, lru_hr, size_whr, lru_whr) = replicate("G", 0.02, 0.1, 100..105);
        assert_eq!(size_hr.n, 5);
        // SIZE beats LRU on HR by more than the seed noise in every
        // statistic — the paper's conclusion is robust to the trace draw.
        assert!(
            size_hr.mean - lru_hr.mean > size_hr.stddev + lru_hr.stddev,
            "SIZE {}±{} vs LRU {}±{}",
            size_hr.mean,
            size_hr.stddev,
            lru_hr.mean,
            lru_hr.stddev
        );
        // And LRU beats SIZE on WHR.
        assert!(lru_whr.mean > size_whr.mean);
    }
}
