//! The inputs, all made from `--seed`: the request traces the proxy and
//! the simulator are driven with, and the per-document tables the client
//! and the origin are built from. The proxy sees none of this — only the
//! requests that result.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use webcache_proxy::origin::DocStore;
use webcache_trace::{binfmt, RawRequest, Trace};
use webcache_workload::dist::ZipfSampler;
use webcache_workload::{generate, profiles};

/// `hot_small`: documents, body size and popularity skew.
pub const HOT_DOCS: usize = 4096;
pub const HOT_BODY: u64 = 1024;
pub const HOT_ALPHA: f64 = 0.9;
/// `hot_small` capacity: sixteen times the working set, so nothing is
/// ever evicted.
pub const HOT_CAPACITY: u64 = 64 << 20;
/// `paper_mix` capacity as a share of MaxNeeded — the paper's
/// Experiment 2 regime.
pub const PAPER_CAPACITY_FRAC: f64 = 0.10;

/// A Zipf(`HOT_ALPHA`) request stream over `HOT_DOCS` one-KiB documents.
/// Host names carry the seed, so two seeds share no URL.
pub fn hot_small_trace(seed: u64, requests: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(HOT_DOCS, HOT_ALPHA);
    let raws: Vec<RawRequest> = (0..requests)
        .map(|i| RawRequest {
            // 64 requests per trace second keeps the stream inside one
            // simulated day, so end-of-day policy runs play no part.
            time: i as u64 / 64,
            client: "bench".into(),
            url: format!(
                "http://hot{seed:x}.bench.test/d{:04}.html",
                zipf.sample(&mut rng)
            ),
            status: 200,
            size: HOT_BODY,
            last_modified: None,
        })
        .collect();
    Trace::from_raw("hot_small", &raws)
}

/// The paper's Undergrad workload at `scale`, with every request of a
/// URL carrying that URL's first-seen size: the benchmark's origin
/// serves one version of each document, so the live proxy and the
/// simulator beside it must be shown the same thing.
pub fn paper_mix_trace(seed: u64, scale: f64) -> Trace {
    let mut trace = generate(&profiles::u().scaled(scale.clamp(0.002, 1.0)), seed);
    let mut first = vec![0u64; trace.interner.url_count()];
    for r in &mut trace.requests {
        let size = &mut first[r.url.0 as usize];
        if *size == 0 {
            *size = r.size;
        }
        r.size = *size;
    }
    trace
}

/// Per-document tables indexed by `UrlId`.
pub struct Docs {
    pub urls: Vec<String>,
    pub sizes: Vec<u64>,
    /// The request as it goes on the wire, built once.
    pub wire: Vec<Vec<u8>>,
}

impl Docs {
    pub fn of(trace: &Trace) -> Docs {
        let n = trace.interner.url_count();
        let mut sizes = vec![0u64; n];
        for r in &trace.requests {
            sizes[r.url.0 as usize] = r.size;
        }
        let urls: Vec<String> = (0..n as u32)
            .map(|id| {
                trace
                    .interner
                    .url_text(webcache_trace::UrlId(id))
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let wire = urls.iter().map(|u| wire_request(u)).collect();
        Docs { urls, sizes, wire }
    }

    /// An origin document store holding every document of the trace.
    pub fn origin_store(&self) -> Arc<DocStore> {
        let store = Arc::new(DocStore::new());
        for (url, &size) in self.urls.iter().zip(&self.sizes) {
            if size > 0 {
                store.put_synthetic(url, size, 1);
            }
        }
        store
    }
}

pub fn wire_request(url: &str) -> Vec<u8> {
    format!("GET {url} HTTP/1.0\r\n\r\n").into_bytes()
}

/// A generated trace after a round trip through the packed `.wct`
/// format, with what each step cost.
pub struct Packed {
    pub trace: Trace,
    pub generate_ms: f64,
    pub load_ms: f64,
}

/// Generate with `make`, save to `path`, and hand back the reloaded
/// trace: what runs is what a `.wct` file on disk holds.
pub fn pack(path: &Path, make: impl FnOnce() -> Trace) -> Result<Packed, String> {
    let t0 = Instant::now();
    let generated = make();
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    binfmt::save(&generated, path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let trace = binfmt::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_ms = t1.elapsed().as_secs_f64() * 1e3;
    if trace.requests != generated.requests {
        return Err(format!("{}: reloaded trace differs", path.display()));
    }
    Ok(Packed {
        trace,
        generate_ms,
        load_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urls(t: &Trace) -> Vec<String> {
        t.requests
            .iter()
            .map(|r| t.interner.url_text(r.url).unwrap().to_string())
            .collect()
    }

    #[test]
    fn hot_small_is_a_function_of_the_seed() {
        let a = hot_small_trace(7, 2000);
        assert_eq!(urls(&a), urls(&hot_small_trace(7, 2000)));
        let b = hot_small_trace(8, 2000);
        assert_ne!(urls(&a), urls(&b));
        assert!(
            urls(&a).iter().all(|u| !urls(&b).contains(u)),
            "two seeds must share no URL"
        );
        assert_eq!(a.len(), 2000);
        assert!(a.requests.iter().all(|r| r.size == HOT_BODY));
        // Zipf(0.9): the head is far more popular than the tail.
        let head = urls(&a)
            .iter()
            .filter(|u| u.ends_with("/d0000.html"))
            .count();
        assert!(head > 20, "rank 0 drew {head} of 2000");
    }

    #[test]
    fn paper_mix_is_seeded_and_serves_one_size_per_url() {
        let a = paper_mix_trace(3, 0.01);
        let b = paper_mix_trace(3, 0.01);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, paper_mix_trace(4, 0.01).requests);
        let docs = Docs::of(&a);
        for r in &a.requests {
            assert_eq!(r.size, docs.sizes[r.url.0 as usize]);
        }
        assert_eq!(docs.origin_store().len(), docs.urls.len());
        assert_eq!(docs.wire[0], wire_request(&docs.urls[0]));
    }

    #[test]
    fn pack_round_trips_through_a_wct_file() {
        let dir = std::env::temp_dir().join(format!("wcbench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let packed = pack(&dir.join("t.wct"), || hot_small_trace(1, 500)).unwrap();
        assert_eq!(packed.trace.requests, hot_small_trace(1, 500).requests);
        assert!(packed.generate_ms > 0.0 && packed.load_ms > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
