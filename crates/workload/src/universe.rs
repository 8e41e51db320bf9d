//! The URL universe: every document a synthetic workload can reference,
//! with its server, type, and base size fixed at build time.
//!
//! Type assignment is *stratified across popularity ranks* so that the
//! request-weighted type mix tracks Table 4's `%Refs` column closely: a
//! greedy quota walk assigns each rank the type with the largest deficit.
//! Without stratification, a popular head URL landing on a rare type (BR's
//! audio is 2.6% of references) would swing the realised mix wildly.

use crate::dist::{SizeDist, ZipfSampler, ZipfWeights};
use crate::profile::{TypeSpec, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt::Write as _;
use webcache_trace::DocType;

/// Ranks per independent build stream. Fixed (never derived from thread
/// count) so the universe is bit-identical however many threads build it.
const BUILD_CHUNK: usize = 8192;

/// Mix `(seed, first_rank)` into a per-chunk stream seed (the shared
/// SplitMix64 finaliser in `webcache_core::util`; distinct constants
/// from the generator's per-day streams, bit-identical to the original
/// inline copy).
fn chunk_stream_seed(seed: u64, first_rank: usize) -> u64 {
    webcache_core::util::stream_seed(
        seed,
        first_rank as u64,
        0x1656_67B1_9E37_79F9,
        0x94D0_49BB_1331_11EB,
    )
}

/// One document in the universe.
///
/// The URL *text* is not stored: a fresh-phase universe can hold an order
/// of magnitude more documents than the trace has requests (workload U's
/// fall population), so eager URL strings dominated generation's fixed
/// cost. [`Universe::url_of`] materialises the text on demand — the
/// generator does so once per document actually requested, at interning.
#[derive(Debug, Clone, Copy)]
pub struct UrlSpec {
    /// Index of the server hosting the document.
    pub server: usize,
    /// Media type.
    pub doc_type: DocType,
    /// Size in bytes at trace start.
    pub base_size: u64,
}

/// The complete document population for one workload.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Base-phase documents, most popular first.
    pub urls: Vec<UrlSpec>,
    /// Number of base documents (`urls[..base_count]`); the rest belong to
    /// the fresh phase (workload U's fall population).
    pub base_count: usize,
    /// Lower-cased workload domain label used in every URL/host name.
    pub domain: String,
}

fn extension(t: DocType) -> &'static str {
    match t {
        DocType::Graphics => "gif",
        DocType::Text => "html",
        DocType::Audio => "au",
        DocType::Video => "mpg",
        DocType::Cgi => "cgi",
        DocType::Unknown => "ps",
    }
}

/// Assign types to `n` popularity ranks by largest-deficit quotas; each
/// rank gets the index of its type in `types`.
fn stratified_types(types: &[TypeSpec], n: usize) -> Vec<u8> {
    let mut counts = vec![0f64; types.len()];
    let mut out = Vec::with_capacity(n);
    for rank in 0..n {
        let mut best = 0;
        let mut best_deficit = f64::MIN;
        for (i, t) in types.iter().enumerate() {
            let deficit = t.ref_share * (rank + 1) as f64 - counts[i];
            if deficit > best_deficit {
                best_deficit = deficit;
                best = i;
            }
        }
        counts[best] += 1.0;
        out.push(best as u8);
    }
    out
}

impl Universe {
    /// Build the universe for a profile: `base` base documents plus
    /// `fresh` fresh-phase documents, with sizes calibrated so that the
    /// *popularity-weighted* request bytes per type hit the Table 4
    /// byte shares (`base_draws`/`fresh_draws` are the expected request
    /// counts against each phase). The popularity weights are read from
    /// `weights`, the table for `profile.zipf_alpha` the calibration
    /// searches filled.
    ///
    /// Without the popularity weighting, a single hot head URL drawing a
    /// heavy-tailed size would swing a workload's realised byte mix by
    /// tens of percentage points (Zipf head × lognormal tail = enormous
    /// variance); the per-type rescaling pins the mix while preserving
    /// each distribution's shape.
    pub(crate) fn build_calibrated(
        profile: &WorkloadProfile,
        weights: &mut ZipfWeights,
        base: usize,
        fresh: usize,
        base_draws: u64,
        fresh_draws: u64,
        seed: u64,
    ) -> Universe {
        assert_eq!(
            weights.alpha().to_bits(),
            profile.zipf_alpha.to_bits(),
            "weights for another exponent"
        );
        weights.ensure(base.max(fresh));
        let mut u = Universe::build(profile, base, fresh, seed);
        let total_draws = (base_draws + fresh_draws).max(1);
        for (offset, count, draws) in [(0usize, base, base_draws), (base, fresh, fresh_draws)] {
            if count == 0 || draws == 0 {
                continue;
            }
            // Zipf request weight of rank i within the phase.
            let (raw, h) = (weights.weights(count), weights.total(count));
            let weight = |i: usize| raw[i] / h * draws as f64;
            let phase = &mut u.urls[offset..offset + count];
            // One walk sums every type's popularity-weighted bytes; each
            // type's sum adds its own ranks' terms in rank order.
            let mut realized = [0.0f64; DocType::ALL.len()];
            for (i, s) in phase.iter().enumerate() {
                realized[s.doc_type as usize] += weight(i) * s.base_size as f64;
            }
            let mut factors = [None; DocType::ALL.len()];
            for t in profile.types.iter().filter(|t| t.ref_share > 0.0) {
                let realized = realized[t.doc_type as usize];
                if realized > 0.0 {
                    let target = t.byte_share
                        * profile.total_bytes as f64
                        * (draws as f64 / total_draws as f64);
                    factors[t.doc_type as usize] = Some(target / realized);
                }
            }
            for s in phase {
                if let Some(factor) = factors[s.doc_type as usize] {
                    s.base_size = ((s.base_size as f64 * factor) as u64).max(32);
                }
            }
        }
        u
    }

    /// Build the universe for a profile: `base` base documents plus
    /// `fresh` fresh-phase documents.
    ///
    /// Ranks are drawn in fixed-size chunks, each from an independent RNG
    /// stream seeded by `(seed, first_rank)`, and the chunks are mapped
    /// across rayon threads: the output is bit-identical on any thread
    /// count because chunk boundaries depend only on [`BUILD_CHUNK`], never
    /// on scheduling. (A fresh-phase universe can be an order of magnitude
    /// larger than the request count — workload U's fall population — so
    /// the build dominates generation's fixed cost.)
    pub fn build(profile: &WorkloadProfile, base: usize, fresh: usize, seed: u64) -> Universe {
        let server_sampler = ZipfSampler::new(profile.servers, profile.server_alpha);
        let usable: Vec<TypeSpec> = profile
            .types
            .iter()
            .filter(|t| t.ref_share > 0.0)
            .copied()
            .collect();
        // Each usable type with its size distribution, looked up by the
        // index the stratification assigns.
        let kinds: Vec<(DocType, SizeDist)> = usable
            .iter()
            .map(|t| {
                let mean = t
                    .mean_size(profile.total_requests, profile.total_bytes)
                    .max(64.0);
                (t.doc_type, SizeDist::with_mean(mean, t.sigma))
            })
            .collect();
        let domain = profile.name.to_ascii_lowercase().replace('@', "-");

        // Every slot is overwritten below; chunks write in place.
        let placeholder = UrlSpec {
            server: 0,
            doc_type: DocType::Unknown,
            base_size: 0,
        };
        let mut urls = vec![placeholder; base + fresh];
        let (base_urls, fresh_urls) = urls.split_at_mut(base);
        // Base and fresh ranks get independent stratifications so both
        // phases carry the Table 4 mix.
        for (offset, phase) in [(0usize, base_urls), (base, fresh_urls)] {
            let types = stratified_types(&usable, phase.len());
            phase
                .par_chunks_mut(BUILD_CHUNK)
                .enumerate()
                .for_each(|(c, chunk)| {
                    let start = c * BUILD_CHUNK;
                    let mut rng = StdRng::seed_from_u64(chunk_stream_seed(seed, offset + start));
                    for (spec, &kind) in chunk.iter_mut().zip(&types[start..]) {
                        let (doc_type, dist) = kinds[usize::from(kind)];
                        let server = if profile.audio_on_one_server && doc_type == DocType::Audio {
                            0
                        } else {
                            server_sampler.sample(&mut rng)
                        };
                        let base_size = dist.sample(&mut rng);
                        *spec = UrlSpec {
                            server,
                            doc_type,
                            base_size,
                        };
                    }
                });
        }
        Universe {
            urls,
            base_count: base,
            domain,
        }
    }

    /// Full URL text of the document at `rank` (classifies back to its
    /// `doc_type` via the extension).
    pub fn url_of(&self, rank: usize) -> String {
        let mut url = String::new();
        self.write_url(rank, &mut url);
        url
    }

    /// [`Universe::url_of`] into `out`, replacing what it held.
    pub(crate) fn write_url(&self, rank: usize, out: &mut String) {
        let s = &self.urls[rank];
        out.clear();
        let _ = write!(
            out,
            "http://server{}.{}.edu/doc{rank}.{}",
            s.server,
            self.domain,
            extension(s.doc_type)
        );
    }

    /// Host name of the server serving the document at `rank`.
    pub fn host_of(&self, rank: usize) -> String {
        let mut host = String::new();
        self.write_host(rank, &mut host);
        host
    }

    /// [`Universe::host_of`] into `out`, replacing what it held.
    pub(crate) fn write_host(&self, rank: usize, out: &mut String) {
        out.clear();
        let _ = write!(out, "server{}.{}.edu", self.urls[rank].server, self.domain);
    }

    /// Total documents (base + fresh).
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    /// Draw the random part of a document modification: a lognormal size
    /// perturbation factor. Split from [`Universe::apply_modification`] so
    /// the generator's parallel phase can pre-draw all randomness per day
    /// and the serial merge can apply it statelessly.
    pub fn modification_factor<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let d = rand_distr::LogNormal::new(0.0, 0.25).expect("valid");
        rand::distributions::Distribution::sample(&d, rng)
    }

    /// Apply a pre-drawn modification factor: the new size is a
    /// perturbation of the document's *base* size, at least 1 byte and
    /// different from the current size. Perturbing the base rather than
    /// the current size keeps repeated modifications mean-stable —
    /// compounding multiplies into a geometric random walk that inflates
    /// hot documents by orders of magnitude over a long trace.
    pub fn apply_modification(base: u64, current: u64, factor: f64) -> u64 {
        let new = ((base as f64 * factor) as u64).max(1);
        if new == current {
            new + 1
        } else {
            new
        }
    }

    /// Draw a new size for a modified document (factor draw + application
    /// in one step).
    pub fn modified_size<R: Rng + ?Sized>(base: u64, current: u64, rng: &mut R) -> u64 {
        Self::apply_modification(base, current, Self::modification_factor(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn stratified_assignment_tracks_shares_at_every_prefix() {
        let types = vec![
            TypeSpec {
                doc_type: DocType::Graphics,
                ref_share: 0.6,
                byte_share: 0.5,
                sigma: 1.0,
            },
            TypeSpec {
                doc_type: DocType::Text,
                ref_share: 0.37,
                byte_share: 0.3,
                sigma: 1.0,
            },
            TypeSpec {
                doc_type: DocType::Audio,
                ref_share: 0.03,
                byte_share: 0.2,
                sigma: 0.6,
            },
        ];
        let assigned: Vec<DocType> = stratified_types(&types, 1000)
            .into_iter()
            .map(|i| types[usize::from(i)].doc_type)
            .collect();
        for prefix in [10, 100, 1000] {
            let g = assigned[..prefix]
                .iter()
                .filter(|&&t| t == DocType::Graphics)
                .count() as f64
                / prefix as f64;
            assert!((g - 0.6).abs() < 0.11, "prefix {prefix}: graphics {g}");
        }
        let audio = assigned.iter().filter(|&&t| t == DocType::Audio).count();
        assert!((25..=35).contains(&audio), "audio count {audio}");
    }

    #[test]
    fn build_produces_classifiable_urls() {
        let p = profiles::bl().scaled(0.01);
        let u = Universe::build(&p, 500, 0, 42);
        assert_eq!(u.len(), 500);
        for (rank, spec) in u.urls.iter().enumerate() {
            let url = u.url_of(rank);
            assert_eq!(
                DocType::classify(&url),
                spec.doc_type,
                "URL {url} does not classify back to {:?}",
                spec.doc_type
            );
            assert!(url.contains(&u.host_of(rank)));
            assert!(spec.base_size >= 32);
            assert!(spec.server < p.servers);
        }
    }

    #[test]
    fn audio_concentrates_on_server_zero_when_flagged() {
        let p = profiles::br().scaled(0.01);
        assert!(p.audio_on_one_server);
        let u = Universe::build(&p, 1000, 0, 7);
        for spec in &u.urls {
            if spec.doc_type == DocType::Audio {
                assert_eq!(spec.server, 0);
            }
        }
        // And there *are* audio documents despite the 2.6% ref share.
        assert!(u.urls.iter().any(|s| s.doc_type == DocType::Audio));
    }

    #[test]
    fn fresh_documents_extend_the_universe() {
        let p = profiles::u().scaled(0.005);
        let uni = Universe::build(&p, 300, 100, 1);
        assert_eq!(uni.base_count, 300);
        assert_eq!(uni.len(), 400);
    }

    #[test]
    fn modified_size_changes_and_stays_positive() {
        let mut rng = StdRng::seed_from_u64(9);
        for base in [1u64, 50, 10_000, 1_000_000] {
            let new = Universe::modified_size(base, base, &mut rng);
            assert_ne!(new, base);
            assert!(new >= 1);
        }
    }

    #[test]
    fn repeated_modifications_do_not_drift() {
        // A hot document modified hundreds of times must stay near its
        // base size (no compounding random walk).
        let mut rng = StdRng::seed_from_u64(10);
        let base = 100_000u64;
        let mut size = base;
        for _ in 0..500 {
            size = Universe::modified_size(base, size, &mut rng);
            assert!(
                size > base / 4 && size < base * 4,
                "size drifted to {size} from base {base}"
            );
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = profiles::g().scaled(0.01);
        let a = Universe::build(&p, 200, 0, 5);
        let b = Universe::build(&p, 200, 0, 5);
        assert_eq!(a.urls.len(), b.urls.len());
        for (i, (x, y)) in a.urls.iter().zip(&b.urls).enumerate() {
            assert_eq!(a.url_of(i), b.url_of(i));
            assert_eq!(x.base_size, y.base_size);
        }
    }
}
