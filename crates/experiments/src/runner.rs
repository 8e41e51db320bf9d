//! Shared orchestration: each workload's trace and infinite cache, made
//! once, and the Table 5 experiment design constants.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use webcache_core::sim::{simulate_infinite, SimResult};
use webcache_trace::{binfmt, Trace};
use webcache_workload::profiles;

/// A context construction or trace resolution error.
#[derive(Debug, Clone, PartialEq)]
pub enum CtxError {
    /// Scale factor outside `(0, 1]`.
    BadScale(f64),
    /// No workload profile with this name exists.
    UnknownWorkload(String),
}

impl std::fmt::Display for CtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtxError::BadScale(s) => {
                write!(f, "scale must be in (0, 1], got {s}")
            }
            CtxError::UnknownWorkload(n) => {
                write!(
                    f,
                    "unknown workload {n:?} (expected one of {})",
                    WORKLOADS.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for CtxError {}

/// Environment variable naming a directory of packed `.wct` traces. When
/// set, [`Ctx`] memoises generated traces to disk there and memory-maps
/// them back on later runs instead of regenerating.
pub const PACK_DIR_ENV: &str = "WEBCACHE_PACK_DIR";

/// The paper's published MaxNeeded values in bytes (section 4.1): "they
/// must have the following sizes: 221 Mbytes for workload C, 413 Mbytes
/// for G, 408 Mbytes for BL, 198 Mbytes for BR, and 1400 Mbytes for U."
pub const PAPER_MAX_NEEDED_MB: [(&str, u64); 5] = [
    ("U", 1400),
    ("G", 413),
    ("C", 221),
    ("BR", 198),
    ("BL", 408),
];

/// The workload names in the paper's order.
pub const WORKLOADS: [&str; 5] = ["U", "G", "C", "BR", "BL"];

/// Experiment context: generates each workload's trace once (optionally
/// scaled down), simulates its infinite cache once, and shares both
/// across experiments.
pub struct Ctx {
    scale: f64,
    seed: u64,
    pack_dir: Option<PathBuf>,
    traces: Mutex<HashMap<String, Arc<Trace>>>,
    infinite: Mutex<HashMap<String, Arc<SimResult>>>,
}

impl Ctx {
    /// Full-scale context with the default seed.
    pub fn new() -> Ctx {
        Ctx::with_scale(1.0, 1)
    }

    /// Context generating traces at `scale` (0 < scale ≤ 1) of the
    /// published volumes, seeded deterministically. Honours
    /// [`PACK_DIR_ENV`] for disk-level trace caching.
    ///
    /// Panics on a bad scale; [`Ctx::try_with_scale`] reports it instead.
    pub fn with_scale(scale: f64, seed: u64) -> Ctx {
        Ctx::try_with_scale(scale, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Ctx::with_scale`], but a bad scale is a [`CtxError`], not a
    /// panic — the CLI layer turns it into a usage message.
    pub fn try_with_scale(scale: f64, seed: u64) -> Result<Ctx, CtxError> {
        let pack_dir = std::env::var_os(PACK_DIR_ENV).map(PathBuf::from);
        Ctx::try_with_pack_dir(scale, seed, pack_dir)
    }

    /// Context with an explicit packed-trace cache directory (or none).
    pub fn with_pack_dir(scale: f64, seed: u64, pack_dir: Option<PathBuf>) -> Ctx {
        Ctx::try_with_pack_dir(scale, seed, pack_dir).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Ctx::with_pack_dir`].
    pub fn try_with_pack_dir(
        scale: f64,
        seed: u64,
        pack_dir: Option<PathBuf>,
    ) -> Result<Ctx, CtxError> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(CtxError::BadScale(scale));
        }
        Ok(Ctx {
            scale,
            seed,
            pack_dir,
            traces: Mutex::new(HashMap::new()),
            infinite: Mutex::new(HashMap::new()),
        })
    }

    /// The context's scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Path of the packed cache file for a workload under this context's
    /// `(scale, seed)`, if a pack directory is configured. Scale is keyed
    /// in parts-per-million so distinct scales never collide in one file.
    fn pack_path(&self, name: &str) -> Option<PathBuf> {
        let dir = self.pack_dir.as_ref()?;
        let ppm = (self.scale * 1e6).round() as u64;
        Some(dir.join(format!("{name}-s{ppm}-r{}.wct", self.seed)))
    }

    /// The (possibly scaled) trace for a workload, generated on first use.
    ///
    /// Panics on an unknown workload name; [`Ctx::try_trace`] reports it
    /// instead.
    pub fn trace(&self, name: &str) -> Arc<Trace> {
        self.try_trace(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The (possibly scaled) trace for a workload, generated on first use.
    ///
    /// Resolution order: in-memory cache, then the packed `.wct` file in
    /// the pack directory (memory-mapped, ~an order of magnitude faster
    /// than regeneration), then the generator — whose output is packed to
    /// disk for the next run. A corrupt, truncated, or mismatched pack
    /// file is detected (the v2 format checksums every section), logged,
    /// deleted, and regenerated — never trusted.
    pub fn try_trace(&self, name: &str) -> Result<Arc<Trace>, CtxError> {
        if let Some(t) = self.traces.lock().get(name) {
            return Ok(Arc::clone(t));
        }
        let profile =
            profiles::by_name(name).ok_or_else(|| CtxError::UnknownWorkload(name.to_string()))?;
        let pack_path = self.pack_path(name);
        let trace = pack_path
            .as_deref()
            .filter(|p| p.exists())
            .and_then(|p| match binfmt::load(p) {
                Ok(t) if t.name == name => Some(t),
                Ok(t) => {
                    eprintln!(
                        "warning: pack file {} holds trace {:?}, expected {name:?}; regenerating",
                        p.display(),
                        t.name
                    );
                    let _ = std::fs::remove_file(p);
                    None
                }
                Err(e) => {
                    eprintln!(
                        "warning: pack file {} is corrupt ({e}); deleting and regenerating",
                        p.display()
                    );
                    let _ = std::fs::remove_file(p);
                    None
                }
            })
            .map(Arc::new)
            .unwrap_or_else(|| {
                let profile = if self.scale < 1.0 {
                    profile.scaled(self.scale)
                } else {
                    profile
                };
                let t = webcache_workload::generate(&profile, self.seed);
                if let Some(p) = &pack_path {
                    // Cache for the next run; failure to write (read-only
                    // dir, missing parent) only costs regeneration later.
                    // `save` writes to a sibling temp file and renames, so
                    // a crash mid-write never leaves a half pack behind.
                    let parent = p.parent().unwrap_or_else(|| std::path::Path::new("."));
                    let _ = std::fs::create_dir_all(parent).and_then(|()| binfmt::save(&t, p));
                }
                Arc::new(t)
            });
        self.traces
            .lock()
            .insert(name.to_string(), Arc::clone(&trace));
        Ok(trace)
    }

    /// The infinite-cache simulation of a workload (Experiment 1), run
    /// once, on first use.
    pub fn infinite(&self, name: &str) -> Arc<SimResult> {
        let mut memo = self.infinite.lock();
        let r = (memo.entry(name.to_string()))
            .or_insert_with(|| Arc::new(simulate_infinite(&self.trace(name))));
        Arc::clone(r)
    }

    /// MaxNeeded of a workload: the high-water mark of its infinite
    /// cache, in bytes.
    pub fn max_needed(&self, name: &str) -> u64 {
        self.infinite(name)
            .gauge("max_used")
            .expect("infinite cache reports max_used")
    }

    /// A cache of `fraction` of a workload's MaxNeeded, in bytes, and at
    /// least one.
    pub fn capacity(&self, name: &str, fraction: f64) -> u64 {
        ((self.max_needed(name) as f64 * fraction) as u64).max(1)
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_caches_traces() {
        let ctx = Ctx::with_scale(0.01, 7);
        let a = ctx.trace("BL");
        let b = ctx.trace("BL");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.len() > 100);
    }

    #[test]
    fn ctx_simulates_each_infinite_cache_once() {
        let ctx = Ctx::with_scale(0.01, 7);
        let a = ctx.infinite("BL");
        assert!(Arc::ptr_eq(&a, &ctx.infinite("BL")));
        let needed = webcache_core::sim::max_needed(&ctx.trace("BL"));
        assert_eq!(ctx.max_needed("BL"), needed);
        assert_eq!(ctx.capacity("BL", 0.1), (needed as f64 * 0.1) as u64);
        assert_eq!(ctx.capacity("BL", 1e-12), 1);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn ctx_rejects_unknown_workloads() {
        Ctx::with_scale(0.01, 1).trace("ZZ");
    }

    #[test]
    fn ctx_packs_traces_to_disk_and_reloads_them() {
        let dir = std::env::temp_dir().join(format!("wct_ctx_test_{}", std::process::id()));
        let ctx = Ctx::with_pack_dir(0.01, 9, Some(dir.clone()));
        let a = ctx.trace("G");
        let packed = dir.join("G-s10000-r9.wct");
        assert!(packed.exists(), "pack file not written");
        // A fresh context (cold memory cache) must load the packed file
        // and see the identical trace.
        let ctx2 = Ctx::with_pack_dir(0.01, 9, Some(dir.clone()));
        let b = ctx2.trace("G");
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.validation, b.validation);
        // A corrupt pack file is regenerated, not trusted.
        std::fs::write(&packed, b"garbage").unwrap();
        let ctx3 = Ctx::with_pack_dir(0.01, 9, Some(dir.clone()));
        let c = ctx3.trace("G");
        assert_eq!(a.requests, c.requests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_in_pack_is_detected_and_output_is_bit_identical() {
        // Acceptance: corrupt one byte deep inside a valid pack (the kind
        // of damage only the v2 checksums can see), and the context must
        // detect it, regenerate, rewrite the pack, and produce output
        // bit-identical to the clean run.
        let dir = std::env::temp_dir().join(format!("wct_flip_test_{}", std::process::id()));
        let ctx = Ctx::with_pack_dir(0.01, 4, Some(dir.clone()));
        let clean = ctx.trace("C");
        let packed = dir.join("C-s10000-r4.wct");
        let good_bytes = std::fs::read(&packed).unwrap();

        // Flip one byte in the middle of the record section.
        let mut bad = good_bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&packed, &bad).unwrap();

        let ctx2 = Ctx::with_pack_dir(0.01, 4, Some(dir.clone()));
        let regen = ctx2.trace("C");
        assert_eq!(clean.requests, regen.requests, "regeneration diverged");
        assert_eq!(clean.validation, regen.validation);
        // The pack on disk was rewritten and now loads cleanly again...
        let rewritten = std::fs::read(&packed).unwrap();
        assert_ne!(rewritten, bad, "corrupt pack left in place");
        // ...and is bit-identical to the pack of the clean run.
        assert_eq!(rewritten, good_bytes, "rewritten pack not bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_scales_are_reported_not_asserted() {
        assert!(matches!(
            Ctx::try_with_scale(0.0, 1),
            Err(CtxError::BadScale(_))
        ));
        assert!(matches!(
            Ctx::try_with_scale(1.5, 1),
            Err(CtxError::BadScale(_))
        ));
        assert!(matches!(
            Ctx::try_with_scale(f64::NAN, 1),
            Err(CtxError::BadScale(_))
        ));
        let ctx = Ctx::try_with_scale(0.01, 1).unwrap();
        assert!(matches!(
            ctx.try_trace("nope"),
            Err(CtxError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn paper_constants_cover_all_workloads() {
        for w in WORKLOADS {
            assert!(PAPER_MAX_NEEDED_MB.iter().any(|&(n, _)| n == w));
        }
    }
}
