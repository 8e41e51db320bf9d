//! Workload profiles: every calibration parameter of a synthetic trace.
//!
//! A [`WorkloadProfile`] captures all the published characteristics of one
//! of the paper's five traces (section 2, Table 4, Figs. 1-2, 13-14): the
//! collection length, request and byte volumes, file-type mix by
//! references *and* bytes, popularity skew, server structure, seasonal
//! request-rate pattern, and document-modification rates. The
//! [`crate::generator`] turns a profile into a [`webcache_trace::Trace`].

use webcache_trace::DocType;

/// Per-type parameters: one row of Table 4 plus a lognormal shape.
#[derive(Debug, Clone, Copy)]
pub struct TypeSpec {
    /// The document type.
    pub doc_type: DocType,
    /// Fraction of references of this type (Table 4 `%Refs` / 100).
    pub ref_share: f64,
    /// Fraction of bytes transferred (Table 4 `%Bytes` / 100).
    pub byte_share: f64,
    /// Lognormal sigma of this type's size distribution. Large values put
    /// the median far below the mean (the Fig. 13 shape).
    pub sigma: f64,
}

impl TypeSpec {
    /// Mean bytes per reference of this type, derived from the profile's
    /// totals: `byte_share·B / (ref_share·N)`.
    pub fn mean_size(&self, total_requests: u64, total_bytes: u64) -> f64 {
        if self.ref_share <= 0.0 {
            return 0.0;
        }
        (self.byte_share * total_bytes as f64) / (self.ref_share * total_requests as f64)
    }
}

/// End-of-semester review behaviour (workloads C and G): from `start_day`,
/// a fraction of requests re-reads the most popular documents, raising hit
/// rates — "students are reviewing material they looked at earlier in
/// preparation for the final exam".
#[derive(Debug, Clone, Copy)]
pub struct ReviewSpec {
    /// First day of review behaviour.
    pub start_day: u64,
    /// Fraction of the base universe (by popularity rank) being reviewed.
    pub top_fraction: f64,
    /// Probability a request during review goes to the review set.
    pub review_prob: f64,
}

/// A population shift introducing fresh documents (workload U's fall
/// semester: "New users and a dramatic increase in the rate of accesses
/// are the most probable causes for the decline in hit rate").
#[derive(Debug, Clone, Copy)]
pub struct FreshPhase {
    /// Day the new population arrives.
    pub start_day: u64,
    /// Target number of distinct *new* URLs the phase contributes.
    pub target_unique: u64,
    /// Probability a request after `start_day` draws from the fresh set.
    pub prob: f64,
}

/// Classroom behaviour (workload C): each class day has a small working
/// set every student requests, because "students often follow the
/// teacher's instructions in opening URLs or following links".
#[derive(Debug, Clone, Copy)]
pub struct ClassroomSpec {
    /// Distinct documents the instructor walks through per class day.
    pub working_set_size: usize,
    /// Probability a request goes to the day's working set.
    pub in_set_prob: f64,
}

/// Full specification of one synthetic workload.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Short name (`"U"`, `"G"`, `"C"`, `"BR"`, `"BL"`).
    pub name: String,
    /// Collection period in days.
    pub days: u64,
    /// Valid accesses over the whole period.
    pub total_requests: u64,
    /// Total bytes transferred over the whole period.
    pub total_bytes: u64,
    /// Target distinct URLs referenced from the base universe (drives the
    /// universe-size calibration and thus MaxNeeded).
    pub target_unique_urls: u64,
    /// Zipf exponent of URL popularity.
    pub zipf_alpha: f64,
    /// Number of servers the URL universe spreads over.
    pub servers: usize,
    /// Zipf exponent of server popularity.
    pub server_alpha: f64,
    /// Number of client hosts.
    pub clients: u32,
    /// Table 4 rows.
    pub types: Vec<TypeSpec>,
    /// Relative request volume per day (length == `days`); zero entries
    /// are idle days (workload C's non-class days).
    pub day_weights: Vec<f64>,
    /// End-of-semester review behaviour, if any.
    pub review: Option<ReviewSpec>,
    /// Fresh-population phase, if any.
    pub fresh: Option<FreshPhase>,
    /// Classroom working-set behaviour, if any.
    pub classroom: Option<ClassroomSpec>,
    /// Probability that a re-reference finds the document's size changed
    /// (the paper measures 0.5%-4.1% across traces).
    pub p_size_change: f64,
    /// Probability of a same-size modification (Last-Modified moves but
    /// length is unchanged; the paper measures 1.3% on BR/BL).
    pub p_same_size_mod: f64,
    /// Fraction of raw log entries with non-200 status (exercises the
    /// section 1.1 validation drop rule).
    pub p_error: f64,
    /// Fraction of raw entries logging size 0 for an already-seen URL
    /// (exercises the last-known-size rule).
    pub p_zero_size: f64,
    /// Concentrate all audio URLs on one server (workload BR's "popular
    /// British recording artist" site).
    pub audio_on_one_server: bool,
    /// Emit `last-modified` fields (the BR/BL tcpdump-derived logs had
    /// them; the CERN proxy logs did not).
    pub record_last_modified: bool,
}

impl WorkloadProfile {
    /// Mean bytes per request across all types.
    pub fn mean_request_size(&self) -> f64 {
        self.total_bytes as f64 / self.total_requests as f64
    }

    /// Validate internal consistency (shares ≈ 1, one row per type,
    /// weights length, …).
    pub fn validate(&self) {
        let refs: f64 = self.types.iter().map(|t| t.ref_share).sum();
        let bytes: f64 = self.types.iter().map(|t| t.byte_share).sum();
        assert!(
            (refs - 1.0).abs() < 0.01,
            "{}: ref shares sum to {refs}",
            self.name
        );
        assert!(
            (bytes - 1.0).abs() < 0.01,
            "{}: byte shares sum to {bytes}",
            self.name
        );
        for (i, t) in self.types.iter().enumerate() {
            assert!(
                self.types[..i].iter().all(|u| u.doc_type != t.doc_type),
                "{}: {} has two type rows",
                self.name,
                t.doc_type
            );
        }
        assert_eq!(self.day_weights.len(), self.days as usize, "{}", self.name);
        assert!(self.day_weights.iter().any(|&w| w > 0.0));
        assert!(self.target_unique_urls <= self.total_requests);
        if let Some(f) = &self.fresh {
            assert!(f.start_day < self.days);
        }
        if let Some(r) = &self.review {
            assert!(r.start_day < self.days);
        }
    }

    /// A proportionally scaled-down copy (same days, shape and mix; fewer
    /// requests/bytes/uniques). Used to keep test and example runtimes
    /// short while preserving every qualitative behaviour.
    pub fn scaled(&self, factor: f64) -> WorkloadProfile {
        assert!(factor > 0.0 && factor <= 1.0);
        let mut p = self.clone();
        p.name = format!("{}@{:.2}", self.name, factor);
        p.total_requests = ((self.total_requests as f64 * factor) as u64).max(100);
        p.total_bytes = ((self.total_bytes as f64 * factor) as u64).max(100_000);
        p.target_unique_urls =
            ((self.target_unique_urls as f64 * factor) as u64).clamp(10, p.total_requests);
        p.servers = ((self.servers as f64 * factor.sqrt()) as usize).max(3);
        p.fresh = self.fresh.map(|f| FreshPhase {
            target_unique: ((f.target_unique as f64 * factor) as u64).max(5),
            ..f
        });
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> WorkloadProfile {
        WorkloadProfile {
            name: "toy".into(),
            days: 10,
            total_requests: 1000,
            total_bytes: 10_000_000,
            target_unique_urls: 400,
            zipf_alpha: 0.8,
            servers: 5,
            server_alpha: 1.0,
            clients: 4,
            types: vec![
                TypeSpec {
                    doc_type: DocType::Text,
                    ref_share: 0.5,
                    byte_share: 0.3,
                    sigma: 1.0,
                },
                TypeSpec {
                    doc_type: DocType::Graphics,
                    ref_share: 0.5,
                    byte_share: 0.7,
                    sigma: 1.0,
                },
            ],
            day_weights: vec![1.0; 10],
            review: None,
            fresh: None,
            classroom: None,
            p_size_change: 0.01,
            p_same_size_mod: 0.0,
            p_error: 0.0,
            p_zero_size: 0.0,
            audio_on_one_server: false,
            record_last_modified: false,
        }
    }

    #[test]
    fn mean_sizes_derive_from_table4_quotients() {
        let p = toy();
        // Text: 0.3·10MB / (0.5·1000) = 6000 bytes per reference.
        let text = &p.types[0];
        assert!((text.mean_size(p.total_requests, p.total_bytes) - 6000.0).abs() < 1e-9);
        // Graphics: 0.7·10MB / (0.5·1000) = 14000.
        let g = &p.types[1];
        assert!((g.mean_size(p.total_requests, p.total_bytes) - 14_000.0).abs() < 1e-9);
        // Weighted by ref share, type means reproduce the overall mean.
        let overall: f64 = p
            .types
            .iter()
            .map(|t| t.ref_share * t.mean_size(p.total_requests, p.total_bytes))
            .sum();
        assert!((overall - p.mean_request_size()).abs() < 1e-6);
        // A zero-ref-share type contributes no mean.
        let dead = TypeSpec {
            doc_type: DocType::Video,
            ref_share: 0.0,
            byte_share: 0.0,
            sigma: 1.0,
        };
        assert_eq!(dead.mean_size(1000, 1_000_000), 0.0);
    }

    #[test]
    fn validate_accepts_consistent_profiles() {
        toy().validate();
    }

    #[test]
    #[should_panic(expected = "ref shares")]
    fn validate_rejects_bad_shares() {
        let mut p = toy();
        p.types[0].ref_share = 0.9;
        p.validate();
    }

    #[test]
    fn scaling_preserves_shape() {
        let p = toy().scaled(0.1);
        assert_eq!(p.days, 10);
        assert_eq!(p.total_requests, 100);
        assert_eq!(p.target_unique_urls, 40);
        assert!(
            (p.mean_request_size() - toy().mean_request_size()).abs() / toy().mean_request_size()
                < 0.01
        );
        p.validate();
    }
}
