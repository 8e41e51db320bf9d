//! Caches partitioned by media type (Experiment 4, section 4.7).
//!
//! The paper asks: "Should a cache be partitioned by media type?" and
//! answers it for workload BR by splitting a cache into an audio partition
//! and a non-audio partition, varying the audio share among ¼, ½ and ¾ of
//! the total size. This module generalises to any number of partitions,
//! each defined by a set of [`DocType`]s, with one catch-all partition.
//!
//! Note the paper's metric convention, kept here: "the WHRs reported are
//! over all requests (i.e., audio HR is the number of audio hits for all
//! references)" — each partition's counters are divided by *total* traffic,
//! not by its own class's traffic. Per-class rates are also available.

use crate::cache::{Cache, Counts};
use crate::policy::RemovalPolicy;
use webcache_trace::{DocType, Request};

/// One partition: the document types it owns and its cache.
#[derive(Debug)]
pub struct Partition {
    /// Label for reports (e.g. `"audio"`).
    pub name: String,
    /// Types stored in this partition; empty = catch-all.
    pub types: Vec<DocType>,
    /// The partition's cache.
    pub cache: Cache,
    /// Counters over this partition's own class of requests.
    pub class_counts: Counts,
}

/// A cache split into type-dedicated partitions.
#[derive(Debug)]
pub struct PartitionedCache {
    partitions: Vec<Partition>,
    total: Counts,
}

/// One partition specification: `(name, claimed types, capacity, policy)`.
pub type PartitionSpec = (String, Vec<DocType>, u64, Box<dyn RemovalPolicy>);

impl PartitionedCache {
    /// Build from `(name, types, capacity, policy)` tuples. Exactly one
    /// partition should have an empty type list: it is the catch-all that
    /// receives every type not claimed elsewhere.
    pub fn new(parts: Vec<PartitionSpec>) -> PartitionedCache {
        assert!(!parts.is_empty(), "need at least one partition");
        let catch_alls = parts.iter().filter(|(_, t, _, _)| t.is_empty()).count();
        assert_eq!(catch_alls, 1, "exactly one catch-all partition required");
        PartitionedCache {
            partitions: parts
                .into_iter()
                .map(|(name, types, cap, policy)| Partition {
                    name,
                    types,
                    cache: Cache::new(cap, policy),
                    class_counts: Counts::default(),
                })
                .collect(),
            total: Counts::default(),
        }
    }

    /// The paper's Experiment 4 configuration: an audio partition of
    /// `audio_fraction * total_capacity` bytes and a non-audio partition
    /// with the remainder, both using the given policy constructor.
    pub fn audio_split(
        total_capacity: u64,
        audio_fraction: f64,
        mut policy: impl FnMut() -> Box<dyn RemovalPolicy>,
    ) -> PartitionedCache {
        assert!((0.0..1.0).contains(&audio_fraction) && audio_fraction > 0.0);
        let audio_cap = (total_capacity as f64 * audio_fraction) as u64;
        PartitionedCache::new(vec![
            (
                "audio".to_string(),
                vec![DocType::Audio],
                audio_cap,
                policy(),
            ),
            (
                "non-audio".to_string(),
                Vec::new(),
                total_capacity - audio_cap,
                policy(),
            ),
        ])
    }

    fn route(&mut self, t: DocType) -> &mut Partition {
        let idx = self
            .partitions
            .iter()
            .position(|p| p.types.contains(&t))
            .unwrap_or_else(|| {
                self.partitions
                    .iter()
                    .position(|p| p.types.is_empty())
                    .expect("constructor guarantees a catch-all")
            });
        &mut self.partitions[idx]
    }

    /// Handle one request, routing it to the partition owning its type,
    /// and say whether it hit. What is evicted is dropped as it goes
    /// ([`Cache::request_hit`]): no eviction list is built per miss.
    pub fn request(&mut self, r: &Request) -> bool {
        self.total.requests += 1;
        self.total.bytes_requested += r.size;
        let part = self.route(r.doc_type);
        part.class_counts.requests += 1;
        part.class_counts.bytes_requested += r.size;
        let hit = part.cache.request_hit(r);
        if hit {
            part.class_counts.hits += 1;
            part.class_counts.bytes_hit += r.size;
            self.total.hits += 1;
            self.total.bytes_hit += r.size;
        }
        hit
    }

    /// Size every partition for URL ids below `urls`
    /// ([`Cache::reserve_urls`]).
    pub fn reserve_urls(&mut self, urls: usize) {
        for p in &mut self.partitions {
            p.cache.reserve_urls(urls);
        }
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// A partition by name.
    pub fn partition(&self, name: &str) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.name == name)
    }

    /// Counters over all requests regardless of partition.
    pub fn total_counts(&self) -> Counts {
        self.total
    }

    /// The paper's Figs 19-20 metric: a partition's hit counters divided by
    /// **all** traffic ("audio HR is the number of audio hits for all
    /// references").
    pub fn counts_over_all_requests(&self, name: &str) -> Option<Counts> {
        let p = self.partition(name)?;
        Some(Counts {
            requests: self.total.requests,
            hits: p.class_counts.hits,
            bytes_requested: self.total.bytes_requested,
            bytes_hit: p.class_counts.bytes_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::named;
    use webcache_trace::{ClientId, ServerId, UrlId};

    fn req(time: u64, url: u32, size: u64, t: DocType) -> Request {
        Request {
            time,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(url),
            size,
            doc_type: t,
            last_modified: None,
        }
    }

    fn split(frac: f64) -> PartitionedCache {
        PartitionedCache::audio_split(1000, frac, || Box::new(named::size()))
    }

    #[test]
    fn requests_route_by_type() {
        let mut p = split(0.5);
        p.request(&req(0, 1, 100, DocType::Audio));
        p.request(&req(1, 2, 100, DocType::Text));
        p.request(&req(2, 3, 100, DocType::Graphics));
        assert_eq!(p.partition("audio").unwrap().cache.len(), 1);
        assert_eq!(p.partition("non-audio").unwrap().cache.len(), 2);
    }

    #[test]
    fn audio_cannot_displace_non_audio() {
        let mut p = split(0.25); // 250B audio, 750B non-audio
        p.request(&req(0, 1, 500, DocType::Text));
        // Audio traffic larger than its partition never evicts the text doc.
        for i in 0..10 {
            p.request(&req(1 + i, 100 + i as u32, 240, DocType::Audio));
        }
        assert!(p.partition("non-audio").unwrap().cache.contains(UrlId(1)));
        assert!(p.partition("audio").unwrap().cache.used() <= 250);
    }

    #[test]
    fn over_all_requests_metric_uses_total_denominator() {
        let mut p = split(0.5);
        p.request(&req(0, 1, 100, DocType::Audio));
        p.request(&req(1, 1, 100, DocType::Audio)); // audio hit
        p.request(&req(2, 2, 100, DocType::Text));
        p.request(&req(3, 2, 100, DocType::Text)); // text hit
        let audio = p.counts_over_all_requests("audio").unwrap();
        // 1 audio hit over 4 total requests.
        assert!((audio.hit_rate() - 0.25).abs() < 1e-12);
        assert!((audio.weighted_hit_rate() - 0.25).abs() < 1e-12);
        // Per-class rate is 1 hit over 2 audio requests.
        let class = p.partition("audio").unwrap().class_counts;
        assert!((class.hit_rate() - 0.5).abs() < 1e-12);
        assert!(p.counts_over_all_requests("nope").is_none());
    }

    #[test]
    fn total_counts_aggregate_partitions() {
        let mut p = split(0.5);
        p.request(&req(0, 1, 100, DocType::Audio));
        p.request(&req(1, 1, 100, DocType::Audio));
        p.request(&req(2, 2, 50, DocType::Text));
        let t = p.total_counts();
        assert_eq!(t.requests, 3);
        assert_eq!(t.hits, 1);
        assert_eq!(t.bytes_requested, 250);
        assert_eq!(t.bytes_hit, 100);
    }

    #[test]
    #[should_panic(expected = "catch-all")]
    fn requires_exactly_one_catch_all() {
        let _ = PartitionedCache::new(vec![(
            "audio".to_string(),
            vec![DocType::Audio],
            100,
            Box::new(named::lru()) as Box<dyn RemovalPolicy>,
        )]);
    }
}
