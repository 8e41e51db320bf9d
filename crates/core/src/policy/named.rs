//! Literature policies expressed as sorting procedures — Table 3 of the
//! paper.
//!
//! | Policy   | Key 1 (removal order)         | Key 2  | Key 3 |
//! |----------|-------------------------------|--------|-------|
//! | FIFO     | ETIME (smallest)              | —      | —     |
//! | LRU      | ATIME (smallest)              | —      | —     |
//! | LFU      | NREF (smallest)               | —      | —     |
//! | Hyper-G  | NREF (smallest)               | ATIME  | SIZE  |
//!
//! LRU-MIN and Pitkow/Recker cannot be expressed exactly as a fixed key
//! triple; see [`crate::policy::lru_min`] and
//! [`crate::policy::pitkow_recker`] for the exact algorithms.

use crate::policy::key::{Key, KeySpec};
use crate::policy::sorted::SortedPolicy;
use crate::policy::{GreedyDualSize, LruMin, PitkowRecker, RemovalPolicy};

/// FIFO: remove the document that entered the cache first.
pub fn fifo() -> SortedPolicy {
    SortedPolicy::named(KeySpec::primary(Key::EntryTime), "FIFO")
}

/// LRU: remove the least recently used document.
pub fn lru() -> SortedPolicy {
    SortedPolicy::named(KeySpec::primary(Key::AccessTime), "LRU")
}

/// LFU: remove the least frequently referenced document.
pub fn lfu() -> SortedPolicy {
    SortedPolicy::named(KeySpec::primary(Key::NRef), "LFU")
}

/// The Hyper-G server's policy: LFU, ties broken by LRU, then by size
/// (largest removed first). (Hyper-G's real first key — "is this a Hyper-G
/// document" — is omitted exactly as in the paper, whose traces contain no
/// Hyper-G documents.)
pub fn hyper_g() -> SortedPolicy {
    SortedPolicy::named(
        KeySpec {
            primary: Key::NRef,
            secondary: Key::AccessTime,
            tertiary: Key::Size,
            salt: 0,
        },
        "HYPER-G",
    )
}

/// SIZE: remove the largest document first — the winning primary key of the
/// paper's Experiment 2.
pub fn size() -> SortedPolicy {
    SortedPolicy::named(KeySpec::primary(Key::Size), "SIZE")
}

/// ⌊log₂(SIZE)⌋ with LRU tie-break: the paper's approximation of the value
/// of combining size and recency (its stand-in for LRU-MIN's spirit).
pub fn log2size_lru() -> SortedPolicy {
    SortedPolicy::named(
        KeySpec::pair(Key::Log2Size, Key::AccessTime),
        "LOG2SIZE-LRU",
    )
}

/// Every named policy this crate implements, constructed fresh. Useful for
/// sweeps and for the `experiments` CLI.
pub fn all_named() -> Vec<Box<dyn RemovalPolicy>> {
    vec![
        Box::new(fifo()),
        Box::new(lru()),
        Box::new(lfu()),
        Box::new(hyper_g()),
        Box::new(size()),
        Box::new(log2size_lru()),
        Box::new(LruMin::new()),
        Box::new(PitkowRecker::default()),
        Box::new(GreedyDualSize::new()),
    ]
}

/// Construct a named policy by its display name, or a `KeySpec` policy from
/// `"PRIMARY/SECONDARY"` notation. Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn RemovalPolicy>> {
    let canon = name.to_ascii_uppercase();
    Some(match canon.as_str() {
        "FIFO" => Box::new(fifo()),
        "LRU" => Box::new(lru()),
        "LFU" => Box::new(lfu()),
        "HYPER-G" | "HYPERG" => Box::new(hyper_g()),
        "SIZE" => Box::new(size()),
        "LOG2SIZE-LRU" => Box::new(log2size_lru()),
        "LRU-MIN" | "LRUMIN" => Box::new(LruMin::new()),
        "PITKOW-RECKER" | "PITKOW/RECKER" => Box::new(PitkowRecker::default()),
        "GD-SIZE" | "GREEDYDUAL-SIZE" => Box::new(GreedyDualSize::new()),
        _ => {
            let (p, s) = canon.split_once('/')?;
            let parse = |k: &str| -> Option<Key> {
                Some(match k {
                    "SIZE" => Key::Size,
                    "LOG2SIZE" | "LOG2(SIZE)" => Key::Log2Size,
                    "ETIME" => Key::EntryTime,
                    "ATIME" => Key::AccessTime,
                    "DAY" | "DAY(ATIME)" => Key::DayOfAccess,
                    "NREF" | "NREFS" => Key::NRef,
                    "RANDOM" => Key::Random,
                    "DOCTYPE" => Key::DocTypePriority,
                    "LATENCY" => Key::Latency,
                    "EXPIRY" => Key::Expiry,
                    _ => return None,
                })
            };
            Box::new(SortedPolicy::new(KeySpec::pair(parse(p)?, parse(s)?)))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DocMeta;
    use crate::policy::testing::WithDocs;
    use webcache_trace::{DocType, UrlId};

    fn meta(url: u32, size: u64, etime: u64, atime: u64, nrefs: u64) -> DocMeta {
        DocMeta {
            url: UrlId(url),
            size,
            doc_type: DocType::Text,
            entry_time: etime,
            last_access: atime,
            nrefs,
            expires: None,
            refetch_latency_ms: 0,
            type_priority: 0,
            last_modified: None,
        }
    }

    /// Table 3 equivalence: FIFO == sort by increasing ETIME.
    #[test]
    fn fifo_equivalence() {
        let mut p = WithDocs::new(fifo());
        p.on_insert(&meta(1, 10, 3, 9, 5));
        p.on_insert(&meta(2, 99, 1, 99, 1));
        assert_eq!(p.victim(100, 0), Some(UrlId(2)));
        assert_eq!(p.name(), "FIFO");
    }

    /// Table 3 equivalence: LFU == sort by increasing NREF.
    #[test]
    fn lfu_equivalence() {
        let mut p = WithDocs::new(lfu());
        p.on_insert(&meta(1, 10, 0, 0, 1));
        p.on_insert(&meta(2, 10, 1, 1, 1));
        p.on_access(&meta(1, 10, 0, 2, 2));
        assert_eq!(p.victim(3, 0), Some(UrlId(2)));
    }

    /// Hyper-G: NREF primary, ATIME secondary, SIZE tertiary
    /// (largest-first on the final tie).
    #[test]
    fn hyper_g_key_cascade() {
        let mut p = WithDocs::new(hyper_g());
        // Same NREF and ATIME, different sizes: larger goes first.
        p.on_insert(&meta(1, 10, 0, 5, 1));
        p.on_insert(&meta(2, 99, 0, 5, 1));
        assert_eq!(p.victim(6, 0), Some(UrlId(2)));
        // Different ATIME dominates size.
        p.on_insert(&meta(3, 1, 0, 2, 1));
        assert_eq!(p.victim(6, 0), Some(UrlId(3)));
        // Different NREF dominates everything.
        p.on_access(&meta(3, 1, 0, 6, 2));
        p.on_access(&meta(2, 99, 0, 7, 2));
        assert_eq!(p.victim(8, 0), Some(UrlId(1)));
    }

    #[test]
    fn by_name_resolves_named_and_keyspec_policies() {
        for n in [
            "FIFO",
            "LRU",
            "LFU",
            "HYPER-G",
            "SIZE",
            "LRU-MIN",
            "PITKOW-RECKER",
            "GD-SIZE",
            "SIZE/ATIME",
            "log2size/nref",
            "DAY/RANDOM",
        ] {
            assert!(by_name(n).is_some(), "missing policy {n}");
        }
        assert!(by_name("NOPE").is_none());
        assert!(by_name("SIZE/NOPE").is_none());
    }

    #[test]
    fn all_named_constructs_distinct_policies() {
        let all = all_named();
        let names: std::collections::HashSet<String> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), all.len());
    }
}
