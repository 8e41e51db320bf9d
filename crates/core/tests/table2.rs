//! Exact reproduction of Table 2 of the paper: the 42.5 kB worked example.
//!
//! The paper traces eight documents A-H through a 42.5 kB cache, then
//! references a new 1.5 kB document I just after time 15 and shows, for
//! several (primary, secondary) key combinations, both the sorted removal
//! list and which documents are removed. These tests replay that trace and
//! assert the exact sorted lists and removal sets.
//!
//! Sizes are the table's kB values at 1 kB = 1024 bytes, rounded down to
//! whole bytes so that ⌊log₂ SIZE⌋ reproduces the table's middle rows
//! (A,B,G → 10; C,D,E → 13; H → 12; F → 8).

use webcache_core::cache::{Cache, DocMeta, Outcome, SlabStore};
use webcache_core::policy::{named, Key, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_trace::{ClientId, DocType, Request, ServerId, UrlId};

const KB: f64 = 1024.0;

/// (name, url id, size bytes). Table 2 sizes in kB: A 1.9, B 1.2, C 9,
/// D 15, E 8, F 0.3, G 1.9, H 5.2.
fn doc(name: char) -> (UrlId, u64) {
    let (id, kb) = match name {
        'A' => (0, 1.9),
        'B' => (1, 1.2),
        'C' => (2, 9.0),
        'D' => (3, 15.0),
        'E' => (4, 8.0),
        'F' => (5, 0.3),
        'G' => (6, 1.9),
        'H' => (7, 5.2),
        'I' => (8, 1.5),
        _ => panic!("unknown document {name}"),
    };
    (UrlId(id), (kb * KB) as u64)
}

fn name_of(url: UrlId) -> char {
    (b'A' + url.0 as u8) as char
}

/// The Table 2 reference schedule: (time, document).
const SCHEDULE: [(u64, char); 15] = [
    (1, 'A'),
    (2, 'B'),
    (3, 'C'),
    (4, 'B'),
    (5, 'B'),
    (6, 'A'),
    (7, 'D'),
    (8, 'E'),
    (9, 'C'),
    (10, 'D'),
    (11, 'F'),
    (12, 'G'),
    (13, 'A'),
    (14, 'D'),
    (15, 'H'),
];

fn request(time: u64, name: char) -> Request {
    let (url, size) = doc(name);
    Request {
        time,
        client: ClientId(0),
        server: ServerId(0),
        url,
        size,
        doc_type: DocType::Text,
        last_modified: None,
    }
}

/// Capacity of the example cache: 42.5 kB.
fn capacity() -> u64 {
    (42.5 * KB) as u64
}

/// Run the A-H schedule through a cache with the given policy, then
/// request I and return the evicted documents (by letter, in order).
fn removals_for(policy: Box<dyn RemovalPolicy>) -> Vec<char> {
    let mut cache = Cache::new(capacity(), policy);
    for &(t, name) in &SCHEDULE {
        cache.request(&request(t, name));
    }
    // "After time 15, the cache is 100% full" — within rounding, less than
    // one incoming document of free space.
    assert!(cache.capacity() - cache.used() < doc('I').1);
    assert_eq!(cache.len(), 8);
    match cache.request(&request(16, 'I')) {
        Outcome::Miss { evicted } => evicted.iter().map(|m| name_of(m.url)).collect(),
        other => panic!("expected a miss with evictions, got {other:?}"),
    }
}

/// Build the DocMeta states "at time 15+" directly from the trace and
/// return the policy's full sorted list (head = removed first).
fn sorted_list_for(spec: KeySpec) -> Vec<char> {
    let mut policy = SortedPolicy::new(spec);
    let mut metas: std::collections::HashMap<UrlId, DocMeta> = std::collections::HashMap::new();
    for &(t, name) in &SCHEDULE {
        let (url, size) = doc(name);
        let meta = metas
            .entry(url)
            .and_modify(|m| {
                m.last_access = t;
                m.nrefs += 1;
            })
            .or_insert(DocMeta {
                url,
                size,
                doc_type: DocType::Text,
                entry_time: t,
                last_access: t,
                nrefs: 1,
                expires: None,
                refetch_latency_ms: 0,
                type_priority: 0,
                last_modified: None,
            });
        let snapshot = *meta;
        if snapshot.nrefs == 1 {
            policy.on_insert(&snapshot);
        } else {
            policy.on_access(&snapshot);
        }
    }
    let mut docs = SlabStore::default();
    for meta in metas.into_values() {
        docs.insert(meta, ());
    }
    policy.sorted_urls(&docs).into_iter().map(name_of).collect()
}

/// The middle table of Table 2: key values of every document at time 15+.
#[test]
fn table2_key_values_at_time_15() {
    let mut cache = Cache::new(capacity(), Box::new(named::lru()));
    for &(t, name) in &SCHEDULE {
        cache.request(&request(t, name));
    }
    // (doc, log2size, etime, atime, nref) rows from the paper.
    let expected = [
        ('A', 10, 1, 13, 3),
        ('B', 10, 2, 5, 3),
        ('C', 13, 3, 9, 2),
        ('D', 13, 7, 14, 3),
        ('E', 13, 8, 8, 1),
        ('F', 8, 11, 11, 1),
        ('G', 10, 12, 12, 1),
        ('H', 12, 15, 15, 1),
    ];
    for (name, log2, etime, atime, nref) in expected {
        let (url, _) = doc(name);
        let m = cache.meta(url).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.size.ilog2(), log2, "log2 size of {name}");
        assert_eq!(m.entry_time, etime, "ETIME of {name}");
        assert_eq!(m.last_access, atime, "ATIME of {name}");
        assert_eq!(m.nrefs, nref, "NREF of {name}");
    }
}

/// Bottom table, row "SIZE + ATIME": sorted list D C E H G A B F, only D
/// removed (15 kB frees far more than the 1.5 kB needed).
#[test]
fn table2_size_primary_removes_d() {
    let spec = KeySpec::pair(Key::Size, Key::AccessTime);
    assert_eq!(
        sorted_list_for(spec),
        vec!['D', 'C', 'E', 'H', 'G', 'A', 'B', 'F'],
        "A/G tie on size breaks by ATIME (G accessed earlier)"
    );
    assert_eq!(removals_for(Box::new(SortedPolicy::new(spec))), vec!['D']);
}

/// Bottom table, row "⌊log₂ SIZE⌋ + ATIME": sorted list E C D H B G A F,
/// only E removed.
#[test]
fn table2_log2size_primary_removes_e() {
    let spec = KeySpec::pair(Key::Log2Size, Key::AccessTime);
    assert_eq!(
        sorted_list_for(spec),
        vec!['E', 'C', 'D', 'H', 'B', 'G', 'A', 'F'],
        "bucket 13 = {{E,C,D}} by ATIME, then H, then bucket 10 by ATIME"
    );
    assert_eq!(removals_for(Box::new(SortedPolicy::new(spec))), vec!['E']);
}

/// Bottom table, row "ETIME" (FIFO): sorted list A B C D E F G H, only A
/// removed. "LRU ... will first remove document B ... then removes E".
#[test]
fn table2_fifo_removes_a_and_lru_removes_b_then_e() {
    let fifo_spec = KeySpec::primary(Key::EntryTime);
    assert_eq!(
        sorted_list_for(fifo_spec),
        vec!['A', 'B', 'C', 'D', 'E', 'F', 'G', 'H']
    );
    assert_eq!(removals_for(Box::new(named::fifo())), vec!['A']);

    // LRU row: B E C F G A D H; removing B (1.2 kB) is insufficient for
    // the 1.5 kB document, so E follows — the paper's worked narrative.
    let lru_spec = KeySpec::primary(Key::AccessTime);
    assert_eq!(
        sorted_list_for(lru_spec),
        vec!['B', 'E', 'C', 'F', 'G', 'A', 'D', 'H']
    );
    assert_eq!(removals_for(Box::new(named::lru())), vec!['B', 'E']);
}

/// Bottom table, row "NREF + ETIME": sorted list E F G H C A B D, only E
/// removed.
#[test]
fn table2_nref_primary_removes_e() {
    let spec = KeySpec::pair(Key::NRef, Key::EntryTime);
    assert_eq!(
        sorted_list_for(spec),
        vec!['E', 'F', 'G', 'H', 'C', 'A', 'B', 'D'],
        "NREF=1 docs by ETIME, then C (2 refs), then 3-ref docs by ETIME"
    );
    assert_eq!(removals_for(Box::new(SortedPolicy::new(spec))), vec!['E']);
}

/// Cross-check: every policy leaves the cache consistent and I resident.
#[test]
fn table2_post_removal_state_is_consistent() {
    for spec in [
        KeySpec::pair(Key::Size, Key::AccessTime),
        KeySpec::pair(Key::Log2Size, Key::AccessTime),
        KeySpec::primary(Key::EntryTime),
        KeySpec::primary(Key::AccessTime),
        KeySpec::pair(Key::NRef, Key::EntryTime),
    ] {
        let mut cache = Cache::new(capacity(), Box::new(SortedPolicy::new(spec)));
        for &(t, name) in &SCHEDULE {
            cache.request(&request(t, name));
        }
        cache.request(&request(16, 'I'));
        cache.check_invariants();
        assert!(cache.contains(doc('I').0), "{:?}: I not inserted", spec);
    }
}
