//! Property tests for crash-safe persistence: no corruption of the
//! on-disk state — byte flips, splices, truncations, deleted files, in
//! any combination — may make [`webcache_proxy::persist::recover`] panic
//! or hand back a document body that differs from what was persisted.
//! Corruption is allowed to make recovery *colder* (quarantined bodies,
//! torn journal tails, lost shards); it must never make it *wrong*.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use webcache_core::cache::{CacheStats, DocMeta};
use webcache_proxy::persist::{self, JournalOp, JournalWriter, ShardSnapshot, SnapshotDoc};
use webcache_trace::{DocType, UrlId};

/// The reference body for document `i`: position-dependent bytes so a
/// splice of two valid bodies (or a shifted read) can't pass as intact.
fn body_for(i: usize, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| {
            (i as u8)
                .wrapping_mul(31)
                .wrapping_add((j as u8).wrapping_mul(7))
        })
        .collect()
}

fn url_for(i: usize) -> String {
    format!("http://fuzz.test/doc-{i}.html")
}

/// A temp dir that cleans itself up when the case passes or fails.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new() -> CaseDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wc-persist-fuzz-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create case dir");
        CaseDir(dir)
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Populate `dir` with a fully valid persisted state: one snapshot per
/// shard, and a journal tail of inserts / touches / refreshes / evicts.
/// Returns the reference `url -> body` map.
fn build_state(
    dir: &std::path::Path,
    nshards: u32,
    sizes: &[usize],
    journal_tail: &[(usize, u8)],
) -> HashMap<String, Vec<u8>> {
    let mut expected = HashMap::new();
    let mut per_shard: Vec<Vec<SnapshotDoc>> = (0..nshards).map(|_| Vec::new()).collect();
    for (i, &size) in sizes.iter().enumerate() {
        let url = url_for(i);
        let body = body_for(i, size);
        expected.insert(url.clone(), body.clone());
        per_shard[i % nshards as usize].push(SnapshotDoc {
            meta: DocMeta {
                url: UrlId(i as u32),
                size: size as u64,
                doc_type: DocType::ALL[i % DocType::ALL.len()],
                entry_time: i as u64,
                last_access: i as u64 + 1,
                nrefs: 1,
                expires: None,
                refetch_latency_ms: 0,
                type_priority: 0,
                last_modified: Some(7),
            },
            url,
            fetched_at: i as u64,
            body: Bytes::from(body),
        });
    }
    for (shard, docs) in per_shard.into_iter().enumerate() {
        persist::write_shard_snapshot(
            dir,
            &ShardSnapshot {
                shard: shard as u32,
                nshards,
                gen: 1,
                seq: 0,
                now: 100,
                capacity: 1 << 20,
                current_day: 0,
                stats: CacheStats::default(),
                policy_state: Vec::new(),
                docs,
            },
        )
        .expect("write snapshot");
    }
    // A journal tail past the snapshot on every shard it touches. Seqs
    // are per-shard contiguous, matching the production writer — since
    // the degraded-mode work, `read_journal` truncates replay at any
    // in-file seq gap (a gap can only mean lost records or corruption).
    let mut writers: HashMap<u32, JournalWriter> = HashMap::new();
    let mut seqs: HashMap<u32, u64> = HashMap::new();
    let mut stamp = 0u64;
    for &(doc, kind) in journal_tail {
        if sizes.is_empty() {
            break;
        }
        let i = doc % sizes.len();
        let shard = (i % nshards as usize) as u32;
        let w = writers
            .entry(shard)
            .or_insert_with(|| JournalWriter::create(dir, shard).expect("create journal"));
        let seq = seqs.entry(shard).or_insert(0);
        *seq += 1;
        let seq = *seq;
        stamp += 1;
        let op = match kind % 4 {
            0 => JournalOp::Insert {
                old_id: i as u32,
                url: url_for(i),
                now: 200 + stamp,
                size: sizes[i] as u64,
                doc_type: DocType::ALL[i % DocType::ALL.len()],
                last_modified: None,
                fetched_at: 200 + stamp,
                body: Bytes::from(body_for(i, sizes[i])),
            },
            1 => JournalOp::Touch {
                old_id: i as u32,
                now: 200 + stamp,
                size: sizes[i] as u64,
            },
            2 => JournalOp::Refresh {
                old_id: i as u32,
                fetched_at: 200 + stamp,
            },
            _ => JournalOp::Evict { old_id: i as u32 },
        };
        w.append(&[(seq, op)]).expect("append journal");
    }
    for w in writers.values_mut() {
        w.sync().expect("sync journal");
    }
    expected
}

/// One corruption step applied to one persisted file.
#[derive(Debug, Clone, Copy)]
enum Mangle {
    /// XOR the byte at a relative offset with a nonzero mask.
    Flip { offset: u32, mask: u8 },
    /// Cut the file at a relative offset (a torn write).
    Truncate { offset: u32 },
    /// Overwrite four bytes at a relative offset (a misdirected write).
    Splice { offset: u32, value: u32 },
    /// Remove the file entirely.
    Delete,
}

fn apply_mangle(path: &std::path::Path, m: Mangle) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    match m {
        Mangle::Flip { offset, mask } => {
            if bytes.is_empty() {
                return;
            }
            let at = offset as usize % bytes.len();
            bytes[at] ^= mask | 1; // never a no-op
        }
        Mangle::Truncate { offset } => {
            let at = offset as usize % (bytes.len() + 1);
            bytes.truncate(at);
        }
        Mangle::Splice { offset, value } => {
            if bytes.is_empty() {
                return;
            }
            for (k, b) in value.to_le_bytes().into_iter().enumerate() {
                let at = (offset as usize + k) % bytes.len();
                bytes[at] = b;
            }
        }
        Mangle::Delete => {
            let _ = std::fs::remove_file(path);
            return;
        }
    }
    let _ = std::fs::write(path, &bytes);
}

/// Build a [`Mangle`] from plain generated parts (the vendored proptest
/// has no `prop_oneof`/`any`, so variants are chosen by a kind byte).
fn mangle_from(kind: u8, offset: u32, mask: u8) -> Mangle {
    match kind {
        0 => Mangle::Flip { offset, mask },
        1 => Mangle::Truncate { offset },
        2 => Mangle::Splice {
            offset,
            value: offset.wrapping_mul(2_654_435_761).wrapping_add(mask as u32),
        },
        _ => Mangle::Delete,
    }
}

/// Every recovered body — snapshot docs and journal inserts alike — must
/// match the reference map byte for byte.
fn assert_bodies_authentic(rec: &persist::RecoveredData, expected: &HashMap<String, Vec<u8>>) {
    for shard in rec.shards.iter().flatten() {
        for doc in &shard.snap.docs {
            let reference = expected
                .get(&doc.url)
                .unwrap_or_else(|| panic!("recovery invented url {:?}", doc.url));
            assert_eq!(
                &doc.body[..],
                &reference[..],
                "corrupt snapshot body surfaced for {:?}",
                doc.url
            );
        }
    }
    for journal in &rec.journals {
        for (_, op) in &journal.ops {
            if let JournalOp::Insert {
                url, body, size, ..
            } = op
            {
                let reference = expected
                    .get(url)
                    .unwrap_or_else(|| panic!("journal replay invented url {url:?}"));
                assert_eq!(
                    &body[..],
                    &reference[..],
                    "corrupt journal body surfaced for {url:?}"
                );
                assert_eq!(*size, reference.len() as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recovery of an intact state is exact: every document and every
    /// journal record comes back, nothing quarantined.
    #[test]
    fn clean_round_trip_is_exact(
        nshards in 1u32..4,
        sizes in prop::collection::vec(0usize..300, 0..16),
        tail in prop::collection::vec((0usize..16, 0u8..4), 0..24),
    ) {
        let case = CaseDir::new();
        let expected = build_state(&case.0, nshards, &sizes, &tail);
        let rec = persist::recover(&case.0, nshards);

        let recovered: usize = rec
            .shards
            .iter()
            .flatten()
            .map(|s| s.snap.docs.len())
            .sum();
        prop_assert_eq!(recovered, sizes.len());
        let quarantined: u64 = rec.shards.iter().flatten().map(|s| s.quarantined).sum();
        prop_assert_eq!(quarantined, 0u64);
        let replayable: usize = rec.journals.iter().map(|j| j.ops.len()).sum();
        let expected_tail = if sizes.is_empty() { 0 } else { tail.len() };
        prop_assert_eq!(replayable, expected_tail);
        assert_bodies_authentic(&rec, &expected);
    }

    /// Under arbitrary corruption, recovery never panics and never
    /// surfaces a body that differs from what was written.
    #[test]
    fn mangled_state_never_panics_or_serves_corrupt_bytes(
        nshards in 1u32..4,
        sizes in prop::collection::vec(0usize..300, 0..16),
        tail in prop::collection::vec((0usize..16, 0u8..4), 0..24),
        picks in prop::collection::vec((0u16..1024, 0u8..4, 0u32..1 << 24, 0u8..=255), 1..12),
    ) {
        let case = CaseDir::new();
        let expected = build_state(&case.0, nshards, &sizes, &tail);

        // Deterministic file order, then apply each pick to one file.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&case.0)
            .expect("list case dir")
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        for (which, kind, offset, mask) in picks {
            if files.is_empty() {
                break;
            }
            let m = mangle_from(kind, offset, mask);
            apply_mangle(&files[which as usize % files.len()], m);
        }

        // Must not panic, whatever the mangling did…
        let rec = persist::recover(&case.0, nshards);
        // …and whatever it salvaged must be byte-authentic.
        assert_bodies_authentic(&rec, &expected);

        // Journal tails must be reopenable where recovery said they were
        // valid — the writer path after a dirty restart must not fail.
        for (shard, j) in rec.journals.iter().enumerate() {
            let w = JournalWriter::open_append(&case.0, shard as u32, j.valid_len);
            prop_assert!(w.is_ok(), "journal reopen failed after recovery");
        }
    }
}
