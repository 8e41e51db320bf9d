//! The persist write path, pinned two ways.
//!
//! * **Allocation bound.** Journal appends and snapshot writes send body
//!   bytes to the file from the `Bytes` the cache holds; nothing on the
//!   way allocates in proportion to them. A counting global allocator
//!   (bytes, not calls — the claim is about volume) measures a second
//!   append and a second snapshot after the retained buffers have grown.
//! * **Byte identity.** The `.wcj` file for one fixed input hashes to what
//!   the commit before the write path was rebuilt (D24) wrote, and did not
//!   move when DESIGN.md D27 gave snapshots the journal's frame walk; the
//!   `.wcs` file — one file per shard and generation since D27 — hashes
//!   to what D27 wrote. (Length, FNV) pins: a change that moves a byte of
//!   either file changes what every reader of it must accept.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use std::path::{Path, PathBuf};
use webcache_core::cache::{CacheStats, DocMeta};
use webcache_proxy::persist::{self, JournalOp, JournalWriter, ShardSnapshot, SnapshotDoc};
use webcache_trace::binfmt::checksum;
use webcache_trace::{DocType, UrlId};

/// A temp dir that removes itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wc-write-path-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Position- and document-dependent bytes.
fn body(i: u32, size: usize) -> Bytes {
    Bytes::from(
        (0..size)
            .map(|j| {
                (i as u8)
                    .wrapping_mul(31)
                    .wrapping_add((j as u8).wrapping_mul(7))
            })
            .collect::<Vec<u8>>(),
    )
}

fn url(i: u32) -> String {
    format!("http://pin.test/doc-{i}.html")
}

fn insert(i: u32, size: usize) -> JournalOp {
    JournalOp::Insert {
        old_id: i,
        url: url(i),
        now: 100 + i as u64,
        size: size as u64,
        doc_type: DocType::ALL[i as usize % DocType::ALL.len()],
        last_modified: i.is_multiple_of(2).then_some(7 + i as u64),
        fetched_at: 90 + i as u64,
        body: body(i, size),
    }
}

fn snapshot(gen: u64, sizes: &[usize]) -> ShardSnapshot {
    ShardSnapshot {
        shard: 0,
        nshards: 1,
        gen,
        seq: 17,
        now: 1234,
        capacity: 1 << 30,
        current_day: 2,
        stats: CacheStats::default(),
        policy_state: vec![9, 8, 7, 6, 5],
        docs: sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| SnapshotDoc {
                meta: DocMeta {
                    url: UrlId(i as u32),
                    size: size as u64,
                    doc_type: DocType::ALL[i % DocType::ALL.len()],
                    entry_time: i as u64,
                    last_access: i as u64 + 1,
                    nrefs: 1 + i as u64,
                    expires: (i % 3 == 0).then_some(5000),
                    refetch_latency_ms: 3,
                    type_priority: 1,
                    last_modified: Some(7),
                },
                url: url(i as u32),
                fetched_at: 50 + i as u64,
                body: body(i as u32, size),
            })
            .collect(),
    }
}

fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = counting_alloc::bytes_allocated();
    f();
    counting_alloc::bytes_allocated() - before
}

// One test function: the allocator is global, so a second test running
// beside the measured window would be counted into it.
#[test]
fn bodies_reach_the_disk_without_being_copied_and_the_files_keep_their_bytes() {
    allocation_bound();
    byte_identity();
}

fn allocation_bound() {
    const MIB: u64 = 1 << 20;
    let dir = TempDir::new("alloc");

    // The first call grows what the writer keeps between calls — room
    // for 64 record heads; the measured one carries 64 x 64 KiB = 4 MiB
    // of bodies.
    let batch = |base: u64, size: usize| -> Vec<(u64, JournalOp)> {
        (0..64u32)
            .map(|i| (base + i as u64, insert(i, size)))
            .collect()
    };
    let (first, second) = (batch(1, 1), batch(65, 64 << 10));
    let mut w = JournalWriter::create(&dir.0, 0).expect("create journal");
    w.append(&first).expect("first append");
    let appended = allocated_by(|| {
        w.append(&second).expect("second append");
        w.sync().expect("sync");
    });

    // 32 documents of 1 MiB = 32 MiB of bodies per snapshot.
    let mut snap = snapshot(1, &[1 << 20; 32]);
    persist::write_shard_snapshot(&dir.0, &snap).expect("first snapshot");
    snap.gen = 2;
    let snapshotted = allocated_by(|| {
        persist::write_shard_snapshot(&dir.0, &snap).expect("second snapshot");
    });

    assert!(
        appended + snapshotted < MIB,
        "appending 4 MiB of bodies allocated {appended} bytes and snapshotting \
         32 MiB allocated {snapshotted}: a body is being copied on its way to the file"
    );

    // What was written is what recovery reads back.
    let read = persist::read_journal(&dir.0, 0);
    assert!(read.note.is_none(), "{:?}", read.note);
    assert_eq!(read.ops.len(), 128);
    assert_eq!(read.ops[64..], second[..]);
    let rec = persist::recover(&dir.0, 1);
    assert_eq!(
        rec.shards[0].as_ref().expect("snapshot recovered").snap,
        snap
    );
}

fn file_sum(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (bytes.len() as u64, checksum(&bytes))
}

fn byte_identity() {
    let dir = TempDir::new("pin");

    // Every record kind; bodies empty, smaller than a word, and larger
    // than any buffer a writer might stage them through.
    let ops = [
        (5, insert(0, 0)),
        (6, insert(1, 3)),
        (
            7,
            JournalOp::Touch {
                old_id: 1,
                now: 140,
                size: 3,
            },
        ),
        (8, insert(2, 70_001)),
        (9, JournalOp::Evict { old_id: 0 }),
        (
            10,
            JournalOp::Refresh {
                old_id: 2,
                fetched_at: 150,
            },
        ),
        (11, insert(3, 1 << 20)),
        (12, JournalOp::Evict { old_id: 3 }),
    ];
    let mut w = JournalWriter::create(&dir.0, 3).expect("create journal");
    w.append(&ops[..3]).expect("append");
    w.append(&ops[3..]).expect("append");
    w.sync().expect("sync");

    let mut snap = snapshot(4, &[0, 5, 8191, 8192, 70_001, 1 << 20]);
    snap.shard = 3;
    snap.nshards = 4;
    persist::write_shard_snapshot(&dir.0, &snap).expect("snapshot");

    let got = [
        ("shard-3.wcj", file_sum(&dir.0.join("shard-3.wcj"))),
        ("shard-3-g4.wcs", file_sum(&dir.0.join("shard-3-g4.wcs"))),
    ];
    // (length, FNV) of each file: the journal as commit 4f18eb5 wrote it,
    // the snapshot as D27 did.
    let pinned = [
        ("shard-3.wcj", (1_119_100, 16770914152300953966)),
        ("shard-3-g4.wcs", (1_135_862, 7382689990087127219)),
    ];
    assert_eq!(
        got, pinned,
        "a persist file no longer has the bytes it was pinned at"
    );
}
