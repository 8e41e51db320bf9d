//! Crash-safe cache persistence: per-shard snapshots + append-only journals.
//!
//! The serving proxy forgets its working set on restart; at production
//! scale that is a thundering herd at the origin and a hit-rate cliff the
//! paper's sustained HR/WHR numbers assume away. This module gives
//! [`crate::ProxyServer`] a warm restart:
//!
//! * **Snapshots** (`shard-{i}-g{gen}.wcs`): a point-in-time image of
//!   one shard, captured under a short per-shard critical section and
//!   written by a background task. One file of the journal's frames: its
//!   magic, a header frame (the shard's configuration, stats, document
//!   count and opaque policy rank state) and one frame per document
//!   (`DocMeta`, URL, freshness stamp, body). The file is streamed into
//!   the atomic tmp+fsync+rename writer frame by frame, each body from
//!   the `Bytes` the cache holds and hashed once on its way; the rename
//!   is the commit point.
//! * **Journals** (`shard-{i}.wcj`): an append-only log of
//!   insert/touch/evict/refresh deltas since the last snapshot, framed as
//!   `[len][payload][fnv64]` records carrying a per-shard sequence
//!   number, group-fsync'd on a configurable interval. Replay *truncates
//!   at the first torn or corrupt record* instead of failing — everything
//!   before the tear is trustworthy, everything after is gone. A batch is
//!   one vectored write: record heads and checksums from a small retained
//!   buffer, each `Insert`'s body from its own `Bytes`. The fsync is
//!   skipped when nothing was appended since the last one. Which records
//!   a journal gets is the buffer's business (`persister::JournalBuf`): a
//!   document evicted before the drain leaves an `Evict` and no body.
//! * **Recovery** ([`recover`]): per shard, load the *newest valid*
//!   snapshot generation (older generations are fallbacks until
//!   garbage-collected) — a snapshot is valid when its magic and header
//!   frame are; its documents are read up to the first frame that is
//!   torn, fails its checksum or disagrees with its own `DocMeta`, and
//!   that document and every later one are quarantined (misses, never
//!   corrupt bytes) — then replay journal records with sequence numbers
//!   beyond the snapshot's. Snapshot and journal share one frame walk.
//!   A document's id is its slot in the shard that wrote it and its
//!   shard follows from its URL text, which every snapshot entry and
//!   every `Insert` carries: a shard recovered whole keeps its ids, and
//!   with them the policy's opaque rank state; anything else gets fresh
//!   ids and policy order replayed from insertion metadata (see
//!   [`Cache::restore_entries`](webcache_core::cache::Cache::restore_entries)).
//!
//! Every decode path is bounds-checked (this module is written under the
//! workspace's `clippy::unwrap-used` gate) and recovery as a whole never
//! fails — the worst outcome of any corruption is a colder cache,
//! reported in [`RecoveredData::notes`].
//!
//! See DESIGN.md D15 for the format layout and crash-ordering argument,
//! D24 for the write path, D27 for the single snapshot file.

use crate::iofault::{IoFaultInjector, IoFaultPlan};
use bytes::Bytes;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use webcache_core::cache::{CacheStats, DocMeta};
use webcache_trace::binfmt::{
    checksum, doc_type_from_tag, doc_type_tag, write_atomic_with, BinError, Cursor, Hasher64,
};
use webcache_trace::{DocType, UrlId};

/// Magic prefix of a journal file (`.wcj`).
const JOURNAL_MAGIC: &[u8; 4] = b"WCJ\x01";
/// Magic prefix of a snapshot file (`.wcs`). A `.wcs` the container
/// format before DESIGN.md D27 wrote starts `WCP\x01` and is no snapshot.
const SNAPSHOT_MAGIC: &[u8; 4] = b"WCS\x02";
/// Sanity cap on a single journal record or snapshot frame (bytes). Anything
/// larger is treated as a tear: the proxy never caches documents close to
/// this size.
const MAX_FRAME: u64 = 1 << 31;
/// Bodies shorter than this are copied next to their record head before a
/// journal append; longer ones are written from where they lie. A copy
/// costs by the byte and a segment of its own by the piece (two more
/// entries in the vectored write): measured on the scratch box, batches of
/// 64 inserts, copying is a quarter faster at 1 KiB, even at 4 KiB and a
/// fifth slower at 16 KiB and beyond.
const STAGED_BODY_MAX: usize = 4096;

// ---------------------------------------------------------------------------
// Errors and configuration
// ---------------------------------------------------------------------------

/// Typed error for every persistence write path. Reads never fail: what
/// they cannot decode becomes a note (see [`recover`]).
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// Persistence configuration for a [`crate::ProxyServer`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding snapshots and journals (created if absent).
    pub dir: PathBuf,
    /// How often the background task writes a full snapshot and rotates
    /// the journals.
    pub snapshot_interval: Duration,
    /// Group-fsync interval for journal appends: the maximum time a
    /// journalled delta may sit in the OS page cache. This bounds the
    /// post-crash data-loss window.
    pub journal_fsync: Duration,
    /// Injected disk-fault plan (tests and chaos runs); `None` — the
    /// default — injects nothing.
    pub iofault: Option<IoFaultPlan>,
    /// Base delay between degraded-mode re-arm probes; doubles per
    /// consecutive probe failure (capped at 32×).
    pub degraded_backoff: Duration,
    /// Consecutive failed re-arm probes before persistence is disabled
    /// for the life of the process (the proxy keeps serving).
    pub degraded_max_retries: u32,
    /// Cap on one shard's in-memory journal buffer, in records. When a
    /// stalled persister lets the buffer reach the cap, the *oldest*
    /// record is dropped (counted as durability loss; the next snapshot
    /// is forced so the journal is trusted again) rather than growing
    /// proxy memory without bound.
    pub journal_buf_records: usize,
}

impl PersistConfig {
    /// Persistence into `dir` with the default cadence (snapshot every
    /// 2 s, journal group-fsync every 25 ms), no fault injection, and a
    /// degraded policy of 8 probes backing off from 200 ms.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            snapshot_interval: Duration::from_secs(2),
            journal_fsync: Duration::from_millis(25),
            iofault: None,
            degraded_backoff: Duration::from_millis(200),
            degraded_max_retries: 8,
            journal_buf_records: 8192,
        }
    }

    /// Set the snapshot interval.
    pub fn with_snapshot_interval(mut self, d: Duration) -> PersistConfig {
        self.snapshot_interval = d;
        self
    }

    /// Set the journal group-fsync interval.
    pub fn with_journal_fsync(mut self, d: Duration) -> PersistConfig {
        self.journal_fsync = d;
        self
    }

    /// Inject disk faults according to `plan`.
    pub fn with_iofault(mut self, plan: IoFaultPlan) -> PersistConfig {
        self.iofault = Some(plan);
        self
    }

    /// Set the degraded-mode policy: probe backoff base and the probe
    /// budget before persistence is disabled.
    pub fn with_degraded_policy(mut self, backoff: Duration, max_retries: u32) -> PersistConfig {
        self.degraded_backoff = backoff;
        self.degraded_max_retries = max_retries;
        self
    }

    /// Set the per-shard journal buffer cap (records, nonzero).
    pub fn with_journal_buf_records(mut self, cap: usize) -> PersistConfig {
        assert!(cap > 0, "journal buffer must hold at least one record");
        self.journal_buf_records = cap;
        self
    }
}

// ---------------------------------------------------------------------------
// Journal operations
// ---------------------------------------------------------------------------

/// One logged cache mutation. Documents are referenced by `old_id`, the
/// writing shard's slot id: it names one URL from the `Insert` that
/// carries the text (or the shard's snapshot) until the next `Insert`
/// under the same id, which may bind it to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A document entered (or replaced its copy in) the cache.
    Insert {
        /// The writer's id for this URL.
        old_id: u32,
        /// URL text (replay binds `old_id` to it).
        url: String,
        /// Logical clock at insert.
        now: u64,
        /// Body size in bytes (`body.len()` as stored).
        size: u64,
        /// Document type for policy decisions.
        doc_type: DocType,
        /// Origin `Last-Modified`, if any.
        last_modified: Option<u64>,
        /// Logical clock of the fetch (drives TTL freshness).
        fetched_at: u64,
        /// The body bytes.
        body: Bytes,
    },
    /// A cache hit touched a resident document.
    Touch {
        /// The writer's id for this URL.
        old_id: u32,
        /// Logical clock at the touch.
        now: u64,
        /// Resident size (replay skips the touch unless it matches).
        size: u64,
    },
    /// The policy (or an explicit remove) dropped a document.
    Evict {
        /// The writer's id for this URL.
        old_id: u32,
    },
    /// A revalidation confirmed freshness (`304`): the document was
    /// referenced at `fetched_at` and re-stamped with it.
    Refresh {
        /// The writer's id for this URL.
        old_id: u32,
        /// New fetch stamp.
        fetched_at: u64,
    },
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(v.is_some() as u8);
    push_u64(out, v.unwrap_or(0));
}

fn read_opt_u64(cur: &mut Cursor) -> Result<Option<u64>, BinError> {
    let has = cur.take(1)?[0] != 0;
    let v = cur.u64()?;
    Ok(has.then_some(v))
}

/// The body a record carries: an `Insert`'s, nothing for the rest.
fn body_of(op: &JournalOp) -> &[u8] {
    match op {
        JournalOp::Insert { body, .. } => body,
        _ => &[],
    }
}

/// Encode one `(seq, op)` into a record payload (no framing) up to, not
/// including, the bytes of [`body_of`], which end an `Insert`'s payload.
fn encode_op_head(seq: u64, op: &JournalOp, out: &mut Vec<u8>) {
    push_u64(out, seq);
    match op {
        JournalOp::Insert {
            old_id,
            url,
            now,
            size,
            doc_type,
            last_modified,
            fetched_at,
            body,
        } => {
            out.push(1);
            push_u32(out, *old_id);
            push_string(out, url);
            push_u64(out, *now);
            push_u64(out, *size);
            out.push(doc_type_tag(*doc_type));
            push_opt_u64(out, *last_modified);
            push_u64(out, *fetched_at);
            push_u64(out, body.len() as u64);
        }
        JournalOp::Touch { old_id, now, size } => {
            out.push(2);
            push_u32(out, *old_id);
            push_u64(out, *now);
            push_u64(out, *size);
        }
        JournalOp::Evict { old_id } => {
            out.push(3);
            push_u32(out, *old_id);
        }
        JournalOp::Refresh { old_id, fetched_at } => {
            out.push(4);
            push_u32(out, *old_id);
            push_u64(out, *fetched_at);
        }
    }
}

/// Decode one record payload. Strict: trailing bytes are an error, so a
/// checksum-passing but overlong payload still reads as a tear.
fn decode_op(payload: &[u8]) -> Result<(u64, JournalOp), BinError> {
    let mut cur = Cursor::new(payload);
    let seq = cur.u64()?;
    let tag = cur.take(1)?[0];
    let op = match tag {
        1 => {
            let old_id = cur.u32()?;
            let url = cur.string()?;
            let now = cur.u64()?;
            let size = cur.u64()?;
            let doc_type = doc_type_from_tag(cur.take(1)?[0])?;
            let last_modified = read_opt_u64(&mut cur)?;
            let fetched_at = cur.u64()?;
            let blen = cur.u64()?;
            if blen > MAX_FRAME {
                return Err(BinError::Truncated);
            }
            let body = Bytes::copy_from_slice(cur.take(blen as usize)?);
            JournalOp::Insert {
                old_id,
                url,
                now,
                size,
                doc_type,
                last_modified,
                fetched_at,
                body,
            }
        }
        2 => JournalOp::Touch {
            old_id: cur.u32()?,
            now: cur.u64()?,
            size: cur.u64()?,
        },
        3 => JournalOp::Evict { old_id: cur.u32()? },
        4 => JournalOp::Refresh {
            old_id: cur.u32()?,
            fetched_at: cur.u64()?,
        },
        _ => return Err(BinError::Truncated),
    };
    if !cur.is_at_end() {
        return Err(BinError::TrailingBytes);
    }
    Ok((seq, op))
}

// ---------------------------------------------------------------------------
// Journal files
// ---------------------------------------------------------------------------

/// Path of shard `i`'s journal.
pub fn journal_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.wcj"))
}

/// Appender for one shard's journal. Owns the open file; records are
/// written per [`JournalWriter::append`] call and made durable by
/// [`JournalWriter::sync`] (the group fsync).
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    /// Frame lengths, record heads, bodies under [`STAGED_BODY_MAX`] and
    /// checksums of the batch being appended, kept between calls. Larger
    /// bodies are not staged here: they go to the file from the `Bytes`
    /// their record holds.
    scratch: Vec<u8>,
    /// `(offset into scratch, index into the batch)` of every body of the
    /// batch that is not staged: where it belongs between the staged
    /// bytes.
    cuts: Vec<(usize, usize)>,
    /// Bytes reached the file since the last `sync`/`rotate`.
    dirty: bool,
    /// Bytes handed to the file by `append` over this writer's life.
    appended: u64,
    /// Disk-fault injection hook ([`PersistConfig::iofault`]); `None` in
    /// production.
    hook: Option<Arc<IoFaultInjector>>,
}

impl JournalWriter {
    /// Create (truncating any previous journal) shard `shard`'s journal
    /// in `dir` and write its header durably.
    pub fn create(dir: &Path, shard: u32) -> Result<JournalWriter, PersistError> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, shard);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut head = Vec::with_capacity(8);
        head.extend_from_slice(JOURNAL_MAGIC);
        push_u32(&mut head, shard);
        file.write_all(&head)?;
        file.sync_all()?;
        Ok(JournalWriter::over(file, path))
    }

    fn over(file: File, path: PathBuf) -> JournalWriter {
        JournalWriter {
            file,
            path,
            scratch: Vec::new(),
            cuts: Vec::new(),
            dirty: false,
            appended: 0,
            hook: None,
        }
    }

    /// Install a disk-fault injection hook on every subsequent append
    /// and fsync.
    pub fn with_hook(mut self, hook: Option<Arc<IoFaultInjector>>) -> JournalWriter {
        self.hook = hook;
        self
    }

    /// Append records (not yet durable — call [`JournalWriter::sync`]).
    /// One vectored write per batch: the staged bytes interleaved with
    /// each larger `Insert`'s body where it lies.
    pub fn append(&mut self, ops: &[(u64, JournalOp)]) -> Result<(), PersistError> {
        if ops.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.cuts.clear();
        let mut encoded = 0;
        for (i, (seq, op)) in ops.iter().enumerate() {
            let start = self.scratch.len();
            push_u32(&mut self.scratch, 0); // frame length backpatched below
            encode_op_head(*seq, op, &mut self.scratch);
            let body = body_of(op);
            let payload_len = (self.scratch.len() - start - 4 + body.len()) as u32;
            self.scratch[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
            let mut h = Hasher64::new();
            if body.len() < STAGED_BODY_MAX {
                self.scratch.extend_from_slice(body);
                h.update(&self.scratch[start + 4..]);
            } else {
                h.update(&self.scratch[start + 4..]);
                h.update(body);
                self.cuts.push((self.scratch.len(), i));
                encoded += body.len();
            }
            push_u64(&mut self.scratch, h.finish());
        }
        encoded += self.scratch.len();
        let mut fault = None;
        let mut limit = encoded;
        if let Some(h) = &self.hook {
            match h.on_append() {
                Ok(None) => {}
                Ok(Some(_short)) => {
                    // Tear for real: a prefix of the encoded batch
                    // reaches the file, exactly what a mid-write crash
                    // or failing device leaves behind. Recovery must
                    // truncate it; the caller must treat the journal as
                    // untrusted until the next rotation.
                    limit = (encoded / 2).max(1);
                    fault = Some(PersistError::Io(h.short_write_error()));
                }
                Err(e) => return Err(PersistError::Io(e)),
            }
        }
        // The first `limit` bytes of the batch, in file order.
        let mut segments = Vec::with_capacity(2 * self.cuts.len() + 1);
        let mut push = |bytes| {
            let bytes: &[u8] = bytes;
            let bytes = &bytes[..bytes.len().min(limit)];
            limit -= bytes.len();
            if !bytes.is_empty() {
                segments.push(IoSlice::new(bytes));
            }
        };
        let mut staged = 0;
        for &(cut, i) in &self.cuts {
            push(&self.scratch[staged..cut]);
            push(body_of(&ops[i].1));
            staged = cut;
        }
        push(&self.scratch[staged..]);
        self.dirty = true;
        let written = write_all_vectored(&mut self.file, &mut segments);
        if let Ok(n) = written {
            self.appended += n;
        }
        match fault {
            Some(torn) => Err(torn),
            None => Ok(written.map(drop)?),
        }
    }

    /// Bytes [`JournalWriter::append`] has written to the file over this
    /// writer's life (rotation does not reset it).
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }

    /// Group fsync: make every appended record durable. Nothing to do —
    /// and no fault hook consulted — when nothing was appended since the
    /// last `sync` or [`JournalWriter::rotate`].
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(h) = &self.hook {
            h.on_sync().map_err(PersistError::Io)?;
        }
        self.file.sync_data()?;
        self.dirty = false;
        Ok(())
    }

    /// Rotate: truncate back to the header after a snapshot committed.
    /// Records dropped here all have `seq <=` the snapshot's sequence
    /// number, so even a crash *before* this truncation only leaves
    /// records that replay will skip.
    pub fn rotate(&mut self) -> Result<(), PersistError> {
        self.file.set_len((JOURNAL_MAGIC.len() + 4) as u64)?;
        self.file.sync_data()?;
        self.dirty = false;
        // Re-seek to the new end for subsequent appends.
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        Ok(())
    }

    /// Re-open an existing journal for appending after recovery.
    /// `valid_len` is the validated byte length reported by
    /// [`read_journal`]: the file is truncated there (dropping any torn
    /// tail, which replay ignored anyway) so freshly appended records
    /// stay readable. Records already present keep working because the
    /// caller's sequence numbers continue above them; they are dropped at
    /// the next rotation. Falls back to a fresh journal when the header
    /// was invalid (`valid_len` smaller than a header).
    pub fn open_append(
        dir: &Path,
        shard: u32,
        valid_len: u64,
    ) -> Result<JournalWriter, PersistError> {
        if valid_len < (JOURNAL_MAGIC.len() + 4) as u64 {
            return JournalWriter::create(dir, shard);
        }
        let path = journal_path(dir, shard);
        let file = OpenOptions::new().write(true).open(&path);
        let mut file = match file {
            Ok(f) => f,
            Err(_) => return JournalWriter::create(dir, shard),
        };
        file.set_len(valid_len)?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(JournalWriter::over(file, path))
    }

    /// The journal's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// `Write::write_all` over a list of segments: keep writing until every
/// byte of every segment is out; returns how many that was.
fn write_all_vectored(file: &mut File, mut segments: &mut [IoSlice<'_>]) -> std::io::Result<u64> {
    let mut written = 0;
    while !segments.is_empty() {
        match file.write_vectored(segments) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n as u64;
                IoSlice::advance_slices(&mut segments, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// Result of reading one shard's journal.
#[derive(Debug, Default)]
pub struct JournalRead {
    /// Valid records in append order.
    pub ops: Vec<(u64, JournalOp)>,
    /// Byte length of the validated prefix (header + intact records);
    /// [`JournalWriter::open_append`] truncates the file here.
    pub valid_len: u64,
    /// Degradation note when a tear/corruption cut the read short.
    pub note: Option<String>,
}

/// Read a journal, tolerantly. A missing file is an empty journal; a bad
/// header is an empty journal (noted); a torn or corrupt record truncates
/// the read — records before the tear are returned, the tail is ignored.
pub fn read_journal(dir: &Path, shard: u32) -> JournalRead {
    let path = journal_path(dir, shard);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return JournalRead::default(),
        Err(e) => {
            return JournalRead {
                note: Some(format!("{}: unreadable ({e})", path.display())),
                ..JournalRead::default()
            }
        }
    };
    let head_len = JOURNAL_MAGIC.len() + 4;
    if bytes.len() < head_len || &bytes[..4] != JOURNAL_MAGIC {
        return JournalRead {
            note: Some(format!("{}: bad journal header", path.display())),
            ..JournalRead::default()
        };
    }
    let mut shard_bytes = [0u8; 4];
    shard_bytes.copy_from_slice(&bytes[4..8]);
    if u32::from_le_bytes(shard_bytes) != shard {
        return JournalRead {
            note: Some(format!("{}: journal names another shard", path.display())),
            ..JournalRead::default()
        };
    }
    let mut ops: Vec<(u64, JournalOp)> = Vec::new();
    let (valid_len, why) = walk_frames(&bytes, head_len, |payload| {
        let (seq, op) = decode_op(payload).map_err(|e| format!("undecodable record ({e})"))?;
        // Within one journal file sequence numbers are contiguous by
        // construction (assigned on the event loop, appended in
        // order). A gap means records were lost in between — a
        // drop-oldest overflow or an append the disk rejected — so
        // everything after the gap describes a state the journal cannot
        // faithfully rebuild (e.g. an insert superseding a lost insert
        // would replay as fresh). Truncate: colder, never wrong.
        if let Some(&(prev, _)) = ops.last() {
            if seq != prev + 1 {
                return Err(format!("sequence gap ({prev} -> {seq}), records lost"));
            }
        }
        ops.push((seq, op));
        Ok(())
    });
    JournalRead {
        ops,
        valid_len: valid_len as u64,
        note: why.map(|why| {
            format!(
                "{}: {why} at byte {valid_len}; journal truncated there",
                path.display()
            )
        }),
    }
}

/// Walk the `[u32 len][payload][u64 FNV(payload)]` frames of `bytes` from
/// offset `at`, handing each intact payload to `visit` in order. Stops at
/// the end of `bytes`, at the first frame that runs past it, is longer
/// than [`MAX_FRAME`] or fails its checksum, or at the first payload
/// `visit` refuses. Returns the offset of the first frame not accepted
/// and, unless that is the end, why it was not.
fn walk_frames<'a>(
    bytes: &'a [u8],
    mut at: usize,
    mut visit: impl FnMut(&'a [u8]) -> Result<(), String>,
) -> (usize, Option<String>) {
    while at < bytes.len() {
        let mut cur = Cursor::new(&bytes[at..]);
        let Ok(len) = cur.u32() else {
            return (at, Some("torn frame header".into()));
        };
        let (payload, sum) = match (cur.take(len as usize), cur.u64()) {
            (Ok(payload), Ok(sum)) if len as u64 <= MAX_FRAME => (payload, sum),
            _ => return (at, Some("torn frame".into())),
        };
        if checksum(payload) != sum {
            return (at, Some("frame checksum mismatch".into()));
        }
        if let Err(why) = visit(payload) {
            return (at, Some(why));
        }
        at += 4 + payload.len() + 8;
    }
    (at, None)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One resident document inside a [`ShardSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDoc {
    /// Cache metadata (ids are the writing shard's).
    pub meta: DocMeta,
    /// URL text.
    pub url: String,
    /// Logical clock of the last origin fetch/revalidation.
    pub fetched_at: u64,
    /// Body bytes.
    pub body: Bytes,
}

/// A point-in-time image of one cache shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index within the writing configuration.
    pub shard: u32,
    /// Total shard count of the writing configuration.
    pub nshards: u32,
    /// Snapshot generation (monotone across restarts).
    pub gen: u64,
    /// Highest journal sequence number covered by this snapshot; replay
    /// skips records at or below it.
    pub seq: u64,
    /// The proxy's logical clock at capture.
    pub now: u64,
    /// Per-shard capacity in bytes.
    pub capacity: u64,
    /// The shard cache's day counter.
    pub current_day: u64,
    /// Accumulated cache statistics.
    pub stats: CacheStats,
    /// Opaque policy rank state
    /// ([`RemovalPolicy::export_state`](webcache_core::policy::RemovalPolicy::export_state)).
    pub policy_state: Vec<u8>,
    /// Resident documents.
    pub docs: Vec<SnapshotDoc>,
}

fn snapshot_path(dir: &Path, shard: u32, gen: u64) -> PathBuf {
    dir.join(format!("shard-{shard}-g{gen}.wcs"))
}

fn push_doc_meta(out: &mut Vec<u8>, m: &DocMeta) {
    push_u32(out, m.url.0);
    out.push(doc_type_tag(m.doc_type));
    out.push(m.type_priority);
    push_u64(out, m.size);
    push_u64(out, m.entry_time);
    push_u64(out, m.last_access);
    push_u64(out, m.nrefs);
    push_opt_u64(out, m.expires);
    push_u64(out, m.refetch_latency_ms);
    push_opt_u64(out, m.last_modified);
}

fn read_doc_meta(cur: &mut Cursor) -> Result<DocMeta, BinError> {
    Ok(DocMeta {
        url: UrlId(cur.u32()?),
        doc_type: doc_type_from_tag(cur.take(1)?[0])?,
        type_priority: cur.take(1)?[0],
        size: cur.u64()?,
        entry_time: cur.u64()?,
        last_access: cur.u64()?,
        nrefs: cur.u64()?,
        expires: read_opt_u64(cur)?,
        refetch_latency_ms: cur.u64()?,
        last_modified: read_opt_u64(cur)?,
    })
}

fn push_stats(out: &mut Vec<u8>, s: &CacheStats) {
    push_u64(out, s.counts.requests);
    push_u64(out, s.counts.hits);
    push_u64(out, s.counts.bytes_requested);
    push_u64(out, s.counts.bytes_hit);
    push_u64(out, s.evictions);
    push_u64(out, s.evicted_bytes);
    push_u64(out, s.periodic_evictions);
    push_u64(out, s.modified_invalidations);
    push_u64(out, s.too_big);
    push_u64(out, s.max_used);
}

fn read_stats(cur: &mut Cursor) -> Result<CacheStats, BinError> {
    let mut s = CacheStats::default();
    s.counts.requests = cur.u64()?;
    s.counts.hits = cur.u64()?;
    s.counts.bytes_requested = cur.u64()?;
    s.counts.bytes_hit = cur.u64()?;
    s.evictions = cur.u64()?;
    s.evicted_bytes = cur.u64()?;
    s.periodic_evictions = cur.u64()?;
    s.modified_invalidations = cur.u64()?;
    s.too_big = cur.u64()?;
    s.max_used = cur.u64()?;
    Ok(s)
}

/// Stream a snapshot file into `out`: the magic, the header frame, then
/// one frame per document, each body written from the snapshot's own
/// `Bytes`.
fn write_snapshot(s: &ShardSnapshot, out: &mut impl Write) -> std::io::Result<()> {
    out.write_all(SNAPSHOT_MAGIC)?;
    let mut head = Vec::with_capacity(256);
    push_u32(&mut head, s.shard);
    push_u32(&mut head, s.nshards);
    push_u64(&mut head, s.gen);
    push_u64(&mut head, s.seq);
    push_u64(&mut head, s.now);
    push_u64(&mut head, s.capacity);
    push_u64(&mut head, s.current_day);
    push_stats(&mut head, &s.stats);
    push_u64(&mut head, s.docs.len() as u64);
    push_u64(&mut head, s.policy_state.len() as u64);
    write_frame(out, &head, &s.policy_state)?;
    for d in &s.docs {
        head.clear();
        push_doc_meta(&mut head, &d.meta);
        push_string(&mut head, &d.url);
        push_u64(&mut head, d.fetched_at);
        push_u64(&mut head, d.body.len() as u64);
        write_frame(out, &head, &d.body)?;
    }
    Ok(())
}

/// Write one frame whose payload is `head` followed by `tail`, each from
/// where it lies: the frame [`walk_frames`] reads.
fn write_frame(out: &mut impl Write, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
    let len = head.len() + tail.len();
    if len as u64 > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "snapshot frame larger than MAX_FRAME",
        ));
    }
    out.write_all(&(len as u32).to_le_bytes())?;
    out.write_all(head)?;
    out.write_all(tail)?;
    let mut h = Hasher64::new();
    h.update(head);
    h.update(tail);
    out.write_all(&h.finish().to_le_bytes())
}

/// Decode a header frame: the snapshot without its documents, and how
/// many documents it announces.
fn decode_snapshot_head(payload: &[u8]) -> Result<(ShardSnapshot, u64), BinError> {
    let mut cur = Cursor::new(payload);
    let mut snap = ShardSnapshot {
        shard: cur.u32()?,
        nshards: cur.u32()?,
        gen: cur.u64()?,
        seq: cur.u64()?,
        now: cur.u64()?,
        capacity: cur.u64()?,
        current_day: cur.u64()?,
        stats: read_stats(&mut cur)?,
        policy_state: Vec::new(),
        docs: Vec::new(),
    };
    let ndocs = cur.u64()?;
    let plen = cur.u64()?;
    snap.policy_state = cur
        .take(usize::try_from(plen).map_err(|_| BinError::Truncated)?)?
        .to_vec();
    if !cur.is_at_end() {
        return Err(BinError::TrailingBytes);
    }
    Ok((snap, ndocs))
}

/// Decode a document frame.
fn decode_snapshot_doc(payload: &[u8]) -> Result<SnapshotDoc, BinError> {
    let mut cur = Cursor::new(payload);
    let meta = read_doc_meta(&mut cur)?;
    let url = cur.string()?;
    let fetched_at = cur.u64()?;
    let blen = usize::try_from(cur.u64()?).map_err(|_| BinError::Truncated)?;
    let body = Bytes::copy_from_slice(cur.take(blen)?);
    if !cur.is_at_end() {
        return Err(BinError::TrailingBytes);
    }
    Ok(SnapshotDoc {
        meta,
        url,
        fetched_at,
        body,
    })
}

/// Write one shard snapshot, one file: the rename that puts it in place
/// is the commit point — a crash before it leaves the previous
/// generation as the newest valid snapshot.
pub fn write_shard_snapshot(dir: &Path, s: &ShardSnapshot) -> Result<(), PersistError> {
    write_shard_snapshot_hooked(dir, s, None).map(drop)
}

/// [`write_shard_snapshot`] with a disk-fault injection hook, consulted
/// once: an injected fault fails *before* the rename, exactly like a full
/// disk. Returns the length of the file written.
pub fn write_shard_snapshot_hooked(
    dir: &Path,
    s: &ShardSnapshot,
    hook: Option<&IoFaultInjector>,
) -> Result<u64, PersistError> {
    std::fs::create_dir_all(dir)?;
    if let Some(h) = hook {
        h.on_snapshot().map_err(PersistError::Io)?;
    }
    let path = snapshot_path(dir, s.shard, s.gen);
    Ok(write_atomic_with(&path, |w| write_snapshot(s, w))?)
}

/// Degraded-mode re-arm probe: write and fsync a scratch file in the
/// persist directory, through the injector's append/sync classes. A
/// success is evidence the disk accepts writes again; the caller then
/// takes a full snapshot (healing the journal gap) before trusting the
/// journal path.
pub fn probe_disk(dir: &Path, hook: Option<&IoFaultInjector>) -> Result<(), PersistError> {
    if let Some(h) = hook {
        match h.on_append() {
            Ok(None) => {}
            Ok(Some(_short)) => return Err(PersistError::Io(h.short_write_error())),
            Err(e) => return Err(PersistError::Io(e)),
        }
        h.on_sync().map_err(PersistError::Io)?;
    }
    let path = dir.join("probe.tmp");
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    f.write_all(b"webcache-probe")?;
    f.sync_all()?;
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Delete snapshot generations older than `keep_gen`, and what a version
/// before this one left that nothing reads: URL tables
/// (`interner-g{gen}.wci`, before D26) and body files
/// (`shard-{i}-g{gen}.wcsb`, before D27).
pub fn gc_old_generations(dir: &Path, nshards: u32, keep_gen: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (name.starts_with("interner-g") && name.ends_with(".wci"))
            || (name.starts_with("shard-") && name.ends_with(".wcsb"))
            || parse_gen_file(name).is_some_and(|(shard, gen)| gen < keep_gen && shard < nshards);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Parse a `shard-{i}-g{gen}.wcs` file name into shard and generation.
fn parse_gen_file(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".wcs")?;
    let (shard, gen) = rest.split_once("-g")?;
    Some((shard.parse().ok()?, gen.parse().ok()?))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// One shard recovered from its newest valid snapshot.
#[derive(Debug)]
pub struct RecoveredShard {
    /// The decoded snapshot; `docs` holds the documents before the first
    /// frame that failed (see [`recover`]).
    pub snap: ShardSnapshot,
    /// The header's document count minus the documents recovered: the
    /// document whose frame failed and every one after it. These become
    /// misses, never corrupt bytes.
    pub quarantined: u64,
}

/// Everything [`recover`] could salvage from a persistence directory.
#[derive(Debug, Default)]
pub struct RecoveredData {
    /// Per original shard index: the newest valid snapshot, or `None`
    /// (cold shard).
    pub shards: Vec<Option<RecoveredShard>>,
    /// Per original shard index: journal records in append order,
    /// *unfiltered* — the caller skips records with
    /// `seq <= snap.seq` of the matching shard. `valid_len` feeds
    /// [`JournalWriter::open_append`].
    pub journals: Vec<JournalRead>,
    /// Highest snapshot generation seen on disk (valid or not); the next
    /// snapshot round must use a larger one.
    pub max_gen: u64,
    /// Human-readable degradation notes (corrupt files, tears,
    /// quarantines) for the recovery log line.
    pub notes: Vec<String>,
}

/// Decode a snapshot file. Without its magic and an intact header frame
/// it is no snapshot (`Err`, with why). Documents are read up to the
/// first frame that is torn, fails its checksum, does not decode, carries
/// a body whose length is not its `DocMeta`'s size, or lies past the
/// header's count. Returns the snapshot, how many documents it announced
/// and did not deliver, and why the read stopped short, if it did.
fn read_snapshot(bytes: &[u8]) -> Result<(ShardSnapshot, u64, Option<String>), String> {
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err("not a snapshot (bad magic)".into());
    }
    let mut head: Option<(ShardSnapshot, u64)> = None;
    let (_, why) = walk_frames(bytes, SNAPSHOT_MAGIC.len(), |payload| {
        let Some((snap, ndocs)) = head.as_mut() else {
            let decoded = decode_snapshot_head(payload);
            head = Some(decoded.map_err(|e| format!("undecodable header ({e})"))?);
            return Ok(());
        };
        if snap.docs.len() as u64 == *ndocs {
            return Err("frame past the document count".into());
        }
        let doc =
            decode_snapshot_doc(payload).map_err(|e| format!("undecodable document ({e})"))?;
        if doc.body.len() as u64 != doc.meta.size {
            return Err(format!(
                "body of {} bytes where its DocMeta says {}",
                doc.body.len(),
                doc.meta.size
            ));
        }
        snap.docs.push(doc);
        Ok(())
    });
    let Some((snap, ndocs)) = head else {
        return Err(why.unwrap_or_else(|| "no header frame".into()));
    };
    let quarantined = ndocs - snap.docs.len() as u64;
    let why = why.or_else(|| (quarantined > 0).then(|| "file ends early".into()));
    Ok((snap, quarantined, why))
}

/// Load the newest valid snapshot for `shard`, trying older generations
/// when one is unreadable, not a snapshot, or names another shard/gen.
fn recover_shard(
    dir: &Path,
    shard: u32,
    mut gens: Vec<u64>,
    notes: &mut Vec<String>,
) -> Option<RecoveredShard> {
    gens.sort_unstable_by(|a, b| b.cmp(a));
    for gen in gens {
        let path = snapshot_path(dir, shard, gen);
        let read = std::fs::read(&path)
            .map_err(|e| format!("unreadable ({e})"))
            .and_then(|bytes| read_snapshot(&bytes).map_err(|e| format!("invalid ({e})")));
        let (snap, quarantined, why) = match read {
            Ok(read) if read.0.shard == shard && read.0.gen == gen => read,
            Ok(_) => {
                notes.push(format!("{}: names another shard/gen", path.display()));
                continue;
            }
            Err(e) => {
                notes.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        if let Some(why) = why {
            notes.push(format!(
                "{}: quarantined {quarantined} document(s) after the first {}: {why}",
                path.display(),
                snap.docs.len()
            ));
        }
        return Some(RecoveredShard { snap, quarantined });
    }
    None
}

/// Recover everything salvageable from `dir` for a proxy configured with
/// `nshards` shards: per shard, the newest generation whose magic and
/// header frame are intact, with its documents up to the first frame
/// that is torn, fails its checksum or disagrees with its own `DocMeta`
/// — that document and every later one are quarantined — and the
/// journal. Never fails: corruption only makes the result colder (and is
/// reported in [`RecoveredData::notes`]).
pub fn recover(dir: &Path, nshards: u32) -> RecoveredData {
    let mut out = RecoveredData {
        shards: (0..nshards).map(|_| None).collect(),
        journals: (0..nshards).map(|_| JournalRead::default()).collect(),
        ..RecoveredData::default()
    };
    // Enumerate generations per shard.
    let mut shard_gens: HashMap<u32, Vec<u64>> = HashMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((shard, gen)) = parse_gen_file(name) {
                out.max_gen = out.max_gen.max(gen);
                shard_gens.entry(shard).or_default().push(gen);
            }
        }
    }
    for shard in 0..nshards {
        if let Some(gens) = shard_gens.remove(&shard) {
            out.shards[shard as usize] = recover_shard(dir, shard, gens, &mut out.notes);
        }
        let jr = read_journal(dir, shard);
        if let Some(n) = &jr.note {
            // Copied, not taken: the per-journal note stays on the
            // `JournalRead` so callers can count truncated journals.
            out.notes.push(n.clone());
        }
        out.journals[shard as usize] = jr;
    }
    // A snapshot of a shard this configuration does not have is not
    // loaded: its documents are misses.
    for shard in shard_gens.keys() {
        out.notes.push(format!(
            "ignoring snapshot(s) for shard {shard} beyond the configured {nshards} shards"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::DocType;

    fn meta(id: u32, size: u64) -> DocMeta {
        DocMeta {
            url: UrlId(id),
            size,
            doc_type: DocType::Text,
            entry_time: 7,
            last_access: 9,
            nrefs: 3,
            expires: Some(1000),
            refetch_latency_ms: 12,
            type_priority: 2,
            last_modified: Some(55),
        }
    }

    fn snap(dir: &Path, gen: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard: 1,
            nshards: 4,
            gen,
            seq: 10,
            now: 99,
            capacity: 4096,
            current_day: 1,
            stats: CacheStats::default(),
            policy_state: vec![1, 2, 3],
            docs: vec![
                SnapshotDoc {
                    meta: meta(5, 3),
                    url: "http://a/x".into(),
                    fetched_at: 90,
                    body: Bytes::copy_from_slice(b"abc"),
                },
                SnapshotDoc {
                    meta: meta(9, 5),
                    url: "http://b/y".into(),
                    fetched_at: 91,
                    body: Bytes::copy_from_slice(b"hello"),
                },
                SnapshotDoc {
                    meta: meta(2, 10),
                    url: "http://c/z".into(),
                    fetched_at: 92,
                    body: Bytes::copy_from_slice(b"wide world"),
                },
            ],
        }
        .tap_write(dir)
    }

    trait TapWrite {
        fn tap_write(self, dir: &Path) -> Self;
    }
    impl TapWrite for ShardSnapshot {
        fn tap_write(self, dir: &Path) -> Self {
            write_shard_snapshot(dir, &self).expect("write snapshot");
            self
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wcp_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmp("snap_rt");
        let s = snap(&dir, 3);
        let rec = recover(&dir, 4);
        let got = rec.shards[1].as_ref().expect("shard 1 recovered");
        assert_eq!(got.quarantined, 0);
        assert_eq!(got.snap, s);
        assert!(rec.shards[0].is_none());
        assert_eq!(rec.max_gen, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip the first byte of `needle` in shard 1's generation-`gen` file.
    fn flip(dir: &Path, gen: u64, needle: &[u8]) {
        let path = snapshot_path(dir, 1, gen);
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present");
        bytes[pos] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
    }

    #[test]
    fn corrupt_body_quarantines_only_that_doc() {
        // The last document's body: no document comes after it.
        let dir = tmp("snap_quarantine");
        let s = snap(&dir, 1);
        flip(&dir, 1, b"wide world");
        let rec = recover(&dir, 4);
        let got = rec.shards[1].as_ref().expect("recovered");
        assert_eq!(got.quarantined, 1);
        assert_eq!(got.snap.docs, s.docs[..2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_frame_quarantines_its_document_and_every_later_one() {
        // A flipped byte in the second of three bodies, and a second body
        // whose length is not the size its `DocMeta` records.
        let (flipped, lying) = (tmp("snap_flipped"), tmp("snap_lying"));
        let s = snap(&flipped, 1);
        flip(&flipped, 1, b"hello");
        let mut liar = s.clone();
        liar.docs[1].meta.size = 4;
        write_shard_snapshot(&lying, &liar).expect("write snapshot");
        for dir in [flipped, lying] {
            let rec = recover(&dir, 4);
            let got = rec.shards[1].as_ref().expect("recovered");
            assert_eq!(got.quarantined, 2, "{}", dir.display());
            assert_eq!(got.snap.docs, s.docs[..1], "{}", dir.display());
            assert!(
                rec.notes.iter().any(|n| n.contains("quarantined 2")),
                "{:?}",
                rec.notes
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_header_claiming_2_pow_40_documents_recovers_what_is_there() {
        let dir = tmp("snap_claim");
        let s = snap(&dir, 1);
        let path = snapshot_path(&dir, 1, 1);
        let mut bytes = std::fs::read(&path).expect("read");
        assert!(bytes.len() < 1024);
        // The header frame follows the magic; its document count follows
        // shard and nshards, five u64s and ten words of stats. Re-sum it.
        let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        let count = 8 + 4 + 4 + 5 * 8 + 10 * 8;
        bytes[count..count + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let sum = checksum(&bytes[8..8 + len]);
        bytes[8 + len..16 + len].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let rec = recover(&dir, 4);
        let got = rec.shards[1].as_ref().expect("recovered");
        assert_eq!(got.snap.docs, s.docs);
        assert_eq!(got.quarantined, (1 << 40) - 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_meta_falls_back_to_older_generation() {
        let dir = tmp("snap_fallback");
        let old = snap(&dir, 1);
        // Generation 2's header frame fails its checksum; generation 3 is
        // a `.wcs` in the container format before D27.
        let _new = snap(&dir, 2);
        let sp = snapshot_path(&dir, 1, 2);
        let mut bytes = std::fs::read(&sp).expect("read");
        bytes[12] ^= 0x40;
        std::fs::write(&sp, &bytes).expect("rewrite");
        std::fs::write(snapshot_path(&dir, 1, 3), b"WCP\x01\x01\x00\x00\x00").expect("write");
        let rec = recover(&dir, 4);
        let got = rec.shards[1].as_ref().expect("recovered");
        assert_eq!(got.snap.gen, 1);
        assert_eq!(got.snap, old);
        assert_eq!(rec.notes.len(), 2, "{:?}", rec.notes);
        assert_eq!(rec.max_gen, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_round_trip_and_torn_tail() {
        let dir = tmp("journal");
        let ops = vec![
            (
                1,
                JournalOp::Insert {
                    old_id: 4,
                    url: "http://a/x".into(),
                    now: 10,
                    size: 3,
                    doc_type: DocType::Graphics,
                    last_modified: None,
                    fetched_at: 10,
                    body: Bytes::copy_from_slice(b"abc"),
                },
            ),
            (
                2,
                JournalOp::Touch {
                    old_id: 4,
                    now: 11,
                    size: 3,
                },
            ),
            (3, JournalOp::Evict { old_id: 4 }),
            (
                4,
                JournalOp::Refresh {
                    old_id: 4,
                    fetched_at: 12,
                },
            ),
        ];
        let mut w = JournalWriter::create(&dir, 2).expect("create");
        w.append(&ops).expect("append");
        w.sync().expect("sync");
        let got = read_journal(&dir, 2);
        assert!(got.note.is_none(), "{:?}", got.note);
        assert_eq!(got.ops, ops);

        // Chop bytes off the tail: replay returns a prefix, never errors.
        let path = journal_path(&dir, 2);
        let full = std::fs::read(&path).expect("read");
        assert_eq!(got.valid_len, full.len() as u64);
        for cut in 1..full.len().min(40) {
            std::fs::write(&path, &full[..full.len() - cut]).expect("write");
            let prefix = read_journal(&dir, 2);
            assert!(prefix.ops.len() <= ops.len());
            assert_eq!(prefix.ops, ops[..prefix.ops.len()]);
            assert!(prefix.valid_len as usize <= full.len() - cut);
        }

        // Appending after a torn tail truncates the tear and the new
        // records read back alongside the intact prefix. The continuation
        // sequence is exactly what `start_persistent` computes:
        // max surviving seq + 1, keeping the file contiguous.
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let torn = read_journal(&dir, 2);
        assert_eq!(torn.ops.len(), ops.len() - 1);
        let mut w = JournalWriter::open_append(&dir, 2, torn.valid_len).expect("open_append");
        let extra = (4, JournalOp::Evict { old_id: 77 });
        w.append(std::slice::from_ref(&extra)).expect("append");
        w.sync().expect("sync");
        let merged = read_journal(&dir, 2);
        assert!(merged.note.is_none(), "{:?}", merged.note);
        assert_eq!(merged.ops.len(), ops.len());
        assert_eq!(merged.ops[ops.len() - 1], extra);

        // Rotation empties it.
        std::fs::write(&path, &full).expect("restore");
        let mut w = JournalWriter::over(
            OpenOptions::new().write(true).open(&path).expect("open"),
            path.clone(),
        );
        w.rotate().expect("rotate");
        let after = read_journal(&dir, 2);
        assert!(after.ops.is_empty());
        assert!(after.note.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_truncates_replay() {
        // Records 1,2 then 4 (3 was lost before reaching the disk, e.g.
        // drop-oldest under a stalled persister): replay must stop at 2,
        // or a lost update could be resurrected as fresh.
        let dir = tmp("journal_gap");
        let op = |seq: u64| {
            (
                seq,
                JournalOp::Touch {
                    old_id: 1,
                    now: seq,
                    size: 3,
                },
            )
        };
        let mut w = JournalWriter::create(&dir, 0).expect("create");
        w.append(&[op(1), op(2), op(4), op(5)]).expect("append");
        w.sync().expect("sync");
        let got = read_journal(&dir, 0);
        assert_eq!(got.ops, vec![op(1), op(2)]);
        let note = got.note.expect("gap must be noted");
        assert!(note.contains("sequence gap"), "{note}");
        // open_append truncates at the gap; the continuation seq (3)
        // keeps the file contiguous and fully replayable.
        let mut w = JournalWriter::open_append(&dir, 0, got.valid_len).expect("open_append");
        w.append(&[op(3)]).expect("append");
        w.sync().expect("sync");
        let merged = read_journal(&dir, 0);
        assert!(merged.note.is_none(), "{:?}", merged.note);
        assert_eq!(merged.ops, vec![op(1), op(2), op(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_tears_like_a_crash() {
        use crate::iofault::{IoFaultInjector, IoFaultPlan};
        let dir = tmp("journal_short");
        let op = |seq: u64| {
            (
                seq,
                JournalOp::Touch {
                    old_id: 9,
                    now: seq,
                    size: 7,
                },
            )
        };
        let mut w = JournalWriter::create(&dir, 0)
            .expect("create")
            .with_hook(Some(Arc::new(IoFaultInjector::new(
                // Op 0 passes clean, op 1 short-writes.
                IoFaultPlan::new(5).short_write(1.0).active_range(1, 2),
            ))));
        w.append(&[op(1)]).expect("clean append");
        let err = w.append(&[op(2)]).expect_err("short write must fail");
        assert!(matches!(err, PersistError::Io(_)));
        w.sync().expect("sync");
        // The file really is torn: record 1 survives, the half-written
        // record 2 reads as a tear, not as data.
        let got = read_journal(&dir, 0);
        assert_eq!(got.ops, vec![op(1)]);
        assert!(got.note.expect("tear noted").contains("torn"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_fault_keeps_previous_generation() {
        use crate::iofault::{IoFaultInjector, IoFaultPlan};
        let dir = tmp("snap_fault");
        let mut s = snap(&dir, 1);
        // The first snapshot-class write passes, every later one fails.
        let plan = IoFaultPlan::new(3).snapshot_error(1.0);
        let inj = IoFaultInjector::new(plan.active_range(1, u64::MAX));
        s.gen = 2;
        write_shard_snapshot_hooked(&dir, &s, Some(&inj)).expect("write snapshot");
        assert_eq!(inj.ops(), 1, "one consultation per shard snapshot");
        let good = s.clone();
        s.gen = 3;
        assert!(write_shard_snapshot_hooked(&dir, &s, Some(&inj)).is_err());
        // One file per shard and generation, and nothing of the failed one.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("list")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["shard-1-g1.wcs", "shard-1-g2.wcs"]);
        let rec = recover(&dir, 4);
        assert_eq!(rec.shards[1].as_ref().expect("recovered").snap, good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_probe_reports_injected_faults() {
        use crate::iofault::{IoFaultInjector, IoFaultPlan};
        let dir = tmp("probe");
        assert!(probe_disk(&dir, None).is_ok());
        let faulty = IoFaultInjector::new(IoFaultPlan::new(1).append_error(1.0));
        assert!(probe_disk(&dir, Some(&faulty)).is_err());
        let healthy = IoFaultInjector::new(IoFaultPlan::new(1));
        assert!(probe_disk(&dir, Some(&healthy)).is_ok());
        assert!(!dir.join("probe.tmp").exists(), "probe cleans up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
