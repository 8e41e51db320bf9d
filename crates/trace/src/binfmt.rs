//! Compact binary trace format (`.wct`), for ingest that keeps up with the
//! simulation engine.
//!
//! Re-parsing CLF text costs a tokenizer pass, a time sort and a full
//! validation replay on every experiment run. A packed trace stores the
//! *validated* requests — fixed-width little-endian records over interned
//! ids — plus the interner string table, so loading is a straight decode
//! with no parsing, sorting or re-validation. Files are written by
//! [`save`]/[`write_trace`] (and the `trace-pack` CLI) and loaded by
//! [`load`], which memory-maps the file (`memmap2`) and falls back to a
//! buffered read if mapping fails; [`read_trace`] decodes any byte slice.
//!
//! ## Layout (version 2, all integers little-endian)
//!
//! ```text
//! offset size  field
//!      0    4  magic  b"WCT\x01"
//!      4    2  format version (2)
//!      6    2  flags (0)
//!      8    8  request count          (u64)
//!     16    4  unique URL count       (u32)
//!     20    4  unique server count    (u32)
//!     24    4  unique client count    (u32)
//!     28    4  trace name length      (u32)
//!     32   48  ValidationStats: accepted, dropped_not_ok,
//!              dropped_zero_unseen, assigned_last_known,
//!              size_changes, rereferences (6 × u64)
//!     80    n  trace name (UTF-8), padded to the next 8-byte boundary
//!          40  × request count: fixed-width request records
//!              time u64 | url u32 | client u32 | server u32 |
//!              doc_type u8 | has_last_modified u8 | pad u16 |
//!              size u64 | last_modified u64
//!           …  string tables: URLs, then servers, then clients;
//!              each string is u32 length + UTF-8 bytes, in id order
//!          40  checksum footer:
//!              magic b"WCTS" | reserved u32 (0) |
//!              header, name, records, tables checksums (4 × u64)
//! ```
//!
//! Records sit at an 8-byte-aligned offset so a memory-mapped file can be
//! scanned with aligned loads; decoding nevertheless uses explicit
//! little-endian byte reads, so any alignment (and any host endianness)
//! is correct.
//!
//! ## Integrity
//!
//! The file ends in a fixed-size footer carrying one checksum per file
//! section (fixed header, padded name, request records, string tables),
//! computed by [`checksum`] — a word-at-a-time FNV-1a variant that also
//! absorbs the section length. [`read_trace`] verifies every section
//! *before* decoding a single record, so a flipped bit anywhere in the
//! file surfaces as [`BinError::ChecksumMismatch`] rather than a silently
//! wrong trace, and a truncated file fails the footer check (or the
//! strict no-trailing-bytes check) instead of yielding a short trace.
//! Any other version, the footer-less version 1 included, is
//! [`BinError::BadVersion`]. [`save`] writes through a sibling temporary
//! file and renames it into place, so a killed run never leaves a
//! half-written `.wct` behind.

use crate::record::{ClientId, DocType, Interner, Request, ServerId, UrlId};
use crate::stream::Trace;
use crate::validate::ValidationStats;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// File magic: "WCT" + format generation byte.
pub const MAGIC: [u8; 4] = *b"WCT\x01";
/// Format version, the only one [`write_trace`] writes and [`read_trace`]
/// reads.
pub const VERSION: u16 = 2;
/// Size of one fixed-width request record in bytes.
pub const RECORD_SIZE: usize = 40;
/// Size of the fixed header in bytes (before the trace name).
pub const HEADER_SIZE: usize = 80;
/// Checksum footer magic.
pub const FOOTER_MAGIC: [u8; 4] = *b"WCTS";
/// Size of the checksum footer in bytes.
pub const FOOTER_SIZE: usize = 40;

/// Streaming checksum over a byte section: FNV-1a over little-endian
/// 64-bit words (with a zero-padded tail word), finished by absorbing the
/// section length so `"ab\0"` and `"ab"` differ. Word-at-a-time keeps
/// verification far cheaper than byte-wise FNV on multi-hundred-megabyte
/// packs while still catching any single-bit corruption.
#[derive(Debug, Clone)]
pub struct Hasher64 {
    state: u64,
    pending: [u8; 8],
    npend: usize,
    len: u64,
}

impl Hasher64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher.
    pub fn new() -> Hasher64 {
        Hasher64 {
            state: Self::OFFSET,
            pending: [0u8; 8],
            npend: 0,
            len: 0,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.state ^= word;
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    /// Feed more bytes; sections may be fed in chunks of any size.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.npend > 0 {
            let take = (8 - self.npend).min(bytes.len());
            self.pending[self.npend..self.npend + take].copy_from_slice(&bytes[..take]);
            self.npend += take;
            bytes = &bytes[take..];
            if self.npend == 8 {
                self.absorb(u64::from_le_bytes(self.pending));
                self.npend = 0;
            } else {
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.absorb(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.npend = rem.len();
    }

    /// Final checksum value.
    pub fn finish(mut self) -> u64 {
        if self.npend > 0 {
            for b in &mut self.pending[self.npend..] {
                *b = 0;
            }
            let w = u64::from_le_bytes(self.pending);
            self.absorb(w);
        }
        let len = self.len;
        self.absorb(len);
        self.state
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::new()
    }
}

/// One-shot [`Hasher64`] over a byte slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Hasher64::new();
    h.update(bytes);
    h.finish()
}

/// Error decoding a packed trace.
#[derive(Debug)]
pub enum BinError {
    /// The buffer does not start with the `.wct` magic.
    BadMagic,
    /// The format version is not [`VERSION`].
    BadVersion(u16),
    /// The buffer ended before the announced contents.
    Truncated,
    /// A string table entry or the trace name was not valid UTF-8.
    BadUtf8,
    /// A request record carried an unknown document-type tag.
    BadDocType(u8),
    /// A request record referenced an id beyond its string table.
    BadId(u32),
    /// The checksum footer is missing or malformed.
    BadFooter,
    /// A section's stored checksum disagrees with its contents.
    ChecksumMismatch(&'static str),
    /// The buffer continues past the announced contents.
    TrailingBytes,
    /// Underlying I/O failure while reading the file.
    Io(io::Error),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a packed trace (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported packed-trace version {v}"),
            BinError::Truncated => write!(f, "packed trace is truncated"),
            BinError::BadUtf8 => write!(f, "packed trace contains invalid UTF-8"),
            BinError::BadDocType(t) => write!(f, "unknown document-type tag {t}"),
            BinError::BadId(id) => write!(f, "record references out-of-table id {id}"),
            BinError::BadFooter => write!(f, "packed trace checksum footer is malformed"),
            BinError::ChecksumMismatch(section) => {
                write!(f, "packed trace {section} section fails its checksum")
            }
            BinError::TrailingBytes => write!(f, "packed trace has trailing bytes"),
            BinError::Io(e) => write!(f, "i/o error reading packed trace: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Stable wire tag of a document type (its index in [`DocType::ALL`]).
/// Public so other binary formats (the proxy's `.wcs` snapshots and
/// `.wcj` journals) share one tag space with the packed trace format.
pub fn doc_type_tag(t: DocType) -> u8 {
    DocType::ALL
        .iter()
        .position(|&d| d == t)
        .expect("DocType::ALL covers every variant") as u8
}

/// Decode a wire tag back into a document type.
pub fn doc_type_from_tag(tag: u8) -> Result<DocType, BinError> {
    DocType::ALL
        .get(tag as usize)
        .copied()
        .ok_or(BinError::BadDocType(tag))
}

/// Encode one request as its fixed-width wire record.
fn encode_record(r: &Request, rec: &mut [u8; RECORD_SIZE]) {
    rec[0..8].copy_from_slice(&r.time.to_le_bytes());
    rec[8..12].copy_from_slice(&r.url.0.to_le_bytes());
    rec[12..16].copy_from_slice(&r.client.0.to_le_bytes());
    rec[16..20].copy_from_slice(&r.server.0.to_le_bytes());
    rec[20] = doc_type_tag(r.doc_type);
    rec[21] = r.last_modified.is_some() as u8;
    rec[22..24].copy_from_slice(&[0u8; 2]);
    rec[24..32].copy_from_slice(&r.size.to_le_bytes());
    rec[32..40].copy_from_slice(&r.last_modified.unwrap_or(0).to_le_bytes());
}

/// Serialise a trace into the packed format (version 2, checksummed).
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let name = trace.name.as_bytes();
    let mut header = [0u8; HEADER_SIZE];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    // flags at 6..8 stay zero.
    header[8..16].copy_from_slice(&(trace.requests.len() as u64).to_le_bytes());
    header[16..20].copy_from_slice(&(trace.interner.url_count() as u32).to_le_bytes());
    header[20..24].copy_from_slice(&(trace.interner.server_count() as u32).to_le_bytes());
    header[24..28].copy_from_slice(&(trace.interner.client_count() as u32).to_le_bytes());
    header[28..32].copy_from_slice(&(name.len() as u32).to_le_bytes());
    let v = &trace.validation;
    for (i, field) in [
        v.accepted,
        v.dropped_not_ok,
        v.dropped_zero_unseen,
        v.assigned_last_known,
        v.size_changes,
        v.rereferences,
    ]
    .into_iter()
    .enumerate()
    {
        header[32 + i * 8..40 + i * 8].copy_from_slice(&field.to_le_bytes());
    }
    let header_ck = checksum(&header);
    w.write_all(&header)?;

    let pad = (8 - (HEADER_SIZE + name.len()) % 8) % 8;
    let mut name_h = Hasher64::new();
    name_h.update(name);
    name_h.update(&[0u8; 8][..pad]);
    let name_ck = name_h.finish();
    w.write_all(name)?;
    w.write_all(&[0u8; 8][..pad])?;

    let mut rec_h = Hasher64::new();
    let mut rec = [0u8; RECORD_SIZE];
    for r in &trace.requests {
        encode_record(r, &mut rec);
        rec_h.update(&rec);
        w.write_all(&rec)?;
    }
    let records_ck = rec_h.finish();

    fn write_table<'a, W: Write>(
        w: &mut W,
        h: &mut Hasher64,
        table: impl Iterator<Item = Option<&'a str>>,
    ) -> io::Result<()> {
        for s in table {
            let s = s
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "interner id table has a hole")
                })?
                .as_bytes();
            let len = (s.len() as u32).to_le_bytes();
            h.update(&len);
            h.update(s);
            w.write_all(&len)?;
            w.write_all(s)?;
        }
        Ok(())
    }
    let mut tab_h = Hasher64::new();
    let i = &trace.interner;
    write_table(
        w,
        &mut tab_h,
        (0..i.url_count()).map(|n| i.url_text(UrlId(n as u32))),
    )?;
    write_table(
        w,
        &mut tab_h,
        (0..i.server_count()).map(|n| i.server_text(ServerId(n as u32))),
    )?;
    write_table(
        w,
        &mut tab_h,
        (0..i.client_count()).map(|n| i.client_text(ClientId(n as u32))),
    )?;
    let tables_ck = tab_h.finish();

    let mut footer = [0u8; FOOTER_SIZE];
    footer[0..4].copy_from_slice(&FOOTER_MAGIC);
    // reserved u32 at 4..8 stays zero (and is verified on load).
    footer[8..16].copy_from_slice(&header_ck.to_le_bytes());
    footer[16..24].copy_from_slice(&name_ck.to_le_bytes());
    footer[24..32].copy_from_slice(&records_ck.to_le_bytes());
    footer[32..40].copy_from_slice(&tables_ck.to_le_bytes());
    w.write_all(&footer)
}

/// Serialise a trace into an owned packed buffer.
pub fn to_bytes(trace: &Trace) -> io::Result<Vec<u8>> {
    let mut out =
        Vec::with_capacity(HEADER_SIZE + trace.requests.len() * RECORD_SIZE + FOOTER_SIZE);
    write_trace(trace, &mut out)?;
    Ok(out)
}

/// Write `bytes` to `path` atomically: a same-directory temporary file is
/// written, flushed, fsynced, and renamed into place, so a crashed or
/// killed run leaves either the previous complete file or the new one —
/// never a torn write. This is the workspace's single crash-discipline
/// helper, shared by packed traces ([`save`]), the proxy's snapshot files
/// (through [`write_atomic_with`]) and the experiments runner's result
/// JSON.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes)).map(drop)
}

/// [`write_atomic`] for a file too large to build in memory first: `fill`
/// streams the contents through a buffered writer into the temporary
/// file; the flush, fsync and rename follow as they do there. Returns the
/// length of the file written.
pub fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        // Wide enough that documents of the paper's mean size (11 KB)
        // are gathered rather than written one by one: a snapshot of
        // 3000 of them took 55 ms through the default 8 KiB, 43 ms so.
        let mut w = BufWriter::with_capacity(256 << 10, File::create(&tmp)?);
        fill(&mut w)?;
        let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        f.sync_all()?;
        let len = f.metadata()?.len();
        std::fs::rename(&tmp, path)?;
        Ok(len)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Write a trace to `path` atomically (via [`write_atomic`]), so a
/// crashed or killed run never leaves a truncated `.wct` where a good one
/// (or nothing) should be.
pub fn save(trace: &Trace, path: &Path) -> io::Result<()> {
    write_atomic(path, &to_bytes(trace)?)
}

/// Byte-slice reader with explicit little-endian decoding. Every read is
/// bounds-checked and fails as [`BinError::Truncated`] rather than
/// panicking; used by the packed-trace decoder and by the proxy's
/// snapshot and journal decoders.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(BinError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, BinError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u32` length prefix followed by that many UTF-8 bytes.
    pub fn string(&mut self) -> Result<String, BinError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinError::BadUtf8)
    }
}

/// Little-endian u64 at a fixed offset of a slice already known to be
/// long enough.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let b = &bytes[at..at + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Verify the checksum footer against the body's sections.
/// Section boundaries are recomputed from the (already header-checksummed)
/// counts, with every arithmetic step bounds-checked, so a corrupted count
/// reads as a checksum or truncation error, never an out-of-range slice.
fn verify_footer(body: &[u8], footer: &[u8]) -> Result<(), BinError> {
    if footer[0..4] != FOOTER_MAGIC || footer[4..8] != [0u8; 4] {
        return Err(BinError::BadFooter);
    }
    if body.len() < HEADER_SIZE {
        return Err(BinError::Truncated);
    }
    if checksum(&body[..HEADER_SIZE]) != le_u64(footer, 8) {
        return Err(BinError::ChecksumMismatch("header"));
    }
    let n_requests = le_u64(body, 8) as usize;
    let name_len = u32::from_le_bytes([body[28], body[29], body[30], body[31]]) as usize;
    let pad = (8 - (HEADER_SIZE + name_len) % 8) % 8;
    let rec_start = HEADER_SIZE
        .checked_add(name_len)
        .and_then(|v| v.checked_add(pad))
        .ok_or(BinError::Truncated)?;
    let rec_end = n_requests
        .checked_mul(RECORD_SIZE)
        .and_then(|v| v.checked_add(rec_start))
        .ok_or(BinError::Truncated)?;
    if rec_end > body.len() || rec_start > body.len() {
        return Err(BinError::Truncated);
    }
    if checksum(&body[HEADER_SIZE..rec_start]) != le_u64(footer, 16) {
        return Err(BinError::ChecksumMismatch("name"));
    }
    if checksum(&body[rec_start..rec_end]) != le_u64(footer, 24) {
        return Err(BinError::ChecksumMismatch("records"));
    }
    if checksum(&body[rec_end..]) != le_u64(footer, 32) {
        return Err(BinError::ChecksumMismatch("string tables"));
    }
    Ok(())
}

/// Decode a packed trace from a byte slice (a memory map or an owned
/// buffer read from disk), every section verified against the checksum
/// footer before any record is decoded.
pub fn read_trace(bytes: &[u8]) -> Result<Trace, BinError> {
    if bytes.len() < 8 {
        return Err(BinError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(BinError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(BinError::BadVersion(version));
    }
    let body_len = bytes
        .len()
        .checked_sub(FOOTER_SIZE)
        .ok_or(BinError::Truncated)?;
    let (body, footer) = bytes.split_at(body_len);
    verify_footer(body, footer)?;
    read_body(body)
}

/// Decode the checksum-free portion of a packed trace (header through
/// string tables), requiring the buffer to end exactly where the
/// announced contents do. Magic and version are [`read_trace`]'s.
fn read_body(bytes: &[u8]) -> Result<Trace, BinError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let _magic_version_flags = c.take(8)?;
    let n_requests = c.u64()? as usize;
    let n_urls = c.u32()?;
    let n_servers = c.u32()?;
    let n_clients = c.u32()?;
    let name_len = c.u32()? as usize;
    let validation = ValidationStats {
        accepted: c.u64()?,
        dropped_not_ok: c.u64()?,
        dropped_zero_unseen: c.u64()?,
        assigned_last_known: c.u64()?,
        size_changes: c.u64()?,
        rereferences: c.u64()?,
    };
    let name = String::from_utf8(c.take(name_len)?.to_vec()).map_err(|_| BinError::BadUtf8)?;
    let pad = (8 - (HEADER_SIZE + name_len) % 8) % 8;
    c.take(pad)?;

    let record_bytes = n_requests
        .checked_mul(RECORD_SIZE)
        .ok_or(BinError::Truncated)?;
    let records = c.take(record_bytes)?;
    let mut requests = Vec::with_capacity(n_requests);
    for rec in records.chunks_exact(RECORD_SIZE) {
        let url = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
        let client = u32::from_le_bytes([rec[12], rec[13], rec[14], rec[15]]);
        let server = u32::from_le_bytes([rec[16], rec[17], rec[18], rec[19]]);
        if url >= n_urls {
            return Err(BinError::BadId(url));
        }
        if server >= n_servers {
            return Err(BinError::BadId(server));
        }
        if client >= n_clients {
            return Err(BinError::BadId(client));
        }
        let has_lm = rec[21] != 0;
        requests.push(Request {
            time: le_u64(rec, 0),
            client: ClientId(client),
            server: ServerId(server),
            url: UrlId(url),
            size: le_u64(rec, 24),
            doc_type: doc_type_from_tag(rec[20])?,
            last_modified: has_lm.then(|| le_u64(rec, 32)),
        });
    }

    let mut read_table =
        |n: u32| -> Result<Vec<String>, BinError> { (0..n).map(|_| c.string()).collect() };
    let urls = read_table(n_urls)?;
    let servers = read_table(n_servers)?;
    let clients = read_table(n_clients)?;
    if c.pos != bytes.len() {
        return Err(BinError::TrailingBytes);
    }
    Ok(Trace {
        name,
        requests,
        interner: Interner::from_parts(urls, servers, clients),
        validation,
    })
}

/// Load a packed trace from `path`, memory-mapping the file when possible
/// and falling back to a buffered read when mapping fails.
pub fn load(path: &Path) -> Result<Trace, BinError> {
    let file = File::open(path)?;
    // Safety: the map is read immediately and dropped before returning;
    // the usual memmap caveat (no concurrent truncation) applies only for
    // the duration of the decode.
    match unsafe { memmap2::Mmap::map(&file) } {
        Ok(map) => read_trace(&map),
        Err(_) => {
            let mut buf = Vec::new();
            io::BufReader::new(file).read_to_end(&mut buf)?;
            read_trace(&buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RawRequest;

    fn sample_trace() -> Trace {
        let raws = vec![
            RawRequest {
                time: 5,
                client: "c1.example".into(),
                url: "http://a.example/x.gif".into(),
                status: 200,
                size: 120,
                last_modified: Some(2),
            },
            RawRequest {
                time: 9,
                client: "c2.example".into(),
                url: "http://b.example/y.html".into(),
                status: 200,
                size: 999,
                last_modified: None,
            },
            RawRequest {
                time: 11,
                client: "c1.example".into(),
                url: "http://a.example/x.gif".into(),
                status: 200,
                size: 0, // assigned last-known size by validation
                last_modified: None,
            },
            RawRequest {
                time: 12,
                client: "c1.example".into(),
                url: "http://a.example/x.gif".into(),
                status: 404, // dropped, but counted in validation stats
                size: 0,
                last_modified: None,
            },
        ];
        Trace::from_raw("sample", &raws)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let t = sample_trace();
        let bytes = to_bytes(&t).unwrap();
        let back = read_trace(&bytes).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.requests, t.requests);
        assert_eq!(back.validation, t.validation);
        assert_eq!(back.interner.url_count(), t.interner.url_count());
        for i in 0..t.interner.url_count() {
            let id = UrlId(i as u32);
            assert_eq!(back.interner.url_text(id), t.interner.url_text(id));
        }
        for i in 0..t.interner.client_count() {
            let id = ClientId(i as u32);
            assert_eq!(back.interner.client_text(id), t.interner.client_text(id));
        }
        // The rebuilt index maps resolve text back to the same ids.
        let mut interner = back.interner.clone();
        let id = interner.url("http://a.example/x.gif");
        assert_eq!(Some("http://a.example/x.gif"), interner.url_text(id));
        assert_eq!(interner.url_count(), back.interner.url_count());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::from_raw("empty", &[]);
        let back = read_trace(&to_bytes(&t).unwrap()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name, "empty");
    }

    #[test]
    fn save_and_mmap_load_round_trip() {
        let t = sample_trace();
        let path = std::env::temp_dir().join(format!("wct_test_{}.wct", std::process::id()));
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.requests, t.requests);
        assert_eq!(back.validation, t.validation);
        std::fs::remove_file(&path).unwrap();
    }

    /// First record offset for the sample trace's padded name.
    fn rec_start(t: &Trace) -> usize {
        let name_len = t.name.len();
        HEADER_SIZE + name_len + (8 - (HEADER_SIZE + name_len) % 8) % 8
    }

    #[test]
    fn rejects_corrupt_input() {
        let t = sample_trace();
        let bytes = to_bytes(&t).unwrap();
        assert!(matches!(read_trace(&[]), Err(BinError::Truncated)));
        assert!(matches!(
            read_trace(b"NOPE\x01\x00\x00\x00"),
            Err(BinError::BadMagic)
        ));
        for version in [1, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[4] = version;
            assert!(matches!(
                read_trace(&wrong_version),
                Err(BinError::BadVersion(v)) if v == version as u16
            ));
        }
        // Truncation shifts the footer window: the footer check fails.
        let truncated = &bytes[..bytes.len() - 3];
        assert!(read_trace(truncated).is_err());
        // Any in-section corruption is a checksum mismatch, caught before
        // a single record is decoded.
        let start = rec_start(&t);
        let mut bad_tag = bytes.clone();
        bad_tag[start + 20] = 200;
        assert!(matches!(
            read_trace(&bad_tag),
            Err(BinError::ChecksumMismatch("records"))
        ));
        let mut bad_name = bytes.clone();
        bad_name[HEADER_SIZE] ^= 0x40;
        assert!(matches!(
            read_trace(&bad_name),
            Err(BinError::ChecksumMismatch("name"))
        ));
        let mut bad_count = bytes.clone();
        bad_count[8] ^= 0x01;
        assert!(matches!(
            read_trace(&bad_count),
            Err(BinError::ChecksumMismatch("header"))
        ));
        // Corruption of the footer itself is equally fatal.
        let mut bad_footer = bytes.clone();
        let flen = bad_footer.len();
        bad_footer[flen - 39] ^= 0xFF; // reserved bytes must be zero
        assert!(matches!(read_trace(&bad_footer), Err(BinError::BadFooter)));
        // Trailing garbage cannot hide after the footer.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(read_trace(&trailing).is_err());
    }

    #[test]
    fn checksum_distinguishes_length_and_padding() {
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // Chunked feeding matches one-shot hashing.
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let mut h = Hasher64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), checksum(&data));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("wct_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.wct");
        save(&t, &path).unwrap();
        assert_eq!(
            read_trace(&std::fs::read(&path).unwrap()).unwrap().requests,
            t.requests
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
