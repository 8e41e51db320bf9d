//! Common Log Format (CLF) reading and writing.
//!
//! Workloads U, G and C in the paper come from CERN proxy logs, and the
//! tcpdump-derived BR/BL workloads were converted into "common log format
//! ... augmented by additional fields" so that standard analysis tools would
//! work on them. This module implements the same interchange:
//!
//! ```text
//! remotehost ident authuser [dd/Mon/yyyy:HH:MM:SS +0000] "GET url HTTP/1.0" status bytes
//! ```
//!
//! plus an optional trailing `last-modified=<epoch-seconds>` extension field
//! mirroring the augmented logs used for BR/BL.
//!
//! Timestamps inside one log file are converted to seconds relative to a
//! caller-supplied epoch so that simulation always works in trace-relative
//! time.
//!
//! Parsing is byte-level and zero-allocation: [`parse_line_bytes`]
//! tokenizes a `&[u8]` line into a borrowed
//! [`RawRequestRef`] whose text fields point
//! into the input buffer, so a whole log can be ingested without building
//! one intermediate `String`. The `&str` entry points ([`parse_line`],
//! [`parse_log`]) are thin wrappers.

use crate::record::{RawRequest, RawRequestRef, Timestamp};
use std::fmt::Write as _;

/// Longest field snippet an error value carries, in bytes.
const MAX_ERR_FIELD: usize = 64;

/// Copy at most [`MAX_ERR_FIELD`] bytes of an offending field into an
/// error payload (lossy UTF-8, `…` marks truncation). Errors carry only
/// the field that failed, never the whole log line.
fn snippet(bytes: &[u8]) -> String {
    let cut = bytes.len().min(MAX_ERR_FIELD);
    let mut s = String::from_utf8_lossy(&bytes[..cut]).into_owned();
    if bytes.len() > cut {
        s.push('…');
    }
    s
}

/// Error produced while parsing a CLF line. Each variant carries only the
/// offending field, truncated to 64 bytes — never a clone of the whole
/// log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClfError {
    /// The line did not have the expected bracketed/quoted structure
    /// (payload: the start of the line).
    Malformed(String),
    /// The `[date]` field could not be parsed.
    BadDate(String),
    /// The request field was not a `GET`/`HEAD`/`POST` line.
    BadRequest(String),
    /// A numeric field (status, size or extension value) failed to parse.
    BadNumber(String),
}

impl std::fmt::Display for ClfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClfError::Malformed(l) => write!(f, "malformed CLF line: {l:?}"),
            ClfError::BadDate(d) => write!(f, "unparseable CLF date: {d:?}"),
            ClfError::BadRequest(r) => write!(f, "unparseable request field: {r:?}"),
            ClfError::BadNumber(n) => write!(f, "unparseable numeric field: {n:?}"),
        }
    }
}

impl std::error::Error for ClfError {}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Days from 1970-01-01 to `y-m-d` (proleptic Gregorian). Negative before
/// the epoch. This is Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = ((m + 9) % 12) as u64; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1); // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Inverse of [`days_from_civil`]: civil `(y, m, d)` for a day count.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Parse a CLF date body (without brackets), e.g.
/// `17/Sep/1995:08:01:02 +0000`, to Unix epoch seconds. Only the `+0000`
/// offset is accepted: the paper's logs are from a single collection site,
/// and we normalise to UTC when writing.
pub fn parse_clf_date(s: &str) -> Result<i64, ClfError> {
    let err = || ClfError::BadDate(snippet(s.as_bytes()));
    let (datetime, _offset) = s.split_once(' ').ok_or_else(err)?;
    let mut parts = datetime.splitn(4, [':', '/']);
    // dd/Mon/yyyy:HH:MM:SS splits on '/' and ':' as dd, Mon, yyyy, HH:MM:SS
    let d: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let mon = parts.next().ok_or_else(err)?;
    let y: i64 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let hms = parts.next().ok_or_else(err)?;
    let m = MONTHS
        .iter()
        .position(|&name| name.eq_ignore_ascii_case(mon))
        .ok_or_else(err)? as u32
        + 1;
    let mut hms_it = hms.split(':');
    let hh: i64 = hms_it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let mm: i64 = hms_it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let ss: i64 = hms_it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    if d == 0 || d > 31 || hh > 23 || mm > 59 || ss > 60 {
        return Err(err());
    }
    Ok(days_from_civil(y, m, d) * 86_400 + hh * 3600 + mm * 60 + ss)
}

/// Format Unix epoch seconds as a CLF date body with a `+0000` offset.
pub fn format_clf_date(epoch: i64) -> String {
    let days = epoch.div_euclid(86_400);
    let secs = epoch.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000",
        d,
        MONTHS[(m - 1) as usize],
        y,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Advance `pos` past ASCII whitespace.
#[inline]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Next whitespace-delimited token at `pos`, or `None` at end of input.
#[inline]
fn token<'a>(b: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    skip_ws(b, pos);
    if *pos >= b.len() {
        return None;
    }
    let start = *pos;
    while *pos < b.len() && !b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    Some(&b[start..*pos])
}

/// Position of the first `needle` at or after `from`.
#[inline]
fn find(b: &[u8], from: usize, needle: u8) -> Option<usize> {
    b.get(from..)?
        .iter()
        .position(|&x| x == needle)
        .map(|i| i + from)
}

/// Parse an unsigned decimal integer (optional leading `+`), rejecting
/// empty input and overflow — the byte-level equivalent of `str::parse`.
fn parse_uint(b: &[u8]) -> Option<u64> {
    let b = b.strip_prefix(b"+").unwrap_or(b);
    if b.is_empty() {
        return None;
    }
    let mut acc: u64 = 0;
    for &c in b {
        if !c.is_ascii_digit() {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add((c - b'0') as u64)?;
    }
    Some(acc)
}

/// Parse a signed decimal integer from bytes.
fn parse_int(b: &[u8]) -> Option<i64> {
    let (neg, digits) = match b.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, b.strip_prefix(b"+").unwrap_or(b)),
    };
    let mag = parse_uint(digits)?;
    if neg {
        0i64.checked_sub(i64::try_from(mag).ok()?)
    } else {
        i64::try_from(mag).ok()
    }
}

/// Parse one CLF line from raw bytes into a borrowed
/// [`RawRequestRef`] — the zero-allocation ingest path. Text fields of
/// the result point into `line`; nothing is copied on success.
///
/// `epoch` is the absolute Unix time corresponding to trace time zero;
/// entries earlier than `epoch` are clamped to time zero.
pub fn parse_line_bytes(line: &[u8], epoch: i64) -> Result<RawRequestRef<'_>, ClfError> {
    // Trim trailing ASCII whitespace (newline included).
    let mut end = line.len();
    while end > 0 && line[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let line = &line[..end];
    let malformed = || ClfError::Malformed(snippet(line));

    // remotehost ident authuser [date] "request" status bytes [extensions]
    let bracket = find(line, 0, b'[').ok_or_else(malformed)?;
    let head = &line[..bracket];
    let mut hpos = 0;
    let client = token(head, &mut hpos).ok_or_else(malformed)?;
    let _ident = token(head, &mut hpos).ok_or_else(malformed)?;
    let _authuser = token(head, &mut hpos).ok_or_else(malformed)?;
    let client = std::str::from_utf8(client).map_err(|_| malformed())?;

    let date_end = find(line, bracket + 1, b']').ok_or_else(malformed)?;
    let date = &line[bracket + 1..date_end];
    let date = std::str::from_utf8(date).map_err(|_| ClfError::BadDate(snippet(date)))?;
    let abs_time = parse_clf_date(date)?;
    let time: Timestamp = (abs_time - epoch).max(0) as Timestamp;

    let mut pos = date_end + 1;
    skip_ws(line, &mut pos);
    if line.get(pos) != Some(&b'"') {
        return Err(malformed());
    }
    let req_end = find(line, pos + 1, b'"').ok_or_else(malformed)?;
    let request = &line[pos + 1..req_end];
    pos = req_end + 1;

    let bad_request = || ClfError::BadRequest(snippet(request));
    let mut rpos = 0;
    let method = token(request, &mut rpos).ok_or_else(bad_request)?;
    if !matches!(method, b"GET" | b"HEAD" | b"POST") {
        return Err(bad_request());
    }
    let url = token(request, &mut rpos).ok_or_else(bad_request)?;
    let url = std::str::from_utf8(url).map_err(|_| bad_request())?;

    let status_b = token(line, &mut pos).ok_or_else(malformed)?;
    let status: u16 = parse_uint(status_b)
        .and_then(|v| u16::try_from(v).ok())
        .ok_or_else(|| ClfError::BadNumber(snippet(status_b)))?;
    let size_b = token(line, &mut pos).ok_or_else(malformed)?;
    let size: u64 = if size_b == b"-" {
        0
    } else {
        parse_uint(size_b).ok_or_else(|| ClfError::BadNumber(snippet(size_b)))?
    };
    let mut last_modified = None;
    while let Some(field) = token(line, &mut pos) {
        if let Some(v) = field.strip_prefix(b"last-modified=") {
            let lm = parse_int(v).ok_or_else(|| ClfError::BadNumber(snippet(v)))?;
            last_modified = Some((lm - epoch).max(0) as Timestamp);
        }
    }
    Ok(RawRequestRef {
        time,
        client,
        url,
        status,
        size,
        last_modified,
    })
}

/// Parse one CLF line into an owned [`RawRequest`]. Convenience wrapper
/// over [`parse_line_bytes`]; the byte-level API avoids the copies this
/// one makes.
pub fn parse_line(line: &str, epoch: i64) -> Result<RawRequest, ClfError> {
    parse_line_bytes(line.as_bytes(), epoch).map(|r| r.to_owned())
}

/// Format a [`RawRequest`] as a CLF line (with the `last-modified=`
/// extension when present). `epoch` is the absolute Unix time of trace
/// time zero, as for [`parse_line`].
pub fn format_line(req: &RawRequest, epoch: i64) -> String {
    let mut out = String::with_capacity(96);
    write_line(&mut out, &req.as_ref(), epoch);
    out
}

/// Append a borrowed request as a CLF line (no trailing newline) to `out`.
/// Round-trips through [`parse_line_bytes`].
pub fn write_line(out: &mut String, req: &RawRequestRef<'_>, epoch: i64) {
    let _ = write!(
        out,
        "{} - - [{}] \"GET {} HTTP/1.0\" {} {}",
        req.client,
        format_clf_date(epoch + req.time as i64),
        req.url,
        req.status,
        req.size
    );
    if let Some(lm) = req.last_modified {
        let _ = write!(out, " last-modified={}", epoch + lm as i64);
    }
}

/// Parse a whole CLF log from bytes, skipping blank lines; yields borrowed
/// requests plus the count of unparseable lines. This is the
/// zero-allocation bulk path behind [`parse_log`] and
/// [`crate::Trace::from_clf_bytes`].
pub fn parse_log_bytes(text: &[u8], epoch: i64) -> (Vec<RawRequestRef<'_>>, usize) {
    let mut out = Vec::new();
    let mut bad = 0;
    for line in text.split(|&b| b == b'\n') {
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        match parse_line_bytes(line, epoch) {
            Ok(r) => out.push(r),
            Err(_) => bad += 1,
        }
    }
    (out, bad)
}

/// Parse a whole CLF log, skipping blank lines; returns owned requests
/// plus the number of unparseable lines skipped.
pub fn parse_log(text: &str, epoch: i64) -> (Vec<RawRequest>, usize) {
    let (refs, bad) = parse_log_bytes(text.as_bytes(), epoch);
    (refs.iter().map(RawRequestRef::to_owned).collect(), bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unix time of 1995-09-17 00:00:00 UTC, the start of the BR/BL
    /// collection period.
    pub const EPOCH_1995_09_17: i64 = 811_296_000;

    #[test]
    fn civil_date_round_trips() {
        for &z in &[-719_468, -1, 0, 1, 9_399, 719_468, 2_932_896] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z, "day {z}");
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1995, 9, 17) * 86_400, EPOCH_1995_09_17);
    }

    #[test]
    fn date_parse_and_format_round_trip() {
        let s = "17/Sep/1995:08:01:02 +0000";
        let t = parse_clf_date(s).unwrap();
        assert_eq!(format_clf_date(t), s);
        assert_eq!(t, EPOCH_1995_09_17 + 8 * 3600 + 62);
    }

    #[test]
    fn date_rejects_garbage() {
        assert!(parse_clf_date("17/Xxx/1995:08:01:02 +0000").is_err());
        assert!(parse_clf_date("banana").is_err());
        assert!(parse_clf_date("40/Sep/1995:08:01:02 +0000").is_err());
        assert!(parse_clf_date("17/Sep/1995:25:01:02 +0000").is_err());
    }

    #[test]
    fn line_parses_common_format() {
        let line = r#"burrow.cs.vt.edu - - [17/Sep/1995:08:01:02 +0000] "GET http://www.cs.vt.edu/info.html HTTP/1.0" 200 4913"#;
        let r = parse_line(line, EPOCH_1995_09_17).unwrap();
        assert_eq!(r.client, "burrow.cs.vt.edu");
        assert_eq!(r.url, "http://www.cs.vt.edu/info.html");
        assert_eq!(r.status, 200);
        assert_eq!(r.size, 4913);
        assert_eq!(r.time, 8 * 3600 + 62);
        assert_eq!(r.last_modified, None);
    }

    #[test]
    fn byte_parser_borrows_from_the_input() {
        let line = r#"h - - [17/Sep/1995:08:01:02 +0000] "GET http://s/x.gif HTTP/1.0" 200 99"#;
        let r = parse_line_bytes(line.as_bytes(), EPOCH_1995_09_17).unwrap();
        assert_eq!(r.client, "h");
        assert_eq!(r.url, "http://s/x.gif");
        // The borrowed fields are views into the line itself.
        let base = line.as_ptr() as usize;
        let url_ptr = r.url.as_ptr() as usize;
        assert!(url_ptr >= base && url_ptr < base + line.len());
    }

    #[test]
    fn line_parses_extension_fields() {
        let line = format!(
            r#"h - - [17/Sep/1995:00:00:10 +0000] "GET http://s/x.gif HTTP/1.0" 200 99 last-modified={}"#,
            EPOCH_1995_09_17 - 100
        );
        let r = parse_line(&line, EPOCH_1995_09_17).unwrap();
        // A modification before the trace epoch clamps to 0.
        assert_eq!(r.last_modified, Some(0));
    }

    #[test]
    fn line_parses_dash_size_as_zero() {
        let line = r#"h - - [17/Sep/1995:00:00:10 +0000] "GET http://s/x HTTP/1.0" 304 -"#;
        let r = parse_line(line, EPOCH_1995_09_17).unwrap();
        assert_eq!(r.size, 0);
        assert_eq!(r.status, 304);
    }

    #[test]
    fn line_rejects_malformed_input() {
        assert!(parse_line("", 0).is_err());
        assert!(parse_line("too few fields", 0).is_err());
        let no_quote = r#"h - - [17/Sep/1995:00:00:10 +0000] GET http://s/x HTTP/1.0 200 10"#;
        assert!(parse_line(no_quote, EPOCH_1995_09_17).is_err());
        let bad_method = r#"h - - [17/Sep/1995:00:00:10 +0000] "FROB http://s/x HTTP/1.0" 200 10"#;
        assert!(parse_line(bad_method, EPOCH_1995_09_17).is_err());
    }

    #[test]
    fn errors_carry_truncated_fields_not_whole_lines() {
        // A huge unparseable line must not be cloned into the error value.
        let long_url = format!("http://s/{}", "x".repeat(5000));
        let line =
            format!(r#"h - - [17/Sep/1995:00:00:10 +0000] "PUT {long_url} HTTP/1.0" 200 10"#);
        let err = parse_line(&line, EPOCH_1995_09_17).unwrap_err();
        let payload = match &err {
            ClfError::BadRequest(s) => s,
            other => panic!("expected BadRequest, got {other:?}"),
        };
        // 64 bytes of field plus the `…` truncation marker.
        assert!(payload.len() <= MAX_ERR_FIELD + '…'.len_utf8());
        assert!(payload.ends_with('…'));

        let bad_number = format!(
            r#"h - - [17/Sep/1995:00:00:10 +0000] "GET http://s/x HTTP/1.0" 200 {}"#,
            "9".repeat(400)
        );
        match parse_line(&bad_number, EPOCH_1995_09_17).unwrap_err() {
            ClfError::BadNumber(s) => assert!(s.len() <= MAX_ERR_FIELD + '…'.len_utf8()),
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn byte_numeric_parsers_match_str_parse() {
        assert_eq!(parse_uint(b"0"), Some(0));
        assert_eq!(parse_uint(b"+41"), Some(41));
        assert_eq!(parse_uint(b""), None);
        assert_eq!(parse_uint(b"+"), None);
        assert_eq!(parse_uint(b"1x"), None);
        assert_eq!(parse_uint(b"18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_uint(b"18446744073709551616"), None);
        assert_eq!(parse_int(b"-12"), Some(-12));
        assert_eq!(parse_int(b"+12"), Some(12));
        assert_eq!(parse_int(b"-"), None);
        assert_eq!(parse_int(b"9223372036854775807"), Some(i64::MAX));
        assert_eq!(parse_int(b"9223372036854775808"), None);
    }

    #[test]
    fn format_then_parse_round_trips() {
        let req = RawRequest {
            time: 123_456,
            client: "lab3.cs.vt.edu".into(),
            url: "http://ei.cs.vt.edu/~mmm/song.au".into(),
            status: 200,
            size: 1_234_567,
            last_modified: Some(3),
        };
        let line = format_line(&req, EPOCH_1995_09_17);
        let back = parse_line(&line, EPOCH_1995_09_17).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn parse_log_counts_bad_lines() {
        let text = format!(
            "{}\nnot a log line\n\n{}\n",
            r#"a - - [17/Sep/1995:00:00:01 +0000] "GET http://s/a HTTP/1.0" 200 10"#,
            r#"b - - [17/Sep/1995:00:00:02 +0000] "GET http://s/b HTTP/1.0" 404 0"#
        );
        let (reqs, bad) = parse_log(&text, EPOCH_1995_09_17);
        assert_eq!(reqs.len(), 2);
        assert_eq!(bad, 1);
        let (refs, bad_b) = parse_log_bytes(text.as_bytes(), EPOCH_1995_09_17);
        assert_eq!(refs.len(), 2);
        assert_eq!(bad_b, 1);
    }
}
