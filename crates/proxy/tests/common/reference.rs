//! Naive whole-buffer references for the HTTP/1.0 subset the proxy
//! speaks, one per direction, to hold `http::RequestParser` and
//! `http::ResponseReader` against. Each takes the complete wire image at
//! once, splits it on `\n` and walks the lines in order: no resumption,
//! no buffer kept across calls, no bound checked before a line is whole.
//! They cannot see how the parsers under test buffer, split or resume.

use bytes::Bytes;
use std::collections::BTreeMap;
use webcache_proxy::http::{Request, Response, MAX_BODY, MAX_HEADERS, MAX_LINE};

/// Why a wire image is not a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A line holds more than `MAX_LINE` bytes with its `\n`, or the
    /// wire ends in `MAX_LINE` or more bytes with none.
    TooLong,
    /// Anything else the grammar does not allow.
    Malformed,
    /// The wire ends before the message does.
    Eof,
}

/// The next line of `rest`, `\n` included; `rest` moves past it.
fn line<'a>(rest: &mut &'a [u8]) -> Result<&'a str, Refusal> {
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Err(if rest.len() >= MAX_LINE {
            Refusal::TooLong
        } else {
            Refusal::Eof
        });
    };
    let (line, after) = rest.split_at(nl + 1);
    *rest = after;
    if line.len() > MAX_LINE {
        return Err(Refusal::TooLong);
    }
    std::str::from_utf8(line).map_err(|_| Refusal::Malformed)
}

/// The header lines up to the blank one, names lower-cased, a repeated
/// name keeping its last value; more than `MAX_HEADERS` lines refused.
fn headers(rest: &mut &[u8]) -> Result<BTreeMap<String, String>, Refusal> {
    let mut headers = BTreeMap::new();
    let mut count = 0;
    loop {
        let line = line(rest)?.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        count += 1;
        if count > MAX_HEADERS {
            return Err(Refusal::Malformed);
        }
        let (name, value) = line.split_once(':').ok_or(Refusal::Malformed)?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// The request head at the start of `wire`; what follows it is ignored.
pub fn request(wire: &[u8]) -> Result<Request, Refusal> {
    let mut rest = wire;
    let mut parts = line(&mut rest)?.split_ascii_whitespace();
    let method = parts.next().ok_or(Refusal::Malformed)?.to_string();
    let target = parts.next().ok_or(Refusal::Malformed)?.to_string();
    if !parts.next().unwrap_or("HTTP/1.0").starts_with("HTTP/1.") {
        return Err(Refusal::Malformed);
    }
    let headers = headers(&mut rest)?;
    Ok(Request {
        method,
        target,
        headers,
    })
}

/// The response at the start of `wire`: its head and exactly
/// `Content-Length` body bytes (none without the header); what follows
/// them is ignored.
pub fn response(wire: &[u8]) -> Result<Response, Refusal> {
    let mut rest = wire;
    let mut parts = line(&mut rest)?.split_ascii_whitespace();
    let version = parts.next().ok_or(Refusal::Malformed)?;
    if !version.starts_with("HTTP/1.") {
        return Err(Refusal::Malformed);
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(Refusal::Malformed)?;
    let headers = headers(&mut rest)?;
    let len: u64 = match headers.get("content-length") {
        Some(v) => v.parse().map_err(|_| Refusal::Malformed)?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(Refusal::Malformed);
    }
    let body = rest.get(..len as usize).ok_or(Refusal::Eof)?;
    Ok(Response {
        status,
        headers,
        body: Bytes::copy_from_slice(body),
    })
}
