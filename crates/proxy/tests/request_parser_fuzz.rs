//! Hostile-input battery for [`webcache_proxy::http::RequestParser`], the
//! parser every client byte goes through. The event loop feeds it the
//! first read at accept — everything the client had sent by then, often
//! the whole request and whatever follows it — and then whatever each
//! later read brings. So over arbitrary bytes and arbitrary split points:
//!
//! * it never panics;
//! * the bytes fed whole, split anywhere, or one at a time — through a
//!   fresh parser or a pooled one that was `reset` — give the same
//!   outcome: the same head, the same refusal, or still incomplete;
//! * that outcome is the naive whole-buffer reference's
//!   (`common::reference::request`);
//! * a line of [`MAX_LINE`] bytes or more is refused as soon as it holds
//!   `MAX_LINE` of them, before any terminator arrives;
//! * a head is bounded by its header lines, not its distinct names: the
//!   line past [`MAX_HEADERS`] is refused even when every line repeats
//!   one name.

mod common;

use common::reference::{self, Refusal};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use std::collections::BTreeMap;
use webcache_proxy::http::{HttpError, RequestParser, MAX_HEADERS, MAX_LINE};

/// What feeding a parser some bytes amounted to.
#[derive(Debug, PartialEq)]
enum Outcome {
    Head {
        method: String,
        target: String,
        headers: BTreeMap<String, String>,
    },
    Refused(String),
    Incomplete,
}

/// Feed `chunks` in order until the parser has a head or refuses.
fn feed<'a>(parser: &mut RequestParser, chunks: impl Iterator<Item = &'a [u8]>) -> Outcome {
    for chunk in chunks {
        match parser.feed(chunk) {
            Ok(Some(req)) => {
                return Outcome::Head {
                    method: req.method,
                    target: req.target,
                    headers: req.headers,
                }
            }
            Ok(None) => {}
            Err(HttpError::Malformed(why)) => return Outcome::Refused(why),
            Err(e) => panic!("the parser reported an I/O error: {e}"),
        }
    }
    Outcome::Incomplete
}

/// The outcome in the reference's terms.
fn verdict(outcome: &Outcome) -> Result<(&str, &str, &BTreeMap<String, String>), Refusal> {
    match outcome {
        Outcome::Head {
            method,
            target,
            headers,
        } => Ok((method, target, headers)),
        Outcome::Refused(why) if why.starts_with("line exceeds") => Err(Refusal::TooLong),
        Outcome::Refused(_) => Err(Refusal::Malformed),
        Outcome::Incomplete => Err(Refusal::Eof),
    }
}

/// `wire` cut at `cuts`, fractions of its length (duplicates and
/// out-of-order cuts allowed: the pieces are sorted, and may be empty).
fn pieces<'a>(wire: &'a [u8], cuts: &[f64]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts
        .iter()
        .map(|c| (c * wire.len() as f64) as usize)
        .collect();
    at.push(0);
    at.push(wire.len());
    at.sort_unstable();
    at.windows(2).map(|w| &wire[w[0]..w[1]]).collect()
}

/// Fragments a request head is made of, and a few it must not contain.
const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b" ",
    b"  ",
    b"\t",
    b"http://o.test/a.html",
    b"/__webcache/stats",
    b"HTTP/1.0",
    b"HTTP/1.1",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b"\r\n\r\n",
    b":",
    b": ",
    b"If-Modified-Since",
    b"x-h",
    b"12345",
    b"\xff\xfe",
    b"\xc3\xa9",
    b"\0",
];

const REQUEST_LINE: &[u8] = b"GET http://o.test/a.html HTTP/1.0\r\n";

/// A wire image: optionally a valid request line, then parts that are
/// each a token, one arbitrary byte, or a run of up to 3000 copies of one
/// (long enough that a few of them pass the line bound), then optionally
/// the blank line that ends a head.
fn wire_from(valid_start: bool, parts: &[(u8, usize, u8, usize)], valid_end: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    if valid_start {
        wire.extend_from_slice(REQUEST_LINE);
    }
    for &(kind, token, byte, run) in parts {
        match kind {
            0 | 1 => wire.extend_from_slice(TOKENS[token % TOKENS.len()]),
            2 => wire.push(byte),
            _ => wire.extend(std::iter::repeat_n(byte, run)),
        }
    }
    if valid_end {
        wire.extend_from_slice(b"\r\n\r\n");
    }
    wire
}

#[test]
fn whole_split_and_byte_by_byte_feeds_agree_on_hostile_input() {
    let strategy = (
        0u8..2,
        prop::collection::vec((0u8..4, 0usize..64, 0u8..=255, 0usize..3000), 0..48),
        0u8..2,
        prop::collection::vec(0.0f64..1.0, 0..8),
    )
        .prop_map(|(start, parts, end, cuts)| (wire_from(start == 1, &parts, end == 1), cuts));
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
    let result = runner.run(&strategy, |(wire, cuts)| {
        let mut parser = RequestParser::new();
        let whole = feed(&mut parser, std::iter::once(&wire[..]));
        parser.reset();
        let split = feed(&mut parser, pieces(&wire, &cuts).into_iter());
        parser.reset();
        let bytewise = feed(&mut parser, wire.chunks(1));
        prop_assert_eq!(&split, &whole);
        prop_assert_eq!(&bytewise, &whole);
        let expected = reference::request(&wire);
        let expected = expected
            .as_ref()
            .map(|r| (r.method.as_str(), r.target.as_str(), &r.headers))
            .map_err(|&refusal| refusal);
        prop_assert_eq!(verdict(&whole), expected);
        let class = match whole {
            Outcome::Head { .. } => "head",
            Outcome::Refused(why) if why.contains("exceeds") => "line too long",
            Outcome::Refused(_) => "refused",
            Outcome::Incomplete => "incomplete",
        };
        *seen.entry(class).or_default() += 1;
        Ok(())
    });
    if let Err(e) = result {
        panic!("{e}");
    }
    // The generator reaches every outcome, so agreement means something.
    for class in ["head", "line too long", "refused", "incomplete"] {
        assert!(seen.get(class).copied().unwrap_or(0) >= 10, "{seen:?}");
    }
}

#[test]
fn one_header_repeated_is_refused_on_the_line_past_max_headers() {
    const LINE: &[u8] = b"x: y\r\n";
    let head = |lines: usize| [REQUEST_LINE, &LINE.repeat(lines)].concat();
    // MAX_HEADERS copies and the blank line: one header, the last copy.
    let wire = [&head(MAX_HEADERS)[..], b"\r\n"].concat();
    let mut parser = RequestParser::new();
    let req = parser.feed(&wire).unwrap().expect("a whole head");
    assert_eq!(req.headers, BTreeMap::from([("x".into(), "y".into())]));
    // One copy more, a byte at a time: refused on the last byte of the
    // line that is one too many, whole or not.
    let wire = head(MAX_HEADERS + 1);
    parser.reset();
    let at = wire.iter().position(|&b| parser.feed(&[b]).is_err());
    assert_eq!(at, Some(wire.len() - 1));
    parser.reset();
    match parser.feed(&wire) {
        Err(HttpError::Malformed(why)) => assert!(why.contains("headers"), "{why}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(reference::request(&wire).err(), Some(Refusal::Malformed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_line_of_max_line_bytes_is_refused_before_its_terminator(
        prefix_kind in 0u8..3,
        fill in prop::collection::vec(0u8..=255, 1..32),
        extra in 0usize..MAX_LINE,
        cuts in prop::collection::vec(0.0f64..1.0, 0..8),
    ) {
        // The long line is the request line itself, or a header line
        // after a valid request line and maybe a header.
        let mut wire = match prefix_kind {
            0 => Vec::new(),
            1 => REQUEST_LINE.to_vec(),
            _ => [REQUEST_LINE, b"x-h: 1\r\n"].concat(),
        };
        let threshold = wire.len() + MAX_LINE;
        // No terminator anywhere in it: newlines in the fill become 'x'.
        wire.extend(
            fill.iter()
                .map(|&b| if b == b'\n' { b'x' } else { b })
                .cycle()
                .take(MAX_LINE + extra),
        );

        // Split anywhere: refused in the piece that brings the line to
        // MAX_LINE bytes, and not before.
        let mut parser = RequestParser::new();
        let mut refused = false;
        for piece in pieces(&wire, &cuts) {
            let before = parser.bytes_fed();
            match parser.feed(piece) {
                Ok(None) => prop_assert!(parser.bytes_fed() < threshold, "held {threshold} bytes"),
                Ok(Some(_)) => prop_assert!(false, "an unterminated line parsed as a request"),
                Err(e) => {
                    prop_assert!(matches!(e, HttpError::Malformed(_)), "{e}");
                    prop_assert!(before < threshold && parser.bytes_fed() >= threshold);
                    refused = true;
                    break;
                }
            }
        }
        prop_assert!(refused, "never refused");

        // One byte at a time: refused on exactly the MAX_LINE-th byte.
        parser.reset();
        let at = wire.iter().position(|&b| parser.feed(&[b]).is_err());
        prop_assert_eq!(at, Some(threshold - 1));
    }
}
