//! The blocking readers run on the one parser per direction:
//! `http::read_request_from` feeds `RequestParser` from a `BufRead`, and
//! `http::read_response` is `ResponseReader::read` plus a header map.
//! These are the edges where a blocking reader could differ from its
//! parser:
//!
//! * what follows a request head stays in the caller's buffer, so two
//!   requests sent back to back come out of one `BufReader` in order;
//! * end of stream anywhere before the blank line that ends a head is an
//!   `UnexpectedEof` error, never an implicit end of the head;
//! * bytes that are not UTF-8 in a head are `Malformed`.

use std::io::{BufReader, ErrorKind};
use webcache_proxy::http::{self, HttpError, Request, Response};

fn assert_unexpected_eof<T: std::fmt::Debug>(
    got: Result<T, HttpError>,
    what: impl std::fmt::Display,
) {
    match got {
        Err(HttpError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {}
        other => panic!("{what}: {other:?}"),
    }
}

#[test]
fn two_requests_back_to_back_come_out_of_one_buffer_in_order() {
    let mut wire = Vec::new();
    let first = Request::get("http://o.test/a").with_header("If-Modified-Since", "7");
    http::write_request(&mut wire, &first).unwrap();
    http::write_request(&mut wire, &Request::get("http://o.test/b")).unwrap();
    // Buffers smaller than a line, smaller than a head, and std's default.
    for capacity in [1, 5, 40, 8 * 1024] {
        let mut reader = BufReader::with_capacity(capacity, wire.as_slice());
        let a = http::read_request_from(&mut reader).unwrap();
        assert_eq!(a.target, "http://o.test/a", "capacity {capacity}");
        assert_eq!(a.if_modified_since(), Some(7));
        let b = http::read_request_from(&mut reader).unwrap();
        assert_eq!(b.target, "http://o.test/b", "capacity {capacity}");
        assert!(b.headers.is_empty(), "{:?}", b.headers);
        // Nothing more: the end of the stream, where a head would start.
        assert_unexpected_eof(http::read_request_from(&mut reader), "after two");
    }
}

#[test]
fn a_request_cut_before_its_blank_line_is_unexpected_eof() {
    // A request line and then end of stream: the event loop answers it
    // 400, and a blocking reader has no request either.
    assert_unexpected_eof(
        http::read_request(&mut &b"GET /x HTTP/1.0\r\n"[..]),
        "request line only",
    );
    let whole = b"GET http://o.test/a HTTP/1.0\r\nif-modified-since: 7\r\n\r\n";
    for cut in 0..whole.len() {
        assert_unexpected_eof(
            http::read_request(&mut &whole[..cut]),
            format_args!("cut {cut}"),
        );
    }
    assert_eq!(
        http::read_request(&mut &whole[..]).unwrap().target,
        "http://o.test/a"
    );
}

#[test]
fn a_response_cut_before_its_end_is_unexpected_eof() {
    let sent =
        Response::ok(http::synthetic_body("http://o.test/a", 300), Some(7)).with_cache_status(true);
    let mut wire = http::encode_response_head(&sent);
    wire.extend_from_slice(&sent.body);
    // Inside the head, where the status line alone would look like a
    // bodyless response, then inside the body.
    for cut in 0..wire.len() {
        assert_unexpected_eof(
            http::read_response(&mut &wire[..cut]),
            format_args!("cut {cut}"),
        );
    }
    let got = http::read_response(&mut wire.as_slice()).unwrap();
    assert_eq!(
        (got.status, &got.headers, &got.body),
        (200, &sent.headers, &sent.body)
    );
}

#[test]
fn bytes_that_are_not_utf8_in_a_head_are_malformed() {
    let request = b"GET http://o.test/\xff HTTP/1.0\r\n\r\n";
    let response = b"HTTP/1.0 200 OK\r\nx-h: \xff\r\n\r\n";
    assert!(matches!(
        http::read_request(&mut &request[..]),
        Err(HttpError::Malformed(_))
    ));
    assert!(matches!(
        http::read_response(&mut &response[..]),
        Err(HttpError::Malformed(_))
    ));
}
