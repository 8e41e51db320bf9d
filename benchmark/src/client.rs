//! The load generator: one GET per connection over host loopback, driven
//! by two client threads in a closed loop (next request when the last
//! one completes) or an open loop (requests fall due on a fixed schedule
//! and are timed from when they were due, so a stall is charged to every
//! request it delayed).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use webcache_proxy::http;

use crate::gen::Docs;

/// Client threads, and so connections in flight at most: one per core.
pub const CLIENTS: usize = 2;
/// One response in this many is compared with the origin byte for byte;
/// all of them are checked for length.
pub const VERIFY_EVERY: usize = 64;
/// A request sent later than this after it fell due counts as late.
pub const LATE_NS: u64 = 1_000_000;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a request failed. Every one of them counts against
/// `error_frac` and as missing any latency limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `connect` failed — refused, or out of ports (`EADDRNOTAVAIL`).
    Connect,
    /// The socket failed or timed out mid-exchange.
    Io,
    /// The response was not a well-formed `200`.
    Status,
    /// Wrong length, or bytes that are not the origin's.
    Body,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `200` carrying `x-cache: HIT`.
    Hit,
    /// `200` without it.
    Miss,
    Failed(Failure),
}

/// One request as the client saw it. Times are nanoseconds; `due_ns` is
/// the offset from the start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub doc: u32,
    pub due_ns: u64,
    /// How long after `due_ns` the request was actually started.
    pub late_ns: u64,
    /// From `due_ns` to the last body byte.
    pub lat_ns: u64,
    pub outcome: Outcome,
    /// Whether the request recorded spans.
    pub traced: bool,
}

/// The four spans of one traced request, as offsets from the phase
/// start: connect, send, time to first byte, body. `id` is the request's
/// position in the phase and names the spans' common parent.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    pub id: usize,
    pub doc: u32,
    pub hit: bool,
    /// connect start, connected, request sent, first byte, last byte
    pub marks_ns: [u64; 5],
}

impl Spans {
    pub fn connect_ns(&self) -> u64 {
        self.marks_ns[1] - self.marks_ns[0]
    }
    pub fn ttfb_ns(&self) -> u64 {
        self.marks_ns[3] - self.marks_ns[2]
    }
    pub fn body_ns(&self) -> u64 {
        self.marks_ns[4] - self.marks_ns[3]
    }
}

/// What a response head says.
#[derive(Debug, PartialEq, Eq)]
struct Head {
    status: u16,
    content_length: Option<u64>,
    hit: bool,
    body_at: usize,
}

fn parse_head(buf: &[u8]) -> Option<Head> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let text = std::str::from_utf8(&buf[..end]).ok()?;
    let mut lines = text.split("\r\n");
    let mut status_line = lines.next()?.split_ascii_whitespace();
    if !status_line.next()?.starts_with("HTTP/1.") {
        return None;
    }
    let mut head = Head {
        status: status_line.next()?.parse().ok()?,
        content_length: None,
        hit: false,
        body_at: end + 4,
    };
    for line in lines {
        let (name, value) = line.split_once(':')?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = Some(value.parse().ok()?);
        } else if name.eq_ignore_ascii_case("x-cache") {
            head.hit = value.eq_ignore_ascii_case("HIT");
        }
    }
    Some(head)
}

/// One GET on a fresh connection, read to end of stream into `buf`.
/// `marks`, when given, receives the instants of: connected, request
/// sent, first response byte.
fn exchange(
    addr: SocketAddr,
    wire: &[u8],
    buf: &mut Vec<u8>,
    marks: Option<&mut [Instant; 3]>,
) -> Result<(), Failure> {
    let mut stream = TcpStream::connect(addr).map_err(|_| Failure::Connect)?;
    let io = |_| Failure::Io;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    buf.clear();
    match marks {
        None => {
            stream.write_all(wire).map_err(io)?;
            stream.read_to_end(buf).map_err(io)?;
        }
        Some(marks) => {
            marks[0] = Instant::now();
            stream.write_all(wire).map_err(io)?;
            marks[1] = Instant::now();
            let mut first = [0u8; 4096];
            let n = stream.read(&mut first).map_err(io)?;
            marks[2] = Instant::now();
            buf.extend_from_slice(&first[..n]);
            if n > 0 {
                stream.read_to_end(buf).map_err(io)?;
            }
        }
    }
    Ok(())
}

/// Judge the response in `buf` against the document it should carry.
fn judge(buf: &[u8], url: &str, size: u64, verify: bool) -> Outcome {
    let Some(head) = parse_head(buf) else {
        return Outcome::Failed(Failure::Status);
    };
    if head.status != 200 {
        return Outcome::Failed(Failure::Status);
    }
    let body = &buf[head.body_at..];
    if body.len() as u64 != size || head.content_length != Some(size) {
        return Outcome::Failed(Failure::Body);
    }
    if verify && body != &http::synthetic_body(url, size)[..] {
        return Outcome::Failed(Failure::Body);
    }
    if head.hit {
        Outcome::Hit
    } else {
        Outcome::Miss
    }
}

/// One GET for `doc`, checked. For callers outside a phase (warm-up,
/// probes).
pub fn get(addr: SocketAddr, docs: &Docs, doc: u32, verify: bool, buf: &mut Vec<u8>) -> Outcome {
    let d = doc as usize;
    match exchange(addr, &docs.wire[d], buf, None) {
        Ok(()) => judge(buf, &docs.urls[d], docs.sizes[d], verify),
        Err(f) => Outcome::Failed(f),
    }
}

/// One unchecked GET returning the body, for the admin endpoint.
pub fn get_raw(addr: SocketAddr, target: &str) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    exchange(addr, &crate::gen::wire_request(target), &mut buf, None)
        .map_err(|f| format!("GET {target}: {f:?}"))?;
    match parse_head(&buf) {
        Some(head) if head.status == 200 => Ok(buf.split_off(head.body_at)),
        _ => Err(format!("GET {target}: bad response")),
    }
}

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each client sends its next request when its last one completed,
    /// until `deadline` has passed.
    Closed { deadline: Duration },
    /// Request `k` falls due `k / rate` seconds into the phase, whether
    /// or not earlier ones have come back.
    Open { rate_per_s: f64 },
}

/// What one phase produced.
pub struct Phase {
    /// Sorted by `due_ns`.
    pub samples: Vec<Sample>,
    /// One entry per traced request that succeeded.
    pub spans: Vec<Spans>,
}

impl Phase {
    pub fn count(&self, pred: impl Fn(Outcome) -> bool) -> usize {
        self.samples.iter().filter(|s| pred(s.outcome)).count()
    }
    pub fn ok(&self) -> usize {
        self.count(|o| !matches!(o, Outcome::Failed(_)))
    }
    pub fn hits(&self) -> usize {
        self.count(|o| o == Outcome::Hit)
    }
    pub fn failed(&self) -> usize {
        self.samples.len() - self.ok()
    }
    /// Failures by kind, for the error message.
    pub fn failure_summary(&self) -> String {
        use Failure::*;
        [Connect, Io, Status, Body]
            .iter()
            .map(|f| format!("{f:?}={}", self.count(|o| o == Outcome::Failed(*f))))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Run one phase: `CLIENTS` threads take requests off one cursor over
/// `reqs` (document ids, entered at `first` and cycled) until
/// `max_requests` have been taken or a closed loop's deadline passes.
/// Every `span_every`-th request records spans; 0 records none.
pub fn run_phase(
    addr: SocketAddr,
    docs: &Docs,
    reqs: &[u32],
    first: usize,
    pace: Pace,
    max_requests: usize,
    span_every: usize,
) -> Phase {
    assert!(!reqs.is_empty(), "a phase needs requests");
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let worker = || {
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        let mut buf = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= max_requests {
                break;
            }
            let scheduled = match pace {
                Pace::Closed { deadline } => {
                    if start.elapsed() >= deadline {
                        break;
                    }
                    None
                }
                Pace::Open { rate_per_s } => {
                    let due = start + Duration::from_secs_f64(k as f64 / rate_per_s);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    Some(due)
                }
            };
            let doc = reqs[(first + k) % reqs.len()];
            let d = doc as usize;
            let begun = Instant::now();
            // A closed-loop request is due the moment it is sent.
            let due = scheduled.unwrap_or(begun);
            let traced = span_every > 0 && k.is_multiple_of(span_every);
            let mut marks = [begun; 3];
            let sent = exchange(addr, &docs.wire[d], &mut buf, traced.then_some(&mut marks));
            let done = Instant::now();
            let outcome = match sent {
                Ok(()) => judge(
                    &buf,
                    &docs.urls[d],
                    docs.sizes[d],
                    k.is_multiple_of(VERIFY_EVERY),
                ),
                Err(f) => Outcome::Failed(f),
            };
            samples.push(Sample {
                doc,
                due_ns: since(due),
                late_ns: begun.saturating_duration_since(due).as_nanos() as u64,
                lat_ns: done.saturating_duration_since(due).as_nanos() as u64,
                outcome,
                traced,
            });
            if traced && !matches!(outcome, Outcome::Failed(_)) {
                spans.push(Spans {
                    id: k,
                    doc,
                    hit: outcome == Outcome::Hit,
                    marks_ns: [
                        since(begun),
                        since(marks[0]),
                        since(marks[1]),
                        since(marks[2]),
                        since(done),
                    ],
                });
            }
        }
        (samples, spans)
    };
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            let (s, t) = h.join().expect("client thread panicked");
            samples.extend(s);
            spans.extend(t);
        }
    });
    samples.sort_by_key(|s| s.due_ns);
    spans.sort_by_key(|s| s.id);
    Phase { samples, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server answering every GET with a 1 KiB `200`; the request
    /// numbered `stall_at` is held for `stall` first. One connection at
    /// a time, like a saturated single worker.
    fn stub_server(stall_at: usize, stall: Duration, requests: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(requests).enumerate() {
                let mut s = conn.unwrap();
                let mut req = [0u8; 512];
                let n = s.read(&mut req).unwrap();
                let text = String::from_utf8_lossy(&req[..n]).to_string();
                let url = text.split(' ').nth(1).unwrap().to_string();
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let body = http::synthetic_body(&url, 1024);
                let mut head = Vec::new();
                http::encode_hit_head_into(&mut head, 1024, None);
                s.write_all(&head).unwrap();
                s.write_all(&body).unwrap();
            }
        });
        addr
    }

    fn one_doc() -> Docs {
        let url = "http://stub.test/a.html".to_string();
        Docs {
            wire: vec![crate::gen::wire_request(&url)],
            urls: vec![url],
            sizes: vec![1024],
        }
    }

    #[test]
    fn head_parser_reads_status_length_and_cache_flag() {
        let mut buf = Vec::new();
        http::encode_hit_head_into(&mut buf, 5, Some(9));
        let head_len = buf.len();
        buf.extend_from_slice(b"hello");
        assert_eq!(
            parse_head(&buf),
            Some(Head {
                status: 200,
                content_length: Some(5),
                hit: true,
                body_at: head_len,
            })
        );
        let miss = b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n";
        assert!(!parse_head(miss).unwrap().hit);
        assert_eq!(parse_head(b"HTTP/1.0 200 OK\r\n"), None);
        assert_eq!(parse_head(b"garbage\r\n\r\n"), None);
    }

    #[test]
    fn judge_rejects_wrong_status_length_and_bytes() {
        let url = "http://stub.test/a.html";
        let body = http::synthetic_body(url, 64);
        let response = |status: &str, len: usize, body: &[u8]| {
            let mut r = format!("HTTP/1.0 {status}\r\ncontent-length: {len}\r\n\r\n").into_bytes();
            r.extend_from_slice(body);
            r
        };
        assert_eq!(
            judge(&response("200 OK", 64, &body), url, 64, true),
            Outcome::Miss
        );
        assert_eq!(
            judge(&response("503 Busy", 64, &body), url, 64, false),
            Outcome::Failed(Failure::Status)
        );
        assert_eq!(
            judge(&response("200 OK", 64, &body[..60]), url, 64, false),
            Outcome::Failed(Failure::Body)
        );
        let mut wrong = body.to_vec();
        wrong[10] ^= 1;
        assert_eq!(
            judge(&response("200 OK", 64, &wrong), url, 64, false),
            Outcome::Miss
        );
        assert_eq!(
            judge(&response("200 OK", 64, &wrong), url, 64, true),
            Outcome::Failed(Failure::Body)
        );
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delayed() {
        // 100 req/s for 40 requests; request 10 stalls 50 ms, during
        // which five more fall due. They are sent late and their latency,
        // counted from the due time, carries the wait.
        let addr = stub_server(10, Duration::from_millis(50), 40);
        let phase = run_phase(
            addr,
            &one_doc(),
            &[0],
            0,
            Pace::Open { rate_per_s: 100.0 },
            40,
            0,
        );
        assert_eq!(phase.failed(), 0, "{}", phase.failure_summary());
        assert_eq!(phase.hits(), 40);
        let lat_ms = |k: usize| phase.samples[k].lat_ns as f64 / 1e6;
        assert!(lat_ms(10) >= 50.0, "stalled request: {} ms", lat_ms(10));
        // Due 10 ms into a 50 ms stall: at least ~35 ms of queueing that
        // a clock started at send time would have hidden.
        assert!(lat_ms(11) >= 30.0, "next request: {} ms", lat_ms(11));
        // With both clients held up, the request after that could not
        // even be sent when it fell due.
        assert!(phase.samples[12].late_ns >= 20_000_000);
        assert!(
            lat_ms(5) < 20.0,
            "request before the stall: {} ms",
            lat_ms(5)
        );
        let late = phase.samples.iter().filter(|s| s.late_ns > LATE_NS).count();
        assert!((2..=12).contains(&late), "{late} late requests");
        // Due times follow the schedule, not the responses.
        assert!(phase.samples[39].due_ns.abs_diff(390_000_000) < 1000);
    }

    #[test]
    fn closed_loop_stops_at_the_deadline_and_records_spans() {
        let addr = stub_server(usize::MAX, Duration::ZERO, usize::MAX);
        let pace = Pace::Closed {
            deadline: Duration::from_millis(100),
        };
        let phase = run_phase(addr, &one_doc(), &[0], 0, pace, usize::MAX, 1);
        assert!(phase.samples.len() > 10);
        assert_eq!(phase.failed(), 0, "{}", phase.failure_summary());
        assert_eq!(phase.spans.len(), phase.samples.len());
        for s in &phase.spans {
            assert!(s.marks_ns.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
        }
        assert!(phase.samples.iter().all(|s| s.late_ns == 0));
    }

    #[test]
    fn a_dead_port_counts_as_connect_failures() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let phase = run_phase(
            addr,
            &one_doc(),
            &[0],
            0,
            Pace::Open { rate_per_s: 1000.0 },
            6,
            0,
        );
        assert_eq!(phase.failed(), 6);
        assert_eq!(
            phase.count(|o| o == Outcome::Failed(Failure::Connect)),
            6,
            "{}",
            phase.failure_summary()
        );
    }
}
