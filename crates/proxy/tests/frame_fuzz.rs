//! Hostile-input battery for the cluster frame readers every byte a peer
//! sends goes through: the blocking [`webcache_proxy::cluster::read_frame`]
//! and the event loop's resumable [`FrameReader`], one length-prefix
//! framing and one payload decoder under both. Over generated frames and
//! arbitrary bytes, read whole or a few bytes per call as a socket may
//! deliver them — to the resumable reader with the socket running dry
//! (`WouldBlock`) between every two deliveries — both readers give the
//! same result, and:
//!
//! * every frame round-trips through [`encode_frame`], and a stream of
//!   frames reads back frame by frame;
//! * every truncation is an error, never a panic: a stream cut anywhere
//!   short of its length prefix, and a payload cut short under a length
//!   prefix that matches the cut;
//! * arbitrary bytes never panic, and what is accepted is canonical:
//!   re-encoding the frame gives back exactly the bytes it was read from.
//!   So a payload with bytes after the frame's last field is refused;
//! * the largest allocation follows the bytes received, whatever the
//!   length prefix or a count field inside the payload claims;
//! * a peer port's reader refuses a length prefix longer than any
//!   request, before it reads a payload byte.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use webcache_proxy::cluster::{
    encode_frame, read_frame, Frame, FrameReader, MAX_FRAME, MAX_REQUEST_FRAME,
};

// -----------------------------------------------------------------------
// Largest single allocation per thread.

struct PeakAllocator;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // The thread-local may be gone during thread teardown; skip then.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

// -----------------------------------------------------------------------

/// A reader that hands out at most `step` bytes per call, and when `dry`,
/// fails with `WouldBlock` before each delivery, as a non-blocking socket
/// whose peer sends a little at a time.
struct Trickle<'a> {
    rest: &'a [u8],
    step: usize,
    dry: Option<bool>,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(dry) = &mut self.dry {
            *dry = !*dry;
            if *dry {
                return Err(ErrorKind::WouldBlock.into());
            }
        }
        let n = buf.len().min(self.step).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// One `read_frame` over `wire` delivered `step` bytes per read: the
/// frame or the kind of error, and how many bytes it consumed.
fn decode(wire: &[u8], step: usize) -> (Result<Frame, ErrorKind>, usize) {
    let mut r = Trickle {
        rest: wire,
        step,
        dry: None,
    };
    let got = read_frame(&mut r).map_err(|e| e.kind());
    (got, wire.len() - r.rest.len())
}

/// [`decode`] through one [`FrameReader`], resumed after every
/// `WouldBlock` until it has the frame or an error.
fn resume(wire: &[u8], step: usize) -> (Result<Frame, ErrorKind>, usize) {
    let mut r = Trickle {
        rest: wire,
        step,
        dry: Some(false),
    };
    let mut reader = FrameReader::default();
    let got = loop {
        match reader.resume(&mut r) {
            Ok(Some(frame)) => break Ok(frame),
            Ok(None) => {}
            Err(e) => break Err(e.kind()),
        }
    };
    (got, wire.len() - r.rest.len())
}

/// `payload` under a length prefix that matches it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

/// Boundary values mixed into uniform ones.
fn u64_value() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..u64::MAX).prop_map(|(pick, v)| match pick {
        0 => 0,
        1 => u64::MAX,
        _ => v,
    })
}

fn u32_value() -> impl Strategy<Value = u32> {
    (0u8..4, 0u32..u32::MAX).prop_map(|(pick, v)| match pick {
        0 => 0,
        1 => u32::MAX,
        _ => v,
    })
}

/// A frame of any kind with any fields the wire can carry: a URL of at
/// most `u16::MAX` bytes, a `last_modified` below `u64::MAX`, at most
/// `u16::MAX` members.
fn frame() -> impl Strategy<Value = Frame> {
    (
        0u8..4,
        u32_value(),
        u64_value(),
        ".{0,60}",
        prop::option::of(0u64..u64::MAX),
        prop::collection::vec(0u8..=255, 0..1500),
        prop::collection::vec(u32_value(), 0..40),
    )
        .prop_map(
            |(kind, sender, epoch, url, last_modified, body, members)| match kind {
                0 => Frame::Query { sender, epoch, url },
                1 => Frame::Found {
                    epoch,
                    last_modified,
                    body,
                },
                2 => Frame::Miss { epoch },
                _ => Frame::Membership {
                    sender,
                    epoch,
                    members,
                },
            },
        )
}

/// The same result from both readers, read whole and a few bytes at a
/// time.
fn decode_every_way(wire: &[u8]) -> Result<(Result<Frame, ErrorKind>, usize), TestCaseError> {
    let whole = decode(wire, usize::MAX);
    for step in [1, 3, 4096, usize::MAX] {
        prop_assert_eq!(&decode(wire, step), &whole);
        prop_assert_eq!(&resume(wire, step), &whole);
    }
    Ok(whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_frame_round_trips_alone_and_in_a_stream(first in frame(), second in frame()) {
        let wire = encode_frame(&first);
        let (got, used) = decode_every_way(&wire)?;
        prop_assert_eq!(got, Ok(first.clone()));
        prop_assert_eq!(used, wire.len());

        // Bytes past a frame's length prefix belong to the next frame.
        let mut stream = wire.clone();
        stream.extend_from_slice(&encode_frame(&second));
        let mut r = Trickle {
            rest: &stream,
            step: 5,
            dry: None,
        };
        prop_assert_eq!(read_frame(&mut r).ok(), Some(first));
        prop_assert_eq!(read_frame(&mut r).ok(), Some(second));
        prop_assert!(r.rest.is_empty());
    }

    #[test]
    fn every_truncation_is_an_error(f in frame(), picks in prop::collection::vec(0.0f64..1.0, 1..24)) {
        let wire = encode_frame(&f);
        let payload = &wire[4..];
        // Every cut of a short frame, a sample of a long one's.
        let cuts: Vec<usize> = if wire.len() <= 200 {
            (0..wire.len()).collect()
        } else {
            picks.iter().map(|p| (p * wire.len() as f64) as usize).collect()
        };
        for cut in cuts {
            // The stream ends early: the length prefix is never met.
            let (got, _) = decode_every_way(&wire[..cut])?;
            prop_assert!(
                got == Err(ErrorKind::UnexpectedEof),
                "stream cut at {}: {:?}",
                cut,
                got
            );
            // The payload ends early under a prefix that says so: the
            // fields do not fit in it.
            if cut < payload.len() {
                let (got, used) = decode_every_way(&framed(&payload[..cut]))?;
                prop_assert!(got.is_err(), "payload cut at {} decoded: {:?}", cut, got);
                prop_assert_eq!(used, 4 + cut);
            }
        }
    }

    #[test]
    fn bytes_after_a_frames_last_field_are_refused(
        f in frame(),
        extra in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let mut payload = encode_frame(&f)[4..].to_vec();
        payload.extend_from_slice(&extra);
        let (got, _) = decode_every_way(&framed(&payload))?;
        prop_assert_eq!(got, Err(ErrorKind::InvalidData));
    }
}

/// A wire image that is not a frame the encoder wrote, of one of three
/// shapes: any bytes; a small plausible length prefix and kind over any
/// payload bytes; or an encoded frame with a few bytes overwritten.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        prop::collection::vec(0u8..=255, 0..600),
        (1u32..700, 0u8..6),
        frame(),
        prop::collection::vec((0.0f64..1.0, 0u8..=255), 1..4),
    )
        .prop_map(|(shape, bytes, (len, kind), f, flips)| match shape {
            0 => bytes,
            1 => {
                let mut wire = len.to_le_bytes().to_vec();
                wire.push(kind);
                wire.extend_from_slice(&bytes);
                wire
            }
            _ => {
                let mut wire = encode_frame(&f);
                for (at, byte) in flips {
                    let at = (at * wire.len() as f64) as usize;
                    wire[at] = byte;
                }
                wire
            }
        })
}

#[test]
fn arbitrary_bytes_never_panic_and_what_is_accepted_is_canonical() {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(2048));
    let result = runner.run(&hostile(), |wire| {
        let (got, used) = decode_every_way(&wire)?;
        let class = match got {
            Ok(frame) => {
                prop_assert_eq!(&encode_frame(&frame)[..], &wire[..used]);
                "frame"
            }
            Err(ErrorKind::UnexpectedEof) => "truncated",
            Err(ErrorKind::InvalidData) => "refused",
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error kind {other:?}"
                )))
            }
        };
        *seen.entry(class).or_default() += 1;
        Ok(())
    });
    if let Err(e) = result {
        panic!("{e}");
    }
    // The generator reaches every outcome, so the checks mean something.
    for class in ["frame", "truncated", "refused"] {
        assert!(seen.get(class).copied().unwrap_or(0) >= 50, "{seen:?}");
    }
}

/// A frame whose count field (URL length, body length, member count)
/// claims the most it can, under a length prefix of [`MAX_FRAME`], of
/// anything up to it, or of exactly the bytes that follow it, followed by
/// however many bytes actually arrive.
fn overpromise() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, (0u8..3, 1u32..MAX_FRAME), 0usize..20_000, 0u8..=255).prop_map(
        |(kind, (pick, len), received, fill)| {
            let mut wire = len.to_le_bytes().to_vec();
            match kind {
                0 => {
                    wire.push(1);
                    wire.extend_from_slice(&[fill; 12]);
                    wire.extend_from_slice(&u16::MAX.to_le_bytes());
                }
                1 => {
                    wire.push(2);
                    wire.extend_from_slice(&[fill; 16]);
                    wire.extend_from_slice(&u32::MAX.to_le_bytes());
                }
                2 => {
                    wire.push(4);
                    wire.extend_from_slice(&[fill; 12]);
                    wire.extend_from_slice(&u16::MAX.to_le_bytes());
                }
                _ => wire.push(fill),
            }
            wire.resize(wire.len() + received, fill);
            let len = match pick {
                0 => MAX_FRAME,
                1 => wire.len() as u32 - 4,
                _ => len,
            };
            wire[..4].copy_from_slice(&len.to_le_bytes());
            wire
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_largest_allocation_follows_the_bytes_received(wire in overpromise()) {
        // The reader's own read-ahead, reserved on any length prefix.
        const READ_AHEAD: usize = 4096;
        for (step, reader) in [1, usize::MAX].into_iter().flat_map(|step| {
            [(step, decode as fn(&[u8], usize) -> _), (step, resume)]
        }) {
            PEAK.with(|p| p.set(0));
            let (got, _) = reader(&wire, step);
            let peak = PEAK.with(Cell::get);
            prop_assert!(
                peak <= 2 * wire.len().max(READ_AHEAD),
                "allocated {} bytes at once for {} received ({:?})",
                peak,
                wire.len(),
                got.map(|_| "a frame")
            );
        }
    }
}

#[test]
fn a_last_modified_the_wire_cannot_carry_goes_one_lower() {
    let wire = encode_frame(&Frame::Found {
        epoch: 1,
        last_modified: Some(u64::MAX),
        body: b"x".to_vec(),
    });
    assert_eq!(
        decode(&wire, usize::MAX).0,
        Ok(Frame::Found {
            epoch: 1,
            last_modified: Some(u64::MAX - 1),
            body: b"x".to_vec(),
        })
    );
}

/// A peer port reads with [`FrameReader::inbound`]: it refuses a length
/// prefix longer than the longest request [`encode_frame`] makes — a
/// `MEMBERSHIP` of `u16::MAX` members — on the prefix alone, reading
/// nothing after it, while that longest request and the longest `QUERY`
/// read whole. A reply's reader takes the same prefix and waits for its
/// payload.
#[test]
fn an_inbound_reader_refuses_a_prefix_no_request_has() {
    let membership = encode_frame(&Frame::Membership {
        sender: 1,
        epoch: 2,
        members: (0..u32::from(u16::MAX)).collect(),
    });
    assert_eq!(membership.len(), 4 + MAX_REQUEST_FRAME as usize);
    let query = encode_frame(&Frame::Query {
        sender: 1,
        epoch: 2,
        url: "q".repeat(u16::MAX.into()),
    });
    assert!(query.len() < membership.len());
    for wire in [&membership, &query] {
        let read = FrameReader::inbound().resume(&mut &wire[..]);
        assert!(matches!(read, Ok(Some(_))), "{:?}", read.map(|_| ()));
    }

    let mut wire = (MAX_REQUEST_FRAME + 1).to_le_bytes().to_vec();
    wire.extend_from_slice(&[4; 64]);
    for step in [1, usize::MAX] {
        let mut r = Trickle {
            rest: &wire,
            step,
            dry: Some(false),
        };
        let mut reader = FrameReader::inbound();
        let refused = loop {
            match reader.resume(&mut r) {
                Ok(None) => {}
                done => break done,
            }
        };
        let kind = refused.map(|_| ()).map_err(|e| e.kind());
        assert_eq!(kind, Err(ErrorKind::InvalidData), "step {step}");
        assert_eq!(r.rest.len(), wire.len() - 4, "read past the prefix");
    }
    let mut reply = FrameReader::default();
    let read = reply
        .resume(&mut &wire[..4])
        .map(|_| ())
        .map_err(|e| e.kind());
    assert_eq!(read, Err(ErrorKind::UnexpectedEof));
}
