//! The serving engine: one event-loop thread waits on every client
//! socket — and on the origin sockets of the misses it runs itself —
//! while worker threads do whatever may block or sleep and make one
//! non-blocking attempt to write the result.
//!
//! A thread per in-flight connection would cap concurrency at the pool
//! size regardless of what those connections are doing — a thousand
//! clients dribbling bytes would pin every thread while the CPU idles.
//! The reactor inverts that: everything that can wait on a client
//! (accepting, incremental request parsing, draining a response the
//! socket would not take whole, stall timeouts) happens on a single
//! thread multiplexed by `epoll`, and a connection only costs a worker
//! when its request needs something the loop cannot do without waiting.
//! In-flight connections are bounded by file descriptors, not threads.
//!
//! Ownership rule: the thread that holds a `TcpStream` is the only one
//! that touches its fd. A client stream is in exactly one place — the
//! loop's slab, a [`Job`], or a [`Completion`] — and moves between them
//! by value. An origin stream likewise: the idle pool
//! ([`crate::upstream`]), a worker's exchange, or the `Fetching` state
//! of one connection in the slab.
//!
//! ## Anatomy
//!
//! * **epoll wrapper** — a minimal hand-rolled binding
//!   ([`Epoll`], [`EventFd`]) over raw syscalls, following the
//!   vendored-deps convention of small direct `extern "C"` blocks
//!   (see `vendor/memmap2`) instead of a new dependency. Note
//!   `epoll_event` is packed on x86-64.
//! * **first turn** — the listener is set to `TCP_DEFER_ACCEPT` (for
//!   the read timeout, in whole seconds), so the kernel wakes the loop
//!   for a connection once its first bytes are in, not at the
//!   handshake. The loop reads at accept: a whole request head goes
//!   straight on — a hit is written and closed, a miss sent to the
//!   origin, a dispatch handed to a worker — and that socket is never
//!   registered with epoll (counted in `read_at_accept`). `Reading` may
//!   therefore begin unregistered; only a connection whose head is still
//!   incomplete is added under `EPOLLIN`. `Conn::watched` records whether
//!   the client fd is in the epoll set, so `ADD` versus `MOD`, and
//!   whether a `DEL` is owed, are never guessed. A client that sends
//!   nothing stays in the kernel until the deferral lapses, then waits
//!   out its read timeout here like any other. Each listener readiness
//!   takes one connection: the kernel reserves a descriptor and builds a
//!   socket file before `accept4` looks at the queue, so an `accept4` that
//!   finds it empty costs as much as one that does not, several times an
//!   `epoll_wait`. The listener is level-triggered, so while connections
//!   are queued the next wait reports it again (nginx's `multi_accept
//!   off`).
//! * **last turn** — the listener is also set to `TCP_CORK`, and every
//!   socket accepted from it inherits the option. A corked socket sends
//!   full segments at once and holds back only a partial last one. Every
//!   response is followed by `close`, and the kernel (`tcp_send_fin`)
//!   puts the FIN on that held tail and pushes it: the response's last
//!   bytes and the FIN leave as one segment, whoever wrote them — the
//!   loop, a worker, a hand-back drained under `EPOLLOUT`, the `503` shed
//!   — with no syscall per request. The hazard is a close over unread
//!   client bytes: the kernel then resets the connection and discards
//!   what the cork held. So a response keeps the cork only for a
//!   well-formed `GET` whose head came in a read that did not fill the
//!   loop's read buffer (`Conn::head_drained`). A head that filled it, a
//!   `400`, a `501` and a `504` are uncorked first (`TCP_CORK` 0, which
//!   also pushes) and leave as they are written, counted in `uncorked`.
//!   A connection kept open after its response would have to uncork, or
//!   push, the same way, or its tail would wait out the kernel's 200 ms
//!   cork ceiling.
//! * **slab** — connections live in a generation-tagged slab; the epoll
//!   token packs `(generation, index)` so events for a recycled slot
//!   are detected and dropped.
//! * **deadline wheel** — stall timeouts are hashed-wheel ticks, not
//!   per-socket `SO_RCVTIMEO`. A client stalling mid-request past
//!   [`crate::ProxyConfig::read_timeout`] gets `504`; an origin stalling
//!   mid-exchange past it loses the exchange to a worker; progress
//!   re-arms the deadline, as each successful read of a blocking reader
//!   under `SO_RCVTIMEO` would. A connection gets its one entry when its
//!   first turn ends in the slab; one answered in that turn never has
//!   one. The ticks also bound how long the listener stays out of epoll
//!   after `accept4` found no descriptor to accept into (`EMFILE` and
//!   kin): it goes back at the next tick or the loop's next close,
//!   whichever is first, instead of waking the loop at once, forever.
//! * **inline paths** — a parsed request is first offered to the cache
//!   under a single `try_lock`ed shard guard ([`lookup`]). A fresh hit
//!   is served right there. A miss or an expired copy is fetched right
//!   there too *if* nothing about it can block: the host has no breaker
//!   entry, this node is the key's home (no peer to ask), and an idle
//!   kept-alive origin socket is at hand. The loop then sends the
//!   (conditional) GET with `MSG_DONTWAIT`, parks the connection in
//!   `Fetching` with the origin socket registered under the connection's
//!   own token (the client socket is out of epoll meanwhile), feeds the
//!   resumable response parser whatever each `EPOLLIN` brings, and on the
//!   last body byte stores the document ([`Miss::conclude`], again under
//!   a try-lock) and writes the response — no [`Job`], no owned request,
//!   no second thread. The table of connections in `Fetching` is the
//!   loop's record of the fetches in flight.
//! * **dispatch** — everything else goes to a worker: a contended shard,
//!   a host with a breaker entry, a cluster non-owner, no idle origin
//!   socket (cold start, an origin that answers `Connection: close`),
//!   and **any** failure of an inline attempt — I/O error, end of
//!   stream, short body, wheel expiry, malformed head, `5xx`: the origin
//!   socket is discarded and the request redone on a worker from the
//!   top, uncounted, so retries, backoff, timeouts, breakers and
//!   serve-stale are accounted in one place only
//!   ([`proxy_get_at`](crate::serve::proxy_get_at)). A
//!   finished inline fetch whose shard is contended rides along with its
//!   body. The connection leaves the slab (and epoll, if it was in),
//!   its pooled buffers go back, and the stream itself travels in the [`Job`] on the bounded
//!   worker queue; a full queue hands the stream straight back and the
//!   loop sheds with `503` (counted in [`crate::ProxyStats::rejected`]).
//!   The worker writes the response with the same non-blocking
//!   two-segment `writev` the loop uses and closes the socket by dropping
//!   it: a dispatched request crosses threads once. Only a response the
//!   socket would not take whole (`EAGAIN`: a body larger than the send
//!   buffer, a slow reader) comes back as a [`Completion`] through an
//!   `eventfd`, to be drained under `EPOLLOUT` and the deadline wheel
//!   like any other — so a worker never waits on a client.

use crate::bufpool::BufPool;
use crate::cache_proxy::ProxyState;
use crate::config::ProxyConfig;
use crate::conn::{write_segments, Conn, ConnState, Event};
use crate::fetch::{fetch_origin_resilient, host_of};
use crate::http::{self, Response};
use crate::serve::{begin_request, finalize_response, lookup, Lookup, Miss, ShardLock, Work};
use crate::stats::{admin_stats_response, ADMIN_STATS_TARGET};
use crate::upstream::{Begun, Fetched, IdlePool, InlineUpstream, Progress, Upstream};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Raw epoll / eventfd bindings (Linux). Small and direct, per the
// repo's vendored-FFI convention — no libc crate.

#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOCK_NONBLOCK: i32 = 0o4000;
const MSG_DONTWAIT: i32 = 0x40;
const MSG_NOSIGNAL: i32 = 0x4000;
const IPPROTO_TCP: i32 = 6;
const TCP_CORK: i32 = 3;
const TCP_DEFER_ACCEPT: i32 = 9;

/// Readiness entries one `epoll_wait` may return.
const MAX_EVENTS: usize = 256;

/// The event loop's one client read buffer. A request head that fills it
/// in one read may have more bytes behind it (module docs, *last turn*).
const READ_BUF: usize = 4096;

/// `errno`s with which `accept4` says the process or the kernel is out of
/// descriptors or memory: `ENOMEM`, `ENFILE`, `EMFILE`, `ENOBUFS`.
const OUT_OF_RESOURCES: [i32; 4] = [12, 23, 24, 105];

/// One segment of a vectored write: field-compatible with `struct iovec`
/// from `<sys/uio.h>` (`iov_base`, `iov_len`).
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const u8,
    len: usize,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn accept4(fd: i32, addr: *mut u8, addrlen: *mut u32, flags: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    fn close(fd: i32) -> i32;
}

/// Vectored write of two segments (response head, then body) in one
/// syscall — the kernel copies from both without the segments ever being
/// concatenated in user space. Empty segments are skipped at the iovec
/// level. Returns the kernel's (possibly short) byte count; callers
/// resume from wherever it landed (see `conn::write_segments`).
pub(crate) fn write_two(fd: RawFd, a: &[u8], b: &[u8]) -> io::Result<usize> {
    let mut iov = [IoVec {
        base: std::ptr::null(),
        len: 0,
    }; 2];
    let mut cnt = 0usize;
    for seg in [a, b] {
        if !seg.is_empty() {
            iov[cnt] = IoVec {
                base: seg.as_ptr(),
                len: seg.len(),
            };
            cnt += 1;
        }
    }
    if cnt == 0 {
        return Ok(0);
    }
    let n = unsafe { writev(fd, iov.as_ptr(), cnt as i32) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// A socket read and written without ever waiting, whatever mode the
/// socket itself is in (`MSG_DONTWAIT`): when nothing can be transferred
/// at once the call fails with `WouldBlock`. This is how the event loop
/// uses an origin socket that a worker, next time, will block on.
pub(crate) struct DontWait<'a>(pub &'a TcpStream);

impl Read for DontWait<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: `buf` is valid for writes of `buf.len()` bytes and the
        // fd is open for as long as the borrowed stream lives.
        let n = unsafe {
            recv(
                self.0.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len(),
                MSG_DONTWAIT,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

impl Write for DontWait<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is valid for reads of `buf.len()` bytes and the
        // fd is open for as long as the borrowed stream lives.
        let n = unsafe {
            send(
                self.0.as_raw_fd(),
                buf.as_ptr(),
                buf.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Accept one connection, already non-blocking and close-on-exec: one
/// syscall where `TcpListener::accept` + `set_nonblocking` is two. The
/// peer address is not asked for — nothing reads it.
fn accept_nonblocking(listener: &TcpListener) -> io::Result<TcpStream> {
    // SAFETY: null address and length pointers are how `accept4` is told
    // not to report the peer; the listener fd is open for the call.
    let fd = unsafe {
        accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            SOCK_NONBLOCK | SOCK_CLOEXEC,
        )
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a socket `accept4` just returned; nothing else
    // holds it, so the `TcpStream` is its sole owner.
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

/// Have the kernel hold each new connection on `listener` until its
/// first bytes arrive, for up to `wait` rounded up to whole seconds (the
/// kernel rounds further, up to its SYN-ACK retransmission schedule):
/// the loop then wakes once per connection, with the request already
/// there to read. A connection that stays silent that long is accepted
/// without data, as are those past the listen backlog (syncookies).
fn defer_accept(listener: &TcpListener, wait: Duration) -> io::Result<()> {
    let secs = wait.as_secs() + u64::from(wait.subsec_nanos() > 0);
    let secs = secs.min(i32::MAX as u64) as i32;
    set_tcp_option(listener.as_raw_fd(), TCP_DEFER_ACCEPT, secs)
}

/// Set the `IPPROTO_TCP` option `name` of socket `fd` to `value`.
fn set_tcp_option(fd: RawFd, name: i32, value: i32) -> io::Result<()> {
    // SAFETY: `value` outlives the call and the length is its size.
    let rc = unsafe {
        setsockopt(
            fd,
            IPPROTO_TCP,
            name,
            &value,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A readiness queue: the thinnest safe wrapper over the three epoll
/// syscalls.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(self.fd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Stop watching an fd that stays open: a client socket bound for a
    /// worker or parked behind an inline fetch, an origin socket going
    /// back to the idle pool, a listener with no descriptor to accept
    /// into. Closing a socket that was never duplicated removes it from
    /// the set by itself.
    fn del(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness into `events`, a buffer the caller keeps from
    /// one wait to the next (so it is zeroed once, not per wait);
    /// `timeout` of `None` blocks indefinitely. Returns how many entries
    /// the kernel filled: none for an interrupted wait (a signal during a
    /// graceful flush), so an earlier batch is never replayed.
    fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            // Round up so a 0.4 ms residue does not busy-spin.
            Some(t) => t.as_millis().max(1).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: the kernel writes at most `max` entries into `events`.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// An `eventfd`-based waker: a worker nudges the event loop out of
/// `epoll_wait` when it hands a connection back (and shutdown uses the
/// same doorbell).
struct EventFd {
    fd: RawFd,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    fn notify(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, one.to_ne_bytes().as_ptr(), 8);
        }
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// ---------------------------------------------------------------------
// Slab of connections with generation-tagged tokens.

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

fn pack_token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// Connection storage with O(1) insert/remove and recycled indices.
/// Each slot carries a generation, bumped on removal, so a token minted
/// for a previous occupant never resolves to the new one.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    /// Store `conn`, stamping it with its slot's current generation.
    fn insert(&mut self, mut conn: Conn) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let gen = self.gens[idx];
        conn.gen = gen;
        self.slots[idx] = Some(conn);
        self.live += 1;
        pack_token(idx, gen)
    }

    fn get(&mut self, token: u64) -> Option<&mut Conn> {
        let (idx, gen) = unpack_token(token);
        match self.slots.get_mut(idx) {
            Some(Some(conn)) if conn.gen == gen => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let (idx, gen) = unpack_token(token);
        if self.gens.get(idx).copied() != Some(gen) {
            return None;
        }
        let conn = self.slots.get_mut(idx)?.take()?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| pack_token(i, c.gen)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Deadline wheel.

/// A hashed timing wheel over connection tokens. Every connection in
/// the slab has exactly one entry, scheduled when its first turn ends
/// (one answered or dispatched within that turn never gets one).
/// Entries are lazy: a connection re-arms by moving its `deadline`
/// field, not by touching the wheel; when its entry fires early, the
/// event loop reinserts it at the new deadline. Stale entries for
/// connections that closed or moved to a worker fall out on the
/// generation check.
struct Wheel {
    slots: Vec<Vec<u64>>,
    granularity: Duration,
    /// Last tick whose slot has been drained.
    cursor: u64,
    /// Live entries across all slots (including stale ones not yet
    /// drained) — zero means `epoll_wait` may block indefinitely.
    entries: usize,
    start: Instant,
}

impl Wheel {
    fn new(read_timeout: Duration) -> Wheel {
        // Aim for ~1/16 of the timeout per tick so expiry error is a
        // small fraction of the timeout itself, bounded to sane wall
        // times; size the wheel to hold two timeout horizons.
        let granularity = (read_timeout / 16)
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(250));
        let slots = (2 * read_timeout.as_millis() / granularity.as_millis().max(1) + 2) as usize;
        Wheel {
            // Pre-capacitied slots: a slot's first few entries must not
            // allocate, or the allocator sneaks back onto the hit path
            // every time the cursor laps a previously-unused slot.
            slots: (0..slots.max(4)).map(|_| Vec::with_capacity(32)).collect(),
            granularity,
            cursor: 0,
            entries: 0,
            start: Instant::now(),
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.start).as_nanos() / self.granularity.as_nanos().max(1))
            as u64
    }

    /// Insert an entry that should fire at (or just after) `deadline`.
    fn schedule(&mut self, token: u64, deadline: Instant) {
        // Clamp far deadlines into the wheel's horizon; the lazy
        // reinsertion on fire walks them forward.
        let tick = self
            .tick_of(deadline)
            .min(self.cursor + self.slots.len() as u64 - 1)
            .max(self.cursor + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(token);
        self.entries += 1;
    }

    /// Drain every slot the clock has passed into `fired` (cleared
    /// first), leaving candidate tokens. The caller checks each
    /// candidate's actual deadline and either expires it or hands it
    /// back via [`Wheel::schedule`]. Taking the output buffer as a
    /// parameter lets the event loop reuse one scratch `Vec` forever
    /// instead of allocating a fresh one per loop iteration. Returns
    /// whether the clock passed a tick at all.
    fn advance_into(&mut self, now: Instant, fired: &mut Vec<u64>) -> bool {
        fired.clear();
        let (from, target) = (self.cursor, self.tick_of(now));
        while self.cursor < target {
            self.cursor += 1;
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            fired.extend_from_slice(&self.slots[slot]);
            self.slots[slot].clear();
        }
        self.entries -= fired.len();
        self.cursor != from
    }

    /// How long `epoll_wait` may sleep before the next slot is due;
    /// `None` when the wheel is empty.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        (self.entries != 0).then(|| self.until_next_tick(now))
    }

    /// Time from `now` to the next tick, whether or not anything is
    /// scheduled for it.
    fn until_next_tick(&self, now: Instant) -> Duration {
        let next_due = self.start
            + Duration::from_nanos((self.cursor + 1) * self.granularity.as_nanos() as u64);
        next_due
            .saturating_duration_since(now)
            .max(Duration::from_millis(1))
    }
}

// ---------------------------------------------------------------------
// Worker handoff.

/// A connection the event loop could not serve inline, bound for a
/// worker: the client socket itself (already out of the slab and out of
/// epoll — whoever holds the `Job` is the only one touching the fd) and
/// what of its request the worker needs. Dropping a `Job` closes its
/// socket.
struct Job {
    stream: TcpStream,
    target: String,
    /// The client's `If-Modified-Since`.
    if_modified_since: Option<u64>,
    work: Work,
}

/// A connection on its way back to the event loop because the socket
/// would not take the worker's response whole: what is left of it is
/// `head` then `body` from byte `pos` (the cursor of
/// [`write_segments`]).
struct Completion {
    stream: TcpStream,
    head: Vec<u8>,
    body: Bytes,
    pos: usize,
}

/// Bounded MPMC job queue; a full queue sheds the request with `503`.
struct JobQueue {
    inner: StdMutex<JobQueueInner>,
    ready: Condvar,
    depth: usize,
}

struct JobQueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: StdMutex::new(JobQueueInner {
                jobs: VecDeque::with_capacity(depth),
                closed: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.closed || q.jobs.len() >= self.depth {
            return Err(job);
        }
        q.jobs.push_back(job);
        // Wake a worker only once the queue is unlocked: woken under the
        // lock, its first act would be to block on it.
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<Job> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(j) = q.jobs.pop_front() {
                return Some(j);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuse further jobs and drop the ones still queued, which closes
    /// their sockets; a job a worker already holds runs to its end.
    fn close(&self) {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        q.closed = true;
        q.jobs.clear();
        drop(q);
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// The reactor proper.

/// Handles to a running reactor: the event-loop thread plus its worker
/// pool.
pub(crate) struct Reactor {
    shutdown: Arc<AtomicBool>,
    waker: Arc<EventFd>,
    jobs: Arc<JobQueue>,
    event_loop: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Take ownership of a bound listener and start serving on it.
    pub fn start(
        listener: TcpListener,
        origin: SocketAddr,
        config: ProxyConfig,
        state: Arc<ProxyState>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        defer_accept(&listener, config.read_timeout)?;
        // Every socket accepted from the listener inherits the cork
        // (module docs, *last turn*).
        set_tcp_option(listener.as_raw_fd(), TCP_CORK, 1)?;
        let epoll = Epoll::new()?;
        let waker = Arc::new(EventFd::new()?);
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(waker.fd, EPOLLIN, WAKER_TOKEN)?;

        let jobs = Arc::new(JobQueue::new(config.queue_depth));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let idle = Arc::new(IdlePool::new());

        let workers = (0..config.workers)
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                let idle = Arc::clone(&idle);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let mut up = Upstream::new(origin, &config, idle);
                    // Response-head buffer kept across jobs (it leaves
                    // with a hand-back and is grown again).
                    let mut head = Vec::new();
                    while let Some(mut job) = jobs.pop() {
                        state.counters.worker_jobs.add(1);
                        let target = &job.target;
                        let origin =
                            |since| fetch_origin_resilient(&mut up, target, since, &config, &state);
                        let resp = job.work.run(origin, config, &state, target);
                        let resp = finalize_response(job.if_modified_since, resp);
                        http::encode_response_head_into(&mut head, &resp);
                        let mut pos = 0;
                        // One non-blocking attempt, never a wait: on
                        // `Done` (all sent, or the client is gone) the
                        // job drops here and that closes the socket; a
                        // socket that is full goes back to the loop.
                        if let Event::Continue =
                            write_segments(&mut job.stream, &head, &resp.body, &mut pos)
                        {
                            state.counters.write_handbacks.add(1);
                            completions.lock().push(Completion {
                                stream: job.stream,
                                head: std::mem::take(&mut head),
                                body: resp.body,
                                pos,
                            });
                            waker.notify();
                        }
                    }
                })
            })
            .collect();

        let event_loop = {
            let shutdown = Arc::clone(&shutdown);
            let waker = Arc::clone(&waker);
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || {
                let mut lp = EventLoop {
                    epoll,
                    listener,
                    waker,
                    completions,
                    jobs,
                    shutdown,
                    slab: Slab::default(),
                    wheel: Wheel::new(config.read_timeout),
                    pool: BufPool::new(),
                    upstream: InlineUpstream::new(idle),
                    fired_scratch: Vec::new(),
                    read_buf: vec![0; READ_BUF].into_boxed_slice(),
                    listener_parked: false,
                    config,
                    state,
                };
                lp.run();
            })
        };

        Ok(Reactor {
            shutdown,
            waker,
            jobs,
            event_loop: Some(event_loop),
            workers,
        })
    }

    /// Stop the event loop and the workers, joining all threads. Every
    /// client socket closes with its holder: the loop closes its slab,
    /// queued jobs and undelivered completions are dropped, and a worker
    /// mid-job finishes it and answers.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.jobs.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    waker: Arc<EventFd>,
    completions: Arc<Mutex<Vec<Completion>>>,
    jobs: Arc<JobQueue>,
    shutdown: Arc<AtomicBool>,
    slab: Slab,
    wheel: Wheel,
    /// Free-list of parser/head buffers cycled through connections, so a
    /// warmed loop accepts and serves without heap allocation.
    pool: BufPool,
    /// The loop's own way to the origin, for the misses it runs itself.
    upstream: InlineUpstream,
    /// Reused output buffer for [`Wheel::advance_into`].
    fired_scratch: Vec<u64>,
    /// Every client read goes through this one buffer, zeroed once.
    read_buf: Box<[u8]>,
    /// The listener is out of epoll because the last `accept4` found the
    /// process or the kernel out of descriptors: level-triggered, it
    /// would wake the loop again at once, for as long as that lasts. It
    /// goes back in when the loop next closes a connection or the wheel
    /// next ticks, whichever comes first.
    listener_parked: bool,
    config: ProxyConfig,
    state: Arc<ProxyState>,
}

/// What the event loop decided to do with a parsed request head, computed
/// under the connection borrow and acted on after it ends (the actions
/// re-borrow the slab and, for hits, consume the body).
enum FastOutcome {
    /// Malformed or unsupported request: answer this status and close.
    Reject(u16),
    /// Admin stats endpoint: build and serve the JSON snapshot inline
    /// (no clock tick, no worker round trip).
    Admin,
    /// Fresh cache hit served inline — the zero-copy path.
    Hit {
        body: Bytes,
        last_modified: Option<u64>,
        /// Downstream conditional GET where our copy is not newer:
        /// answer a bodyless `304` (same conversion as
        /// `finalize_response`, done inline so no `Response` is built).
        not_modified: bool,
    },
    /// No fresh copy: ask the origin — from here if nothing about that
    /// can block, else through a worker.
    Miss(Miss),
    /// The shard is contended: a worker waits for it.
    Contended { now: u64 },
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let now = Instant::now();
            let timeout = if self.listener_parked {
                Some(self.wheel.until_next_tick(now))
            } else {
                self.wheel.next_timeout(now)
            };
            let Ok(n) = self.epoll.wait(&mut events, timeout) else {
                break;
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events[..n] {
                // Copy fields out of the packed struct; taking references
                // into it would be UB.
                let (evs, token) = (ev.events, ev.data);
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {
                        self.waker.drain();
                        self.drain_completions();
                    }
                    _ => self.conn_ready(token, evs),
                }
            }
            self.expire_deadlines();
        }
        // Shutdown: close every connection the loop holds; workers are
        // joined by `Reactor::shutdown` after the job queue closes.
        for token in self.slab.tokens() {
            self.close_conn(token);
        }
    }

    /// Accept one connection per readiness; the level-triggered listener
    /// reports the next (module docs, *first turn*). Accepting is cheap (a
    /// few hundred bytes of state), so the reactor admits every connection
    /// and applies backpressure at dispatch instead. Out of descriptors,
    /// the listener is parked rather than polled (see
    /// [`EventLoop::listener_parked`]).
    fn accept_ready(&mut self) {
        loop {
            match accept_nonblocking(&self.listener) {
                Ok(stream) => {
                    let head = self.pool.get_head();
                    return self.admit(stream, head, None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.raw_os_error()
                        .is_some_and(|n| OUT_OF_RESOURCES.contains(&n)) =>
                {
                    self.epoll.del(self.listener.as_raw_fd());
                    self.listener_parked = true;
                    return;
                }
                Err(_) => return,
            }
        }
    }

    /// Put a parked listener back into epoll.
    fn unpark_listener(&mut self) {
        if self.listener_parked
            && self
                .epoll
                .add(self.listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
                .is_ok()
        {
            self.listener_parked = false;
        }
    }

    /// Give a connection a slab slot, an I/O deadline and its first
    /// turn; if that turn leaves it in the slab, its one wheel entry. A
    /// fresh accept enters in `Reading`, unregistered, and is read at
    /// once (module docs, *first turn*). A connection coming back from
    /// the worker side (a hand-back, a shed job) has `unsent`, the body
    /// and cursor of a response whose head is in `head`, and enters in
    /// `Writing` under `EPOLLOUT`.
    fn admit(&mut self, stream: TcpStream, head: Vec<u8>, unsent: Option<(Bytes, usize)>) {
        let (state, fresh) = match unsent {
            None => (ConnState::Reading, true),
            Some((body, pos)) => (ConnState::Writing { body, pos }, false),
        };
        let deadline = Instant::now() + self.config.read_timeout;
        let parser = self.pool.get_parser();
        let token = self
            .slab
            .insert(Conn::new(stream, parser, head, state, deadline));
        if fresh {
            self.read_request(token);
        } else {
            self.watch_client(token, EPOLLOUT);
        }
        if let Some(conn) = self.slab.get(token) {
            let deadline = conn.deadline;
            self.wheel.schedule(token, deadline);
        }
    }

    /// The connection made progress: push its I/O deadline out. Its
    /// wheel entry stays where it is and is walked forward when it fires.
    fn arm_deadline(&mut self, token: u64) {
        let deadline = Instant::now() + self.config.read_timeout;
        if let Some(conn) = self.slab.get(token) {
            conn.deadline = deadline;
        }
    }

    /// Read what the client has sent and act on it. A request whose head
    /// is still incomplete waits under `EPOLLIN`: registered now if this
    /// was the read at accept, its deadline pushed out otherwise.
    fn read_request(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        match conn.on_readable(&mut self.read_buf) {
            Event::Continue if conn.watched => self.arm_deadline(token),
            Event::Continue => self.watch_client(token, EPOLLIN),
            Event::Request => {
                if !conn.watched {
                    self.state.counters.read_at_accept.add(1);
                }
                self.handle_request(token);
            }
            Event::Reject(status) => self.reject(token, status),
            Event::Done => self.close_conn(token),
        }
    }

    /// Take the listener's cork out of a connection's socket before its
    /// response is written, and count it in `uncorked`. The client may
    /// have sent bytes the loop will never read, and closing over unread
    /// bytes resets the connection and discards what the cork still holds;
    /// uncorked, the response leaves as it is written (module docs, *last
    /// turn*).
    fn uncork(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        if set_tcp_option(conn.stream.as_raw_fd(), TCP_CORK, 0).is_ok() {
            self.state.counters.uncorked.add(1);
        }
    }

    /// Answer `status` uncorked and close.
    fn reject(&mut self, token: u64, status: u16) {
        self.uncork(token);
        self.respond(token, Response::status_only(status));
    }

    /// Set the client socket's epoll interest to `interest`: `ADD` if it
    /// is not in the set yet, `MOD` if it is. A socket epoll refuses is
    /// closed.
    fn watch_client(&mut self, token: u64, interest: u32) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let op = if conn.watched {
            EPOLL_CTL_MOD
        } else {
            EPOLL_CTL_ADD
        };
        if self
            .epoll
            .ctl(op, conn.stream.as_raw_fd(), interest, token)
            .is_err()
        {
            self.close_conn(token);
            return;
        }
        conn.watched = true;
    }

    fn conn_ready(&mut self, token: u64, events: u32) {
        let Some(conn) = self.slab.get(token) else {
            return; // stale event for a recycled slot
        };
        if let ConnState::Fetching { exchange, .. } = &mut conn.state {
            // Only the origin socket is registered under this token now,
            // and its errors and hang-ups surface from the read.
            match exchange.on_readable() {
                Progress::Pending => self.arm_deadline(token),
                Progress::Done {
                    fetched,
                    keep_alive,
                } => self.finish_fetch(token, fetched, keep_alive),
                Progress::Failed => self.abandon_fetch(token),
            }
            return;
        }
        if events & (EPOLLERR | EPOLLHUP) != 0 && events & (EPOLLIN | EPOLLOUT) == 0 {
            self.close_conn(token);
            return;
        }
        if events & EPOLLIN != 0 && matches!(conn.state, ConnState::Reading) {
            self.read_request(token);
            return;
        }
        if events & EPOLLOUT != 0 {
            let Some(conn) = self.slab.get(token) else {
                return;
            };
            match conn.on_writable() {
                Event::Continue => self.arm_deadline(token),
                Event::Done => self.close_conn(token),
                _ => {}
            }
        }
    }

    /// A parsed request head (still inside the connection's parser —
    /// nothing has been allocated for it): validate, serve a fresh hit
    /// inline, start an inline fetch for a miss, or give the connection
    /// to the worker pool.
    fn handle_request(&mut self, token: u64) {
        // Decide under one connection borrow; act after it ends.
        let (outcome, head_drained) = {
            let Some(conn) = self.slab.get(token) else {
                return;
            };
            let outcome = if conn.parser.method() != "GET" {
                FastOutcome::Reject(501)
            } else if conn.parser.target() == ADMIN_STATS_TARGET {
                FastOutcome::Admin
            } else if !conn.parser.target().starts_with("http://") {
                FastOutcome::Reject(400)
            } else {
                let target = conn.parser.target();
                let now = begin_request(&self.state);
                match lookup(&self.config, &self.state, target, now, ShardLock::Try) {
                    Some(Lookup::Hit {
                        body,
                        last_modified,
                    }) => {
                        // Inline replica of `finalize_response`'s only
                        // applicable arm (status is always 200 here): a
                        // conditional GET whose copy is not newer gets a
                        // bodyless 304 that still counts as a hit.
                        let not_modified = conn
                            .parser
                            .if_modified_since()
                            .is_some_and(|since| last_modified.is_some_and(|lm| lm <= since));
                        FastOutcome::Hit {
                            body,
                            last_modified,
                            not_modified,
                        }
                    }
                    Some(Lookup::Miss(miss)) => FastOutcome::Miss(miss),
                    None => FastOutcome::Contended { now },
                }
            };
            (outcome, conn.head_drained)
        };
        // A well-formed `GET` whose head left the receive queue empty keeps
        // the cork, whoever writes its response; a refusal uncorks below.
        if !head_drained && !matches!(outcome, FastOutcome::Reject(_)) {
            self.uncork(token);
        }
        match outcome {
            FastOutcome::Reject(status) => self.reject(token, status),
            FastOutcome::Admin => {
                let resp = admin_stats_response(&self.state);
                self.respond(token, resp);
            }
            FastOutcome::Hit {
                body,
                last_modified,
                not_modified,
            } => {
                let Some(conn) = self.slab.get(token) else {
                    return;
                };
                if not_modified {
                    conn.start_not_modified_hit();
                } else {
                    conn.start_hit(body, last_modified);
                }
                self.flush_response(token);
            }
            FastOutcome::Miss(miss) => self.start_fetch(token, miss),
            FastOutcome::Contended { now } => self.dispatch(token, Work::Request { now }),
        }
    }

    /// Take a connection's client socket out of epoll, if it is in: its
    /// request is parsed, and until there is a response to write nothing
    /// the client does is of interest (level-triggered epoll would spin
    /// on extra bytes or a half-close). The fd stays open past its
    /// registration, so this is an explicit `del`.
    fn unwatch_client(&mut self, token: u64) {
        if let Some(conn) = self.slab.get(token) {
            if std::mem::take(&mut conn.watched) {
                self.epoll.del(conn.stream.as_raw_fd());
            }
        }
    }

    /// A miss or an expired copy: run the origin exchange from here when
    /// nothing about it can block (module docs), else dispatch. On the
    /// inline path the connection stays in its slab slot, in `Fetching`,
    /// under its own deadline.
    fn start_fetch(&mut self, token: u64, miss: Miss) {
        self.unwatch_client(token);
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let target = conn.parser.target();
        let request = Work::redo(&miss);
        if !self.state.breakers.is_pristine(host_of(target)) || !Miss::is_home(&self.state, target)
        {
            return self.dispatch(token, request);
        }
        let exchange = match self.upstream.begin(target, miss.if_modified_since()) {
            Begun::Sent(exchange) => exchange,
            Begun::NoIdleSocket => return self.dispatch(token, request),
            Begun::SendFailed => {
                self.state.counters.inline_fallbacks.add(1);
                return self.dispatch(token, request);
            }
        };
        let origin_fd = exchange.stream().as_raw_fd();
        conn.state = ConnState::Fetching { exchange, miss };
        if self.epoll.add(origin_fd, EPOLLIN, token).is_err() {
            return self.abandon_fetch(token);
        }
        self.arm_deadline(token);
    }

    /// The origin's whole answer is in. Conclude — store, count, build
    /// the response — and write it, unless that needs a worker after
    /// all: a `5xx` is a failed attempt in the resilient fetch's books,
    /// so the request is redone there; a contended shard is waited for
    /// there, with the body riding along.
    fn finish_fetch(&mut self, token: u64, fetched: Fetched, keep_alive: bool) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let Some((exchange, miss)) = conn.take_fetch() else {
            return;
        };
        if keep_alive {
            // Out of epoll before it is anyone else's to take.
            self.epoll.del(exchange.stream().as_raw_fd());
        }
        self.upstream.end(exchange, keep_alive);
        let target = conn.parser.target();
        match miss.conclude_inline(&self.config, &self.state, target, fetched) {
            Ok(resp) => {
                self.state.counters.inline_fetches.add(1);
                let resp = finalize_response(conn.parser.if_modified_since(), resp);
                conn.start_response(&resp);
                self.flush_response(token);
            }
            Err(work) => {
                self.state.counters.inline_fallbacks.add(1);
                self.dispatch(token, work);
            }
        }
    }

    /// Give up an inline fetch — the origin socket failed or stalled —
    /// and hand the request to a worker to run from the top. The socket
    /// is closed (which also takes it out of epoll), never reused.
    fn abandon_fetch(&mut self, token: u64) {
        let Some((exchange, miss)) = self.slab.get(token).and_then(Conn::take_fetch) else {
            return;
        };
        self.upstream.end(exchange, false);
        self.state.counters.inline_fallbacks.add(1);
        self.dispatch(token, Work::redo(&miss));
    }

    /// Give a connection to the worker pool: its client socket leaves
    /// epoll if it is in, it leaves the slab (its wheel entry goes stale
    /// and falls out on the generation check; the origin timeouts bound
    /// the time a worker holds the socket), its pooled buffers go back,
    /// and the stream rides in the [`Job`]. A full queue sheds with `503`.
    fn dispatch(&mut self, token: u64, work: Work) {
        self.unwatch_client(token);
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        // The dispatch path allocates here — the target's `String`, the
        // queue slot — which is fine: it is about to cost a thread
        // hand-off and, usually, a TCP handshake.
        let target = conn.parser.target().to_string();
        let if_modified_since = conn.parser.if_modified_since();
        let stream = self.release(conn);
        let job = Job {
            stream,
            target,
            if_modified_since,
            work,
        };
        if let Err(job) = self.jobs.try_push(job) {
            self.state.counters.rejected.add(1);
            let mut head = self.pool.get_head();
            http::encode_response_head_into(&mut head, &Response::status_only(503));
            self.admit(job.stream, head, Some((Bytes::new(), 0)));
        }
    }

    /// Queue a response on the connection and start draining it.
    fn respond(&mut self, token: u64, resp: Response) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        conn.start_response(&resp);
        self.flush_response(token);
    }

    /// Drain whatever response the connection has queued, falling back
    /// to `EPOLLOUT` if the socket buffer fills.
    fn flush_response(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        match conn.on_writable() {
            Event::Done => self.close_conn(token),
            _ => {
                self.watch_client(token, EPOLLOUT);
                self.arm_deadline(token);
            }
        }
    }

    /// Take back every connection a worker could not finish. The worker
    /// has just seen `EAGAIN`, so there is no write attempt here: the
    /// rest drains when `EPOLLOUT` fires, under a fresh deadline.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.completions.lock());
        for c in done {
            self.admit(c.stream, c.head, Some((c.body, c.pos)));
        }
    }

    /// Expire connections whose I/O deadline passed: a client stalled
    /// mid-request gets `504`; a client stalled mid-response is dropped;
    /// an origin stalled mid-exchange loses the request to a worker. A
    /// tick also gives a parked listener its next try, for descriptors
    /// freed outside the loop (a worker's close, another process).
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        // Take/put-back keeps one scratch Vec alive across iterations so
        // steady-state ticks do not allocate.
        let mut fired = std::mem::take(&mut self.fired_scratch);
        if self.wheel.advance_into(now, &mut fired) {
            self.unpark_listener();
        }
        for &token in &fired {
            let Some(conn) = self.slab.get(token) else {
                continue; // closed or given to a worker: entry is stale
            };
            if conn.deadline > now {
                // Re-armed since this entry was scheduled: walk the
                // single entry forward to the new deadline.
                let deadline = conn.deadline;
                self.wheel.schedule(token, deadline);
                continue;
            }
            if matches!(conn.state, ConnState::Fetching { .. }) {
                self.abandon_fetch(token);
                continue;
            }
            if matches!(conn.state, ConnState::Reading) {
                // One best-effort shot at the 504, uncorked like every
                // refusal — the client is stalled, not necessarily
                // reading, so what the socket does not take at once goes
                // with the close below.
                self.reject(token, 504);
            }
            self.close_conn(token);
        }
        self.fired_scratch = fired;
    }

    /// Return a removed connection's parser and head buffer to the pool
    /// for the next accept; what is left of it is the socket.
    fn release(&mut self, conn: Conn) -> TcpStream {
        let (stream, parser, head) = conn.into_parts();
        self.pool.put_parser(parser);
        self.pool.put_head(head);
        stream
    }

    /// Close a connection; the descriptor it frees is the one a parked
    /// listener waits for.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            // Dropping the stream closes the socket, and closing takes
            // it out of the epoll set: the fd was never duplicated, so
            // no `EPOLL_CTL_DEL` is spent on it.
            drop(self.release(conn));
            self.unpark_listener();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, RequestParser};

    #[test]
    fn tokens_round_trip_and_tag_generations() {
        for (idx, gen) in [(0usize, 0u32), (7, 3), (0xFFFF_FFFE, u32::MAX)] {
            assert_eq!(unpack_token(pack_token(idx, gen)), (idx, gen));
        }
        assert_ne!(pack_token(1, 0), pack_token(1, 1));
        // The sentinel tokens sit above any token a real slab can mint
        // (slot indices are bounded far below 2^32 by the fd limit).
        assert!(pack_token(0xFFFF_FFFD, u32::MAX) < WAKER_TOKEN);
    }

    #[test]
    fn slab_detects_stale_tokens_after_recycling() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut slab = Slab::default();
        let _c1 = TcpStream::connect(addr).unwrap();
        let (s1, _) = listener.accept().unwrap();
        let conn = |s| {
            Conn::new(
                s,
                RequestParser::new(),
                Vec::new(),
                ConnState::Reading,
                Instant::now(),
            )
        };
        let t1 = slab.insert(conn(s1));
        assert!(slab.get(t1).is_some());
        slab.remove(t1).unwrap();
        // Recycle the slot with a new connection.
        let _c2 = TcpStream::connect(addr).unwrap();
        let (s2, _) = listener.accept().unwrap();
        let t2 = slab.insert(conn(s2));
        assert_eq!(unpack_token(t1).0, unpack_token(t2).0, "slot recycled");
        assert!(slab.get(t1).is_none(), "old token must not resolve");
        assert!(slab.get(t2).is_some());
        assert!(slab.remove(t1).is_none());
    }

    #[test]
    fn non_proxy_requests_are_rejected() {
        use crate::cache_proxy::test_support::orphan_proxy;
        use crate::http;
        let proxy = orphan_proxy(ProxyConfig::new(100_000));
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        http::write_request(&mut s, &Request::get("/origin-form")).unwrap();
        assert_eq!(http::read_response(&mut s).unwrap().status, 400);
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        let mut post = Request::get("http://o.test/a.html");
        post.method = "POST".to_string();
        http::write_request(&mut s, &post).unwrap();
        assert_eq!(http::read_response(&mut s).unwrap().status, 501);
    }

    /// The loop looked the document up, found nothing and went to the
    /// origin itself; by the time the body is in, someone else holds the
    /// shard. The loop must not wait for it: body and all, the connection
    /// goes to a worker, who does.
    #[test]
    fn inline_fetch_that_finds_its_shard_busy_is_concluded_by_a_worker() {
        use crate::cache_proxy::test_support::{get, state_of};
        use crate::{ProxyConfig, ProxyServer};
        use std::sync::mpsc::channel;
        use webcache_core::policy::named;

        // A keep-alive origin of one connection that answers its second
        // request only when told to.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let origin_addr = listener.local_addr().unwrap();
        let (asked_tx, asked) = channel();
        let (answer, answer_rx) = channel::<()>();
        let requests = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let served = Arc::clone(&requests);
        let origin = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            for nth in 0.. {
                let Ok(req) = http::read_request_from(&mut reader) else {
                    return;
                };
                if nth == 1 {
                    asked_tx.send(()).unwrap();
                    answer_rx.recv().unwrap();
                }
                let body = http::synthetic_body(&req.target, 900);
                let resp = Response::ok(body, Some(10)).with_connection(true);
                http::write_response(reader.get_mut(), &resp).unwrap();
                served.fetch_add(1, Ordering::SeqCst);
            }
        });

        let config = ProxyConfig::new(100_000).with_workers(1, 4);
        let proxy = ProxyServer::start(origin_addr, config, || Box::new(named::lru())).unwrap();
        let state = state_of(&proxy);
        assert_eq!(get(&proxy, "http://o.test/warm.html").status, 200);

        let url = "http://o.test/contended.html";
        let addr = proxy.addr();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            http::write_request(&mut s, &Request::get(url)).unwrap();
            http::read_response(&mut s).unwrap()
        });
        // The request is at the origin, so the loop's lookup is behind it.
        asked.recv().unwrap();
        let (held_tx, held) = channel();
        let (let_go, let_go_rx) = channel::<()>();
        let holder = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                state.cache.with_shard(0, |_, _| {
                    held_tx.send(()).unwrap();
                    let_go_rx.recv().unwrap();
                })
            })
        };
        held.recv().unwrap();
        answer.send(()).unwrap();
        // The loop has the body and no lock: nothing is stored or counted,
        // and the job is a worker's.
        while proxy.stats().inline_fallbacks == 0 {
            std::thread::yield_now();
        }
        assert_eq!((proxy.stats().misses, proxy.cached_bytes()), (1, 900));
        let_go.send(()).unwrap();
        holder.join().unwrap();
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200);
        assert!(!resp.is_cache_hit());
        assert_eq!(resp.body, http::synthetic_body(url, 900));
        assert_eq!((proxy.stats().misses, proxy.cached_bytes()), (2, 1800));
        // The worker was handed the body: it did not ask the origin again.
        assert_eq!(requests.load(Ordering::SeqCst), 2);
        assert_eq!(
            (proxy.stats().worker_jobs, proxy.stats().inline_fetches),
            (2, 0)
        );
        assert!(get(&proxy, url).is_cache_hit());
        drop(proxy);
        origin.join().unwrap();
    }

    #[test]
    fn wheel_fires_after_the_deadline_not_before() {
        let mut wheel = Wheel::new(Duration::from_millis(160));
        let t0 = wheel.start;
        let mut fired = Vec::new();
        wheel.schedule(42, t0 + Duration::from_millis(100));
        assert_eq!(
            wheel.next_timeout(t0).map(|d| d.as_millis() > 0),
            Some(true)
        );
        // Nothing fires while the deadline is ahead.
        wheel.advance_into(t0 + Duration::from_millis(50), &mut fired);
        assert!(fired.is_empty());
        // Past the deadline the entry surfaces (possibly one tick late,
        // never early beyond wheel granularity).
        wheel.advance_into(t0 + Duration::from_millis(200), &mut fired);
        assert_eq!(fired, vec![42]);
        assert_eq!(wheel.entries, 0);
        assert!(wheel
            .next_timeout(t0 + Duration::from_millis(200))
            .is_none());
    }

    #[test]
    fn wheel_clamps_far_deadlines_into_its_horizon() {
        let mut wheel = Wheel::new(Duration::from_millis(20));
        let t0 = wheel.start;
        let mut fired = Vec::new();
        // A deadline far past the horizon still lands in a slot…
        wheel.schedule(7, t0 + Duration::from_secs(3600));
        assert_eq!(wheel.entries, 1);
        // …and surfaces when the clock passes that slot, where the
        // caller's deadline check walks it forward.
        wheel.advance_into(t0 + Duration::from_millis(200), &mut fired);
        assert_eq!(fired, vec![7]);
    }
}
