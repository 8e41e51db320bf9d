//! The serving engine: one event-loop thread waits on every client
//! socket and on every origin and cluster-peer socket, and serves every
//! request from accept to close. No request is handed to another thread,
//! and the loop owns the proxy's state, cache shards included, by value.
//!
//! A thread per in-flight connection would cap concurrency at the pool
//! size regardless of what those connections are doing — a thousand
//! clients dribbling bytes would pin every thread while the CPU idles.
//! The reactor inverts that: everything that can wait (accepting,
//! incremental request parsing, connecting to the origin, reading its
//! answer, backing off between attempts, draining a response the socket
//! would not take whole, stall timeouts) happens on a single thread
//! multiplexed by `epoll`. In-flight connections — client and origin
//! alike — are bounded by file descriptors, not threads.
//!
//! Ownership rule: the loop holds every `TcpStream` it serves with, and
//! each is in exactly one place — a client or inbound peer stream in the
//! loop's slab, an origin stream in the idle pool or in the `Fetching`
//! state of one connection in the slab — and moves between them by value.
//!
//! ## Anatomy
//!
//! * **epoll wrapper** — a minimal hand-rolled binding
//!   ([`Epoll`], [`EventFd`]) over raw syscalls, following the
//!   vendored-deps convention of small direct `extern "C"` blocks
//!   (see `vendor/memmap2`) instead of a new dependency. Note
//!   `epoll_event` is packed on x86-64. `accept4` and a non-blocking
//!   `connect` ([`connect_nonblocking`]) are bound the same way.
//! * **first turn** — the listener is set to `TCP_DEFER_ACCEPT` (for
//!   the read timeout, in whole seconds), so the kernel wakes the loop
//!   for a connection once its first bytes are in, not at the
//!   handshake. The loop reads at accept: a whole request head goes
//!   straight on — a hit is written and closed, a miss sent to the
//!   origin — and that socket is never registered with epoll (counted in
//!   `read_at_accept`). `Reading` may therefore begin unregistered; only
//!   a connection whose head is still incomplete is added under
//!   `EPOLLIN`. `Conn::watched` records whether the client fd is in the
//!   epoll set, so `ADD` versus `MOD`, and whether a `DEL` is owed, are
//!   never guessed. A client that sends nothing stays in the kernel until
//!   the deferral lapses, then waits out its read timeout here like any
//!   other. Each listener readiness takes one connection: the kernel
//!   reserves a descriptor and builds a socket file before `accept4`
//!   looks at the queue, so an `accept4` that finds it empty costs as
//!   much as one that does not, several times an `epoll_wait`. The
//!   listener is level-triggered, so while connections are queued the
//!   next wait reports it again (nginx's `multi_accept off`).
//! * **last turn** — the listener is also set to `TCP_CORK`, and every
//!   socket accepted from it inherits the option. A corked socket sends
//!   full segments at once and holds back only a partial last one. Every
//!   response is followed by `close`, and the kernel (`tcp_send_fin`)
//!   puts the FIN on that held tail and pushes it: the response's last
//!   bytes and the FIN leave as one segment, whether written at once or
//!   drained under `EPOLLOUT`, with no syscall per request. The hazard is
//!   a close over unread client bytes: the kernel then resets the
//!   connection and discards what the cork held. So a response keeps the
//!   cork only for a well-formed `GET` whose head came in a read that did
//!   not fill the loop's read buffer (`Conn::head_drained`). A head that
//!   filled it, a `400`, a `501` and a `504` are uncorked first
//!   (`TCP_CORK` 0, which also pushes) and leave as they are written,
//!   counted in `uncorked`. A connection kept open after its response
//!   would have to uncork, or push, the same way, or its tail would wait
//!   out the kernel's 200 ms cork ceiling.
//! * **slab** — connections live in a generation-tagged slab; the epoll
//!   token packs `(generation, index)` so events for a recycled slot
//!   are detected and dropped.
//! * **deadline wheel** — stall timeouts and backoffs are hashed-wheel
//!   ticks, not per-socket `SO_RCVTIMEO` or a `sleep`. A client stalling
//!   mid-request past [`crate::ProxyConfig::read_timeout`] gets `504`; an
//!   origin stalling past it (or past the connect timeout while
//!   connecting) fails the attempt with a timeout; progress re-arms the
//!   deadline, as each successful read of a blocking reader under
//!   `SO_RCVTIMEO` would. A retry's backoff is the connection's deadline
//!   while it waits, and the tick is no coarser than the backoff base. A
//!   connection gets its first entry when its first turn ends in the
//!   slab; one answered in that turn never has one. The ticks also bound
//!   how long the listener stays out of epoll after `accept4` found no
//!   descriptor to accept into (`EMFILE` and kin): it goes back at the
//!   next tick or the loop's next close, whichever is first, instead of
//!   waking the loop at once, forever.
//! * **cache** — the loop owns the proxy's state (`ProxyState`: the
//!   shards, the logical clock, the circuit breakers) and reaches it
//!   through `&mut`, with no lock to take. A request is looked up in one
//!   shard visit ([`lookup`]) and a fresh hit served right there. A
//!   cluster node's peer port is a second listener: a peer connection
//!   reads one frame ([`FrameReader::inbound`]), is answered in the turn
//!   it is whole ([`answer_peer`]; a `FOUND` writes the shard's `Bytes`
//!   behind its header, uncopied), and is closed. The
//!   persister posts its asks and rings the waker; the loop answers them
//!   in that turn (`persister::LoopEnd`), and its last act before it
//!   exits is to capture every shard for the final snapshot.
//! * **fetch** — a miss or an expired copy is fetched by the loop, one
//!   attempt machine per connection in `Fetching`: in cluster mode a
//!   non-owner first asks the key's owner with a `QUERY` frame (under
//!   the peer's breaker and timeout); then the origin host's breaker
//!   admits the fetch, and each attempt takes an idle kept-alive socket
//!   or connects a new one without waiting (`EINPROGRESS`, completed on
//!   `EPOLLOUT`, checked with `SO_ERROR`), sends the (conditional) GET,
//!   and feeds the resumable response parser whatever each `EPOLLIN`
//!   brings. The socket is registered under the connection's own token
//!   while the client socket is out of epoll. A failure on a reused idle
//!   socket reruns the attempt on a fresh one, uncounted; a `5xx` or a
//!   failure on a fresh connection — including no descriptor for it — is
//!   a counted attempt, retried after its backoff or, none left, the
//!   fetch's failure ([`Tries`]). The last body byte, or the failure,
//!   concludes the request ([`Miss::conclude`]: store, or serve stale, or
//!   the error status) and the response is written from the same slot.
//!   The table of connections in `Fetching` is the loop's record of the
//!   fetches in flight.

use crate::bufpool::BufPool;
use crate::cache_proxy::ProxyState;
use crate::cluster::{self, FrameReader};
use crate::config::ProxyConfig;
use crate::conn::{Conn, ConnState, Event, Fetch};
use crate::fetch::Tries;
use crate::http::{Response, ResponseReader};
use crate::persister::LoopEnd;
use crate::serve::{
    answer_peer, begin_request, finalize_response, lookup, peer_answered, peer_query, peer_to_ask,
    Answer, Lookup, Miss,
};
use crate::stats::{admin_stats_response, ADMIN_STATS_TARGET};
use crate::upstream::{encode_request, Exchange, Failure, Fetched, Progress, Reply, MAX_IDLE};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const EINTR: i32 = 4;
const EINPROGRESS: i32 = 115;
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
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
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

/// Start a TCP connection to `addr` without waiting for it: a
/// non-blocking, close-on-exec socket and a `connect` that returns at
/// once. `true` beside the stream means the handshake is still under way
/// (`EINPROGRESS`): the socket turns writable when it ends, and
/// `SO_ERROR` then says how. Out of descriptors, `socket` fails here.
pub(crate) fn connect_nonblocking(addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
    // `struct sockaddr_in` / `sockaddr_in6`: family (native order), port
    // and address (network order), IPv6 flow label and scope id.
    let mut raw = [0u8; 28];
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            raw[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            raw[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            raw[8..24].copy_from_slice(&a.ip().octets());
            raw[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    raw[..2].copy_from_slice(&(family as u16).to_ne_bytes());
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: plain syscall; a descriptor it returns is owned below.
    let fd = unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a socket just created; nothing else holds it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nodelay(true)?;
    // SAFETY: `raw` outlives the call and `len` bytes of it are the
    // address.
    if unsafe { connect(fd, raw.as_ptr(), len) } == 0 {
        return Ok((stream, false));
    }
    let e = io::Error::last_os_error();
    match e.raw_os_error() {
        // An interrupted connect goes on in the background all the same.
        Some(EINPROGRESS | EINTR) => Ok((stream, true)),
        _ => Err(e),
    }
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

    /// Stop watching an fd that stays open: a client socket parked
    /// behind a fetch, an origin socket going back to the idle pool, a
    /// listener with no descriptor to accept into. Closing a socket that
    /// was never duplicated removes it from the set by itself.
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

/// An `eventfd`-based waker, nudging the event loop out of `epoll_wait`:
/// for shutdown, and for the persister's asks.
pub(crate) struct EventFd {
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

    pub(crate) fn notify(&self) {
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
const PEER_LISTENER_TOKEN: u64 = u64::MAX - 2;

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
/// the slab has an entry, scheduled when its first turn ends (one
/// answered within that turn never gets one), and one more for each
/// deadline moved earlier (a connect timeout, a backoff). Entries are
/// lazy: a connection re-arms by moving its `deadline` field, not by
/// touching the wheel; when its entry fires early, the event loop
/// reinserts it at the new deadline. Stale entries for connections that
/// closed fall out on the generation check.
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
    /// A wheel for deadlines about `horizon` ahead (the read timeout),
    /// fine enough for delays as short as `finest` (the backoff base).
    fn new(horizon: Duration, finest: Duration) -> Wheel {
        // Aim for ~1/16 of the horizon per tick so expiry error is a
        // small fraction of the timeout itself, and no coarser than the
        // shortest delay scheduled; bounded to sane wall times. The wheel
        // holds two horizons.
        let granularity = (horizon / 16)
            .min(finest)
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(250));
        let slots = (2 * horizon.as_millis() / granularity.as_millis().max(1) + 2) as usize;
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
// The reactor proper.

/// Response readers kept for the next origin exchange (16 KiB each).
const MAX_SPARE_READERS: usize = 8;

/// Handles to a running reactor: its one event-loop thread.
pub(crate) struct Reactor {
    shutdown: Arc<AtomicBool>,
    waker: Arc<EventFd>,
    event_loop: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Take ownership of a bound listener and start serving on it; in
    /// cluster mode, on the node's peer port `peers` too, and with
    /// persistence, answering the persister at `persister`.
    pub fn start(
        listener: TcpListener,
        peers: Option<TcpListener>,
        origin: SocketAddr,
        config: ProxyConfig,
        state: ProxyState,
        persister: Option<LoopEnd>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        defer_accept(&listener, config.read_timeout)?;
        // Every socket accepted from the listener inherits the cork
        // (module docs, *last turn*).
        set_tcp_option(listener.as_raw_fd(), TCP_CORK, 1)?;
        let epoll = Epoll::new()?;
        let waker = Arc::new(EventFd::new()?);
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        if let Some(peers) = &peers {
            peers.set_nonblocking(true)?;
            epoll.add(peers.as_raw_fd(), EPOLLIN, PEER_LISTENER_TOKEN)?;
        }
        epoll.add(waker.fd, EPOLLIN, WAKER_TOKEN)?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let event_loop = {
            let shutdown = Arc::clone(&shutdown);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                let mut lp = EventLoop {
                    epoll,
                    listener: Listener::new(listener, LISTENER_TOKEN),
                    peers: peers.map(|l| Listener::new(l, PEER_LISTENER_TOKEN)),
                    waker,
                    shutdown,
                    slab: Slab::default(),
                    wheel: Wheel::new(config.read_timeout, config.backoff_base),
                    pool: BufPool::new(),
                    origin,
                    idle: Vec::with_capacity(MAX_IDLE),
                    readers: Vec::new(),
                    request: Vec::new(),
                    fired_scratch: Vec::new(),
                    read_buf: vec![0; READ_BUF].into_boxed_slice(),
                    persister,
                    config,
                    state,
                };
                lp.run();
            })
        };

        Ok(Reactor {
            shutdown,
            waker,
            event_loop: Some(event_loop),
        })
    }

    /// The waker the persister rings with its asks.
    pub fn waker(&self) -> Arc<EventFd> {
        Arc::clone(&self.waker)
    }

    /// Stop the event loop and join it. Every socket closes with the
    /// loop: the clients in its slab, the exchanges in flight and the idle
    /// origin connections; then the loop captures every shard for the
    /// persister's final snapshot.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

/// A listening socket the loop accepts from: the client port, or a
/// cluster node's peer port.
struct Listener {
    socket: TcpListener,
    token: u64,
    /// Out of epoll because the last `accept4` found the process or the
    /// kernel out of descriptors: level-triggered, it would wake the loop
    /// again at once, for as long as that lasts. It goes back in when the
    /// loop next closes a connection or the wheel next ticks, whichever
    /// comes first.
    parked: bool,
}

impl Listener {
    fn new(socket: TcpListener, token: u64) -> Listener {
        Listener {
            socket,
            token,
            parked: false,
        }
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: Listener,
    /// A cluster node's peer port.
    peers: Option<Listener>,
    waker: Arc<EventFd>,
    shutdown: Arc<AtomicBool>,
    slab: Slab,
    wheel: Wheel,
    /// Free-list of parser/head buffers cycled through connections, so a
    /// warmed loop accepts and serves without heap allocation.
    pool: BufPool,
    origin: SocketAddr,
    /// Idle kept-alive origin sockets, out of epoll; the most recently
    /// used last, as the one least likely to have been closed meanwhile.
    idle: Vec<TcpStream>,
    /// Response readers kept for the next origin exchange.
    readers: Vec<ResponseReader>,
    /// The request an exchange sends, encoded here.
    request: Vec<u8>,
    /// Reused output buffer for [`Wheel::advance_into`].
    fired_scratch: Vec<u64>,
    /// Every client read goes through this one buffer, zeroed once.
    read_buf: Box<[u8]>,
    /// The loop's end of the persister's line, with persistence.
    persister: Option<LoopEnd>,
    config: ProxyConfig,
    state: ProxyState,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let now = Instant::now();
            let parked = self.listener.parked || self.peers.as_ref().is_some_and(|l| l.parked);
            let timeout = if parked {
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
                    LISTENER_TOKEN | PEER_LISTENER_TOKEN => self.accept_ready(token),
                    WAKER_TOKEN => {
                        self.waker.drain();
                        if let Some(persister) = &mut self.persister {
                            persister.answer(&mut self.state);
                        }
                    }
                    _ => self.conn_ready(token, evs),
                }
            }
            self.expire_deadlines();
        }
        // Shutdown: close every connection the loop holds, then hand the
        // persister the final capture of every shard.
        for token in self.slab.tokens() {
            self.close_conn(token);
        }
        if let Some(persister) = self.persister.take() {
            persister.finish(&mut self.state);
        }
    }

    /// Accept one connection per readiness of the listener `token`; the
    /// level-triggered listener reports the next (module docs, *first
    /// turn*). Accepting is cheap (a few hundred bytes of state), so the
    /// reactor admits every connection it has a descriptor for. Out of
    /// descriptors, the listener is parked rather than polled (see
    /// [`Listener::parked`]).
    fn accept_ready(&mut self, token: u64) {
        let listener = match (token, &mut self.peers) {
            (PEER_LISTENER_TOKEN, Some(peers)) => peers,
            (PEER_LISTENER_TOKEN, None) => return,
            _ => &mut self.listener,
        };
        let accepted = loop {
            match accept_nonblocking(&listener.socket) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                accepted => break accepted,
            }
        };
        match accepted {
            Ok(stream) => self.admit(stream, token == PEER_LISTENER_TOKEN),
            Err(e)
                if e.raw_os_error()
                    .is_some_and(|n| OUT_OF_RESOURCES.contains(&n)) =>
            {
                self.epoll.del(listener.socket.as_raw_fd());
                listener.parked = true;
            }
            Err(_) => {}
        }
    }

    /// Put parked listeners back into epoll.
    fn unpark_listeners(&mut self) {
        for l in std::iter::once(&mut self.listener).chain(self.peers.as_mut()) {
            if l.parked
                && self
                    .epoll
                    .add(l.socket.as_raw_fd(), EPOLLIN, l.token)
                    .is_ok()
            {
                l.parked = false;
            }
        }
    }

    /// Give a fresh accept a slab slot, an I/O deadline and its first
    /// turn, in `Reading` (in `Peer` from the peer port), unregistered,
    /// read at once (module docs, *first turn*); if that turn leaves it in
    /// the slab, a wheel entry.
    fn admit(&mut self, stream: TcpStream, peer: bool) {
        let deadline = Instant::now() + self.config.read_timeout;
        let (parser, head) = (self.pool.get_parser(), self.pool.get_head());
        let state = if peer {
            ConnState::Peer(FrameReader::inbound())
        } else {
            ConnState::Reading
        };
        let token = self
            .slab
            .insert(Conn::new(stream, parser, head, state, deadline));
        if peer {
            self.read_peer(token);
        } else {
            self.read_request(token);
        }
        if let Some(conn) = self.slab.get(token) {
            let deadline = conn.deadline;
            self.wheel.schedule(token, deadline);
        }
    }

    /// Move the connection's I/O deadline to `at`. A later one leaves its
    /// wheel entry where it is, to be walked forward when it fires; an
    /// earlier one (a connect timeout, a backoff) gets an entry of its own.
    fn set_deadline(&mut self, token: u64, at: Instant) {
        if let Some(conn) = self.slab.get(token) {
            let earlier = at < conn.deadline;
            conn.deadline = at;
            if earlier {
                self.wheel.schedule(token, at);
            }
        }
    }

    /// The connection made progress: push its I/O deadline out.
    fn arm_deadline(&mut self, token: u64) {
        self.set_deadline(token, Instant::now() + self.config.read_timeout);
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

    /// Read what a cluster peer has sent of its request frame. A whole
    /// frame is answered in this turn and the connection closed once the
    /// reply is written; one still incomplete waits under `EPOLLIN` like a
    /// client's head. A frame that is not a request, or a length prefix
    /// no request has, closes the connection.
    fn read_peer(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let ConnState::Peer(reader) = &mut conn.state else {
            return;
        };
        match reader.resume(&mut conn.stream) {
            Ok(None) if conn.watched => self.arm_deadline(token),
            Ok(None) => self.watch_client(token, EPOLLIN),
            Ok(Some(frame)) => {
                match answer_peer(&self.config, &mut self.state, frame, &mut conn.head) {
                    Some(body) => {
                        conn.state = ConnState::Writing { body, pos: 0 };
                        self.flush_response(token);
                    }
                    None => self.close_conn(token),
                }
            }
            Err(_) => self.close_conn(token),
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
        // Fetching, only the exchange's socket is registered under this
        // token, and its errors and hang-ups surface from its I/O.
        if matches!(conn.state, ConnState::Fetching(_)) {
            return self.exchange_ready(token, events);
        }
        if events & (EPOLLERR | EPOLLHUP) != 0 && events & (EPOLLIN | EPOLLOUT) == 0 {
            self.close_conn(token);
            return;
        }
        if events & EPOLLIN != 0 {
            match conn.state {
                ConnState::Reading => return self.read_request(token),
                ConnState::Peer(_) => return self.read_peer(token),
                _ => {}
            }
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
    /// nothing has been allocated for it): refuse it, serve the admin
    /// endpoint (no clock tick), or ask the cache.
    fn handle_request(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let target = conn.parser.target();
        let admin = target == ADMIN_STATS_TARGET;
        if conn.parser.method() != "GET" {
            return self.reject(token, 501);
        } else if !admin && !target.starts_with("http://") {
            return self.reject(token, 400);
        }
        // A well-formed `GET` whose head left the receive queue empty keeps
        // the cork.
        if !conn.head_drained {
            self.uncork(token);
        }
        if admin {
            let resp = admin_stats_response(&self.state);
            self.respond(token, resp);
        } else {
            let now = begin_request(&mut self.state);
            self.look_up(token, now);
        }
    }

    /// Look a request admitted at `now` up: serve a fresh hit inline,
    /// fetch a miss.
    fn look_up(&mut self, token: u64, now: u64) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        match lookup(&self.config, &mut self.state, conn.parser.target(), now) {
            Lookup::Hit {
                body,
                last_modified,
            } => {
                // Inline replica of `finalize_response`'s only applicable
                // arm (status is always 200 here): a conditional GET whose
                // copy is not newer gets a bodyless 304 that still counts
                // as a hit.
                let not_modified = conn
                    .parser
                    .if_modified_since()
                    .is_some_and(|since| last_modified.is_some_and(|lm| lm <= since));
                if not_modified {
                    conn.start_not_modified_hit();
                } else {
                    conn.start_hit(body, last_modified);
                }
                self.flush_response(token);
            }
            Lookup::Miss(miss) => self.start_fetch(token, miss),
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

    /// A miss or an expired copy: ask the key's owner first when this
    /// node is a cluster member that does not own it and the copy is not
    /// merely expired, then the origin. The connection stays in its slab
    /// slot, in `Fetching`, under its own deadline.
    fn start_fetch(&mut self, token: u64, miss: Miss) {
        self.unwatch_client(token);
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let peer = match miss.expired {
            None => peer_to_ask(&self.config, &mut self.state, conn.parser.target()),
            Some(_) => None,
        };
        conn.state = ConnState::Fetching(Fetch {
            miss,
            peer,
            tries: None,
            exchange: None,
        });
        match peer {
            Some((_, addr)) => {
                match Exchange::connect(addr, Reply::Frame(FrameReader::default())) {
                    Ok(exchange) => self.begin_exchange(token, exchange),
                    Err(_) => self.peer_replied(token, None),
                }
            }
            None => self.ask_origin(token),
        }
    }

    /// The fetch's connection in `Fetching`.
    fn fetch_mut(&mut self, token: u64) -> Option<&mut Fetch> {
        match &mut self.slab.get(token)?.state {
            ConnState::Fetching(fetch) => Some(fetch),
            _ => None,
        }
    }

    /// Take the exchange in flight out of the fetch (its socket closes
    /// when it drops, which also takes it out of epoll).
    fn end_exchange(&mut self, token: u64) -> Option<Exchange> {
        self.fetch_mut(token)?.exchange.take()
    }

    /// Keep a finished exchange's reader for the next one.
    fn recycle(&mut self, reply: Reply) {
        if let Reply::Http(reader) = reply {
            if self.readers.len() < MAX_SPARE_READERS {
                self.readers.push(reader);
            }
        }
    }

    /// Ask the origin: the host's breaker admits the fetch (or fails it
    /// fast), then the first attempt starts.
    fn ask_origin(&mut self, token: u64) {
        let admitted = {
            let Some(conn) = self.slab.get(token) else {
                return;
            };
            let admitted = Tries::admit(&self.config, &mut self.state, conn.parser.target());
            let ConnState::Fetching(fetch) = &mut conn.state else {
                return;
            };
            admitted.map(|tries| fetch.tries = Some(tries))
        };
        match admitted {
            Ok(()) => self.attempt(token, false),
            Err(e) => self.conclude_fetch(token, Err(e)),
        }
    }

    /// Start an origin attempt: on an idle kept socket unless `fresh`,
    /// else on a new connection. A connection the process has no
    /// descriptor for, or one refused at once, is a failed attempt.
    fn attempt(&mut self, token: u64, fresh: bool) {
        let mut reader = self.readers.pop().unwrap_or_default();
        reader.reset();
        let reply = Reply::Http(reader);
        let idle = if fresh { None } else { self.idle.pop() };
        let exchange = match idle {
            Some(stream) => Ok(Exchange::reuse(stream, reply)),
            None => Exchange::connect(self.origin, reply),
        };
        match exchange {
            Ok(exchange) => self.begin_exchange(token, exchange),
            Err(e) => self.attempt_failed(token, Failure::from(&e) == Failure::TimedOut),
        }
    }

    /// Give an exchange its time for the next step: a peer's every step
    /// is bounded by the peer timeout, an origin's connect by the connect
    /// timeout and the rest by the read timeout.
    fn exchange_deadline(&mut self, token: u64, peer: bool, connecting: bool) {
        let wait = match &self.state.cluster {
            Some(c) if peer => c.config().peer_timeout,
            _ if connecting => self.config.connect_timeout,
            _ => self.config.read_timeout,
        };
        self.set_deadline(token, Instant::now() + wait);
    }

    /// Register an exchange's socket under the connection's token: a
    /// connect still in progress waits to turn writable; a connected
    /// socket sends the request and waits for the reply.
    fn begin_exchange(&mut self, token: u64, exchange: Exchange) {
        let (fd, connecting) = (exchange.stream().as_raw_fd(), exchange.connecting);
        let Some(fetch) = self.fetch_mut(token) else {
            return;
        };
        let peer = fetch.peer.is_some();
        fetch.exchange = Some(exchange);
        if !connecting {
            if let Err(failure) = self.send_request(token) {
                return self.exchange_failed(token, failure);
            }
        }
        let interest = if connecting { EPOLLOUT } else { EPOLLIN };
        if self.epoll.add(fd, interest, token).is_err() {
            return self.exchange_failed(token, Failure::Io);
        }
        self.exchange_deadline(token, peer, connecting);
    }

    /// Send the exchange's request: a peer's `QUERY` frame, or the
    /// origin's (conditional) GET.
    fn send_request(&mut self, token: u64) -> Result<(), Failure> {
        let Some(conn) = self.slab.get(token) else {
            return Ok(());
        };
        let ConnState::Fetching(fetch) = &conn.state else {
            return Ok(());
        };
        let Some(exchange) = &fetch.exchange else {
            return Ok(());
        };
        let target = conn.parser.target();
        match (&fetch.peer, &self.state.cluster) {
            (Some(_), Some(cluster)) => exchange.send(&peer_query(cluster, target)),
            _ => {
                encode_request(&mut self.request, target, fetch.miss.if_modified_since());
                exchange.send(&self.request)
            }
        }
    }

    /// The exchange's socket is ready: finish connecting and send, or
    /// take what has arrived of the reply.
    fn exchange_ready(&mut self, token: u64, events: u32) {
        let Some(fetch) = self.fetch_mut(token) else {
            return;
        };
        let peer = fetch.peer.is_some();
        let Some(exchange) = fetch.exchange.as_mut() else {
            return; // backing off: an event for the closed socket
        };
        if exchange.connecting {
            if events & (EPOLLOUT | EPOLLERR | EPOLLHUP) == 0 {
                return;
            }
            let fd = exchange.stream().as_raw_fd();
            let sent = exchange
                .connected()
                .and_then(|()| self.send_request(token))
                .and_then(|()| {
                    let mod_in = self.epoll.ctl(EPOLL_CTL_MOD, fd, EPOLLIN, token);
                    mod_in.map_err(|_| Failure::Io)
                });
            return match sent {
                Ok(()) => self.exchange_deadline(token, peer, false),
                Err(failure) => self.exchange_failed(token, failure),
            };
        }
        match exchange.on_readable() {
            Progress::Pending => self.exchange_deadline(token, peer, false),
            Progress::Response {
                fetched,
                keep_alive,
            } => self.origin_answered(token, fetched, keep_alive),
            Progress::Frame(frame) => self.peer_replied(token, Some(frame)),
            Progress::Failed(failure) => self.exchange_failed(token, failure),
        }
    }

    /// The origin's whole answer is in. The socket goes back to the idle
    /// pool if the origin keeps it open. A `5xx` is a failed attempt;
    /// anything else concludes the request.
    fn origin_answered(&mut self, token: u64, fetched: Fetched, keep_alive: bool) {
        let Some(exchange) = self.end_exchange(token) else {
            return;
        };
        let (stream, reply) = exchange.into_parts();
        self.recycle(reply);
        if keep_alive && self.idle.len() < MAX_IDLE {
            // Out of epoll before it idles (a kept registration would
            // wake the loop when the origin closes it).
            self.epoll.del(stream.as_raw_fd());
            self.idle.push(stream);
        }
        if fetched.status >= 500 {
            return self.attempt_failed(token, false);
        }
        if let Some(conn) = self.slab.get(token) {
            if let ConnState::Fetching(Fetch {
                tries: Some(tries), ..
            }) = &conn.state
            {
                tries.succeeded(&mut self.state, conn.parser.target());
            }
        }
        self.conclude_fetch(token, Ok(fetched));
    }

    /// The exchange failed: its socket is closed. A peer's failure sends
    /// the request on to the origin; a stale idle socket's runs the same
    /// attempt again on a fresh connection, uncounted (`upstream` module
    /// docs); any other is a failed attempt.
    fn exchange_failed(&mut self, token: u64, failure: Failure) {
        let Some(exchange) = self.end_exchange(token) else {
            return;
        };
        let reused = exchange.reused;
        let (_, reply) = exchange.into_parts();
        self.recycle(reply);
        if self.fetch_mut(token).is_some_and(|f| f.peer.is_some()) {
            return self.peer_replied(token, None);
        }
        if reused && failure != Failure::Malformed {
            return self.attempt(token, true);
        }
        self.attempt_failed(token, failure == Failure::TimedOut);
    }

    /// A counted attempt failed: back off on the wheel before the next,
    /// or, none left, conclude without an answer.
    fn attempt_failed(&mut self, token: u64, timed_out: bool) {
        let next = {
            let Some(conn) = self.slab.get(token) else {
                return;
            };
            let target = conn.parser.target();
            let ConnState::Fetching(Fetch {
                tries: Some(tries), ..
            }) = &mut conn.state
            else {
                return;
            };
            tries.failed(timed_out, &self.config, &mut self.state, target)
        };
        match next {
            Ok(delay) => {
                let now = Instant::now();
                // A saturated backoff is past any horizon an `Instant`
                // reaches; a century is as good.
                let due = now
                    .checked_add(delay)
                    .unwrap_or(now + Duration::from_secs(100 * 365 * 86_400));
                self.set_deadline(token, due);
            }
            Err(e) => self.conclude_fetch(token, Err(e)),
        }
    }

    /// The key's owner replied (`None`: it did not). A `FOUND` is served;
    /// anything else sends the request on to the origin.
    fn peer_replied(&mut self, token: u64, reply: Option<cluster::Frame>) {
        drop(self.end_exchange(token));
        let served = {
            let Some(conn) = self.slab.get(token) else {
                return;
            };
            let ConnState::Fetching(fetch) = &mut conn.state else {
                return;
            };
            let Some((owner, _)) = fetch.peer.take() else {
                return;
            };
            let now = fetch.miss.now;
            let served = peer_answered(&self.config, &mut self.state, now, owner, reply);
            served.map(|resp| {
                conn.state = ConnState::Reading;
                let resp = finalize_response(conn.parser.if_modified_since(), resp);
                conn.start_response(&resp);
            })
        };
        match served {
            Some(()) => self.flush_response(token),
            None => self.ask_origin(token),
        }
    }

    /// The fetch is over, with the origin's answer or without one:
    /// conclude — store, count, build the response — and write it.
    fn conclude_fetch(&mut self, token: u64, answer: Answer) {
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        let ConnState::Fetching(fetch) = std::mem::replace(&mut conn.state, ConnState::Reading)
        else {
            return;
        };
        if answer.is_ok() {
            self.state.counters.inline_fetches.add(1);
        }
        let resp = fetch
            .miss
            .conclude(&self.config, &mut self.state, conn.parser.target(), answer);
        let resp = finalize_response(conn.parser.if_modified_since(), resp);
        conn.start_response(&resp);
        self.flush_response(token);
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

    /// Act on connections whose deadline passed: a client stalled
    /// mid-request gets `504`; a client stalled mid-response is dropped;
    /// an exchange that made no progress fails its attempt; a backoff
    /// that ran out starts the next attempt; a silent peer is dropped. A
    /// tick also gives a parked listener its next try, for descriptors
    /// freed outside the loop (another process).
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        // Take/put-back keeps one scratch Vec alive across iterations so
        // steady-state ticks do not allocate.
        let mut fired = std::mem::take(&mut self.fired_scratch);
        if self.wheel.advance_into(now, &mut fired) {
            self.unpark_listeners();
        }
        for &token in &fired {
            let Some(conn) = self.slab.get(token) else {
                continue; // closed: the entry is stale
            };
            if conn.deadline > now {
                // Re-armed since this entry was scheduled: walk the
                // single entry forward to the new deadline.
                let deadline = conn.deadline;
                self.wheel.schedule(token, deadline);
                continue;
            }
            let stalled_exchange = match &conn.state {
                ConnState::Fetching(fetch) => Some(fetch.exchange.is_some()),
                _ => None,
            };
            match (&conn.state, stalled_exchange) {
                (_, Some(true)) => self.exchange_failed(token, Failure::TimedOut),
                (_, Some(false)) => self.attempt(token, false),
                (ConnState::Reading, _) => {
                    // One best-effort shot at the 504, uncorked like every
                    // refusal — the client is stalled, not necessarily
                    // reading, so what the socket does not take at once
                    // goes with the close below.
                    self.reject(token, 504);
                    self.close_conn(token);
                }
                _ => self.close_conn(token),
            }
            // The fired entry is spent; a connection that lives on gets
            // it back at its new deadline.
            if let Some(conn) = self.slab.get(token) {
                let deadline = conn.deadline;
                self.wheel.schedule(token, deadline);
            }
        }
        self.fired_scratch = fired;
    }

    /// Close a connection; the descriptor it frees is the one a parked
    /// listener waits for. Its parser and head buffer go back to the pool
    /// for the next accept.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            // Dropping the stream closes the socket, and closing takes
            // it out of the epoll set: the fd was never duplicated, so
            // no `EPOLL_CTL_DEL` is spent on it.
            let (stream, parser, head) = conn.into_parts();
            self.pool.put_parser(parser);
            self.pool.put_head(head);
            drop(stream);
            self.unpark_listeners();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{self, Request, RequestParser};

    #[test]
    fn tokens_round_trip_and_tag_generations() {
        for (idx, gen) in [(0usize, 0u32), (7, 3), (0xFFFF_FFFE, u32::MAX)] {
            assert_eq!(unpack_token(pack_token(idx, gen)), (idx, gen));
        }
        assert_ne!(pack_token(1, 0), pack_token(1, 1));
        // The sentinel tokens sit above any token a real slab can mint
        // (slot indices are bounded far below 2^32 by the fd limit).
        assert!(pack_token(0xFFFF_FFFC, u32::MAX) < PEER_LISTENER_TOKEN);
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

    #[test]
    fn wheel_fires_after_the_deadline_not_before() {
        let mut wheel = Wheel::new(Duration::from_millis(160), Duration::from_secs(1));
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
        let mut wheel = Wheel::new(Duration::from_millis(20), Duration::from_secs(1));
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
