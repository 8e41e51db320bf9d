//! The cluster layer: configuration, the ICP-style peer-lookup wire
//! protocol, and shared ring/membership state (design decision D17).
//!
//! A cluster is a set of proxies that behave as one logical cache.
//! Placement is decided by the deterministic consistent-hash ring from
//! [`webcache_core::cluster`]: every node (and the load generator)
//! builds the identical ring from the same `(seed, membership, vnodes)`
//! and routes each URL to its owner. A node *stores* only the keys it
//! owns; on a local miss for a key it does not own it asks the owner
//! with a small length-prefixed TCP frame (the ICP idea: a cheap "do
//! you have it?" to a peer before paying the origin round trip).
//!
//! ## Frame format
//!
//! Every frame is `[u32 len LE][u8 kind][payload]`, `len` covering
//! kind + payload. Integers are little-endian, the discipline of every
//! other wire/disk format in this repository:
//!
//! * `QUERY (1)` — `sender: u32, epoch: u64, url_len: u16, url bytes`.
//!   "Serve `url` from your cache if you hold a fresh copy." The
//!   answering peer consults only its local cache — it never fetches
//!   from the origin on a peer's behalf, so lookups cannot recurse.
//! * `FOUND (2)` — `epoch: u64, lm_plus_1: u64, body_len: u32, body`.
//!   A fresh copy, served. `lm_plus_1` is `last_modified + 1` (0 =
//!   none).
//! * `MISS (3)` — `epoch: u64`. No fresh copy; the asker falls through
//!   to the origin.
//! * `MEMBERSHIP (4)` — `sender: u32, epoch: u64, n: u16, n × u32`.
//!   A versioned member set. Sent at startup (join probe), broadcast
//!   after an epoch bump, and returned as the reply to an inbound
//!   `MEMBERSHIP`; the receiver adopts strictly higher epochs.
//!
//! `len` covers a frame's fields exactly: a frame with bytes after its
//! last field is refused like a truncated one, so a length that
//! disagrees with its fields never passes for a frame.
//!
//! ## Failure semantics
//!
//! Peer I/O is bounded by [`ClusterConfig::peer_timeout`] (the same
//! connect/read timeout discipline as origin fetches) and guarded by a
//! per-peer circuit breaker. A dead peer therefore degrades the node to
//! its single-node behaviour — the lookup fails fast, the request falls
//! through to the origin, the client sees a normal response. When a
//! peer's breaker trips, the node declares it dead: it bumps the
//! membership epoch without the peer, rebuilds its ring (re-homing the
//! dead node's keys onto the survivors — ~K/N keys, see the ring's
//! bounded-movement property), and broadcasts the new membership
//! best-effort. A node that finds itself excluded from an adopted
//! membership re-adds itself at a higher epoch: rejoin is just another
//! bump.

use crate::stats::Counters;
use parking_lot::{Mutex, RwLock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use webcache_core::cluster::{HashRing, Membership, DEFAULT_VNODES};

/// Default peer-lookup timeout: long enough for a LAN round trip with a
/// body, short enough that a dead peer costs little before its breaker
/// trips.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_millis(250);

/// Default ring seed (the paper's year). All nodes and clients must
/// agree on the seed; it is configuration, not a secret.
pub const DEFAULT_RING_SEED: u64 = 1996;

/// Frame kind tags.
const KIND_QUERY: u8 = 1;
const KIND_FOUND: u8 = 2;
const KIND_MISS: u8 = 3;
const KIND_MEMBERSHIP: u8 = 4;

/// Hard cap on an accepted frame, against corrupt or hostile length
/// prefixes. Bodies larger than this are simply not peer-served.
pub const MAX_FRAME: u32 = 64 << 20;

/// The longest frame a node is ever asked with: a `MEMBERSHIP` of
/// `u16::MAX` members (a `QUERY`'s URL is at most `u16::MAX` bytes, a
/// quarter of that). A peer port refuses a longer length prefix at once.
pub const MAX_REQUEST_FRAME: u32 = 1 + 4 + 8 + 2 + 4 * u16::MAX as u32;

/// Payload capacity reserved on the strength of a length prefix alone;
/// beyond it the buffer follows the bytes received.
const FRAME_READ_AHEAD: usize = 4096;

/// Largest body a node serves in a `FOUND` reply (safely under
/// [`MAX_FRAME`]); a bigger document answers `MISS` and the asker
/// fetches it from the origin directly.
pub(crate) const MAX_PEER_BODY: u64 = 32 << 20;

/// Static cluster configuration for one node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's id (must appear in the seed list).
    pub node_id: u32,
    /// The static seed list: every potential member's id and peer-port
    /// address. Initial membership is exactly this set at epoch 0, so
    /// all nodes start with identical rings without any handshake.
    pub seed_list: Vec<(u32, SocketAddr)>,
    /// Bound on peer connect + read + write time.
    pub peer_timeout: Duration,
    /// Ring seed (must match across the cluster).
    pub ring_seed: u64,
    /// Virtual nodes per member on the ring.
    pub vnodes: u32,
}

impl ClusterConfig {
    /// A config over `seed_list` with default timeout, seed, and vnodes.
    pub fn new(node_id: u32, seed_list: Vec<(u32, SocketAddr)>) -> ClusterConfig {
        ClusterConfig {
            node_id,
            seed_list,
            peer_timeout: DEFAULT_PEER_TIMEOUT,
            ring_seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
        }
    }

    /// Parse a seed list of the form `0=127.0.0.1:7000,1=127.0.0.1:7001`.
    pub fn parse_seed_list(s: &str) -> Result<Vec<(u32, SocketAddr)>, String> {
        let mut out = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (id, addr) = part
                .split_once('=')
                .ok_or_else(|| format!("seed entry {part:?} is not ID=ADDR"))?;
            let id: u32 = id
                .parse()
                .map_err(|_| format!("bad node id in seed entry {part:?}"))?;
            let addr: SocketAddr = addr
                .parse()
                .map_err(|_| format!("bad address in seed entry {part:?}"))?;
            if out.iter().any(|(i, _)| *i == id) {
                return Err(format!("duplicate node id {id} in seed list"));
            }
            out.push((id, addr));
        }
        if out.is_empty() {
            return Err("seed list is empty".to_string());
        }
        Ok(out)
    }

    /// The peer-port address this node must bind.
    pub fn self_addr(&self) -> Option<SocketAddr> {
        self.addr_of(self.node_id)
    }

    /// The peer-port address of `node`, from the seed list.
    pub fn addr_of(&self, node: u32) -> Option<SocketAddr> {
        self.seed_list
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, a)| *a)
    }
}

/// One peer-protocol frame (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// "Serve this URL from your cache if you can."
    Query {
        /// The asking node.
        sender: u32,
        /// The asker's membership epoch.
        epoch: u64,
        /// The absolute URL wanted.
        url: String,
    },
    /// A fresh copy of the queried document.
    Found {
        /// The answering node's membership epoch.
        epoch: u64,
        /// The copy's `Last-Modified`, when known.
        last_modified: Option<u64>,
        /// The document body.
        body: Vec<u8>,
    },
    /// No fresh copy; ask the origin.
    Miss {
        /// The answering node's membership epoch.
        epoch: u64,
    },
    /// A versioned member set (join probe / bump broadcast / reply).
    Membership {
        /// The sending node.
        sender: u32,
        /// The epoch of this member set.
        epoch: u64,
        /// Member node ids.
        members: Vec<u32>,
    },
}

/// Encode `frame` into the length-prefixed wire form. A URL or member
/// list longer than its `u16` count allows is cut to that count, and a
/// `last_modified` of `u64::MAX`, which `lm_plus_1` cannot carry, is sent
/// as `u64::MAX - 1`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Query { sender, epoch, url } => {
            payload.push(KIND_QUERY);
            payload.extend_from_slice(&sender.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
            let url = url.as_bytes();
            payload.extend_from_slice(&(url.len().min(u16::MAX as usize) as u16).to_le_bytes());
            payload.extend_from_slice(&url[..url.len().min(u16::MAX as usize)]);
        }
        Frame::Found {
            epoch,
            last_modified,
            body,
        } => {
            let mut out = Vec::new();
            encode_found_head(&mut out, *epoch, *last_modified, body.len());
            out.extend_from_slice(body);
            return out;
        }
        Frame::Miss { epoch } => {
            payload.push(KIND_MISS);
            payload.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Membership {
            sender,
            epoch,
            members,
        } => {
            payload.push(KIND_MEMBERSHIP);
            payload.extend_from_slice(&sender.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&(members.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for m in members.iter().take(u16::MAX as usize) {
                payload.extend_from_slice(&m.to_le_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Everything of a `FOUND` frame but its body of `body_len` bytes, into
/// `out`, cleared first: the length prefix, the kind and the fields. The
/// event loop writes the body after it straight from the cache.
pub(crate) fn encode_found_head(
    out: &mut Vec<u8>,
    epoch: u64,
    last_modified: Option<u64>,
    body_len: usize,
) {
    out.clear();
    let len = 1 + 8 + 8 + 4 + body_len;
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(KIND_FOUND);
    out.extend_from_slice(&epoch.to_le_bytes());
    let lm_plus_1 = last_modified.map_or(0, |lm| lm.saturating_add(1));
    out.extend_from_slice(&lm_plus_1.to_le_bytes());
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// A little-endian cursor over one received payload.
struct Cur<'a>(&'a [u8]);

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(bad("truncated cluster frame"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u16(&mut self) -> std::io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }
}

/// Decode one frame's payload (kind byte and fields, without the length
/// prefix). A payload with bytes after the frame's last field is an
/// error, as is one that ends inside a field.
pub fn decode(payload: &[u8]) -> std::io::Result<Frame> {
    let (&kind, rest) = payload
        .split_first()
        .ok_or_else(|| bad("empty cluster frame"))?;
    let mut cur = Cur(rest);
    let frame = match kind {
        KIND_QUERY => {
            let sender = cur.u32()?;
            let epoch = cur.u64()?;
            let url_len = cur.u16()? as usize;
            let url = std::str::from_utf8(cur.take(url_len)?)
                .map_err(|_| bad("query URL is not UTF-8"))?
                .to_string();
            Frame::Query { sender, epoch, url }
        }
        KIND_FOUND => {
            let epoch = cur.u64()?;
            let lm = cur.u64()?;
            let body_len = cur.u32()? as usize;
            let body = cur.take(body_len)?.to_vec();
            Frame::Found {
                epoch,
                last_modified: lm.checked_sub(1),
                body,
            }
        }
        KIND_MISS => Frame::Miss { epoch: cur.u64()? },
        KIND_MEMBERSHIP => {
            let sender = cur.u32()?;
            let epoch = cur.u64()?;
            let n = cur.u16()? as usize;
            // The count is the peer's claim too: reserve only for the
            // members whose bytes are there.
            let mut members = Vec::with_capacity(n.min(cur.0.len() / 4));
            for _ in 0..n {
                members.push(cur.u32()?);
            }
            Frame::Membership {
                sender,
                epoch,
                members,
            }
        }
        _ => return Err(bad("unknown cluster frame kind")),
    };
    if !cur.0.is_empty() {
        return Err(bad("bytes after the cluster frame's last field"));
    }
    Ok(frame)
}

/// A frame read as its bytes arrive: the length prefix, then the payload
/// it announces, then [`decode`]. The reader keeps its place between
/// calls, so a socket that must not be waited on can feed it whatever it
/// has each time it is readable. It never reads past the frame's last
/// byte, and the prefix is the peer's claim, not a fact: the buffer grows
/// with the bytes that actually arrive, so a header promising
/// [`MAX_FRAME`] costs nothing until the peer pays for it.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The prefix, then the payload, as received.
    buf: Vec<u8>,
    /// On a peer port, where only requests arrive: a length prefix above
    /// [`MAX_REQUEST_FRAME`] is refused.
    inbound: bool,
}

impl FrameReader {
    /// A reader for a peer port.
    pub fn inbound() -> FrameReader {
        FrameReader {
            inbound: true,
            ..FrameReader::default()
        }
    }

    /// Take the frame further with what `r` yields now: `Ok(Some(..))` is
    /// the frame, `Ok(None)` means `r` would block with more due. A
    /// stream that ends early is an `UnexpectedEof` error. One frame per
    /// reader.
    pub fn resume<R: Read>(&mut self, r: &mut R) -> std::io::Result<Option<Frame>> {
        let limit = if self.inbound {
            MAX_REQUEST_FRAME
        } else {
            MAX_FRAME
        };
        loop {
            let end = match self.buf.first_chunk::<4>() {
                None => 4,
                Some(&prefix) => match u32::from_le_bytes(prefix) {
                    len if (1..=limit).contains(&len) => 4 + len as usize,
                    _ => return Err(bad("cluster frame length out of range")),
                },
            };
            if self.buf.len() == end && end > 4 {
                return decode(&self.buf[4..]).map(Some);
            }
            if self.buf.len() == 4 {
                self.buf.reserve_exact((end - 4).min(FRAME_READ_AHEAD));
            }
            // `read_to_end` grows the buffer with what arrives and keeps
            // what it read before an error; the limit stops it at the end
            // of the prefix, then of the frame.
            let want = (end - self.buf.len()) as u64;
            match r.by_ref().take(want).read_to_end(&mut self.buf) {
                Ok(_) if self.buf.len() == end => {}
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "cluster frame shorter than its length prefix",
                    ))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Read one frame from `r`, blocking as `r` blocks (bounded by the socket
/// timeouts the caller set; one that lapses is a `WouldBlock` error): a
/// [`FrameReader`] run to the end.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Frame> {
    FrameReader::default()
        .resume(r)?
        .ok_or_else(|| std::io::ErrorKind::WouldBlock.into())
}

/// Send one frame to `addr` and read one frame back, every step bounded
/// by `timeout`.
fn call_peer(addr: SocketAddr, frame: &Frame, timeout: Duration) -> std::io::Result<Frame> {
    let mut s = TcpStream::connect_timeout(&addr, timeout)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    s.write_all(&encode_frame(frame))?;
    read_frame(&mut s)
}

/// Shared, concurrently updated cluster state for one node: the current
/// ring + membership.
#[derive(Debug)]
pub struct ClusterState {
    config: ClusterConfig,
    /// Current ring, rebuilt on every membership install. Reads (owner
    /// lookups, several per request) vastly outnumber writes (epoch
    /// bumps), hence the RwLock.
    ring: RwLock<HashRing>,
    /// Current membership; guarded separately so a bump can compute the
    /// successor set before swapping the ring.
    membership: Mutex<Membership>,
    /// The node's counter table, created with its cluster state: the
    /// proxy's state adopts it, and membership installs are counted in it.
    pub(crate) counters: Arc<Counters>,
}

impl ClusterState {
    /// Build the initial state: membership = the full seed list at
    /// epoch 0, so every node starts with the identical ring.
    ///
    /// # Panics
    ///
    /// Panics when `config.node_id` is not in the seed list.
    pub fn new(config: ClusterConfig) -> ClusterState {
        assert!(
            config.self_addr().is_some(),
            "node id {} is not in the cluster seed list",
            config.node_id
        );
        let membership = Membership::new(0, config.seed_list.iter().map(|(id, _)| *id).collect());
        let ring = HashRing::build(config.ring_seed, &membership, config.vnodes);
        ClusterState {
            config,
            ring: RwLock::new(ring),
            membership: Mutex::new(membership),
            counters: Arc::default(),
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.config.node_id
    }

    /// The node configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.ring.read().epoch()
    }

    /// Current member ids (sorted).
    pub fn members(&self) -> Vec<u32> {
        self.ring.read().members().to_vec()
    }

    /// A clone of the current membership.
    pub fn current_membership(&self) -> Membership {
        self.membership.lock().clone()
    }

    /// The node owning `key` under the current ring.
    pub fn owner(&self, key: &str) -> u32 {
        self.ring.read().owner(key)
    }

    /// Number of members in the current ring.
    pub fn member_count(&self) -> usize {
        self.ring.read().len()
    }

    /// Install `m` if it is strictly newer than the current membership,
    /// re-adding this node first if the set excludes it (rejoin is a
    /// further bump). Returns the installed membership when anything
    /// changed, so the caller can broadcast it.
    pub(crate) fn install(&self, m: Membership) -> Option<Membership> {
        let mut cur = self.membership.lock();
        // Staleness is judged on the epoch as *received* — re-adding
        // ourselves below bumps further, and that bump must not promote
        // an old membership into a "newer" one.
        if m.epoch <= cur.epoch {
            return None;
        }
        let m = if m.contains(self.config.node_id) {
            m
        } else {
            m.with(self.config.node_id)
        };
        let ring = HashRing::build(self.config.ring_seed, &m, self.config.vnodes);
        *cur = m.clone();
        *self.ring.write() = ring;
        self.counters.epoch_bumps.add(1);
        Some(m)
    }

    /// Declare `peer` dead: bump the epoch without it and install the
    /// result. Returns the new membership to broadcast, or `None` if
    /// `peer` was already gone (e.g. a racing bump got there first).
    pub(crate) fn remove_peer(&self, peer: u32) -> Option<Membership> {
        let next = {
            let cur = self.membership.lock();
            if !cur.contains(peer) {
                return None;
            }
            cur.without(peer)
        };
        self.install(next)
    }

    /// Best-effort membership broadcast to every member except self:
    /// one bounded call per peer, errors ignored (a peer that misses
    /// the broadcast learns the epoch from its next exchange).
    pub(crate) fn broadcast_membership(&self, m: &Membership) {
        let frame = Frame::Membership {
            sender: self.config.node_id,
            epoch: m.epoch,
            members: m.members.clone(),
        };
        for &node in &m.members {
            if node == self.config.node_id {
                continue;
            }
            if let Some(addr) = self.config.addr_of(node) {
                let _ = call_peer(addr, &frame, self.config.peer_timeout);
            }
        }
    }
}

/// Startup join probe, run on a background thread: offer our membership
/// to every seed peer and adopt any strictly newer membership that
/// comes back. With a fresh cluster everyone is already at epoch 0 with
/// the full seed set, so this is a no-op; after restarts it is how a
/// returning node learns about bumps it slept through.
pub(crate) fn startup_exchange(cluster: &Arc<ClusterState>) {
    let cluster = Arc::clone(cluster);
    std::thread::spawn(move || {
        let ours = cluster.current_membership();
        let frame = Frame::Membership {
            sender: cluster.node_id(),
            epoch: ours.epoch,
            members: ours.members.clone(),
        };
        let mut adopted: Option<Membership> = None;
        for (node, addr) in cluster.config().seed_list.clone() {
            if node == cluster.node_id() {
                continue;
            }
            if let Ok(Frame::Membership { epoch, members, .. }) =
                call_peer(addr, &frame, cluster.config().peer_timeout)
            {
                if let Some(m) = cluster.install(Membership::new(epoch, members)) {
                    adopted = Some(m);
                }
            }
        }
        // If adopting re-added us at a fresh epoch, let the others know.
        if let Some(m) = adopted {
            if m.epoch > ours.epoch {
                cluster.broadcast_membership(&m);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_list_parses_and_rejects() {
        let list = ClusterConfig::parse_seed_list("0=127.0.0.1:7000, 1=127.0.0.1:7001")
            .expect("valid list");
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].0, 1);
        assert!(ClusterConfig::parse_seed_list("").is_err());
        assert!(ClusterConfig::parse_seed_list("0:127.0.0.1:7000").is_err());
        assert!(ClusterConfig::parse_seed_list("x=127.0.0.1:7000").is_err());
        assert!(ClusterConfig::parse_seed_list("0=nonsense").is_err());
        assert!(ClusterConfig::parse_seed_list("0=127.0.0.1:1,0=127.0.0.1:2").is_err());
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Query {
                sender: 3,
                epoch: 7,
                url: "http://a.test/x.html".to_string(),
            },
            Frame::Found {
                epoch: 7,
                last_modified: Some(0),
                body: vec![1, 2, 3, 4, 5],
            },
            Frame::Found {
                epoch: 1,
                last_modified: None,
                body: Vec::new(),
            },
            Frame::Miss { epoch: 9 },
            Frame::Membership {
                sender: 0,
                epoch: 2,
                members: vec![0, 2, 5],
            },
        ];
        for f in &frames {
            let bytes = encode_frame(f);
            let back = read_frame(&mut &bytes[..]).expect("decode");
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let bytes = encode_frame(&Frame::Miss { epoch: 1 });
        assert!(read_frame(&mut &bytes[..bytes.len() - 1]).is_err());
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut &zero[..]).is_err());
    }

    fn state(node: u32) -> ClusterState {
        let seeds = vec![
            (0, "127.0.0.1:17000".parse().expect("addr")),
            (1, "127.0.0.1:17001".parse().expect("addr")),
            (2, "127.0.0.1:17002".parse().expect("addr")),
        ];
        ClusterState::new(ClusterConfig::new(node, seeds))
    }

    #[test]
    fn initial_state_is_the_seed_set_at_epoch_zero() {
        let s = state(1);
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.members(), vec![0, 1, 2]);
        assert_eq!(s.member_count(), 3);
        // All nodes agree on owners without any exchange.
        let other = state(0);
        for url in ["http://a.test/1", "http://b.test/2", "http://c.test/3"] {
            assert_eq!(s.owner(url), other.owner(url));
        }
    }

    #[test]
    fn remove_peer_bumps_and_rehomes() {
        let s = state(0);
        let m = s.remove_peer(2).expect("first removal bumps");
        assert_eq!(m.epoch, 1);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.members(), vec![0, 1]);
        assert_eq!(s.counters.snapshot().epoch_bumps, 1);
        // Idempotent: a second removal of the same peer is a no-op.
        assert!(s.remove_peer(2).is_none());
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn install_ignores_stale_and_readds_self() {
        let s = state(0);
        assert!(s.install(Membership::new(0, vec![1, 2])).is_none());
        // A newer membership that excludes us is adopted with ourselves
        // re-added at a further bump (rejoin).
        let m = s
            .install(Membership::new(5, vec![1, 2]))
            .expect("newer epoch installs");
        assert_eq!(m.epoch, 6);
        assert!(m.contains(0));
        assert_eq!(s.members(), vec![0, 1, 2]);
    }
}
