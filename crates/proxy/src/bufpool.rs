//! Free-lists of per-connection buffers for the reactor.
//!
//! Every reactor connection needs a [`RequestParser`] (whose line buffer
//! and method/target strings grow to fit the request head) and a head
//! `Vec<u8>` (the serialised response status line + headers). Allocating
//! those per accepted connection puts the allocator on the hit path;
//! under HTTP/1.0 every request is a fresh connection, so per-connection
//! cost *is* per-request cost. The pool turns that into checkout/return
//! of warmed buffers: after a handful of connections have cycled, accepts
//! stop allocating entirely (see DESIGN.md D14 and the
//! `alloc_steady_state` integration test).
//!
//! Ownership model: the pool is owned by the event loop thread and never
//! shared, so it needs no lock. Buffers are checked out when the loop
//! admits a connection and returned when it closes it; a buffer's lifetime
//! is exactly the connection's time in the loop. Returns reset content but
//! keep capacity; the pool is bounded so a burst of ten thousand
//! concurrent connections doesn't leave ten thousand idle buffers pinned
//! forever.

use crate::http::RequestParser;

/// Upper bound on pooled buffers of each kind. Beyond this, returned
/// buffers are dropped: steady-state concurrency above the bound still
/// allocates, but memory stays proportional to the bound rather than to
/// the historical connection high-water mark.
const MAX_POOLED: usize = 1024;

/// A free-list of reusable request parsers and response-head buffers,
/// owned by (and only touched from) the reactor's event loop thread.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    parsers: Vec<RequestParser>,
    heads: Vec<Vec<u8>>,
}

impl BufPool {
    /// An empty pool: buffers are created on first checkout and pooled
    /// on return, so memory grows to the live-connection high-water mark
    /// (capped at [`MAX_POOLED`]) and no further.
    pub(crate) fn new() -> BufPool {
        BufPool::default()
    }

    /// Check out a parser, reusing a pooled one when available.
    pub(crate) fn get_parser(&mut self) -> RequestParser {
        self.parsers.pop().unwrap_or_default()
    }

    /// Return a parser to the pool. Reset here (not at checkout) so the
    /// accept path does no work and a pooled parser is always pristine.
    pub(crate) fn put_parser(&mut self, mut parser: RequestParser) {
        if self.parsers.len() < MAX_POOLED {
            parser.reset();
            self.parsers.push(parser);
        }
    }

    /// Check out a response-head buffer (cleared, capacity retained).
    pub(crate) fn get_head(&mut self) -> Vec<u8> {
        self.heads.pop().unwrap_or_default()
    }

    /// Return a head buffer to the pool.
    pub(crate) fn put_head(&mut self, mut head: Vec<u8>) {
        if self.heads.len() < MAX_POOLED {
            head.clear();
            self.heads.push(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_cycle_through_the_pool_with_capacity_retained() {
        let mut pool = BufPool::new();
        let mut head = pool.get_head();
        head.extend_from_slice(b"HTTP/1.0 200 OK\r\n\r\n");
        let cap = head.capacity();
        pool.put_head(head);
        let head = pool.get_head();
        assert!(head.is_empty(), "pooled head must come back cleared");
        assert_eq!(head.capacity(), cap, "pooled head must keep capacity");

        let mut parser = pool.get_parser();
        assert!(parser
            .feed(b"GET http://o.test/a HTTP/1.0\r\n\r\n")
            .unwrap()
            .is_some());
        pool.put_parser(parser);
        let mut parser = pool.get_parser();
        assert_eq!(parser.bytes_fed(), 0, "pooled parser must come back reset");
        let req = parser
            .feed(b"GET http://o.test/b HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.target, "http://o.test/b");
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = BufPool::new();
        for _ in 0..(MAX_POOLED + 10) {
            pool.put_head(Vec::new());
            pool.put_parser(RequestParser::new());
        }
        assert_eq!(pool.heads.len(), MAX_POOLED);
        assert_eq!(pool.parsers.len(), MAX_POOLED);
    }
}
