//! A synthetic origin Web server: serves a document store over HTTP/1.0,
//! including conditional GET (`If-Modified-Since` → `304 Not Modified`),
//! the consistency mechanism section 1 of the paper describes.
//!
//! A client that sends `Connection: keep-alive` keeps its connection: the
//! origin answers in kind and serves request after request on it, one
//! thread per connection, until the peer closes. Any other client gets
//! HTTP/1.0's one request per connection.

#[cfg(test)]
use crate::http::Request;
use crate::http::{self, Response};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One origin document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Body bytes.
    pub body: Bytes,
    /// Last modification time (epoch-ish seconds; any monotone scale).
    pub last_modified: u64,
}

/// Shared, mutable document store.
#[derive(Debug, Default)]
pub struct DocStore {
    docs: Mutex<HashMap<String, Doc>>,
}

impl DocStore {
    /// Empty store.
    pub fn new() -> DocStore {
        DocStore::default()
    }

    /// Insert or replace a document with synthetic content of `size`
    /// bytes.
    pub fn put_synthetic(&self, url: &str, size: u64, last_modified: u64) {
        self.docs.lock().insert(
            url.to_string(),
            Doc {
                body: http::synthetic_body(url, size),
                last_modified,
            },
        );
    }

    /// Fetch a document.
    pub fn get(&self, url: &str) -> Option<Doc> {
        self.docs.lock().get(url).cloned()
    }

    /// Modify a document in place: new synthetic content of `new_size`,
    /// bumping `last_modified`.
    pub fn modify(&self, url: &str, new_size: u64, now: u64) -> bool {
        let mut docs = self.docs.lock();
        match docs.get_mut(url) {
            Some(d) => {
                // Vary the generator input so equal sizes still change
                // content (the paper's same-size modification case).
                d.body = http::synthetic_body(&format!("{url}#{now}"), new_size);
                d.last_modified = now;
                true
            }
            None => false,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.lock().len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.lock().is_empty()
    }
}

/// Counters the origin keeps (to measure how much traffic a cache saved —
/// the paper's "number of requests that reach popular servers").
#[derive(Debug, Default)]
pub struct OriginStats {
    /// Full-body 200 responses served.
    pub full_responses: AtomicU64,
    /// 304 Not Modified responses served.
    pub not_modified: AtomicU64,
    /// Body bytes sent.
    pub bytes_sent: AtomicU64,
    /// Connections accepted — with persistent upstream connections, far
    /// fewer than requests served.
    pub connections: AtomicU64,
}

/// A running origin server.
pub struct OriginServer {
    addr: SocketAddr,
    store: Arc<DocStore>,
    stats: Arc<OriginStats>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OriginServer {
    /// Start an origin on an ephemeral localhost port.
    pub fn start(store: Arc<DocStore>) -> std::io::Result<OriginServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(OriginStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                // Every connection still being served: a weak handle to its
                // socket and the thread serving it. The thread holds the
                // one strong handle, so a connection it is done with closes
                // then, not when the list is next pruned.
                let mut live: Vec<(Weak<TcpStream>, std::thread::JoinHandle<()>)> = Vec::new();
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let stream = Arc::new(stream);
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    live.retain(|(_, thread)| !thread.is_finished());
                    let handle = Arc::downgrade(&stream);
                    let store = Arc::clone(&store);
                    let stats = Arc::clone(&stats);
                    let thread = std::thread::spawn(move || {
                        let _ = serve_connection(&stream, &store, &stats);
                    });
                    live.push((handle, thread));
                }
                // A dropped origin is a dead origin: persistent
                // connections end with it, so a proxy holding one sees the
                // failure on its next fetch, not a server that outlived
                // its owner.
                for (stream, thread) in live {
                    if let Some(stream) = stream.upgrade() {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    let _ = thread.join();
                }
            })
        };
        Ok(OriginServer {
            addr,
            store,
            stats,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The origin's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The document store (shared; mutable through interior locking).
    pub fn store(&self) -> &Arc<DocStore> {
        &self.store
    }

    /// Server counters.
    pub fn stats(&self) -> &OriginStats {
        &self.stats
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Resolve a proxy-form target (`http://host/path`) or origin-form path
/// against the store's keys: the store is keyed by full URL, so
/// origin-form requests are matched by suffix.
fn lookup(store: &DocStore, target: &str) -> Option<Doc> {
    if let Some(d) = store.get(target) {
        return Some(d);
    }
    // Origin-form: match any stored URL whose path component equals it.
    if target.starts_with('/') {
        let docs = store.docs.lock();
        for (url, d) in docs.iter() {
            if let Some(rest) = url.strip_prefix("http://") {
                if let Some(idx) = rest.find('/') {
                    if &rest[idx..] == target {
                        return Some(d.clone());
                    }
                }
            }
        }
    }
    None
}

/// Serve one connection: a single request, or — for a client that asks
/// with `Connection: keep-alive` — requests until it closes or errs.
fn serve_connection(
    stream: &TcpStream,
    store: &DocStore,
    stats: &OriginStats,
) -> Result<(), http::HttpError> {
    // Responses are written whole; without this a persistent socket
    // would hold each one back for the peer's delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    loop {
        let req = http::read_request_from(&mut reader)?;
        let keep_alive = req
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
        let mut resp = respond(&req, store, stats);
        if keep_alive {
            resp = resp.with_connection(true);
        }
        http::write_response(reader.get_mut(), &resp)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

fn respond(req: &http::Request, store: &DocStore, stats: &OriginStats) -> Response {
    if req.method != "GET" && req.method != "HEAD" {
        return Response::status_only(501);
    }
    let Some(doc) = lookup(store, &req.target) else {
        return Response::status_only(404);
    };
    // Conditional GET: "P sends an HTTP conditional GET message to S
    // containing the Last-Modified time of its copy; if the original was
    // modified after that time, S replies with the new version."
    if let Some(since) = req.if_modified_since() {
        if doc.last_modified <= since {
            stats.not_modified.fetch_add(1, Ordering::Relaxed);
            return Response::status_only(304);
        }
    }
    stats.full_responses.fetch_add(1, Ordering::Relaxed);
    let body = if req.method == "HEAD" {
        Bytes::new()
    } else {
        doc.body
    };
    stats
        .bytes_sent
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    let mut resp = Response::ok(body, Some(doc.last_modified));
    if req.method == "HEAD" {
        resp.headers
            .insert("content-length".to_string(), "0".to_string());
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};

    fn fetch(addr: SocketAddr, req: &Request) -> Response {
        let mut s = TcpStream::connect(addr).unwrap();
        write_request(&mut s, req).unwrap();
        read_response(&mut s).unwrap()
    }

    fn start() -> OriginServer {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://origin.test/a.html", 1200, 100);
        OriginServer::start(store).unwrap()
    }

    #[test]
    fn serves_documents_with_last_modified() {
        let o = start();
        let r = fetch(o.addr(), &Request::get("http://origin.test/a.html"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body.len(), 1200);
        assert_eq!(r.last_modified(), Some(100));
        assert_eq!(o.stats().full_responses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn conditional_get_returns_304_when_unmodified() {
        let o = start();
        let req = Request::get("http://origin.test/a.html").with_header("If-Modified-Since", "100");
        let r = fetch(o.addr(), &req);
        assert_eq!(r.status, 304);
        assert!(r.body.is_empty());
        assert_eq!(o.stats().not_modified.load(Ordering::Relaxed), 1);
        // Stale copy: full response.
        let req = Request::get("http://origin.test/a.html").with_header("If-Modified-Since", "50");
        assert_eq!(fetch(o.addr(), &req).status, 200);
    }

    #[test]
    fn modification_changes_body_and_lm() {
        let o = start();
        let before = fetch(o.addr(), &Request::get("http://origin.test/a.html"));
        assert!(o.store().modify("http://origin.test/a.html", 1200, 500));
        let after = fetch(o.addr(), &Request::get("http://origin.test/a.html"));
        assert_eq!(after.last_modified(), Some(500));
        assert_ne!(
            before.body, after.body,
            "same-size modification must change content"
        );
        assert!(!o.store().modify("http://nope/", 1, 1));
    }

    #[test]
    fn unknown_documents_404_and_bad_methods_501() {
        let o = start();
        assert_eq!(
            fetch(o.addr(), &Request::get("http://origin.test/zzz")).status,
            404
        );
        let mut req = Request::get("http://origin.test/a.html");
        req.method = "POST".to_string();
        assert_eq!(fetch(o.addr(), &req).status, 501);
    }

    #[test]
    fn head_sends_and_counts_no_body() {
        let o = start();
        fetch(o.addr(), &Request::get("http://origin.test/a.html"));
        assert_eq!(o.stats().bytes_sent.load(Ordering::Relaxed), 1200);
        let mut req = Request::get("http://origin.test/a.html");
        req.method = "HEAD".to_string();
        let r = fetch(o.addr(), &req);
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty());
        assert_eq!(o.stats().bytes_sent.load(Ordering::Relaxed), 1200);
    }

    #[test]
    fn origin_form_requests_resolve_by_path() {
        let o = start();
        let r = fetch(o.addr(), &Request::get("/a.html"));
        assert_eq!(r.status, 200);
    }
}
