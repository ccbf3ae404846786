//! A zero-dependency HTTP stats endpoint over `std::net` — the first
//! network-facing surface of the engine and the seed of the async query
//! server from ROADMAP open item 1.
//!
//! [`StatsServer::start`] binds a `TcpListener` and serves read-only
//! observability documents with a minimal HTTP/1.0 responder (one
//! accept-loop thread, one connection at a time, `Connection: close`):
//!
//! | path | content | source |
//! |---|---|---|
//! | `GET /metrics` | Prometheus text | [`crate::metrics::global`] |
//! | `GET /queries` | active-query progress JSON | [`crate::progress::global`] |
//! | `GET /flight` | flight-recorder ring dump JSON | [`crate::trace::flight`] |
//! | `GET /sites` | per-site round-trip totals JSON, one [`crate::runtime::SiteBreakdown::to_json`] entry per site (schema: `definitions/site` of `schemas/profile.schema.json`) | [`crate::distributed::sites_json`] |
//! | `GET /healthz` | `ok` | — |
//!
//! Started via `repro --stats-addr 127.0.0.1:PORT` or `SET stats_addr`
//! in the SQL shell; bind port 0 for an ephemeral port (tests). The
//! server only ever *reads* process-global state, so it needs no
//! coordination with query execution beyond the registries' own locks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Limit on the request head (request line + headers) we are willing to
/// buffer; everything this server answers fits in a fraction of this.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running stats endpoint. Dropping (or [`StatsServer::shutdown`])
/// stops the accept loop and joins its thread.
#[derive(Debug)]
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and
    /// start serving in a background thread.
    pub fn start(addr: &str) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("gmdj-stats".into())
            .spawn(move || accept_loop(listener, thread_stop))?;
        Ok(StatsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = stream {
            // Serve inline: the documents are cheap to render and the
            // endpoint is an operator surface, not a data plane.
            let _ = serve_connection(stream);
        }
    }
}

fn serve_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()),
    };
    let (status, content_type, body) = route(&path);
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and return the request path
/// for a GET, `None` for anything malformed or non-GET (answered 400/405
/// by the caller via the empty-path route; keeping it simple: we only
/// ever return `Some` for well-formed GETs).
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&buf) && buf.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// Map a request path to `(status line, content type, body)`.
fn route(path: &str) -> (&'static str, &'static str, String) {
    // Ignore any query string; the endpoints take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::metrics::global().render_prometheus(),
        ),
        "/queries" => (
            "200 OK",
            "application/json",
            crate::progress::global().render_json(),
        ),
        "/flight" => (
            "200 OK",
            "application/json",
            crate::trace::flight().dump_json(),
        ),
        "/sites" => (
            "200 OK",
            "application/json",
            crate::distributed::sites_json(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_on_ephemeral_port() {
        let server = StatsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        crate::metrics::global().inc("serve_test_probe_total", 1);
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(head.contains("Content-Type: text/plain"));
        assert!(body.contains("serve_test_probe_total"));

        let (head, body) = get(addr, "/queries");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"version\":"), "{body}");

        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(body.starts_with("{\"capacity\":"), "{body}");

        let (head, body) = get(addr, "/sites");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"sites\":["), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        server.shutdown();
    }

    #[test]
    fn content_length_matches_body() {
        let server = StatsServer::start("127.0.0.1:0").unwrap();
        let (head, body) = get(server.local_addr(), "/healthz");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn query_strings_are_ignored_and_bad_requests_dropped() {
        let server = StatsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let (head, _) = get(addr, "/healthz?verbose=1");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        // A non-GET gets its connection closed without a response.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.is_empty());
        // The server still answers afterwards.
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
    }
}
