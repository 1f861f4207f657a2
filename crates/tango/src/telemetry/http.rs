//! Live introspection endpoint: observe a running analysis over HTTP.
//!
//! A deliberately tiny, std-only responder (`TcpListener` + one accept
//! thread — the workspace vendors no async runtime and no HTTP crate)
//! serving three read-only JSON routes:
//!
//! * `/metrics`  — the metrics registry's `"tango-metrics"` document;
//! * `/status`   — the progress heartbeat's snapshot as JSON:
//!   verdict-so-far, TE/GE/RE/SA, rate, ETA, retries, resident bytes;
//! * `/profile`  — the transition hot-spot table as rows.
//!
//! The search thread never blocks on the network: it *pushes* rendered
//! JSON documents into a shared [`IntrospectHandle`] (a mutex around
//! three strings, swapped wholesale), and the accept thread serves
//! whatever snapshot is current. A slow or absent reader costs the
//! analysis nothing beyond the rate-limited render; a burst of readers
//! sees consistent documents. Responses are `Connection: close`.

use super::progress::Heartbeat;
use std::io::{Read, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema identifier of the `/status` document. Version 2 dropped the
/// disk-tier byte gauge.
pub const STATUS_SCHEMA_VERSION: u32 = 2;

/// The three pre-rendered documents the server hands out. Defaults are
/// valid JSON, so a scrape that races analysis startup still parses.
struct Snapshot {
    status: String,
    metrics: String,
    profile: String,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            status: Heartbeat {
                verdict: "starting".to_string(),
                ..Heartbeat::default()
            }
            .status_json(),
            metrics: "{\"schema\":\"tango-metrics\",\"version\":1,\"counters\":{},\
                      \"gauges\":{},\"histograms\":{}}"
                .to_string(),
            profile: "{\"schema\":\"tango-profile\",\"version\":1,\"rows\":[]}".to_string(),
        }
    }
}

/// The write side: the telemetry layer pushes rendered documents here.
/// Cloneable; all clones share one snapshot.
#[derive(Clone)]
pub struct IntrospectHandle {
    shared: Arc<Mutex<Snapshot>>,
}

impl IntrospectHandle {
    /// Replace the served documents in one swap; a `None` document
    /// stays as it was.
    pub fn publish(&self, status: String, metrics: Option<String>, profile: Option<String>) {
        if let Ok(mut s) = self.shared.lock() {
            s.status = status;
            if let Some(m) = metrics {
                s.metrics = m;
            }
            if let Some(p) = profile {
                s.profile = p;
            }
        }
    }

    /// The `/status` document currently served.
    #[cfg(test)]
    pub(crate) fn status(&self) -> String {
        self.shared.lock().map(|s| s.status.clone()).unwrap_or_default()
    }
}

/// The listener plus its accept thread. Dropping the server stops the
/// thread and closes the socket.
pub struct IntrospectionServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: IntrospectHandle,
    thread: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `addr` (e.g. `127.0.0.1:7070`; port `0` picks a free one —
    /// read it back from [`IntrospectionServer::local_addr`]) and start
    /// serving the current snapshot.
    pub fn bind(addr: &str) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept so the thread can poll the stop flag; the
        // 15ms nap bounds both shutdown latency and idle CPU.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = IntrospectHandle {
            shared: Arc::new(Mutex::new(Snapshot::default())),
        };
        let thread = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&handle.shared);
            std::thread::Builder::new()
                .name("tango-introspect".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => serve_one(stream, &shared),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(15));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(15)),
                        }
                    }
                })?
        };
        Ok(IntrospectionServer {
            addr: local,
            stop,
            handle,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves a `:0` request to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The write side to thread into the telemetry handle.
    pub fn handle(&self) -> IntrospectHandle {
        self.handle.clone()
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve one request on an accepted connection. Read errors and
/// malformed requests drop the connection — a misbehaving client must
/// not take the endpoint down.
fn serve_one(mut stream: TcpStream, shared: &Arc<Mutex<Snapshot>>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nonblocking(false);
    // The request line is all we need; headers are read (up to a small
    // cap) only to drain the request before responding.
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    loop {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") || len == buf.len() {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let mut parts = request.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "{\"error\":\"only GET is supported\"}",
        );
        return;
    }
    let body = {
        let snap = match shared.lock() {
            Ok(s) => s,
            Err(_) => return,
        };
        match path {
            "/status" | "/status/" => Some(snap.status.clone()),
            "/metrics" | "/metrics/" => Some(snap.metrics.clone()),
            "/profile" | "/profile/" => Some(snap.profile.clone()),
            _ => None,
        }
    };
    match body {
        Some(b) => respond(&mut stream, "200 OK", &b),
        None => respond(
            &mut stream,
            "404 Not Found",
            "{\"error\":\"unknown path; try /metrics, /status or /profile\"}",
        ),
    }
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        status,
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {} HTTP/1.1\r\nHost: x\r\n\r\n", path);
        stream.write_all(req.as_bytes()).expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_default_snapshots_before_any_push() {
        let server = IntrospectionServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let (head, body) = get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{}", head);
        assert!(head.contains("Content-Type: application/json"));
        assert!(body.contains("\"schema\":\"tango-status\""), "{}", body);
        assert!(body.contains("\"verdict\":\"starting\""));
        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("\"schema\":\"tango-metrics\""));
        let (_, profile) = get(addr, "/profile");
        assert!(profile.contains("\"schema\":\"tango-profile\""));
    }

    #[test]
    fn pushed_snapshots_replace_served_documents() {
        let server = IntrospectionServer::bind("127.0.0.1:0").expect("bind");
        let handle = server.handle();
        handle.publish("{\"schema\":\"tango-status\",\"te\":42}".to_string(), None, None);
        let (_, body) = get(server.local_addr(), "/status");
        assert!(body.contains("\"te\":42"), "{}", body);
    }

    #[test]
    fn unknown_paths_get_a_json_404_and_posts_a_405() {
        let server = IntrospectionServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{}", head);
        assert!(body.contains("unknown path"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /status HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 405"), "{}", out);
    }

    #[test]
    fn drop_stops_the_accept_thread_and_frees_the_port() {
        let server = IntrospectionServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        drop(server);
        // The port is closed: a fresh bind to the same address works.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok(), "port must be released on drop");
    }
}
