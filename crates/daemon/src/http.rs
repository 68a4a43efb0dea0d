//! The zero-dependency HTTP scrape surface, shared between
//! `gpuflow serve` and `gpuflowd --metrics-port`.
//!
//! The protocol is deliberately tiny — HTTP/1.0-style
//! close-after-response, no keep-alive, no chunking — because its only
//! consumers are Prometheus scrapers, load-balancer health checks and
//! `curl`. Routing is a pure function ([`handle_request`]) so the
//! surface is unit-testable without sockets, and the serve loop has a
//! clean-shutdown control ([`ServeControl`]) that unblocks the
//! accept(2) loop by self-connecting, so daemon shutdown never has to
//! kill a thread mid-request.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpuflow_runtime::MetricsHub;

/// Routes one request line to a `(status line, content type, body)`
/// triple.
///
/// Routes: `GET /metrics` (Prometheus text 0.0.4), `GET /healthz`
/// (liveness: always `ok` while the process answers), `GET /` (help),
/// 404 otherwise; non-GET is 405.
pub fn handle_request(request_line: &str, hub: &MetricsHub) -> (String, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return (
            "HTTP/1.0 405 Method Not Allowed".to_string(),
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "HTTP/1.0 200 OK".to_string(),
            // The content type the Prometheus text exposition mandates.
            "text/plain; version=0.0.4; charset=utf-8",
            hub.expose(),
        ),
        "/healthz" => (
            "HTTP/1.0 200 OK".to_string(),
            "text/plain; charset=utf-8",
            "ok\n".to_string(),
        ),
        "/" => (
            "HTTP/1.0 200 OK".to_string(),
            "text/plain; charset=utf-8",
            "gpuflow metrics endpoint\n\n  GET /metrics  Prometheus text exposition \
             (incl. gpuflow_alert_state and recording rules)\n  \
             GET /healthz  liveness probe\n"
                .to_string(),
        ),
        _ => (
            "HTTP/1.0 404 Not Found".to_string(),
            "text/plain; charset=utf-8",
            "not found (try /metrics)\n".to_string(),
        ),
    }
}

/// Answers one accepted connection. The request is read until the
/// header-terminating blank line (clients may deliver it in several
/// segments) or EOF; a request not complete within
/// [`crate::CLIENT_TIMEOUT`], or longer than 2 KiB, fails the read, and
/// the loop drops the connection and moves on.
fn answer(stream: &mut TcpStream, hub: &MetricsHub) -> std::io::Result<()> {
    let request_line = crate::read_request(stream, b"\r\n\r\n", 2048)?;
    let (status, ctype, body) = handle_request(&request_line, hub);
    let header = format!(
        "{status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Clean-shutdown handle for a serve loop. Cloneable; any clone's
/// [`ServeControl::shutdown`] stops the loop.
#[derive(Debug, Clone)]
pub struct ServeControl {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServeControl {
    /// Builds a control bound to `listener`'s local address.
    pub fn new(listener: &TcpListener) -> std::io::Result<ServeControl> {
        Ok(ServeControl {
            stop: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        })
    }

    /// True once shutdown has been requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the accept loop with a no-op
    /// self-connection, so the loop observes the flag without waiting
    /// for an external client.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serves scrape requests on `listener` until `max_requests` have been
/// answered (`None` = forever) or `control` (when given) requests
/// shutdown. Individual connection errors, timeouts included, are
/// ignored — a dropped scrape must not kill the endpoint.
pub fn serve_until(
    listener: &TcpListener,
    hub: &MetricsHub,
    max_requests: Option<u64>,
    control: Option<&ServeControl>,
) {
    let mut answered = 0u64;
    for stream in listener.incoming() {
        if control.is_some_and(|c| c.stopped()) {
            break;
        }
        if let Ok(mut stream) = stream {
            let _ = answer(&mut stream, hub);
            answered += 1;
        }
        if max_requests.is_some_and(|max| answered >= max) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_metrics_healthz_root_and_unknown_paths() {
        let hub = MetricsHub::default();
        let (status, ctype, body) = handle_request("GET /metrics HTTP/1.1", &hub);
        assert!(status.contains("200"));
        assert!(ctype.contains("version=0.0.4"));
        assert!(body.contains("gpuflow_ready_tasks"));

        let (status, _, body) = handle_request("GET /healthz HTTP/1.1", &hub);
        assert!(status.contains("200"));
        assert_eq!(body, "ok\n");

        let (status, _, body) = handle_request("GET / HTTP/1.1", &hub);
        assert!(status.contains("200"));
        assert!(body.contains("/healthz"));

        let (status, _, _) = handle_request("GET /nope HTTP/1.1", &hub);
        assert!(status.contains("404"));

        let (status, _, _) = handle_request("POST /metrics HTTP/1.1", &hub);
        assert!(status.contains("405"));
        let (status, _, _) = handle_request("", &hub);
        assert!(status.contains("405"));
    }

    #[test]
    fn shutdown_unblocks_a_serving_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let hub = MetricsHub::default();
        let ctl = ServeControl::new(&listener).unwrap();
        let ctl2 = ctl.clone();
        let t = std::thread::spawn(move || serve_until(&listener, &hub, None, Some(&ctl2)));
        ctl.shutdown();
        t.join().unwrap();
        assert!(ctl.stopped());
    }
}
