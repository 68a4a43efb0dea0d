//! The HTTP scrape surface `gpuflow serve` answers with
//! (`gpuflow::daemon::http`): routing, malformed request lines, and a
//! serve loop stopped by its control before any request arrives.

use std::net::TcpListener;

use gpuflow::daemon::http::{handle_request, serve_until, ServeControl};
use gpuflow::runtime::MetricsHub;

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
    assert!(body.contains("/metrics"));

    let (status, _, _) = handle_request("GET /nope HTTP/1.1", &hub);
    assert!(status.contains("404"));

    let (status, _, _) = handle_request("POST /metrics HTTP/1.1", &hub);
    assert!(status.contains("405"));
}

#[test]
fn malformed_request_line_is_not_a_panic() {
    let hub = MetricsHub::default();
    let (status, _, _) = handle_request("", &hub);
    assert!(status.contains("405"));
}

#[test]
fn control_stops_the_loop_before_max_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let hub = MetricsHub::default();
    let ctl = ServeControl::new(&listener).unwrap();
    ctl.shutdown();
    // Already-stopped control: returns without serving anything.
    serve_until(&listener, &hub, None, Some(&ctl));
}
