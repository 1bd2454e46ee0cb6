//! HTTP round-trips against the live introspection server: every
//! endpoint, the SSE stream, and the shutdown contract (joining the
//! accept thread releases the port). One process-global hub is shared by
//! every test in this binary.

use ac_telemetry::serve::Server;
use ac_telemetry::{progress, Recorder, Telemetry, TelemetryConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

fn hub() -> &'static Telemetry {
    static INIT: OnceLock<&'static Telemetry> = OnceLock::new();
    INIT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("ac_serve_http_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TelemetryConfig::default().with_dir(dir);
        Telemetry::install(cfg).expect("first install in this process")
    })
}

fn server() -> Server {
    let _ = hub();
    Server::start("127.0.0.1:0").expect("bind an ephemeral port")
}

/// One blocking HTTP/1.1 GET; returns (status, full head, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {buf:?}"));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

/// Minimal Prometheus text-format check: every non-comment line is
/// `name value` or `name{label="..."} value` with a parseable float.
fn assert_prometheus_parses(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value on line {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value on {line:?}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name on {line:?}"
        );
        if let Some(labels) = name_part.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "bad label block on {line:?}"
                );
            }
        }
    }
}

#[test]
fn healthz_answers_ok() {
    let srv = server();
    let (status, _, body) = get(srv.local_addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    srv.shutdown();
}

#[test]
fn metrics_serves_live_prometheus_with_build_info_and_uptime() {
    let srv = server();
    hub().counter_add("serve_test_total", "lbl", 3);
    let (status, head, body) = get(srv.local_addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );
    assert_prometheus_parses(&body);
    assert!(body.contains("ac_build_info"), "{body}");
    assert!(body.contains("ac_uptime_seconds"), "{body}");
    assert!(
        body.contains("ac_serve_test_total{label=\"lbl\"} 3"),
        "live counter visible mid-run: {body}"
    );
    // A second scrape sees a monotonically larger request counter: the
    // scrape itself is instrumented.
    let (_, _, body2) = get(srv.local_addr(), "/metrics");
    assert!(body2.contains("ac_serve_requests_total{label=\"/metrics\"}"));
    srv.shutdown();
}

#[test]
fn progress_serves_registered_sweeps_as_json() {
    let srv = server();
    let h = progress::sweep("http_sweep", 4);
    h.cell_start("cell-a");
    h.cell_finished(
        "cell-a",
        progress::CellStatus::Done,
        Duration::from_millis(3),
    );
    h.cell_start("cell-b");
    let (status, head, body) = get(srv.local_addr(), "/progress");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"));
    assert!(body.contains("\"schema_version\":1"), "{body}");
    assert!(body.contains("\"http_sweep\""), "{body}");
    assert!(body.contains("\"cell-b\""), "running cell listed: {body}");
    assert!(body.contains("\"eta_secs\":"), "{body}");
    srv.shutdown();
}

#[test]
fn events_streams_sse_and_terminates_on_shutdown() {
    let srv = server();
    hub().decision(ac_telemetry::DecisionEvent::HistoryUpdate {
        set: 1,
        a_missed: true,
        b_missed: false,
    });
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    write!(s, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 4096];
    let mut seen = String::new();
    while !seen.contains("\n\n") || !seen.contains("event-stream") {
        let n = s.read(&mut buf).expect("stream data before timeout");
        assert!(n > 0, "server closed the stream prematurely: {seen:?}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    assert!(seen.contains("Content-Type: text/event-stream"), "{seen}");
    // Shutdown must end the stream (read returns 0) within a poll tick
    // or two rather than hanging until the client gives up.
    srv.shutdown();
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("SSE socket errored instead of closing: {e}"),
        }
    }
}

#[test]
fn dashboard_unknown_path_and_post_are_handled() {
    let srv = server();
    let (status, head, body) = get(srv.local_addr(), "/");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"));
    assert!(body.contains("/metrics"), "dashboard links endpoints");

    let (status, _, _) = get(srv.local_addr(), "/no-such-endpoint");
    assert_eq!(status, 404);

    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
    srv.shutdown();
}

#[test]
fn query_strings_are_stripped() {
    let srv = server();
    let (status, _, body) = get(srv.local_addr(), "/healthz?probe=1");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    srv.shutdown();
}

#[test]
fn shutdown_releases_the_port() {
    let srv = server();
    let addr = srv.local_addr();
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    srv.shutdown();
    // The accept thread is joined, so the listener is closed: rebinding
    // the exact address must succeed immediately.
    let rebound = TcpListener::bind(addr)
        .unwrap_or_else(|e| panic!("port {addr} not released after shutdown: {e}"));
    drop(rebound);
}
