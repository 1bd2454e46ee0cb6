//! Live introspection server: a dependency-free HTTP/1.1 server on
//! `std::net::TcpListener` exposing the *running* process.
//!
//! Endpoints:
//!
//! | Path        | Content                                                  |
//! |-------------|----------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of the live [`crate::Telemetry`] hub (plus `ac_build_info`, `ac_uptime_seconds`) |
//! | `/progress` | [`crate::progress`] JSON: cells done/running/failed, per-cell wall times, EWMA ETA |
//! | `/events`   | the sampled decision-event ring as Server-Sent Events    |
//! | `/audit`    | live windowed-regret JSON: per-run timeline windows with shadow hits and `regret_best` (the offline `cachesim audit` joins these with the Belady oracle) |
//! | `/healthz`  | liveness probe (`ok`)                                    |
//! | `/`         | self-refreshing HTML dashboard (pluggable renderer)      |
//!
//! ## Consistency model
//!
//! Every endpoint renders a point-in-time snapshot taken under the
//! hub's internal locks — counters are mutually consistent within one
//! metric family but a scrape concurrent with a running simulation may
//! observe counter A before and counter B after the same event. Nothing
//! blocks the simulation for longer than a snapshot copy.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds and spawns one accept thread; each
//! connection is handled on its own short-lived thread.
//! [`Server::shutdown`] (also run on drop) closes the listener and
//! joins the accept thread, releasing the port deterministically; SSE
//! streams notice the shutdown flag within one poll tick.
//!
//! Environment: `AC_SERVE=<addr>` starts a server without a CLI flag;
//! `AC_SERVE_ADDR_FILE=<path>` writes the *bound* address (useful with
//! port 0) to a file once listening.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval of the `/events` SSE loop.
const SSE_POLL: Duration = Duration::from_millis(200);

/// Per-connection request read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

type DashboardFn = Box<dyn Fn() -> Option<String> + Send + Sync>;

fn dashboard_renderer() -> &'static Mutex<Option<DashboardFn>> {
    static RENDERER: OnceLock<Mutex<Option<DashboardFn>>> = OnceLock::new();
    RENDERER.get_or_init(|| Mutex::new(None))
}

/// Installs a custom renderer for `GET /`. The closure returns a full
/// HTML document, or `None` to fall back to the built-in dashboard
/// (e.g. when the artifacts it renders from are not available yet).
pub fn set_dashboard_renderer(f: DashboardFn) {
    *dashboard_renderer()
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = Some(f);
}

/// A running introspection server. Shut down explicitly (or by drop) to
/// release the port.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. Registers the `build_info` gauge and, when
    /// `AC_SERVE_ADDR_FILE` is set, writes the bound address there.
    pub fn start(addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        crate::gauge_set_labeled("build_info", concat!("v", env!("CARGO_PKG_VERSION")), 1.0);
        crate::info!("serve: live introspection on http://{addr}/");
        if let Ok(path) = std::env::var("AC_SERVE_ADDR_FILE") {
            publish_addr(&path, addr);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("ac-serve".into())
            .spawn(move || accept_loop(listener, flag))?;
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// Starts a server if `AC_SERVE` names a bind address.
    pub fn start_from_env() -> Option<Server> {
        let addr = std::env::var("AC_SERVE").ok()?;
        let addr = addr.trim();
        if addr.is_empty() || addr == "0" {
            return None;
        }
        match Server::start(addr) {
            Ok(s) => Some(s),
            Err(e) => {
                crate::warn!("serve: cannot bind AC_SERVE={addr}: {e}");
                None
            }
        }
    }

    /// The address the listener actually bound (port 0 resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept thread and releases the port.
    /// In-flight SSE streams terminate within one poll tick.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shutdown: Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if shutdown.load(Ordering::Acquire) {
            // The waking connection (or any racing client) is dropped
            // unanswered; the listener closes with this scope.
            return;
        }
        match conn {
            Ok((stream, _)) => {
                let flag = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("ac-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &flag);
                    });
            }
            Err(_) => {
                // Transient accept errors (EMFILE, resets): back off
                // rather than spinning.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Reads the request head and dispatches on the path. Only `GET` is
/// meaningful; everything is `Connection: close`.
fn handle_connection(stream: TcpStream, shutdown: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers; this server needs none of them.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if line.len() > 16 * 1024 {
            return Ok(()); // hostile header, drop the connection
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let raw_path = parts.next().unwrap_or("/");
    // Strip any query string: `/metrics?foo=1` is `/metrics`.
    let path = raw_path.split('?').next().unwrap_or("/");
    if method != "GET" && method != "HEAD" {
        return respond(
            stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    crate::counter_add_labeled("serve_requests_total", path, 1);
    match path {
        "/healthz" => respond(stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/metrics" => {
            crate::gauge_set("uptime_seconds", crate::now_us() as f64 / 1e6);
            match crate::hub() {
                Some(hub) => respond(
                    stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &hub.prometheus(),
                ),
                None => respond(
                    stream,
                    503,
                    "text/plain; charset=utf-8",
                    "no telemetry hub installed\n",
                ),
            }
        }
        "/progress" => respond(
            stream,
            200,
            "application/json; charset=utf-8",
            &crate::progress::to_json(),
        ),
        "/events" => serve_events(stream, shutdown),
        "/audit" => respond(
            stream,
            200,
            "application/json; charset=utf-8",
            &audit_json(),
        ),
        "/" | "/index.html" => {
            let custom = dashboard_renderer()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .and_then(|f| f());
            let html = custom.unwrap_or_else(builtin_dashboard);
            respond(stream, 200, "text/html; charset=utf-8", &html)
        }
        _ => respond(stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn respond(mut stream: TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\nCache-Control: no-store\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Streams the decision-event ring as Server-Sent Events: every ring
/// entry with a stream position after the subscriber's join point, as
/// one `data:` line of the same JSON as `events.jsonl`, until the
/// client disconnects or the server shuts down.
fn serve_events(mut stream: TcpStream, shutdown: &AtomicBool) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    stream.write_all(b": decision-event stream\n\n")?;
    stream.flush()?;
    let mut last_seq: Option<u64> = None;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let Some(hub) = crate::hub() else {
            stream.write_all(b"event: end\ndata: no telemetry hub installed\n\n")?;
            return Ok(());
        };
        let mut wrote = false;
        for record in hub.events() {
            if last_seq.is_some_and(|s| record.seq <= s) {
                continue;
            }
            last_seq = Some(record.seq);
            stream.write_all(b"data: ")?;
            stream.write_all(record.to_json_line().as_bytes())?;
            stream.write_all(b"\n\n")?;
            wrote = true;
        }
        if !wrote {
            // Heartbeat comment: keeps proxies alive and detects a gone
            // client (the write fails) without waiting for new events.
            stream.write_all(b": keepalive\n\n")?;
        }
        stream.flush()?;
        std::thread::sleep(SSE_POLL);
    }
}

/// Live adaptivity-audit JSON: every attached timeline's windows with
/// achieved hits, the shadow components' hypothetical hits, and the
/// windowed `regret_best` delta (negative when the adaptive mix beat
/// both fixed components). Always a 200 — an empty `runs` array simply
/// means no timeline has finished yet (or no hub is installed), so
/// scrapers can poll the endpoint from the first instant of a sweep.
fn audit_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema_version\":1,\"live\":true,\"runs\":[");
    if let Some(hub) = crate::hub() {
        for (i, t) in hub.timelines().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"run\":{},\"unit\":{},\"windows\":[",
                json_string(&t.label),
                json_string(t.unit)
            );
            for (j, w) in t.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let best = w.d.shadow_a_hits.max(w.d.shadow_b_hits);
                let _ = write!(
                    out,
                    "{{\"end\":{},\"accesses\":{},\"hits\":{},\"misses\":{},\
                     \"shadow_a_hits\":{},\"shadow_b_hits\":{},\"regret_best\":{}}}",
                    w.end_tick,
                    w.d.accesses,
                    w.d.hits,
                    w.d.misses,
                    w.d.shadow_a_hits,
                    w.d.shadow_b_hits,
                    best as i64 - w.d.hits as i64,
                );
            }
            out.push_str("]}");
        }
    }
    out.push_str("]}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The fallback `/` dashboard: progress bars + headline counters in one
/// self-refreshing page, no JavaScript.
fn builtin_dashboard() -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    out.push_str(
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\">\
         <title>adaptive-caches live</title>\
         <style>body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:50rem;\
         color:#222}h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.5rem}\
         table{border-collapse:collapse;font-size:.85rem}\
         th,td{border:1px solid #ddd;padding:.25rem .5rem;text-align:left}\
         td.num{text-align:right;font-variant-numeric:tabular-nums}\
         .bar{background:#eee;width:16rem;height:.9rem;display:inline-block}\
         .bar i{background:#4a7;display:block;height:100%}\
         .note{color:#666;font-size:.85rem}</style></head><body>\
         <h1>adaptive-caches — live introspection</h1>\
         <p class=\"note\">Endpoints: <a href=\"/metrics\">/metrics</a> · \
         <a href=\"/progress\">/progress</a> · <a href=\"/events\">/events</a> · \
         <a href=\"/audit\">/audit</a> · \
         <a href=\"/healthz\">/healthz</a> — refreshes every 2s</p>",
    );
    out.push_str("<h2>Sweeps</h2>");
    let sweeps = crate::progress::snapshot();
    if sweeps.is_empty() {
        out.push_str("<p class=\"note\">no sweep registered yet</p>");
    } else {
        out.push_str(
            "<table><tr><th>sweep</th><th>progress</th><th>done</th><th>failed</th>\
             <th>running</th><th>elapsed</th><th>ETA</th></tr>",
        );
        for s in &sweeps {
            let pct = if s.total > 0 {
                100.0 * s.completed() as f64 / s.total as f64
            } else {
                100.0
            };
            let _ = write!(
                out,
                "<tr><td>{}</td><td><span class=\"bar\"><i style=\"width:{:.1}%\"></i></span> \
                 {:.0}%</td><td class=\"num\">{}/{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{:.1}s</td><td class=\"num\">{}</td></tr>",
                html_escape(&s.name),
                pct.min(100.0),
                pct,
                s.completed(),
                s.total,
                s.failed + s.timed_out,
                s.running.len(),
                s.elapsed_secs,
                if s.finished {
                    "—".to_string()
                } else {
                    format!("{:.1}s", s.eta_secs)
                },
            );
        }
        out.push_str("</table>");
    }
    if let Some(hub) = crate::hub() {
        out.push_str(
            "<h2>Counters</h2><table><tr><th>counter</th><th>label</th><th>value</th></tr>",
        );
        for (name, by_label) in hub.counters() {
            for (label, value) in by_label {
                let _ = write!(
                    out,
                    "<tr><td>{}</td><td>{}</td><td class=\"num\">{value}</td></tr>",
                    html_escape(name),
                    html_escape(&label),
                );
            }
        }
        out.push_str("</table>");
        let _ = write!(
            out,
            "<p class=\"note\">events recorded: {} (seen {})</p>",
            hub.events_recorded(),
            hub.events_seen()
        );
    } else {
        out.push_str("<p class=\"note\">no telemetry hub installed — metrics unavailable</p>");
    }
    out.push_str("</body></html>");
    out
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Writes `addr` to the file at `path` (ignored when blank), so a
/// launcher that bound port 0 can find the server.
fn publish_addr(path: &str, addr: SocketAddr) {
    if path.trim().is_empty() {
        return;
    }
    // Write-then-rename so a polling reader never sees a torn address.
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, format!("{addr}\n"))
        .and_then(|()| std::fs::rename(&tmp, path))
        .is_err()
    {
        crate::warn!("serve: could not write AC_SERVE_ADDR_FILE={path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full request/response round-trips live in `tests/serve_http.rs`
    // (they need the process-global hub); these cover the pure helpers.

    #[test]
    fn html_escape_neutralises_markup() {
        assert_eq!(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn audit_json_is_valid_without_hub() {
        // No hub in unit tests: the endpoint must still answer with an
        // empty (but well-formed) document so `curl -f` succeeds.
        let j = audit_json();
        assert!(j.starts_with("{\"schema_version\":1"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn builtin_dashboard_renders_without_hub() {
        let html = builtin_dashboard();
        assert!(html.contains("adaptive-caches"));
        assert!(html.contains("/metrics"));
    }

    #[test]
    fn addr_file_publishes_the_bound_address() {
        // Its own path and never the process-wide variable: servers
        // started by other tests read `AC_SERVE_ADDR_FILE` too.
        let path = std::env::temp_dir().join(format!("ac_serve_addr_{}", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let addr: SocketAddr = "127.0.0.1:4321".parse().unwrap();
        publish_addr(path, addr);
        let written = std::fs::read_to_string(path).expect("address file written");
        assert_eq!(written, "127.0.0.1:4321\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn start_from_env_ignores_blank() {
        // AC_SERVE is unset in the test environment; must not bind.
        if std::env::var("AC_SERVE").is_err() {
            assert!(Server::start_from_env().is_none());
        }
    }
}
