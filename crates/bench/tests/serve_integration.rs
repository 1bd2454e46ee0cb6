//! End-to-end introspection-server test: a real `cachesim` subprocess
//! runs a supervised sweep with `--serve 127.0.0.1:0`, the test
//! discovers the ephemeral port through `AC_SERVE_ADDR_FILE`, scrapes
//! `/metrics` and `/progress` *while the sweep is running*, and checks
//! the shutdown contract — exit 0, cell counts monotone to done==total,
//! and the port released once the process exits.

use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cachesim")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ac_serve_int_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Kills the subprocess if the test panics before waiting on it.
struct Reaper(Option<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("well-formed response");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// 4 fast cells plus one that stalls 2s on its first L2 access — a
/// deterministic mid-run window for the scrapes.
fn sweep_config() -> String {
    let fast = ["ammp", "applu", "mcf", "art-1"].map(|b| {
        format!(r#"{{"benchmark":"{b}","l2":{{"Plain":"Lru"}},"mode":"functional","insts":20000}}"#)
    });
    let stall = r#"{"benchmark":"mcf","l2":{"Faulty":{"fault":{"stall_at_access":1,"stall_millis":2000},"inner":{"Plain":"Fifo"}}},"mode":"functional","insts":20000}"#;
    format!(
        r#"{{"name":"serve_int","sweep":[{},{stall}]}}"#,
        fast.join(",")
    )
}

fn wait_for_addr(path: &Path) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never published its address to {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `serve_int` sweep object of a `/progress` document.
fn sweep_snapshot(body: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(body).ok()?;
    assert_eq!(v["schema_version"].as_u64(), Some(1), "{body}");
    v["sweeps"]
        .as_array()?
        .iter()
        .find(|s| s["name"].as_str() == Some("serve_int"))
        .cloned()
}

#[test]
fn sweep_with_serve_is_scrapable_mid_run_and_releases_the_port() {
    let dir = tmp_dir("sweep");
    let cfg = dir.join("grid.json");
    std::fs::write(&cfg, sweep_config()).unwrap();
    let addr_file = dir.join("addr");
    let tele = dir.join("tele");

    let child = Command::new(bin())
        .args(["--serve", "127.0.0.1:0", cfg.to_str().unwrap()])
        .current_dir(&dir)
        .env_remove("AC_RESUME")
        .env("AC_SERVE_ADDR_FILE", &addr_file)
        .env("AC_TELEMETRY", &tele)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cachesim did not start");
    let mut reaper = Reaper(Some(child));
    let addr = wait_for_addr(&addr_file);

    // Liveness first; then scrape progress until the fast cells land
    // while the stalled cell holds the sweep open.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut completed_seen: Vec<u64> = Vec::new();
    let mut saw_live_eta = false;
    loop {
        let (status, body) = get(addr, "/progress");
        assert_eq!(status, 200, "{body}");
        if let Some(s) = sweep_snapshot(&body) {
            let completed = s["completed"].as_u64().unwrap();
            if let Some(&prev) = completed_seen.last() {
                assert!(
                    completed >= prev,
                    "completed count went backwards: {completed_seen:?} then {completed}"
                );
            }
            completed_seen.push(completed);
            let finished = s["finished"].as_bool().unwrap();
            if !finished && completed > 0 && completed < s["total"].as_u64().unwrap() {
                assert!(
                    s["eta_secs"].as_f64().unwrap() > 0.0,
                    "mid-run ETA must be nonzero: {s}"
                );
                saw_live_eta = true;
            }
            if saw_live_eta && !finished {
                // Mid-run metrics scrape: valid exposition with live
                // build/progress series while cells are still running.
                let (status, metrics) = get(addr, "/metrics");
                assert_eq!(status, 200);
                assert!(metrics.contains("ac_build_info"), "{metrics}");
                assert!(metrics.contains("ac_uptime_seconds"), "{metrics}");
                assert!(
                    metrics.contains("ac_sweep_cells_done_total{label=\"serve_int\"}"),
                    "{metrics}"
                );
                break;
            }
            if finished {
                // The whole sweep outran our polling; mid-run assertions
                // were covered by the in-process serve_http tests.
                break;
            }
        }
        assert!(Instant::now() < deadline, "sweep never progressed");
        std::thread::sleep(Duration::from_millis(50));
    }

    let out = reaper
        .0
        .take()
        .unwrap()
        .wait_with_output()
        .expect("cachesim did not exit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !completed_seen.is_empty(),
        "never observed a progress snapshot"
    );

    // The final artifact agrees with /progress: all 5 cells done.
    let prom = std::fs::read_to_string(tele.join("metrics.prom")).expect("metrics.prom written");
    assert!(
        prom.contains("ac_sweep_cells_done_total{label=\"serve_int\"} 5"),
        "{prom}"
    );
    assert!(
        prom.contains("ac_sweep_cells_total{label=\"serve_int\"} 5"),
        "{prom}"
    );

    // Clean shutdown released the port: it is rebindable immediately.
    let rebound = TcpListener::bind(addr)
        .unwrap_or_else(|e| panic!("port {addr} not released after exit: {e}"));
    drop(rebound);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_flag_requires_an_operand() {
    let dir = tmp_dir("badflag");
    let out = Command::new(bin())
        .args(["--serve"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--serve"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
