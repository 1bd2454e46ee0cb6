//! `TelemetryConfig::from_env` is the one parse of the telemetry
//! environment. `AC_TELEMETRY=<dir>` and the `--telemetry <dir>` /
//! `--metrics` flags (which pass their directory in) both go through it,
//! so the two may differ only in where the artifacts go.
//!
//! The environment is process-wide, so every test here holds one lock
//! while it sets variables, and unsets them all before and after.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use ac_telemetry::timeline::DEFAULT_TIMELINE_WINDOW;
use ac_telemetry::{TelemetryConfig, DEFAULT_RING_CAPACITY};

const VARS: [&str; 3] = ["AC_TELEMETRY", "AC_TELEMETRY_SAMPLE", "AC_TIMELINE_WINDOW"];

/// Sole use of the telemetry variables, all unset, until dropped (which
/// unsets them again).
struct Env {
    _lock: MutexGuard<'static, ()>,
}

impl Env {
    fn lock() -> Env {
        static LOCK: Mutex<()> = Mutex::new(());
        let env = Env {
            _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        };
        env.clear();
        env
    }

    fn set(&self, name: &str, value: &str) {
        std::env::set_var(name, value);
    }

    fn clear(&self) {
        for name in VARS {
            std::env::remove_var(name);
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Every setting but the directory: sample rate, ring capacity, timeline
/// window.
type Shape = (u32, usize, u64);

fn shape(cfg: &TelemetryConfig) -> Shape {
    (cfg.sample_rate, cfg.ring_capacity, cfg.timeline_window)
}

/// The environment's defaults; its sample rate records one event in 64.
const DEFAULT_SHAPE: Shape = (64, DEFAULT_RING_CAPACITY, DEFAULT_TIMELINE_WINDOW);

/// The configurations of the two ways in: `AC_TELEMETRY=envdir` and a
/// `flagdir` flag.
fn both_ways(env: &Env) -> [TelemetryConfig; 2] {
    env.set("AC_TELEMETRY", "envdir");
    let by_env = TelemetryConfig::from_env(None).expect("AC_TELEMETRY asks for telemetry");
    std::env::remove_var("AC_TELEMETRY");
    let by_flag = TelemetryConfig::from_env(Some("flagdir".into())).expect("the flag asks for it");
    assert_eq!(by_env.dir.as_deref(), Some(Path::new("envdir")));
    assert_eq!(by_flag.dir.as_deref(), Some(Path::new("flagdir")));
    [by_env, by_flag]
}

#[test]
fn telemetry_is_off_unless_the_flag_or_ac_telemetry_asks() {
    let env = Env::lock();
    assert!(TelemetryConfig::from_env(None).is_none());
    for off in ["", "0", "false", "no", " 0 "] {
        env.set("AC_TELEMETRY", off);
        assert!(TelemetryConfig::from_env(None).is_none(), "{off:?}");
    }
}

#[test]
fn init_from_env_installs_nothing_when_telemetry_is_off() {
    let _env = Env::lock();
    assert!(ac_telemetry::init_from_env(None).is_none());
    assert!(!ac_telemetry::enabled());
    assert!(ac_telemetry::hub().is_none());
}

#[test]
fn a_truthy_ac_telemetry_writes_under_results() {
    let env = Env::lock();
    for on in ["1", "true", "yes", " yes "] {
        env.set("AC_TELEMETRY", on);
        let cfg = TelemetryConfig::from_env(None).expect(on);
        assert_eq!(cfg.dir.as_deref(), Some(Path::new("results")), "{on:?}");
    }
}

#[test]
fn any_other_ac_telemetry_value_names_the_directory() {
    let env = Env::lock();
    for (value, dir) in [
        ("out/telemetry", "out/telemetry"),
        (" spaced/dir ", "spaced/dir"),
    ] {
        env.set("AC_TELEMETRY", value);
        let cfg = TelemetryConfig::from_env(None).expect(value);
        assert_eq!(cfg.dir.as_deref(), Some(Path::new(dir)), "{value:?}");
    }
}

#[test]
fn the_flag_directory_wins_over_ac_telemetry() {
    let env = Env::lock();
    for value in [None, Some("0"), Some("1"), Some("elsewhere")] {
        if let Some(value) = value {
            env.set("AC_TELEMETRY", value);
        }
        let cfg = TelemetryConfig::from_env(Some("flagdir".into())).expect("the flag asks for it");
        assert_eq!(cfg.dir.as_deref(), Some(Path::new("flagdir")), "{value:?}");
    }
}

#[test]
fn unset_settings_take_the_environment_defaults() {
    let env = Env::lock();
    for cfg in both_ways(&env) {
        assert_eq!(shape(&cfg), DEFAULT_SHAPE, "{cfg:?}");
    }
}

#[test]
fn the_flag_and_ac_telemetry_read_the_same_settings() {
    let env = Env::lock();
    env.set("AC_TELEMETRY_SAMPLE", "8");
    env.set("AC_TIMELINE_WINDOW", "0");
    for cfg in both_ways(&env) {
        assert_eq!(shape(&cfg), (8, DEFAULT_RING_CAPACITY, 0), "{cfg:?}");
    }
}

#[test]
fn values_that_do_not_parse_fall_back_to_the_defaults() {
    let env = Env::lock();
    // One past u32::MAX: out of the sample rate's range, not wrapped to 0.
    for (sample, window) in [("-1", "lots"), ("4294967296", "1.5")] {
        env.set("AC_TELEMETRY_SAMPLE", sample);
        env.set("AC_TIMELINE_WINDOW", window);
        for cfg in both_ways(&env) {
            assert_eq!(shape(&cfg), DEFAULT_SHAPE, "{cfg:?}");
        }
    }

    for name in &VARS[1..] {
        env.set(name, " 16 ");
    }
    for cfg in both_ways(&env) {
        assert_eq!(shape(&cfg), (16, DEFAULT_RING_CAPACITY, 16), "{cfg:?}");
    }
}
