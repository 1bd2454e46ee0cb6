//! The `cachesim` front end's subcommands and shared plumbing (figure
//! regeneration, audit, run reports, telemetry flags), plus the
//! criterion micro-benchmarks (`benches/`).

use std::path::PathBuf;

pub mod audit;
pub mod figure;
pub mod report;

/// Writes `text` and a newline to stdout. A closed stdout is not an
/// error: once its reader is gone (`BrokenPipe`) nothing more can be
/// shown, so the text is dropped and the run keeps the exit code it
/// earns. Any other write error is logged.
pub fn print_stdout(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            ac_telemetry::warn!("cachesim: cannot write to stdout: {e}");
        }
    }
}

/// Strips the shared telemetry flags from `args` and installs the
/// process-global [`ac_telemetry::Telemetry`] hub they (or the
/// `AC_TELEMETRY` environment variable) ask for.
///
/// * `--telemetry <dir>` (or `--telemetry=<dir>`) — enable telemetry with
///   artifacts under `<dir>`;
/// * `--metrics` — enable telemetry with artifacts under `results/`;
/// * neither — defer to `AC_TELEMETRY` (see the `ac-telemetry` docs).
///
/// A flag overrides only the environment's artifact directory; every
/// other setting (sampling, timeline and heatmap shape) still comes from
/// the environment ([`ac_telemetry::TelemetryConfig::from_env`]).
/// Returns the hub when telemetry ends up enabled, `Err` on a malformed
/// flag (missing directory operand).
pub fn init_telemetry(
    args: &mut Vec<String>,
) -> Result<Option<&'static ac_telemetry::Telemetry>, String> {
    let mut dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics" {
            args.remove(i);
            dir.get_or_insert_with(|| PathBuf::from("results"));
        } else if args[i] == "--telemetry" {
            if i + 1 >= args.len() {
                return Err("flag `--telemetry` requires a directory operand".into());
            }
            args.remove(i);
            dir = Some(PathBuf::from(args.remove(i)));
        } else if let Some(rest) = args[i].strip_prefix("--telemetry=") {
            if rest.is_empty() {
                return Err("flag `--telemetry=` requires a directory operand".into());
            }
            dir = Some(PathBuf::from(rest));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(ac_telemetry::init_from_env(dir))
}

/// Flushes telemetry artifacts (when a hub with an artifact directory is
/// installed) and reports where they landed. Call once, before exiting —
/// binaries that leave via `std::process::exit` skip destructors, so the
/// flush cannot be left to drop glue.
pub fn finish_telemetry() {
    let Some(hub) = ac_telemetry::hub() else {
        return;
    };
    match hub.write_artifacts() {
        Ok(paths) => {
            for p in paths {
                ac_telemetry::info!("telemetry: wrote {}", p.display());
            }
        }
        Err(e) => ac_telemetry::warn!("could not write telemetry artifacts: {e}"),
    }
}
