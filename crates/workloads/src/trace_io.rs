//! Trace recording and replay.
//!
//! The paper's evaluation consumed SimPoint-sampled execution traces; our
//! synthetic generators are pure functions of their spec, but downstream
//! users often want to (a) capture a stream once and replay it against
//! many configurations bit-identically, or (b) import externally captured
//! traces. This module provides a compact binary format for both.
//!
//! Binary layout (little-endian): the magic `ACTR` + format version +
//! (since version 2) a `u64` record count, then one record per
//! instruction:
//!
//! ```text
//! u8 kind | u8 dep1 | u8 dep2 | u8 flags | u64 pc | (u64 addr/target)?
//! ```
//!
//! Memory and branch instructions carry the extra word; plain compute
//! records are 12 bytes. Version 3 appends a trailing CRC-32 (IEEE, see
//! [`crate::packed::crc32`]) over everything that precedes it — header,
//! count and records — so any corruption of a stored trace is detected
//! instead of decoding into plausible-but-wrong instructions.
//!
//! The reader treats input as hostile: the checksum is verified before
//! records are decoded (version 3), the declared record count is
//! validated against the actual input size before anything is
//! pre-allocated (a corrupt header cannot trigger an OOM), version-1/-2
//! traces remain readable, and truncation mid-record is a typed
//! [`TraceError::Truncated`] rather than a bare I/O error.

use crate::inst::{Inst, InstKind};
use crate::packed::crc32;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"ACTR";
/// Current write version (count header + trailing CRC-32).
const VERSION: u8 = 3;
/// Legacy version: count header, no checksum.
const VERSION_COUNT: u8 = 2;
/// Legacy version: records until EOF, no declared count.
const VERSION_NO_COUNT: u8 = 1;
/// Smallest possible record (compute instruction, no extra word).
const MIN_RECORD_BYTES: u64 = 12;

const K_INT_ALU: u8 = 0;
const K_INT_MUL: u8 = 1;
const K_INT_DIV: u8 = 2;
const K_FP_ADD: u8 = 3;
const K_FP_DIV: u8 = 4;
const K_LOAD: u8 = 5;
const K_STORE: u8 = 6;
const K_BRANCH: u8 = 7;

/// Flag bit: branch taken.
const F_TAKEN: u8 = 1;

/// Errors raised while reading a trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing/incorrect magic bytes or unsupported version.
    BadHeader,
    /// Record with an unknown kind byte.
    BadKind(u8),
    /// The header declares more records than the input could possibly
    /// hold — rejected before pre-allocating anything.
    BadCount {
        /// Record count claimed by the header.
        declared: u64,
        /// Upper bound on records the remaining bytes could encode.
        max_possible: u64,
    },
    /// The input ended mid-record (or before the declared count was
    /// reached).
    Truncated {
        /// Complete records successfully read before the cut.
        records: u64,
    },
    /// The trailing CRC-32 does not match the content (version ≥ 3):
    /// the trace was corrupted after it was written.
    Checksum {
        /// Checksum recorded in the trace.
        expected: u32,
        /// Checksum of the content as read.
        actual: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader => write!(f, "not an ACTR trace (bad magic or version)"),
            TraceError::BadKind(k) => write!(f, "unknown instruction kind byte {k}"),
            TraceError::BadCount {
                declared,
                max_possible,
            } => write!(
                f,
                "header declares {declared} records but the input can hold \
                 at most {max_possible} (corrupt or hostile header)"
            ),
            TraceError::Truncated { records } => {
                write!(f, "trace truncated after {records} complete records")
            }
            TraceError::Checksum { expected, actual } => write!(
                f,
                "trace checksum mismatch (recorded {expected:#010x}, computed {actual:#010x}) \
                 — the file was corrupted after it was written"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes instructions in the binary trace format (version 3: the header
/// carries the record count, so readers can validate it up front, and a
/// trailing CRC-32 over header + records detects any later corruption).
pub fn write_binary<W: Write, I: IntoIterator<Item = Inst>>(
    mut w: W,
    insts: I,
) -> Result<u64, TraceError> {
    // The count precedes the records and the checksum covers everything,
    // so assemble the whole document first.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 8]); // count placeholder
    let n = write_records(&mut out, insts)?;
    out[5..13].copy_from_slice(&n.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&out)?;
    Ok(n)
}

/// Encodes records (no header) into `w`, returning how many were written.
fn write_records<W: Write, I: IntoIterator<Item = Inst>>(
    mut w: W,
    insts: I,
) -> Result<u64, TraceError> {
    let mut n = 0u64;
    for inst in insts {
        let (kind, flags, extra) = match inst.kind {
            InstKind::IntAlu => (K_INT_ALU, 0, None),
            InstKind::IntMul => (K_INT_MUL, 0, None),
            InstKind::IntDiv => (K_INT_DIV, 0, None),
            InstKind::FpAdd => (K_FP_ADD, 0, None),
            InstKind::FpDiv => (K_FP_DIV, 0, None),
            InstKind::Load { addr } => (K_LOAD, 0, Some(addr)),
            InstKind::Store { addr } => (K_STORE, 0, Some(addr)),
            InstKind::Branch { taken, target } => {
                (K_BRANCH, if taken { F_TAKEN } else { 0 }, Some(target))
            }
        };
        w.write_all(&[kind, inst.deps[0], inst.deps[1], flags])?;
        w.write_all(&inst.pc.to_le_bytes())?;
        if let Some(x) = extra {
            w.write_all(&x.to_le_bytes())?;
        }
        n += 1;
    }
    Ok(n)
}

/// Reads a complete binary trace (current and legacy versions).
///
/// Version-2+ headers declare a record count; it is validated against the
/// actual remaining input size *before* pre-allocating, so a corrupt or
/// hostile header yields [`TraceError::BadCount`] instead of an OOM/abort.
/// Version-3 traces additionally carry a trailing CRC-32, verified before
/// any record is decoded, and the decoded record count is cross-checked
/// against the header's declaration.
pub fn read_binary<R: Read>(r: R) -> Result<Vec<Inst>, TraceError> {
    let _span = ac_telemetry::span("trace", || "trace_decode".to_string());
    let out = read_binary_inner(r)?;
    ac_telemetry::counter_add("trace_insts_decoded_total", out.len() as u64);
    Ok(out)
}

fn read_binary_inner<R: Read>(mut r: R) -> Result<Vec<Inst>, TraceError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    if &header[..4] != MAGIC {
        return Err(TraceError::BadHeader);
    }
    match header[4] {
        VERSION_NO_COUNT => {
            // Legacy: no declared count, records until EOF; nothing to
            // pre-allocate from, so growth is bounded by real input.
            let mut body = Vec::new();
            r.read_to_end(&mut body)?;
            read_records(&body, None)
        }
        version @ (VERSION_COUNT | VERSION) => {
            let mut count_bytes = [0u8; 8];
            r.read_exact(&mut count_bytes)
                .map_err(|_| TraceError::Truncated { records: 0 })?;
            let declared = u64::from_le_bytes(count_bytes);
            let mut body = Vec::new();
            r.read_to_end(&mut body)?;
            if version == VERSION {
                // Integrity first: the trailing CRC covers header, count
                // and records, so no corrupt byte anywhere can survive
                // into record decoding.
                let Some(cut) = body.len().checked_sub(4) else {
                    return Err(TraceError::Truncated { records: 0 });
                };
                let expected = u32::from_le_bytes(body[cut..].try_into().expect("4 bytes"));
                let mut actual = crc32(&header);
                actual = crate::packed::crc32_update(actual, &count_bytes);
                actual = crate::packed::crc32_update(actual, &body[..cut]);
                if actual != expected {
                    return Err(TraceError::Checksum { expected, actual });
                }
                body.truncate(cut);
            }
            let max_possible = body.len() as u64 / MIN_RECORD_BYTES;
            if declared > max_possible {
                return Err(TraceError::BadCount {
                    declared,
                    max_possible,
                });
            }
            let out = read_records(&body, Some(declared))?;
            if (out.len() as u64) != declared {
                return Err(TraceError::Truncated {
                    records: out.len() as u64,
                });
            }
            Ok(out)
        }
        _ => Err(TraceError::BadHeader),
    }
}

/// Decodes records from `body`. With `expected`, capacity is reserved up
/// front (the caller has already validated the count against
/// `body.len()`) and reading stops after that many records; without it,
/// records are read until the end of `body`.
fn read_records(body: &[u8], expected: Option<u64>) -> Result<Vec<Inst>, TraceError> {
    let mut out = match expected {
        Some(n) => Vec::with_capacity(n as usize),
        None => Vec::new(),
    };
    let mut at = 0usize;
    while expected.map_or(at < body.len(), |n| (out.len() as u64) < n) {
        let head = body.get(at..at + 12).ok_or(TraceError::Truncated {
            records: out.len() as u64,
        })?;
        at += 12;
        let (kind, d1, d2, flags) = (head[0], head[1], head[2], head[3]);
        let mut pc_bytes = [0u8; 8];
        pc_bytes.copy_from_slice(&head[4..12]);
        let pc = u64::from_le_bytes(pc_bytes);
        let mut read_extra = || -> Result<u64, TraceError> {
            let word = body.get(at..at + 8).ok_or(TraceError::Truncated {
                records: out.len() as u64,
            })?;
            at += 8;
            let mut b = [0u8; 8];
            b.copy_from_slice(word);
            Ok(u64::from_le_bytes(b))
        };
        let kind = match kind {
            K_INT_ALU => InstKind::IntAlu,
            K_INT_MUL => InstKind::IntMul,
            K_INT_DIV => InstKind::IntDiv,
            K_FP_ADD => InstKind::FpAdd,
            K_FP_DIV => InstKind::FpDiv,
            K_LOAD => InstKind::Load {
                addr: read_extra()?,
            },
            K_STORE => InstKind::Store {
                addr: read_extra()?,
            },
            K_BRANCH => InstKind::Branch {
                taken: flags & F_TAKEN != 0,
                target: read_extra()?,
            },
            other => return Err(TraceError::BadKind(other)),
        };
        out.push(Inst {
            pc,
            kind,
            deps: [d1, d2],
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary_suite;

    fn sample_trace(n: usize) -> Vec<Inst> {
        primary_suite()[0].spec.generator().take(n).collect()
    }

    #[test]
    fn binary_roundtrip() {
        let trace = sample_trace(5000);
        let mut buf = Vec::new();
        let written = write_binary(&mut buf, trace.iter().copied()).unwrap();
        assert_eq!(written, 5000);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_binary(&b"NOPE\x01"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadHeader), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let err = read_binary(&b"ACTR\x63"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadHeader));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x01");
        buf.extend_from_slice(&[200, 0, 0, 0]); // bogus kind
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::BadKind(200)), "{err}");
    }

    #[test]
    fn hostile_count_rejected_without_allocating() {
        // A header claiming ~2^61 records over a 12-byte body must be
        // rejected up front (pre-allocating would abort the process).
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x02");
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]); // one real record
        let err = read_binary(buf.as_slice()).unwrap_err();
        match err {
            TraceError::BadCount {
                declared,
                max_possible,
            } => {
                assert_eq!(declared, u64::MAX);
                assert_eq!(max_possible, 1);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncated_body_reports_typed_error() {
        let trace = sample_trace(100);
        let mut buf = Vec::new();
        write_binary(&mut buf, trace.iter().copied()).unwrap();
        // Cut the file mid-stream: parsing must fail with a typed error
        // (v3: the trailing checksum no longer lines up), never a
        // partial silently-OK result.
        let cut = buf.len() - 7;
        let err = read_binary(&buf[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Checksum { .. } | TraceError::Truncated { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn v2_truncated_body_reports_complete_records() {
        // The pre-checksum reader path: truncation surfaces as a typed
        // count of complete records.
        let trace = sample_trace(100);
        let mut body = Vec::new();
        write_records(&mut body, trace.iter().copied()).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x02");
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&body[..body.len() - 7]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        match err {
            TraceError::Truncated { records } => assert!(records < 100, "records={records}"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let trace = sample_trace(64);
        let mut buf = Vec::new();
        write_binary(&mut buf, trace.iter().copied()).unwrap();
        // Flip one record byte: the CRC must catch it before decoding.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn legacy_v2_traces_still_read() {
        let trace = sample_trace(50);
        let mut body = Vec::new();
        write_records(&mut body, trace.iter().copied()).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x02");
        buf.extend_from_slice(&50u64.to_le_bytes());
        buf.extend_from_slice(&body);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn truncated_count_field_rejected() {
        let err = read_binary(&b"ACTR\x02\x01\x02"[..]).unwrap_err();
        assert!(matches!(err, TraceError::Truncated { records: 0 }), "{err}");
    }

    #[test]
    fn legacy_v1_traces_still_read() {
        // Version 1 had no count header; records run to EOF.
        let trace = sample_trace(50);
        let mut body = Vec::new();
        write_records(&mut body, trace.iter().copied()).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x01");
        buf.extend_from_slice(&body);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn count_larger_than_body_records_is_truncation() {
        // Count passes the size check (body large enough in bytes) but
        // the records are wider than MIN_RECORD_BYTES, so the body runs
        // out first.
        let trace: Vec<Inst> = (0..10)
            .map(|i| Inst::free(i, InstKind::Load { addr: i * 64 }))
            .collect();
        let mut body = Vec::new();
        write_records(&mut body, trace.iter().copied()).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ACTR\x02");
        buf.extend_from_slice(&12u64.to_le_bytes()); // claims 12, holds 10
        buf.extend_from_slice(&body);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { records: 10 }),
            "{err}"
        );
    }

    #[test]
    fn binary_is_compact() {
        let trace = sample_trace(10_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, trace.iter().copied()).unwrap();
        // <= 20 bytes per record plus the 5-byte header.
        assert!(buf.len() <= 5 + 20 * trace.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Corrupting any single byte of a valid v3 trace must surface a
        /// typed error — or, at the very least, never yield records that
        /// differ from the originals. (The trailing CRC-32 detects every
        /// single-byte corruption, so in practice this always errors.)
        #[test]
        fn corrupted_byte_never_yields_wrong_records(
            n in 1usize..200,
            pos_seed in proptest::prelude::any::<u64>(),
            mask in 1u8..=255u8,
        ) {
            let trace = sample_trace(n);
            let mut buf = Vec::new();
            write_binary(&mut buf, trace.iter().copied()).unwrap();
            let pos = (pos_seed % buf.len() as u64) as usize;
            buf[pos] ^= mask;
            match read_binary(buf.as_slice()) {
                Err(_) => {} // detected: the only acceptable loud outcome
                Ok(back) => proptest::prop_assert_eq!(
                    back, trace,
                    "undetected corruption at byte {} (mask {:#04x}) changed the records",
                    pos, mask
                ),
            }
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = TraceError::BadKind(9);
        assert!(e.to_string().contains('9'));
        let io_err = TraceError::from(io::Error::other("x"));
        assert!(std::error::Error::source(&io_err).is_some());
    }
}
