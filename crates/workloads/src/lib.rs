//! # workloads — deterministic synthetic benchmark suite
//!
//! The paper evaluates adaptive caching on 100 program/input pairs from
//! SPECcpu2000, MediaBench, MiBench, BioBench, pointer-intensive codes and
//! graphics applications, sampled with SimPoint. Those binaries and traces
//! are not redistributable, so this crate provides **shape-faithful
//! synthetic stand-ins**: each paper benchmark is mapped to a deterministic
//! generator that reproduces the *locality archetype* the paper attributes
//! to it (linear loops slightly larger than the cache, hot sets guarded by
//! frequency, shifting working sets, pointer chasing, phase alternation,
//! ...). The adaptive mechanism only ever observes the reference stream, so
//! these streams exercise exactly the same code paths.
//!
//! * [`Inst`] / [`InstKind`] — the trace record consumed by the CPU model,
//! * [`AccessPattern`] — composable data-access archetypes,
//! * [`MixSpec`] — instruction-mix weaving (ILP, branches, load/store mix),
//! * [`WorkloadSpec`] / [`TraceGen`] — a seeded, infinite instruction
//!   stream,
//! * [`Benchmark`], [`primary_suite`], [`extended_suite`] — the named
//!   benchmark configurations standing in for the paper's evaluation sets.
//!
//! # Example
//!
//! ```
//! use workloads::primary_suite;
//!
//! let suite = primary_suite();
//! assert_eq!(suite.len(), 26);
//! let art = suite.iter().find(|b| b.name == "art-1").unwrap();
//! let first_thousand: Vec<_> = art.spec.generator().take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
//! // Deterministic: regenerating gives the identical stream.
//! let again: Vec<_> = art.spec.generator().take(1000).collect();
//! assert_eq!(first_thousand, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inst;
mod mix;
pub mod packed;
mod pattern;
mod stack;
mod suite;
mod threshold;
mod zipf;

pub use inst::{Inst, InstKind};
pub use mix::{CodeSpec, MixSpec, SpecError, TraceGen, WorkloadSpec, LINE_BYTES};
pub use pattern::{AccessPattern, BasePattern, PatternState};
pub use stack::StackDistanceGen;
pub use suite::{extended_suite, primary_suite, Benchmark, Suite};
pub use zipf::Zipf;
